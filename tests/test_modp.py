import random
import sys
from fractions import Fraction

import pytest
import sympy

from pseudoreal import CycloNum, Poly, RationalMap, poly_gcd, silverman, squarefree_decomposition
from pseudoreal import modp, polyring
from pseudoreal.cli import parse_map_expr
from pseudoreal.cyclotomic import euler_phi

from conftest import random_poly

FIELDS = (1, 4, 8, 12, 20, 24)


def test_miller_rabin_agrees_with_sympy():
    rng = random.Random(5)
    # Carmichael numbers and strong pseudoprimes to several small bases
    tricky = [561, 1105, 1729, 2047, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461]
    ns = list(range(-2, 3000)) + tricky
    ns += [rng.randrange(2**31, 2**62) for _ in range(300)]
    ns += [p * q for p, q in ((2147483659, 2147483693), (65537, 4294967311))]
    for n in ns:
        assert modp.is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("m", FIELDS + (3, 5, 7, 9, 16, 60))
def test_prime_for_gives_a_root_of_exact_order(m):
    p, w = modp.prime_for(m)
    assert sympy.isprime(p) and p > modp.PRIME_FLOOR and (p - 1) % m == 0
    assert sympy.n_order(w, p) == m if m > 1 else w == 1


def _random_cyclo(rng, m):
    """A random element of Q(zeta_m) with small numerators and denominators."""
    return CycloNum(m, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(euler_phi(m))])


def _random_poly(rng, m, degree):
    lead = _random_cyclo(rng, m)
    while lead.is_zero():
        lead = _random_cyclo(rng, m)
    return Poly([_random_cyclo(rng, m) for _ in range(degree)] + [lead], m)


def _seeded_pairs():
    """(f, g, planted) over several fields: coprime draws, and pairs that
    share a planted factor of positive degree."""
    rng = random.Random(18)
    out = []
    for m in FIELDS:
        # degrees up to 20, and up to 10 where phi(m) = 8 makes the exact
        # gcd slow
        top = 80 // max(4, euler_phi(m))
        for _ in range(4):
            f = _random_poly(rng, m, rng.randint(1, top))
            g = _random_poly(rng, m, rng.randint(0, top))
            out.append((f, g, False))
            h = _random_poly(rng, m, rng.randint(1, 3))
            out.append((f * h, g * h, True))
    return out


def test_coprime_mod_p_is_a_certificate():
    for f, g, planted in _seeded_pairs():
        verdict = modp.coprime_mod_p(f, g)
        coprime = poly_gcd(f, g).degree == 0
        assert coprime != planted
        if verdict:
            assert coprime
        if coprime:
            # a bad prime among these draws would be a 1-in-10^8 event
            assert verdict


def test_coprime_mod_p_leaves_zero_sides_undecided():
    f = Poly([1, 1])
    assert not modp.coprime_mod_p(f, Poly.zero())
    assert not modp.coprime_mod_p(Poly.zero(), f)
    assert modp.coprime_mod_p(f, Poly.one())


def _gaussian_poly(*pairs):
    return Poly([CycloNum.gaussian(Fraction(re), Fraction(im)) for re, im in pairs])


# over Q(i): 5 = (2+i)(2-i) and w = 2 has order 4 mod 5; 13 = (3+2i)(3-2i)
# and w = 5 has order 4 mod 13, which sends 3+2i to 13 = 0
BAD_DENOMINATOR = (5, 2)
BAD_LEAD = (13, 5)


def _bad_prime_inputs():
    # (z - 1/5)(z - i) times (z + 2), so f and f' share nothing, and the
    # coefficients carry the denominator 5
    f = _gaussian_poly((0, 1), (1, 0)) * _gaussian_poly((Fraction(-1, 5), 0), (1, 0))
    f = f * Poly([2, 1])
    # a leading coefficient that vanishes at zeta -> 5 mod 13
    g = _gaussian_poly((1, 0), (0, 0), (3, 2))
    return f, g


def _count_gcd_calls(monkeypatch):
    """The frames of the exact remainder sequences that run from now on,
    one per run.  Only the exact path strips rational content, so each
    ``strip_rational_content`` call is counted against the frame of the
    ``poly_gcd`` that made it; holding the frames keeps their ids apart."""
    frames = []
    real_strip = polyring.strip_rational_content

    def counted(p):
        caller = sys._getframe(1)
        if not any(f is caller for f in frames):
            frames.append(caller)
        return real_strip(p)

    monkeypatch.setattr(polyring, "strip_rational_content", counted)
    return frames


@pytest.mark.parametrize("bad", [BAD_DENOMINATOR, BAD_LEAD])
def test_a_bad_prime_answers_false_and_the_exact_path_runs(monkeypatch, bad):
    f, g = _bad_prime_inputs()
    victim = f if bad == BAD_DENOMINATOR else g
    inputs = [victim, victim * victim * Poly([1, 0, 1])]
    pairs = [(f, g), (f * g, f * Poly([1, 3]))]
    decompositions = [squarefree_decomposition(p) for p in inputs]
    maps = [RationalMap.reduce(p, q) for p, q in pairs]
    assert modp.coprime_mod_p(victim, victim.derivative())
    assert modp.coprime_mod_p(f, g)

    monkeypatch.setattr(modp, "prime_for", lambda m: bad)
    assert modp.image(victim) is None
    assert not modp.coprime_mod_p(victim, victim.derivative())
    assert not modp.coprime_mod_p(f, g)
    calls = _count_gcd_calls(monkeypatch)
    assert [squarefree_decomposition(p) for p in inputs] == decompositions
    assert [RationalMap.reduce(p, q) for p, q in pairs] == maps
    assert len(calls) >= len(inputs) + len(pairs)


def test_dense_map_makes_no_exact_gcd_calls(monkeypatch):
    rng = random.Random(16)
    phi = RationalMap.reduce(random_poly(rng, 16), random_poly(rng, 16))
    assert phi.degree == 16
    text = phi.to_expr()
    calls = _count_gcd_calls(monkeypatch)
    assert parse_map_expr(text) == phi
    for poly in (phi.fixed_point_polynomial(), phi.critical_polynomial()):
        assert squarefree_decomposition(poly) == [(poly.monic(), 1)]
    assert calls == []


def test_silverman_wronskian_keeps_the_exact_path(monkeypatch):
    calls = _count_gcd_calls(monkeypatch)
    for d in (7, 25):
        crit = silverman(d).critical_polynomial()
        calls.clear()
        # the Wronskian of i((z-1)/(z+1))^d is 2 i d (z^2 - 1)^(d-1): the
        # exact gcd of f and f' finds (z^2 - 1)^(d-2), and every later gcd
        # of Yun's loop is certified 1 modulo a prime
        assert squarefree_decomposition(crit) == [(Poly([-1, 0, 1]), d - 1)]
        assert len(calls) == 1, d
