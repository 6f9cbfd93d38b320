import cmath
import math
import random
from fractions import Fraction

import pytest

from pseudoreal import (
    CycloNum,
    ExtendedMoebius,
    Poly,
    cyclic_pseudo_real_family,
    poly_gcd,
    resultant,
    roots_numeric,
    squarefree_decomposition,
)
from pseudoreal.errors import BothZeroError, ConditionViolationError, ConvergenceFailureError
from pseudoreal.polyring import ROOT_TOL, horner

from conftest import gauss, random_poly


def z():
    return Poly.x()


def one():
    return Poly.one()


def test_gcd_examples():
    i = CycloNum.i()
    assert poly_gcd(z() * z() - one(), z() - one()) == (z() - one())
    assert poly_gcd(z() * z() + one(), z() * z() - one()).degree == 0
    zi = z() - Poly.constant(i)
    g = poly_gcd(zi * zi * (z() + one()), zi * (z() - Poly.constant(2)))
    assert g == zi


def test_gcd_divides_both_exactly():
    rng = random.Random(42)
    for _ in range(25):
        a = random_poly(rng, rng.randint(1, 4))
        b = random_poly(rng, rng.randint(1, 4))
        c = random_poly(rng, rng.randint(0, 2))
        g = poly_gcd(a * c, b * c)
        assert ((a * c) % g).is_zero()
        assert ((b * c) % g).is_zero()
        if c.degree > 0:
            assert (g % c.monic()).is_zero() or g.degree >= c.degree


def test_gcd_of_zeros_raises():
    with pytest.raises(BothZeroError):
        poly_gcd(Poly.zero(), Poly.zero())


def test_resultant_examples():
    four = CycloNum.from_rational(4)
    assert resultant(z() * z() + one(), z() * z() - one(), 2, 2) == four
    assert resultant(z() - one(), z() - one(), 1, 1).is_zero()
    assert resultant(z(), one(), 1, 0) == CycloNum.one()
    assert resultant(z(), one(), 1, 1) == CycloNum.one()


def test_resultant_vanishes_iff_common_root():
    rng = random.Random(7)
    for _ in range(20):
        a = random_poly(rng, rng.randint(1, 3))
        b = random_poly(rng, rng.randint(1, 3))
        r = resultant(a, b)
        has_common = poly_gcd(a, b).degree > 0
        assert r.is_zero() == has_common
        shared = z() - Poly.constant(gauss(rng))
        assert resultant(a * shared, b * shared).is_zero()


def test_resultant_against_sympy():
    import sympy

    rng = random.Random(99)
    x = sympy.symbols("x")
    for _ in range(15):
        ac = [rng.randint(-5, 5) for _ in range(rng.randint(2, 5))]
        bc = [rng.randint(-5, 5) for _ in range(rng.randint(2, 5))]
        if not any(ac) or not any(bc):
            continue
        while ac and ac[-1] == 0:
            ac.pop()
        while bc and bc[-1] == 0:
            bc.pop()
        if len(ac) < 2 or len(bc) < 2:
            continue
        a = Poly([CycloNum.from_rational(c) for c in ac])
        b = Poly([CycloNum.from_rational(c) for c in bc])
        ours = resultant(a, b).as_rational()
        theirs = Fraction(int(sympy.resultant(
            sum(c * x**k for k, c in enumerate(ac)),
            sum(c * x**k for k, c in enumerate(bc)),
            x,
        )))
        # sympy's sign convention differs; magnitude and vanishing agree
        assert abs(ours) == abs(theirs)


def test_resultant_product_over_roots():
    # pins the convention: Res(p, q) = lc(p)^deg(q) * prod q(alpha_i)
    rng = random.Random(12)
    for _ in range(10):
        p = random_poly(rng, rng.randint(1, 3))
        q = random_poly(rng, rng.randint(1, 3))
        value = resultant(p, q).to_complex()
        prod = p.lead().to_complex() ** q.degree
        for root, mult in roots_numeric(p):
            prod *= horner(q.to_complex_coeffs(), root) ** mult
        assert abs(value - prod) <= 1e-6 * max(1.0, abs(value))


def test_substitute_power():
    i = CycloNum.i()
    assert (one() + z()).substitute_power(6) == Poly([1, 0, 0, 0, 0, 0, 1])
    p = Poly([1, 1, i]).substitute_power(6)
    assert p.degree == 12 and p.coeff(12) == i and p.coeff(6) == CycloNum.one()
    const = Poly.constant(gauss(random.Random(3)))
    assert const.substitute_power(6) == const


def test_substitute_power_multiplicative():
    rng = random.Random(11)
    for _ in range(10):
        p = random_poly(rng, rng.randint(1, 3))
        q = random_poly(rng, rng.randint(1, 3))
        n = rng.randint(2, 4)
        assert (p * q).substitute_power(n) == p.substitute_power(n) * q.substitute_power(n)


def test_conj_poly():
    i = CycloNum.i()
    p = Poly([1, 0, i])
    assert p.conj() == Poly([1, 0, -i])
    real = Poly([0, 2, 0, 1])
    assert real.conj() == real
    rng = random.Random(17)
    for _ in range(10):
        a = random_poly(rng, 3)
        b = random_poly(rng, 2)
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def test_roots_simple():
    roots = roots_numeric(z() ** 3 - z())
    pts = sorted((round(r.real, 9), round(r.imag, 9), m) for r, m in roots)
    assert pts == [(-1.0, 0.0, 1), (0.0, 0.0, 1), (1.0, 0.0, 1)]


def test_roots_multiplicity():
    i = CycloNum.i()
    roots = roots_numeric((z() - Poly.constant(i)) ** 2)
    assert len(roots) == 1
    root, mult = roots[0]
    assert mult == 2 and abs(root - 1j) < 1e-10


def test_roots_count_matches_degree():
    rng = random.Random(23)
    for _ in range(10):
        p = random_poly(rng, rng.randint(2, 7))
        roots = roots_numeric(p)
        assert sum(m for _, m in roots) == p.degree


def test_roots_against_numpy():
    import numpy as np

    rng = random.Random(31)
    for _ in range(10):
        p = random_poly(rng, rng.randint(2, 8))
        ours = sorted(
            (round(r.real, 6), round(r.imag, 6)) for r, m in roots_numeric(p) for _ in range(m)
        )
        theirs = sorted(
            (round(r.real, 6), round(r.imag, 6))
            for r in np.roots(list(reversed(p.to_complex_coeffs())))
        )
        for a, b in zip(ours, theirs):
            assert abs(complex(*a) - complex(*b)) < 1e-4


def test_residual_bound_on_unit_scale_roots():
    # residual property at the documented tolerance, on maps whose roots
    # stay near the unit disc
    rng = random.Random(37)
    for _ in range(10):
        p = random_poly(rng, 5)
        bound = ROOT_TOL * (1 + max(abs(c.to_complex()) for c in p.coeffs))
        for root, _ in roots_numeric(p):
            if abs(root) <= 1.5:
                assert abs(horner(p.to_complex_coeffs(), root)) <= 10 * bound


def test_yun_decomposition_reconstructs():
    rng = random.Random(41)
    for _ in range(10):
        f1 = random_poly(rng, 2).monic()
        f2 = random_poly(rng, 1).monic()
        product = f1 * f2 * f2 * f2
        rebuilt = Poly.one()
        for factor, mult in squarefree_decomposition(product):
            rebuilt = rebuilt * factor**mult
        assert rebuilt == product.monic()


def test_high_multiplicity_roots_stay_accurate():
    p = (z() - one()) ** 12 * (z() + Poly.constant(2))
    roots = roots_numeric(p)
    for root, mult in roots:
        if mult == 12:
            assert abs(root - 1) < 1e-10
        else:
            assert abs(root + 2) < 1e-10


def test_roots_numeric_rejects_nonfinite_roots():
    # a degree-21 member of the rotation family, conjugated by a Gaussian-
    # integer Moebius map: the Aberth iteration on the factors of its
    # critical polynomial ends in NaN, and NaN passes no residual bound
    i = CycloNum.i()
    base = cyclic_pseudo_real_family(10, 2, -i, [2, 2 + i, 2 + i])
    scrambler = ExtendedMoebius(-1 + 3 * i, 1 - i, -2 + 2 * i, 2 + 2 * i)
    phi = base.conjugate_by(scrambler)
    assert phi.degree == 21
    with pytest.raises(ConvergenceFailureError):
        roots_numeric(phi.critical_polynomial())


# the scalar root finder that the array iteration replaced, kept as an
# oracle: one Python loop per root, Horner on p and on p' separately


def _scalar_aberth(coeffs, max_iter=400):
    n = len(coeffs) - 1
    if n == 1:
        return [-coeffs[0] / coeffs[1]]
    lead = coeffs[-1]
    a = [c / lead for c in coeffs]
    if n == 2:
        b, c = a[1], a[0]
        disc = cmath.sqrt(b * b - 4 * c)
        r1 = (-b - disc) / 2 if abs(b + disc) < abs(b - disc) else (-b + disc) / 2
        r2 = c / r1 if r1 != 0 else -b - r1
        return [r1, r2]
    radius = 1.0 + max(abs(c) for c in a[:-1])
    roots = [0.9 * radius * cmath.exp(2j * math.pi * (k / n + 0.2632)) for k in range(n)]
    deriv = [k * a[k] for k in range(1, n + 1)]
    for _ in range(max_iter):
        moved = 0.0
        new = list(roots)
        for j, z in enumerate(roots):
            pz = horner(a, z)
            dz = horner(deriv, z)
            if dz == 0:
                new[j] = z * (1 + 1e-8) + 1e-8
                moved = math.inf
                continue
            w = pz / dz
            s = 0j
            for k, other in enumerate(roots):
                if k != j:
                    diff = z - other
                    if diff == 0:
                        diff = 1e-20
                    s += 1.0 / diff
            denom = 1.0 - w * s
            step = w / denom if denom != 0 else w
            new[j] = z - step
            moved = max(moved, abs(step) / (1.0 + abs(z)))
        roots = new
        if moved < 1e-15:
            break
    return roots


def _scalar_polish(cs, z, rounds=3):
    deriv = [k * c for k, c in enumerate(cs)][1:]
    for _ in range(rounds):
        d = horner(deriv, z)
        if d == 0:
            break
        z = z - horner(cs, z) / d
    return z


def _scalar_roots(p, factors):
    out = []
    for factor, mult in factors:
        cs = factor.to_complex_coeffs()
        t = 0
        while abs(cs[0]) == 0.0 and len(cs) > 1:
            cs.pop(0)
            t += 1
        if t:
            out.append((0j, t * mult))
        if len(cs) > 1:
            out += [(_scalar_polish(cs, r), mult) for r in _scalar_aberth(cs)]
    assert all(cmath.isfinite(r) for r, _ in out)
    coeffs = p.to_complex_coeffs()
    for root, _ in out:
        cond = 0.0
        power = 1.0
        for c in coeffs:
            cond += abs(c) * power
            power *= abs(root)
        assert abs(horner(coeffs, root)) <= ROOT_TOL * (1.0 + cond)
    return out


def _zeta8_poly(rng, degree):
    def coeff():
        return CycloNum(8, [rng.randint(-2, 2) for _ in range(4)])

    lead = coeff()
    while lead.is_zero():
        lead = coeff()
    return Poly([coeff() for _ in range(degree)] + [lead])


def _oracle_polys():
    """Seeded squarefree polynomials over Q(i) and Q(zeta_8) of degree 3-16,
    and the Wronskians and fixed-point polynomials of seeded rotation-family
    maps, of degree up to 80."""
    rng = random.Random(1203)
    polys = []
    for k in range(200):
        degree = rng.randint(3, 16 if k % 4 == 0 else 8)
        polys.append(random_poly(rng, degree) if k % 2 else _zeta8_poly(rng, degree))
    for n, r in ((6, 2), (8, 2), (10, 2), (6, 4), (10, 4)):
        while True:
            coeffs = [gauss(rng, 2) for _ in range(r + 1)]
            try:
                phi = cyclic_pseudo_real_family(n, r, CycloNum.i(), coeffs)
                break
            except ConditionViolationError:
                continue
        polys += [phi.critical_polynomial(), phi.fixed_point_polynomial()]
    return polys


def test_array_aberth_matches_the_scalar_iteration():
    polys = _oracle_polys()
    assert max(p.degree for p in polys) == 80
    squarefree = 0
    for p in polys:
        factors = squarefree_decomposition(p)
        squarefree += [m for _, m in factors] == [1]
        ours = roots_numeric(p)
        assert all(type(r) is complex for r, _ in ours)
        assert sum(m for _, m in ours) == p.degree
        reference = _scalar_roots(p, factors)
        assert len(ours) == len(reference)
        # one to one: each reference root takes the nearest unused root
        unused = list(ours)
        for r, mult in reference:
            k = min(range(len(unused)), key=lambda j: abs(unused[j][0] - r))
            root, m = unused.pop(k)
            assert m == mult
            assert abs(root - r) <= 1e-9 * (1 + abs(r)), (p, r, root)
    assert squarefree >= 200


def test_reprs_show_the_expression_text():
    from pseudoreal import RationalMap, silverman
    from pseudoreal.cli import parse_map_expr

    i = CycloNum.i()
    assert repr(CycloNum.zeta(8, 3) * 3) == "CycloNum(8, '3*w(8,3)')"
    p = Poly([1, i, 0, 1 - 2 * i])
    assert repr(p) == "Poly(1+i*z+(1-2*i)*z^3)"
    assert repr(Poly.zero()) == "Poly(0)"
    assert repr(silverman(3)) == (
        "RationalMap((-i+3*i*z+(-3*i)*z^2+i*z^3)/(1+3*z+3*z^2+z^3), degree=3)"
    )
    assert repr(RationalMap.reduce(p, Poly.one())) == f"RationalMap({p.to_expr()}, degree=3)"
    assert repr(ExtendedMoebius(i, 1, 0, 1)) == "ExtendedMoebius([[i, 1], [0, 1]], holo)"
    numeric = ExtendedMoebius(0.5j, 1, 0, 2, antiholo=True)
    assert repr(numeric) == "ExtendedMoebius([[0+0.5j, 1+0j], [0+0j, 2+0j]], antiholo)"
    # the text is the expression grammar: it parses back to the polynomial
    w8 = CycloNum.zeta(8)
    for q in (p, Poly([0, -1]), Poly([Fraction(-1, 3), 0, w8 + 1, -w8]), Poly([-i])):
        assert parse_map_expr(q.to_expr()).numer == q


def _schoolbook(a, b):
    """a * b by the full double loop, in the lcm field."""
    m = math.lcm(a.order, b.order)
    out = [CycloNum.zero(m)] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for j, x in enumerate(a.coeffs):
        for k, y in enumerate(b.coeffs):
            out[j + k] = out[j + k] + x.rebase(m) * y.rebase(m)
    return Poly(out, m)


def _same(p, q):
    return p.order == q.order and p.coeffs == q.coeffs


def test_products_by_constants_and_monomial_powers_match_the_schoolbook():
    rng = random.Random(7)
    for _ in range(30):
        p = random_poly(rng, rng.randint(0, 6))
        c = Poly([CycloNum.zeta(rng.choice((1, 3, 8, 12)), rng.randint(0, 11))
                  * rng.randint(-3, 3)])
        for a, b in ((p, c), (c, p), (c, c), (p, Poly.zero(8)), (Poly.zero(3), p)):
            assert _same(a * b, _schoolbook(a, b))
        k, e = rng.randint(0, 4), rng.randint(0, 5)
        monomial = Poly([CycloNum.zero(4)] * k + [gauss(rng) + CycloNum.zeta(3)])
        expected = Poly.one(monomial.order)
        for _ in range(e):
            expected = _schoolbook(expected, monomial)
        assert _same(monomial**e, expected)
    assert _same(Poly.zero(8) ** 0, Poly.one(8))
    assert _same(Poly.zero(8) ** 3, Poly.zero(8))
