import functools
import math
import random
from fractions import Fraction

import pytest
import sympy

from pseudoreal import CycloNum
from pseudoreal.cli import parse_constant
from pseudoreal.cyclotomic import cyclotomic_polynomial, euler_phi, fold_power_relations, lift
from pseudoreal.errors import NotASubfieldError

from conftest import gauss


def test_difference_of_squares_in_gaussian_field():
    i = CycloNum.i()
    one = CycloNum.one()
    assert (one + i) * (one - i) == CycloNum.from_rational(2)


def test_sixth_roots_sum_to_one():
    # 2 cos(pi/3) = 1
    v = CycloNum.zeta(6, 1) + CycloNum.zeta(6, 5)
    assert v == CycloNum.one()
    assert abs(v.to_complex() - 1.0) < 1e-14


def test_root_of_unity_inverse():
    assert CycloNum.one() / CycloNum.zeta(8, 1) == CycloNum.zeta(8, 7)


def test_conjugation_examples():
    i = CycloNum.i()
    assert i.conj() == -i
    assert CycloNum.zeta(6, 1).conj() == CycloNum.zeta(6, 5)
    q = CycloNum.from_rational(Fraction(2, 3))
    assert q.conj() == q


def test_half_turn_and_golden_embedding():
    assert CycloNum.zeta(12, 6) == CycloNum.from_rational(-1)
    v = CycloNum.zeta(5, 1) + CycloNum.zeta(5, 4)
    assert abs(v.to_complex() - (math.sqrt(5) - 1) / 2) < 1e-12


def test_rebase_examples():
    i = CycloNum.i()
    assert i.rebase(12) == CycloNum.zeta(12, 3)
    half = CycloNum.from_rational(Fraction(1, 2))
    for m in (1, 2, 6, 8, 20):
        assert half.rebase(m) == half
    assert CycloNum.zeta(6, 1).rebase(12) == CycloNum.zeta(12, 2)
    with pytest.raises(NotASubfieldError):
        CycloNum.zeta(8, 1).rebase(12)


def test_unimodular_examples():
    i = CycloNum.i()
    assert i.is_unimodular()
    assert not (CycloNum.one() + i).is_unimodular()
    assert CycloNum.zeta(12, 5).is_unimodular()


def test_field_arith_strict_mode():
    i = CycloNum.i()
    w6 = CycloNum.zeta(6, 1)
    assert i * i == CycloNum.from_rational(-1)
    # after rebasing both into the lcm field the operation goes through
    assert i.rebase(12) * w6.rebase(12) == CycloNum.zeta(12, 5)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycloNum.one() / CycloNum.zero()


def test_field_axioms_on_random_samples():
    rng = random.Random(1001)
    for m in (1, 2, 3, 4, 8, 12, 20):
        deg = euler_phi(m)
        for _ in range(25):
            a = CycloNum(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg)])
            b = CycloNum(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg)])
            c = CycloNum(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg)])
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inv() == CycloNum.one(m)


def test_conj_is_involutive_field_automorphism():
    rng = random.Random(77)
    for _ in range(50):
        a = gauss(rng).rebase(12)
        b = gauss(rng).rebase(12) * CycloNum.zeta(12, rng.randrange(12))
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def test_roots_of_unity_power_and_modulus():
    for m in (1, 2, 3, 4, 5, 6, 8, 9, 12, 20):
        for k in range(m):
            w = CycloNum.zeta(m, k)
            assert (w ** m).is_one()
            assert w.is_unimodular()


def test_float_embedding_is_ring_homomorphism():
    rng = random.Random(13)
    for m in (4, 8, 12):
        deg = euler_phi(m)
        for _ in range(30):
            a = CycloNum(m, [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 100)) for _ in range(deg)])
            b = CycloNum(m, [Fraction(rng.randint(-100, 100)) for _ in range(deg)])
            scale = max(1.0, abs(a.to_complex()) * abs(b.to_complex()))
            assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) <= 1e-12 * scale
            assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) <= 1e-12 * scale


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # prime p: 1 + x + ... + x^(p-1)
    assert cyclotomic_polynomial(7) == (1,) * 7


def test_expression_text_round_trip():
    from pseudoreal.cli import parse_constant

    rng = random.Random(5)
    for _ in range(20):
        v = gauss(rng) * CycloNum.zeta(12, rng.randrange(12))
        assert parse_constant(v.to_expr()) == v


def test_lift_returns_none_when_no_candidate_passes():
    assert lift(1j, [4, 8, 12], lambda v: False) is None
    # sqrt(2) is not in Q(i), so no candidate squares to 2 there
    assert lift(math.sqrt(2), [4], lambda v: v * v == 2) is None
    assert lift((0.5, 1j), [4, 8], lambda pair: pair[0] == pair[1]) is None


def test_lift_result_passes_the_check():
    rng = random.Random(7)
    for _ in range(30):
        if rng.random() < 0.5:
            exact = gauss(rng)
        else:
            q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            exact = q * CycloNum.zeta(8, rng.randrange(8))
        noise = complex(rng.uniform(-1e-9, 1e-9), rng.uniform(-1e-9, 1e-9))
        noisy = exact.to_complex() + noise

        def check(v):
            return v == exact

        got = lift(noisy, [4, 8], check)
        assert got is not None and check(got)
    # candidates the check rejects are skipped, on to the next field

    def in_zeta8(v):
        return v.order == 8

    got = lift(1j, [4, 8], in_zeta8)
    assert got is not None and in_zeta8(got) and got == CycloNum.i()
    half, i = CycloNum.from_rational(Fraction(1, 2)), CycloNum.i()

    def joint(pair):
        return pair[0] * 2 == 1 and pair[1] * pair[1] == -1

    got = lift((0.5, 1j), [4], joint)
    assert got is not None and joint(got)
    assert got[0] == half and got[1] == i


def test_lift_first_field_in_order_wins():
    i = CycloNum.i()
    # the try order decides which field stores the value, not how it prints
    got = lift(1j, [8, 4], lambda v: v == i)
    assert got.order == 8 and got == i
    assert got.to_expr() == "i"
    got = lift(1j, [4, 8], lambda v: v == i)
    assert got.order == 4 and got.coords == CycloNum.i().coords
    assert got.to_expr() == "i"



def test_fold_power_relations_term_form():
    i, w8 = CycloNum.i(), CycloNum.zeta(8)
    # one term relates nothing: any nonzero x works
    g, w = fold_power_relations([(3, i)])
    assert g == 0 and w.is_one()
    # v * x^e equal across terms: i x^1 = x^3 says x^2 = i
    assert fold_power_relations([(1, i), (3, CycloNum.one(4))]) == (2, i)
    # a repeated exponent folds when its values agree, and is
    # inconsistent when they differ
    assert fold_power_relations([(1, i), (3, CycloNum.one(4)), (1, i)]) == (2, i)
    assert fold_power_relations([(1, i), (3, CycloNum.one(4)), (1, -i)]) is None
    assert fold_power_relations([(2, i), (2, i)])[0] == 0
    assert fold_power_relations([(2, i), (2, -i)]) is None
    # x = zeta_16 makes v * x^e = 1 for these terms; anchored at e = 2 the
    # differences are 4 and -2, and they fold to x^2 = zeta_8
    terms = [(2, w8.inv()), (6, w8 ** -3), (0, CycloNum.one(8))]
    assert fold_power_relations(terms) == (2, w8)
    assert fold_power_relations(terms[:2] + [(0, w8)]) is None

# -- oracle: schoolbook Fraction arithmetic over the power basis -------------
#
# An element is (m, coordinate tuple of Fractions).  This is the earlier
# representation of CycloNum, kept here as the reference for the integer one.

ORACLE_ORDERS = (1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24)


def _ref_reduce(m, raw):
    deg, phi_m = euler_phi(m), cyclotomic_polynomial(m)
    raw = list(raw) + [Fraction(0)] * (deg - len(raw))
    for k in range(len(raw) - 1, deg - 1, -1):
        for j in range(deg):
            raw[k - deg + j] -= raw[k] * phi_m[j]
    return tuple(raw[:deg])


def _ref_mul(m, a, b):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            conv[j + k] += x * y
    return _ref_reduce(m, conv)


def _ref_image(m, a, new_m, step):
    """zeta_m^j -> zeta_new_m^(j*step); rebase for step = new_m/m, conj for -1."""
    out = (Fraction(0),) * euler_phi(new_m)
    for j, c in enumerate(a):
        row = _ref_reduce(new_m, [Fraction(0)] * ((j * step) % new_m) + [Fraction(1)])
        out = tuple(x + c * y for x, y in zip(out, row))
    return out


def _ref_inv(m, a):
    # extended Euclid over Q[x]: s * a = r (mod Phi_m) for every remainder r
    def trim(p):
        while p and p[-1] == 0:
            p = p[:-1]
        return p

    r0, s0 = [Fraction(c) for c in cyclotomic_polynomial(m)], []
    r1, s1 = trim(list(a)), [Fraction(1)]
    while len(r1) > 1:
        while len(r0) >= len(r1):
            q, shift = r0[-1] / r1[-1], len(r0) - len(r1)
            r0 = trim([x - q * (r1[k - shift] if 0 <= k - shift < len(r1) else 0)
                       for k, x in enumerate(r0)])
            n = max(len(s0), len(s1) + shift)
            s0 = [(s0[k] if k < len(s0) else 0)
                  - q * (s1[k - shift] if 0 <= k - shift < len(s1) else 0) for k in range(n)]
        r0, s0, r1, s1 = r1, s1, r0, s0
    return _ref_reduce(m, [x / r1[0] for x in s1])


def _ref_complex(m, a):
    total = 0j
    for j, c in enumerate(a):
        if c:
            total += float(c) * complex(math.cos(2.0 * math.pi * j / m),
                                        math.sin(2.0 * math.pi * j / m))
    return total


def _ref_expr(m, a):
    def text(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    terms = []
    for j, c in enumerate(a):
        if c == 0:
            continue
        root = "i" if m == 4 and j == 1 else f"w({m},{j})"
        terms.append(text(c) if j == 0 else root if c == 1 else f"-{root}" if c == -1
                     else f"{text(c)}*{root}")
    return "".join(t if k == 0 or t.startswith("-") else "+" + t
                   for k, t in enumerate(terms)) or "0"


# -- oracle: the least cyclotomic field, by a sympy rational solve ------------


@functools.lru_cache(maxsize=None)
def _ref_embedding(m, k):
    """The matrix of zeta_k -> zeta_m^(m/k) over the power bases, with the
    images reduced by sympy's cyclotomic polynomial."""
    x = sympy.symbols("x")
    phi_m = sympy.Poly(sympy.cyclotomic_poly(m, x), x)
    cols = []
    for j in range(int(sympy.totient(k))):
        rem = sympy.Poly(x ** (j * (m // k)), x).rem(phi_m).all_coeffs()[::-1]
        cols.append(rem + [0] * (phi_m.degree() - len(rem)))
    return sympy.Matrix(cols).T


def _ref_least_field(m, a):
    """(k, coordinates over Q(zeta_k)) of the least field that to_expr
    prints a in: Q as k = 1 when a is rational, else the least even k < m,
    k | m, whose embedding has a rational solution, else (m, a)."""
    if all(c == 0 for c in a[1:]):
        return 1, (a[0],)
    rhs = sympy.Matrix([sympy.Rational(c.numerator, c.denominator) for c in a])
    for k in range(4, m, 2):
        if m % k == 0:
            for sol in sympy.linsolve((_ref_embedding(m, k), rhs)):
                return k, tuple(Fraction(int(v.p), int(v.q)) for v in sol)
    return m, tuple(a)


def _random_coords(rng, m):
    big = rng.random() < 0.2
    out = []
    for _ in range(euler_phi(m)):
        if rng.random() < 0.3:
            out.append(Fraction(0))
        elif big:
            out.append(Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9)))
        else:
            out.append(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 12))))
    return tuple(out)


def _agrees(x, m, ref):
    """x equals the reference element and is in canonical form."""
    assert x.order == m and x.coords == ref
    assert all(type(v) is int for v in x.num) and type(x.den) is int and x.den > 0
    assert math.gcd(*x.num, x.den) == 1
    if not any(x.num):
        assert x.den == 1
    return True


@pytest.mark.parametrize("m", ORACLE_ORDERS)
def test_integer_arithmetic_matches_fraction_oracle(m):
    rng = random.Random(9000 + m)
    for _ in range(12):
        a, b = _random_coords(rng, m), _random_coords(rng, m)
        x, y = CycloNum(m, a), CycloNum(m, b)
        assert _agrees(x, m, a) and _agrees(y, m, b)
        assert _agrees(x + y, m, tuple(p + q for p, q in zip(a, b)))
        assert _agrees(x - y, m, tuple(p - q for p, q in zip(a, b)))
        assert _agrees(-x, m, tuple(-p for p in a))
        assert _agrees(x * y, m, _ref_mul(m, a, b))
        assert _agrees(x * 3, m, tuple(3 * p for p in a))
        assert _agrees(x.conj(), m, _ref_image(m, a, m, -1))
        cube = _ref_mul(m, _ref_mul(m, a, a), a)
        assert _agrees(x ** 3, m, cube)
        assert _agrees(x ** 0, m, _ref_reduce(m, [Fraction(1)]))
        if any(b):
            assert _agrees(y.inv(), m, _ref_inv(m, b))
            assert _agrees(x / y, m, _ref_mul(m, a, _ref_inv(m, b)))
            assert _agrees(y ** -2, m, _ref_mul(m, _ref_inv(m, b), _ref_inv(m, b)))
        else:
            with pytest.raises(ZeroDivisionError):
                y.inv()
        for k in (2, 3):
            big = m * k
            assert _agrees(x.rebase(big), big, _ref_image(m, a, big, k))
        assert x.to_expr() == _ref_expr(*_ref_least_field(m, a))
        got, want = x.to_complex(), _ref_complex(m, a)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    assert _agrees(CycloNum.zero(m), m, (Fraction(0),) * euler_phi(m))
    assert _agrees(CycloNum(m, [Fraction(0)] * euler_phi(m)), m, (Fraction(0),) * euler_phi(m))
    x = CycloNum(m, _random_coords(rng, m))
    assert _agrees(x - x, m, (Fraction(0),) * euler_phi(m))


@pytest.mark.parametrize("m", (8, 12, 16, 20, 24))
def test_to_expr_prints_over_the_least_field(m):
    rng = random.Random(7100 + m)
    for k in [d for d in range(1, m + 1) if m % d == 0]:
        for _ in range(4):
            x = CycloNum(k, _random_coords(rng, k)).rebase(m)
            least, coords = _ref_least_field(m, x.coords)
            # Q(zeta_k) holds x, and Q(zeta_2k) is the same field for odd k
            assert (2 * k) % least == 0
            assert x.to_expr() == _ref_expr(least, coords)
            assert parse_constant(x.to_expr()) == x


def test_mixed_field_equality_matches_fraction_oracle():
    rng = random.Random(4242)
    for _ in range(60):
        m, n = rng.choice(ORACLE_ORDERS), rng.choice(ORACLE_ORDERS)
        a = _random_coords(rng, m)
        big = math.lcm(m, n)
        lifted = _ref_image(m, a, big, big // m)
        x = CycloNum(m, a)
        # the same value presented in another field, and a perturbed one
        same = CycloNum(big, lifted)
        other = CycloNum(n, _random_coords(rng, n))
        ref_other = _ref_image(n, other.coords, big, big // n)
        assert x == same and same == x
        assert (x == other) == (lifted == ref_other)
        if all(c == 0 for c in a[1:]):
            assert x == a[0]
        assert _agrees(x + other, big, tuple(p + q for p, q in zip(lifted, ref_other)))


def test_field_arithmetic_builds_no_fraction(monkeypatch):
    rng = random.Random(24)
    xs = [CycloNum(24, _random_coords(rng, 24)) for _ in range(10)]
    xs = [x for x in xs if not x.is_zero()]
    small = [CycloNum(m, _random_coords(rng, m)) for m in (1, 3, 4, 8, 12)]
    built = []
    for name in ("__new__", "_from_coprime_ints"):
        original = Fraction.__dict__.get(name)
        if original is None:
            continue
        inner = original.__func__

        def counting(*args, _inner=inner, **kwargs):
            built.append(1)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(Fraction, name, type(original)(counting))
    for x, y in zip(xs, xs[1:]):
        (x * y, x + y, x - y, x * 2 - 1, x.inv(), x / y, x ** 3, x ** -1, x.conj(),
         x == y, x.is_unimodular())
    for s in small:
        (s.rebase(24), s + xs[0], s * xs[0])
    monkeypatch.undo()
    assert built == []
