import math
import random
from fractions import Fraction

import pytest

from pseudoreal import CycloNum
from pseudoreal.cyclotomic import cyclotomic_polynomial, euler_phi, lift
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
    got = lift(1j, [8, 4], lambda v: v == i)
    assert got.order == 8 and got == i
    assert got.to_expr() == "w(8,2)"
    got = lift(1j, [4, 8], lambda v: v == i)
    assert got.order == 4 and got.coords == CycloNum.i().coords
    assert got.to_expr() == "i"
