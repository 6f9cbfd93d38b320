import random

import pytest

from pseudoreal import (
    CycloNum,
    ExtendedMoebius,
    Poly,
    RationalMap,
    canonicalize_cyclic,
    classify_map,
    cyclic_pseudo_real_family,
    quotient_map,
    sample_degree13,
    silverman,
    verify_automorphism_exact,
    verify_semiconjugacy,
)
from pseudoreal.classify import PSEUDO_REAL
from pseudoreal.errors import BadDegreeError, ConditionViolationError

from conftest import gauss


def test_silverman_expansion():
    s3 = silverman(3)
    i = CycloNum.i()
    assert list(s3.numer.padded(4)) == [-i, 3 * i, -3 * i, i]
    assert [c.as_rational() for c in s3.denom.padded(4)] == [1, 3, 3, 1]


def test_silverman_orbit_start_and_degree():
    for d in (3, 5, 7):
        s = silverman(d)
        assert s.degree == d
        assert s.evaluate(CycloNum.one()).is_zero()
        assert verify_automorphism_exact(s, ExtendedMoebius.antipodal())


def test_silverman_critical_points():
    for d in (3, 5):
        crit = [p for p in silverman(d).distinguished_points() if p.crit_mult > 0]
        assert len(crit) == 2
        assert sorted(round(p.point.real) for p in crit) == [-1, 1]
        assert all(p.crit_mult == d - 1 for p in crit)


def test_silverman_rejects_bad_degree():
    for d in (2, 4, 1):
        with pytest.raises(BadDegreeError):
            silverman(d)


def test_sample_degree13_matches_display_form():
    from pseudoreal.cli import parse_map_expr

    phi = sample_degree13()
    assert phi.degree == 13
    display = parse_map_expr("z*(1+z^6+i*z^12)/(-i-z^6+z^12)")
    assert phi.equals_projective(display)


def test_family_rejects_real_product():
    i = CycloNum.i()
    with pytest.raises(ConditionViolationError):
        cyclic_pseudo_real_family(6, 2, CycloNum.one(4), [1, 1, 1])
    with pytest.raises(ConditionViolationError):
        cyclic_pseudo_real_family(6, 2, CycloNum.one(4), [1, 0, i])  # a_1 = 0
    with pytest.raises(ConditionViolationError):
        cyclic_pseudo_real_family(4, 2, CycloNum.one(4), [1, 1, i])  # n < 6
    with pytest.raises(ConditionViolationError):
        cyclic_pseudo_real_family(6, 3, CycloNum.one(4), [1, 1, 1, i])  # odd r


def test_family_construction_properties():
    i = CycloNum.i()
    phi = cyclic_pseudo_real_family(8, 2, CycloNum.one(4), [CycloNum.one(4), CycloNum.one(4), i])
    assert phi.degree == 17
    assert verify_automorphism_exact(phi, ExtendedMoebius.rotation(8, 1))
    assert verify_automorphism_exact(phi, ExtendedMoebius.inversion_rotation(8))


def test_family_antiholomorphic_shape():
    # every antiholomorphic symmetry is z -> (unimodular)/conj(z), never a
    # reflection
    phi = sample_degree13()
    rep = classify_map(phi)
    for g in rep.report.antiholo_elements:
        num = g.to_numeric().normalized()
        assert abs(num.a) < 1e-8 and abs(num.d) < 1e-8
        assert abs(abs(num.b / num.c) - 1.0) < 1e-8
        if g.order(30) == 2:
            assert g.classify_involution() == "imaginary_reflection"


def test_quotient_of_cube():
    cube = RationalMap.reduce(Poly.x() ** 3, Poly.one())
    form = canonicalize_cyclic(cube, ExtendedMoebius.scaling(-1))
    q = quotient_map(form)
    assert q.equals_projective(RationalMap.reduce(Poly.x() ** 3, Poly.one()))
    assert verify_semiconjugacy(cube, q, 2)


def test_quotient_of_degree13():
    phi = sample_degree13()
    form = canonicalize_cyclic(phi, ExtendedMoebius.rotation(6, 1))
    q = quotient_map(form)
    assert q.degree == 13
    assert verify_semiconjugacy(phi, q, 6)
    assert verify_automorphism_exact(q, ExtendedMoebius.antipodal())


def test_verify_semiconjugacy_false_case():
    cube = RationalMap.reduce(Poly.x() ** 3, Poly.one())
    square = RationalMap.reduce(Poly.x() ** 2, Poly.one())
    assert verify_semiconjugacy(cube, cube, 2)
    assert not verify_semiconjugacy(cube, square, 2)


def test_random_family_members_are_pseudo_real():
    rng = random.Random(70)
    built = 0
    while built < 3:
        coeffs = [gauss(rng) for _ in range(3)]
        try:
            phi = cyclic_pseudo_real_family(6, 2, CycloNum.zeta(8, rng.randrange(8)), coeffs)
        except ConditionViolationError:
            continue
        built += 1
        c = classify_map(phi)
        assert c.verdict == PSEUDO_REAL
        assert (c.holo_kind, c.holo_n) == ("Cyclic", 6)
        assert c.reflection_witness is None
