import random

import pytest

from pseudoreal import INF, CycloNum, ExtendedMoebius, Poly, RationalMap, silverman
from pseudoreal.errors import ZeroMapError

from conftest import gauss, random_map, random_moebius


def z():
    return Poly.x()


def one():
    return Poly.one()


def test_reduce_examples():
    m = RationalMap.reduce(z() * z() - one(), z() - one())
    assert m.degree == 1 and m.numer == (z() + one()) and m.denom == one()
    cube = RationalMap.reduce(z() ** 3, one())
    assert cube.degree == 3
    s3 = silverman(3)
    assert s3.degree == 3
    with pytest.raises(ZeroMapError):
        RationalMap.reduce(Poly.zero(), Poly.zero())
    # the zero map reduces to 0/1 whatever its denominator
    zero = RationalMap.reduce(Poly.zero(), z() + one())
    assert zero.degree == 0 and zero.denom == one()
    assert zero == RationalMap.reduce(Poly.zero(), one())


def test_evaluate_silverman_orbit():
    s3 = silverman(3)
    i = CycloNum.i()
    orbit = s3.orbit(CycloNum.one(), 3)
    assert orbit[1] == CycloNum.zero()
    assert orbit[2] == -i
    assert orbit[3] == CycloNum.from_rational(-1)  # direct evaluation of s3(-i)


def test_evaluate_at_poles_and_infinity():
    cube = RationalMap.reduce(z() ** 3, one())
    assert cube.evaluate(INF) is INF
    inv = RationalMap.reduce(one(), z())
    assert inv.evaluate(CycloNum.zero()) is INF
    assert inv.evaluate(INF) == CycloNum.zero()


def test_conjugation_examples():
    cube = RationalMap.reduce(z() ** 3, one())
    assert cube.conjugate_by(ExtendedMoebius.inversion()).equals_projective(cube)
    assert cube.conjugate_by(ExtendedMoebius.identity()).equals_projective(cube)
    # the orientation convention is pinned by tau-invariance of the family
    s3 = silverman(3)
    assert s3.conjugate_by(ExtendedMoebius.antipodal()).equals_projective(s3)


def test_conjugation_is_group_action():
    rng = random.Random(91)
    s3 = silverman(3)
    for _ in range(10):
        g = random_moebius(rng)
        h = random_moebius(rng)
        lhs = s3.conjugate_by(g).conjugate_by(h)
        rhs = s3.conjugate_by(h.compose(g))
        assert lhs.equals_projective(rhs)


def test_antiholomorphic_conjugation_involution():
    rng = random.Random(57)
    for _ in range(10):
        phi = random_map(rng, 3)
        n = random_moebius(rng)
        g = n.compose(ExtendedMoebius.conjugation()).compose(n.inverse())
        assert phi.conjugate_by(g).conjugate_by(g).equals_projective(phi)


def test_conjugation_preserves_degree_and_commutes_with_evaluation():
    rng = random.Random(31)
    for _ in range(10):
        phi = random_map(rng, rng.randint(2, 4))
        g = random_moebius(rng)
        if rng.random() < 0.5:
            g = ExtendedMoebius(g.a, g.b, g.c, g.d, antiholo=True)
        psi = phi.conjugate_by(g)
        assert psi.degree == phi.degree
        zpt = gauss(rng)
        lhs = psi.evaluate(g.apply(zpt))
        rhs_inner = phi.evaluate(zpt)
        rhs = g.apply(rhs_inner) if rhs_inner is not INF else g.apply(INF)
        assert (lhs is INF and rhs is INF) or lhs == rhs


def _cross_equal(f: RationalMap, g: RationalMap) -> bool:
    """Reference rule: equal degree and P_f Q_g = P_g Q_f."""
    return f.degree == g.degree and f.numer * g.denom == g.numer * f.denom


def test_equals_projective():
    two = Poly.constant(2)
    m1 = RationalMap.reduce(two * (z() * z() + one()), two * z())
    m2 = RationalMap.reduce(z() * z() + one(), z())
    assert m1.equals_projective(m2)
    assert not RationalMap.reduce(z() ** 2, one()).equals_projective(
        RationalMap.reduce(z() ** 3, one())
    )
    # the canonical-form rule agrees with cross-multiplication on seeded
    # maps, their holomorphic and antiholomorphic conjugates, conj_map round
    # trips and the same map rebased from Q(i) to Q(zeta_8)
    rng = random.Random(17)
    verdicts = []
    for _ in range(12):
        phi = random_map(rng, rng.randint(2, 4))
        g = random_moebius(rng)
        anti = ExtendedMoebius(g.a, g.b, g.c, g.d, antiholo=True)
        in_zeta8 = RationalMap.reduce(phi.numer.rebase(8), phi.denom.rebase(8))
        assert phi.field_order == 4 and in_zeta8.field_order == 8
        maps = [
            phi,
            in_zeta8,
            phi.conjugate_by(g),
            phi.conjugate_by(anti),
            phi.conjugate_by(g).conjugate_by(g.inverse()),
            phi.conjugate_by(anti).conjugate_by(anti.inverse()),
            phi.conj_map(),
            phi.conj_map().conj_map(),
        ]
        for f in maps:
            for h in maps:
                verdicts.append(f.equals_projective(h))
                assert verdicts[-1] == _cross_equal(f, h)
        assert in_zeta8.equals_projective(phi) and phi.equals_projective(maps[-1])
    assert True in verdicts and False in verdicts


def test_distinguished_points_cube():
    cube = RationalMap.reduce(z() ** 3, one())
    pts = cube.distinguished_points()
    by_label = {}
    for p in pts:
        by_label.setdefault(p.label, []).append(p.point)
    # 0 and infinity are fixed and critical (multiplicity 2); 1 and -1 fixed only
    assert sorted(str(x) for x in by_label[(1, 2)]) == ["0j", "INF"]
    fixed_only = by_label[(1, 0)]
    assert sorted(round(p.real) for p in fixed_only) == [-1, 1]


def test_silverman_critical_points():
    s3 = silverman(3)
    crit = [p for p in s3.distinguished_points() if p.crit_mult > 0]
    assert len(crit) == 2
    assert sorted(round(p.point.real) for p in crit) == [-1, 1]
    assert all(p.crit_mult == 2 for p in crit)


def test_distinguished_points_ratio_map():
    phi = RationalMap.reduce(z() * z() + one(), z() * z() - one())
    crit_pts = [p.point for p in phi.distinguished_points() if p.crit_mult > 0]
    assert any(p is INF for p in crit_pts)
    assert any(p is not INF and abs(p) < 1e-9 for p in crit_pts)


def test_fixed_point_count_with_multiplicity():
    from pseudoreal import roots_numeric

    rng = random.Random(3)
    for _ in range(10):
        phi = random_map(rng, rng.randint(2, 4))
        f = phi.fixed_point_polynomial()
        total = sum(m for _, m in roots_numeric(f)) if f.degree >= 1 else 0
        total += phi.infinity_fixed_multiplicity(f)
        assert total == phi.degree + 1


def test_polynomial_like():
    assert RationalMap.reduce(z() ** 2 + one(), one()).is_polynomial_like()
    assert not silverman(3).is_polynomial_like()
    # 1/z^2 has no totally invariant point: {0, inf} swaps as a pair
    assert not RationalMap.reduce(one(), z() ** 2).is_polynomial_like()
    rng = random.Random(101)
    sq = RationalMap.reduce(z() ** 2 + Poly.constant(CycloNum.i()), one())
    for _ in range(5):
        assert sq.conjugate_by(random_moebius(rng)).is_polynomial_like()


def test_coeff_json_round_trip():
    s3 = silverman(3)
    data = s3.to_coeff_json()
    assert data["field_order"] == 4
    assert RationalMap.from_coeff_json(data).equals_projective(s3)
    rng = random.Random(5)
    phi = random_map(rng, 4)
    assert RationalMap.from_coeff_json(phi.to_coeff_json()).equals_projective(phi)


def test_expr_round_trip():
    from pseudoreal.cli import parse_map_expr

    rng = random.Random(15)
    for _ in range(10):
        phi = random_map(rng, rng.randint(1, 4))
        assert parse_map_expr(phi.to_expr()).equals_projective(phi)
