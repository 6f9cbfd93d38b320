import random

import pytest

from pseudoreal import (
    CycloNum,
    ExtendedMoebius,
    admissible_cyclic_params,
    antiholo_order_feasibility,
    antipodal_family,
    antipodal_witness,
    cyclic_locus_dimension,
    locus_dimensions,
    pseudo_real_component_census,
    silverman,
    verify_automorphism_exact,
)
from pseudoreal.errors import BadDegreeError, ConditionViolationError, ResultantVanishesError

from conftest import gauss, nonzero_gauss


def test_cyclic_dimension_examples():
    assert cyclic_locus_dimension(13, 6) == 4
    assert cyclic_locus_dimension(3, 2) == 2
    # 7 = -1 (mod 4): the congruence holds via case (c), r = 2
    assert cyclic_locus_dimension(7, 4) == 2
    assert cyclic_locus_dimension(7, 5) is None
    assert cyclic_locus_dimension(11, 7) is None


def test_admissible_params_examples():
    assert admissible_cyclic_params(3, 2) == [(1, "a"), (2, "c")]
    assert admissible_cyclic_params(2, 3) == [(1, "c")]
    assert admissible_cyclic_params(13, 6) == [(2, "a")]
    # degree two only admits orders two and three
    assert admissible_cyclic_params(2, 2) == [(1, "b")]
    for n in (4, 5, 6):
        assert admissible_cyclic_params(2, n) == ([(1, "c")] if n == 3 else [])


def test_dimension_matches_free_parameter_count():
    # free psi-coefficients minus projectivization minus the scaling action
    forced = {"a": 0, "b": 1, "c": 2}
    for d in range(2, 21):
        for n in range(2, 11):
            params = admissible_cyclic_params(d, n)
            dim = cyclic_locus_dimension(d, n)
            if not params:
                assert dim is None
                continue
            counts = {2 * (r + 1) - forced[case] - 2 for r, case in params}
            assert counts == {dim}


def test_antiholo_feasibility_examples():
    for n in (2, 4, 6, 8):
        assert not antiholo_order_feasibility(6, n).feasible
    rec = antiholo_order_feasibility(13, 6)
    assert rec.feasible and rec.admissible_r == [(2, "a")]
    rec = antiholo_order_feasibility(3, 2)
    assert rec.feasible and rec.admissible_r == [(2, "c")]
    # n = 1 (the antipodal case) needs odd degree
    for d in range(2, 21, 2):
        assert not antiholo_order_feasibility(d, 1).feasible
    for d in range(3, 21, 2):
        assert antiholo_order_feasibility(d, 1).feasible


def test_antiholo_feasibility_odd_n():
    # odd n >= 3: the n-th power is the antipodal involution, so odd degree
    # plus the rotation congruence is needed
    assert antiholo_order_feasibility(7, 3).feasible
    assert not antiholo_order_feasibility(8, 3).feasible
    assert not antiholo_order_feasibility(7, 5).feasible


def test_locus_dimension_table():
    d3 = {desc.locus: desc for desc in locus_dimensions(3)}
    assert d3["antipodal_maps"].real_dimension == 7
    assert d3["antipodal_classes"].real_dimension == 4
    assert d3["antipodal_real_maps"].real_dimension == 4
    assert d3["antipodal_real_classes"].real_dimension == 1
    assert d3["antipodal_classes"].connected
    d5 = {desc.locus: desc for desc in locus_dimensions(5)}
    assert d5["antipodal_real_maps"].real_dimension == 6
    d13 = {desc.locus: desc for desc in locus_dimensions(13)}
    assert d13["order12_classes(n=6)"].real_dimension == 2
    with pytest.raises(BadDegreeError):
        locus_dimensions(4)


def test_antipodal_family_recovers_silverman():
    i = CycloNum.i()
    phi = antipodal_family(i, [-i, 3 * i, -3 * i, i])
    assert phi.equals_projective(silverman(3))
    assert antipodal_witness(phi) == i


def test_antipodal_family_round_trip():
    rng = random.Random(60)
    done = 0
    while done < 25:
        d = rng.choice((3, 5))
        theta = CycloNum.zeta(12, rng.randrange(12))
        coeffs = [gauss(rng) for _ in range(d)] + [nonzero_gauss(rng)]
        try:
            phi = antipodal_family(theta, coeffs)
        except ResultantVanishesError:
            continue
        done += 1
        assert verify_automorphism_exact(phi, ExtendedMoebius.antipodal())
        witness = antipodal_witness(phi)
        assert witness is not None and witness.is_unimodular()
        # coefficient readback recovers (theta, a) up to the projective
        # scalar s, which acts on theta by s / conj(s)
        if phi.degree == d:
            back = phi.numer.padded(d + 1)
            j = next(k for k, c in enumerate(coeffs) if not c.is_zero())
            scale = back[j] / coeffs[j]
            assert all(back[k] == scale * coeffs[k] for k in range(d + 1))
            assert witness == theta * scale / scale.conj()


def test_antipodal_family_hypersurface_rejection():
    with pytest.raises(ResultantVanishesError):
        antipodal_family(CycloNum.one(4), [1, 1, 1, 1])
    with pytest.raises(ResultantVanishesError):
        # a_0 = a_3 = 0: both polynomials vanish at 0 and have degree < 3
        antipodal_family(1, [0, 1, 1, 0])
    with pytest.raises(BadDegreeError):
        antipodal_family(CycloNum.one(4), [1, 1, 1])
    with pytest.raises(ConditionViolationError):
        antipodal_family(CycloNum.from_rational(2), [1, 0, 0, 1])


def test_component_census():
    # degree 3 carries two witnessed components: the antipodal family and
    # the explicit order-4 map (1 + i z^2)/(z - i z^3)
    c3 = pseudo_real_component_census(3)
    assert c3.bounds() == (2, 2)
    statuses3 = {c.s: c.status for c in c3.candidates}
    assert statuses3[0] == "witnessed" and statuses3[1] == "witnessed"
    assert all(c.status == "excluded" for c in c3.candidates if c.s >= 2)

    c13 = pseudo_real_component_census(13)
    assert c13.bounds() == (1, 2)
    statuses = {c.s: c.status for c in c13.candidates}
    assert statuses[0] == "witnessed" and statuses[1] == "candidate"

    c17 = pseudo_real_component_census(17)
    assert c17.witnessed >= 2
    assert {c.s: c.status for c in c17.candidates}[3] == "witnessed"
