import itertools
import math
import random
from fractions import Fraction

import pytest

from pseudoreal import (
    CycloNum,
    ExtendedMoebius,
    Poly,
    RationalMap,
    aut_group_report,
    canonicalize_cyclic,
    classify_group_type,
    normalizer_action,
    silverman,
    solve_normalizer_orbit,
    verify_automorphism_exact,
)
from pseudoreal import autgrp
from pseudoreal.autgrp import certify_element, closure_defect
from pseudoreal.moebius import named_generator, proj_distance
from pseudoreal.cyclotomic import common_order, recognize_cyclo_candidates
from pseudoreal.errors import NotAnAutomorphismError, OrderMismatchError
from pseudoreal.families import sample_degree3_order4, sample_degree13

from conftest import gauss, nonzero_gauss, random_map, random_moebius, rotation_form_map


def z():
    return Poly.x()


def one():
    return Poly.one()


def test_cube_group():
    rep = aut_group_report(RationalMap.reduce(z() ** 3, one()))
    assert rep.holo_kind == "Dihedral" and rep.holo_n == 2
    assert len(rep.holo_elements) == 4 and len(rep.elements) == 8
    assert rep.certified
    expected = [
        ExtendedMoebius.identity(),
        ExtendedMoebius.scaling(-1),
        ExtendedMoebius.inversion(),
        ExtendedMoebius(CycloNum.zero(), CycloNum.one(), -CycloNum.one(), CycloNum.zero()),
    ]
    for want in expected:
        assert any(g.projectively_equal(want) for g in rep.holo_elements if g.exact)


def test_power_map_group_order():
    # Aut(z -> z^d) consists of the (d-1)-th-root rotations and the flips
    # w/z, so it has order 2(d-1)
    for d in (2, 3, 4, 5):
        rep = aut_group_report(RationalMap.reduce(z() ** d, one()))
        assert len(rep.holo_elements) == 2 * (d - 1)
        if d == 2:
            assert rep.holo_kind == "Cyclic" and rep.holo_n == 2
        else:
            assert rep.holo_kind == "Dihedral" and rep.holo_n == d - 1


def test_random_dense_map_is_asymmetric():
    rng = random.Random(2)
    phi = random_map(rng, 4)
    rep = aut_group_report(phi)
    assert rep.holo_kind == "Trivial"
    assert len(rep.holo_elements) == 1
    assert not rep.antiholo_elements


def test_group_closure_and_coset_size():
    for phi in (RationalMap.reduce(z() ** 3, one()), silverman(3), sample_degree13()):
        rep = aut_group_report(phi, certify=False)
        assert closure_defect(rep.elements) < 1e-6
        antis = rep.antiholo_elements
        assert len(antis) in (0, len(rep.holo_elements))


def test_closure_defect_respects_orientation():
    # z -> -z and z -> -conj(z) compose to z -> conj(z), which is missing;
    # the nearest element of either orientation is not an answer
    minus, zero = -CycloNum.one(), CycloNum.zero()
    elements = [
        ExtendedMoebius.identity(),
        ExtendedMoebius.scaling(-1),
        ExtendedMoebius(minus, zero, zero, CycloNum.one(), antiholo=True),
    ]
    assert closure_defect(elements) >= 0.5


def _reference_table(elements):
    """The nearest-element scan over all pairwise products, among the
    elements of the product's orientation: (table, worst distance)."""
    table, worst = [], 0.0
    for g in elements:
        row = []
        for h in elements:
            prod = g.compose(h).normalized()
            dist = [
                proj_distance(prod, e) if e.antiholo == prod.antiholo else math.inf
                for e in elements
            ]
            row.append(min(range(len(elements)), key=dist.__getitem__))
            worst = max(worst, dist[row[-1]])
        table.append(row)
    return table, worst


def _generated(gens):
    """The exact group the generators generate, breadth first."""
    group = [ExtendedMoebius.identity()]
    for x in group:
        for s in gens:
            y = s.compose(x).normalized()
            if not any(y.antiholo == e.antiholo and y.projectively_equal(e) for e in group):
                group.append(y)
    return group


def test_product_table_matches_the_nearest_element_loop():
    from test_cli import GOLDEN_MAPS

    groups = [
        aut_group_report(build(), certify=False).elements
        for build in [b for _, b in GOLDEN_MAPS] + [lambda: RationalMap.reduce(z() ** 3, one())]
    ]
    # S4 from T(4) and C; C is real and J T J = T^-1, so J extends it to 48
    s4 = _generated([named_generator("T", 4), named_generator("C")])
    extended = s4 + [ExtendedMoebius.conjugation().compose(g).normalized() for g in s4]
    assert len(s4) == 24 and len(extended) == 48
    assert classify_group_type(s4) == ("S4", None) == classify_group_type(extended)
    for elements in groups + [s4, extended]:
        numeric = [g.to_numeric() for g in elements]
        table, defect = autgrp._product_table(numeric)
        ref_table, ref_defect = _reference_table(numeric)
        assert table == ref_table
        assert abs(defect - ref_defect) <= 1e-12 and defect < 1e-6


def test_classify_group_type_examples():
    assert classify_group_type([ExtendedMoebius.identity()]) == ("Trivial", None)
    klein = [
        ExtendedMoebius.identity(),
        ExtendedMoebius.scaling(-1),
        ExtendedMoebius.inversion(),
        ExtendedMoebius(CycloNum.zero(), CycloNum.one(), -CycloNum.one(), CycloNum.zero()),
    ]
    assert classify_group_type(klein) == ("Dihedral", 2)
    rotations = [ExtendedMoebius.rotation(6, k) for k in range(6)]
    assert classify_group_type(rotations) == ("Cyclic", 6)


def test_verify_automorphism_exact_examples():
    s3 = silverman(3)
    assert verify_automorphism_exact(s3, ExtendedMoebius.antipodal())
    m13 = sample_degree13()
    assert verify_automorphism_exact(m13, ExtendedMoebius.rotation(6, 1))
    cube = RationalMap.reduce(z() ** 3, one())
    assert not verify_automorphism_exact(cube, ExtendedMoebius.rotation(4, 1))


def test_certify_element_lifts_numeric_rotation():
    m13 = sample_degree13()
    g = ExtendedMoebius.rotation(6, 1).to_numeric()
    lifted = certify_element(m13, g)
    assert lifted is not None and lifted.exact
    assert lifted.projectively_equal(ExtendedMoebius.rotation(6, 1))


def test_canonicalize_cube():
    cube = RationalMap.reduce(z() ** 3, one())
    form = canonicalize_cyclic(cube, ExtendedMoebius.scaling(-1))
    assert form.n == 2 and form.r == 1 and form.case_tag == "a"
    assert form.psi.equals_projective(RationalMap.reduce(z(), one()))
    assert cube.conjugate_by(form.conjugator).equals_projective(form.canonical_map())


def test_canonicalize_rejects_bad_input():
    cube = RationalMap.reduce(z() ** 3, one())
    with pytest.raises(OrderMismatchError):
        canonicalize_cyclic(cube, ExtendedMoebius.identity())
    with pytest.raises(NotAnAutomorphismError):
        canonicalize_cyclic(cube, ExtendedMoebius.rotation(4, 1))


def test_canonicalize_case_b_and_c():
    rng = random.Random(8)
    # case b: psi with zero constant denominator coefficient, d = n r
    psi_b = RationalMap.reduce(
        Poly([gauss(rng), nonzero_gauss(rng)]), Poly([CycloNum.zero(4), nonzero_gauss(rng)])
    )
    phi_b = rotation_form_map(rng, 3, psi_b)
    assert phi_b.degree == 3
    form = canonicalize_cyclic(phi_b, ExtendedMoebius.rotation(3, 1))
    assert form.case_tag == "b" and form.degree == 3 * form.r

    # case c: psi = a0 / (b1 u), d = n r - 1
    psi_c = RationalMap.reduce(
        Poly([nonzero_gauss(rng)]), Poly([CycloNum.zero(4), nonzero_gauss(rng)])
    )
    phi_c = rotation_form_map(rng, 4, psi_c)
    assert phi_c.degree == 3
    form = canonicalize_cyclic(phi_c, ExtendedMoebius.rotation(4, 1))
    assert form.case_tag == "c" and form.degree == 4 * form.r - 1


def test_canonicalize_folds_inverted_orientation():
    rng = random.Random(9)
    # psi(0) finite, psi(inf) = 0: phi fixes both 0 and inf with value 0,
    # which the 1/z flip folds into case b
    psi = RationalMap.reduce(
        Poly([nonzero_gauss(rng)]), Poly([nonzero_gauss(rng), nonzero_gauss(rng)])
    )
    phi = rotation_form_map(rng, 3, psi)
    form = canonicalize_cyclic(phi, ExtendedMoebius.rotation(3, 1))
    assert form.case_tag == "b"
    assert form.psi.to_expr() == "((-2+2*w(12,3))+(-1+w(12,3))*z)/(z)"
    conj = form.conjugator
    assert [e.to_expr() for e in (conj.a, conj.b, conj.c, conj.d)] == ["0", "1", "1", "0"]
    assert phi.conjugate_by(form.conjugator).equals_projective(form.canonical_map())


def test_normalizer_action_examples():
    u = RationalMap.reduce(z(), one())
    scaled = normalizer_action(u, 2, False)
    assert scaled.equals_projective(
        RationalMap.reduce(z(), Poly.constant(2))
    )
    assert normalizer_action(u, 1, True).equals_projective(u)  # self-dual
    psi = RationalMap.reduce(one() + z(), one() - z())
    flipped = normalizer_action(psi, 1, True)
    # 1/psi(1/u) = (u - 1)/(u + 1)
    assert flipped.equals_projective(RationalMap.reduce(z() - one(), z() + one()))


def test_solve_normalizer_orbit():
    rng = random.Random(10)
    cases = []
    for _ in range(10):
        psi = RationalMap.reduce(
            Poly([nonzero_gauss(rng), gauss(rng), nonzero_gauss(rng)]),
            Poly([nonzero_gauss(rng), gauss(rng), nonzero_gauss(rng)]),
        )
        t = nonzero_gauss(rng)
        flip = rng.random() < 0.5
        cases.append((psi, t, flip))
    # exponent differences of both signs in the scale relations
    u = Poly.x(4)
    psi = RationalMap.reduce(u + u * u, Poly.one(4) + u * u)
    cases += [(psi, 2, False), (psi, 3, True), (psi, CycloNum.gaussian(1, 1), False)]
    for psi, t, flip in cases:
        moved = normalizer_action(psi, t, flip)
        sol = solve_normalizer_orbit(psi, moved)
        assert sol is not None
        t_found, flip_found = sol
        assert normalizer_action(psi, t_found, flip_found).equals_projective(moved)
    # non-orbit pair
    psi1 = RationalMap.reduce(Poly([1, 2, 1]), Poly([1, 0, 3]))
    psi2 = RationalMap.reduce(Poly([1, 5, 7]), Poly([2, 0, 3]))
    assert solve_normalizer_orbit(psi1, psi2) is None


def test_search_cap(monkeypatch):
    from pseudoreal.errors import SearchBoundExceededError

    cube = RationalMap.reduce(z() ** 3, one())
    monkeypatch.setattr(autgrp, "SEARCH_CAP", 2)
    with pytest.raises(SearchBoundExceededError):
        aut_group_report(cube)


def test_search_after_scrambling_conjugation():
    # conjugate a rotation-symmetric map by a dense Moebius map; the search
    # must still find an order-n symmetry and canonicalization must recover
    # psi up to the normalizer action
    rng = random.Random(11)
    psi = RationalMap.reduce(
        Poly([nonzero_gauss(rng), nonzero_gauss(rng)]),
        Poly([nonzero_gauss(rng), gauss(rng), nonzero_gauss(rng)]),
    )
    phi = rotation_form_map(rng, 3, psi)
    scrambler = random_moebius(rng)
    moved = phi.conjugate_by(scrambler)
    rep = aut_group_report(moved)
    gens = [g for g in rep.holo_elements if g.exact and g.order(20) == 3]
    assert gens, "expected an exact order-3 symmetry after scrambling"
    form = canonicalize_cyclic(moved, gens[0])
    assert form.n == 3
    assert solve_normalizer_orbit(psi, form.psi) is not None


def _reference_commutes(phi, g):
    # the former check: conjugate by g, reduce with a gcd, compare maps
    return phi.conjugate_by(g).equals_projective(phi)


def _near_miss_candidates(phi, g, limit=8):
    """Exact matrices built from the recognizer's guesses for g's entries,
    scaled by the largest one: the exact element among them, and nearby
    Gaussian-rational or wrong-field approximants."""
    entries = [e.to_complex() for e in (g.a, g.b, g.c, g.d)]
    pivot = max(entries, key=abs)
    k = g.order(2 * (phi.degree + 1))
    base = common_order(phi.field_order, 4)
    out = []
    for m in sorted({base, common_order(base, 2 * k), common_order(base, 8)}):
        options = [recognize_cyclo_candidates(e / pivot, m) for e in entries]
        for combo in itertools.islice(itertools.product(*options), limit):
            try:
                out.append(ExtendedMoebius(*combo, antiholo=g.antiholo))
            except ValueError:
                continue
    return out


def test_verify_automorphism_exact_agrees_with_reference():
    rng = random.Random(12)
    accepted = rejected = 0
    for phi in (sample_degree13(), silverman(5), sample_degree3_order4()):
        rep = aut_group_report(phi)
        assert rep.certified and rep.antiholo_elements
        candidates = []
        for g in rep.elements:
            candidates.append(g)
            candidates += _near_miss_candidates(phi, g)
        # rotations z -> zeta_24^j z: for sample_degree13 the even powers
        # agree with phi on the x^d and y^d coefficients, and only the
        # multiples of 4 commute, so the full comparison decides
        moves = [ExtendedMoebius.rotation(24, j) for j in range(24)]
        moves += [random_moebius(rng) for _ in range(4)]
        for h in moves:
            candidates += [h, ExtendedMoebius(h.a, h.b, h.c, h.d, antiholo=True)]
        for g in candidates:
            expected = _reference_commutes(phi, g)
            assert verify_automorphism_exact(phi, g) == expected, (phi, g)
            accepted += expected
            rejected += not expected
    assert accepted >= 18 and rejected >= 20


def test_report_certifies_generators_only(monkeypatch):
    phi = sample_degree13()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return certify_element(*args, **kwargs)

    monkeypatch.setattr(autgrp, "certify_element", counting)
    rep = aut_group_report(phi)
    # one rotation generator and one antiholomorphic element; the other ten
    # elements are exact products of these two
    assert len(calls) <= 2
    assert rep.certified and rep.mode == "exact" and len(rep.elements) == 12
    for g in rep.elements:
        assert g.exact and _reference_commutes(phi, g)


def test_report_without_certified_generators_stays_numeric(monkeypatch):
    phi = sample_degree13()
    monkeypatch.setattr(autgrp, "certify_element", lambda *args, **kwargs: None)
    rep = aut_group_report(phi)
    assert not rep.certified and rep.mode == "numeric"
    assert len(rep.elements) == 12
    # the identity is the empty product and is exact without any check
    assert all(not g.exact for g in rep.elements if not g.is_identity(1e-6))


def test_report_rejects_a_closure_that_misses_the_search(monkeypatch):
    # a "certified" generator whose powers are not in the numeric group must
    # not yield a certified report
    phi = sample_degree13()
    monkeypatch.setattr(
        autgrp, "certify_element", lambda *args, **kwargs: ExtendedMoebius.rotation(12, 1)
    )
    rep = aut_group_report(phi)
    assert not rep.certified and rep.mode == "numeric"
    assert not any(g.exact for g in rep.elements)


def test_report_rejects_a_generator_that_is_only_numerically_right(monkeypatch):
    # the antiholomorphic generator is moved by 1e-9: each new product stays
    # within 1e-6 of its numeric element, but products that reach an index
    # twice disagree exactly, so the closure must not be certified
    phi = sample_degree13()

    def nudged(phi, g):
        cert = certify_element(phi, g)
        if g.antiholo:
            eps = CycloNum.from_rational(Fraction(1, 10**9), cert.a.order)
            cert = ExtendedMoebius(cert.a + eps, cert.b, cert.c, cert.d, antiholo=True)
        return cert

    monkeypatch.setattr(autgrp, "certify_element", nudged)
    rep = aut_group_report(phi)
    assert not rep.certified
    assert rep.notes == ["exact closure of the certified elements does not match the search"]


def test_argument_scale_takes_an_exact_square_root(monkeypatch):
    # psi(u/t) only fixes t^2 = 9i here: the folded relation has g = 2, and
    # the branch that lifts a g-th root must find t = 3 zeta_8 exactly
    u = Poly.x()
    psi = RationalMap.reduce(one() + u ** 2, one() + Poly.constant(2) * u ** 4)
    t = 3 * CycloNum.zeta(8, 1)
    folded = []
    fold = autgrp.fold_power_relations

    def recording(relations):
        folded.append(fold(relations))
        return folded[-1]

    monkeypatch.setattr(autgrp, "fold_power_relations", recording)
    got = autgrp._solve_argument_scale(psi, normalizer_action(psi, t, False))
    assert [g for g, _ in folded] == [2]
    assert got == t and got.to_expr() == "3*w(8,1)"


def test_fixed_points_fall_back_to_an_exact_square_root(monkeypatch):
    # the fixed points (1 +- 3 zeta_8)/2 have no shape the recognizer
    # proposes, so only the square root of the discriminant 9i finds them
    b = CycloNum.gaussian(Fraction(-1, 4), Fraction(9, 4))
    t = ExtendedMoebius(CycloNum.one(), b, CycloNum.one(), CycloNum.zero())
    roots = []
    sqrt = autgrp._exact_sqrt

    def recording(value):
        roots.append(sqrt(value))
        return roots[-1]

    monkeypatch.setattr(autgrp, "_exact_sqrt", recording)
    p, q = autgrp._fixed_points_exact(t)
    assert len(roots) == 1 and roots[0] * roots[0] == 9 * CycloNum.i()
    half, w = Fraction(1, 2), CycloNum.zeta(8, 1)
    expected = [(1 + 3 * w) * half, (1 - 3 * w) * half]
    assert [p, q] in (expected, expected[::-1])


def test_pivot_holds_on_an_exact_tie():
    # |a| is exactly half the largest entry |b|: rounding of either sign
    # must leave the pivot on a, so the lifted element prints one way
    i = CycloNum.i()
    exact = (1, Fraction(-6, 5) - Fraction(8, 5) * i, Fraction(27, 25) + Fraction(36, 25) * i,
             Fraction(7, 25) - Fraction(24, 25) * i)
    values = [CycloNum._coerce(e).to_complex() for e in exact]
    assert abs(values[0]) == 0.5 * max(abs(v) for v in values)
    rng = random.Random(1205)
    for _ in range(500):
        scale = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        entries = [v * scale * (1 + rng.uniform(-1e-12, 1e-12)) for v in values]
        j, scaled = autgrp._pivot_scaled(ExtendedMoebius(*entries))
        assert j == 0
        assert abs(scaled[1] - values[1]) < 1e-9
