"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
lines; the test names themselves carry the criterion numbers.
"""

import io
import json
import random
import time

from pseudoreal import (
    CycloNum,
    ExtendedMoebius,
    Poly,
    RationalMap,
    antipodal_witness,
    aut_group_report,
    canonicalize_cyclic,
    classify_map,
    cross_ratio,
    cyclic_locus_dimension,
    admissible_cyclic_params,
    antiholo_order_feasibility,
    cyclic_pseudo_real_family,
    pseudo_real_component_census,
    quotient_map,
    rotation_form_check,
    silverman,
    solve_normalizer_orbit,
    verify_automorphism_exact,
    verify_semiconjugacy,
)
from pseudoreal.autgrp import CanonicalCyclicForm
from pseudoreal.classify import PSEUDO_REAL
from pseudoreal.cli import main as cli_main
from pseudoreal.errors import ConditionViolationError, NotCertifiedError

from conftest import gauss, nonzero_gauss, rotation_form_map


def _announce(num, text):
    print(f"[criterion {num:2d}] PASS: {text}")


def _analyze_json(expr, *extra):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(["analyze", "--map", expr, "--json", *extra], out=out, err=err)
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


def test_criterion_01_silverman_family():
    tau = ExtendedMoebius.antipodal()
    for d in (3, 5, 7, 9, 11, 13):
        expr = f"i*((z-1)/(z+1))^{d}"
        start = time.perf_counter()
        report = _analyze_json(expr)
        elapsed = time.perf_counter() - start
        assert elapsed <= 5.0, f"degree {d} took {elapsed:.2f}s"
        assert report["classification"]["verdict"] == "pseudo_real"
        assert report["antiholo"]["has_imaginary_reflection"] is True
        assert report["antiholo"]["has_reflection"] is False
        # exact commutation with the antipodal involution: zero residual
        assert verify_automorphism_exact(silverman(d), tau)
    _announce(1, "family i((z-1)/(z+1))^d pseudo-real for d in {3..13}, "
                 "antipodal symmetry exact, each run under 5 s")


def test_criterion_02_degree13_example():
    start = time.perf_counter()
    phi = cyclic_pseudo_real_family(
        6, 2, CycloNum.one(4), [CycloNum.one(4), CycloNum.one(4), CycloNum.i()]
    )
    result = classify_map(phi)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0, f"took {elapsed:.2f}s"
    assert (result.holo_kind, result.holo_n) == ("Cyclic", 6)
    assert result.verdict == PSEUDO_REAL
    gen = ExtendedMoebius.rotation(6, 1)
    assert any(
        g.exact and g.projectively_equal(gen) for g in result.report.holo_elements
    ), "generator z -> zeta_6 z missing"
    orders = [g.order(30) for g in result.report.antiholo_elements]
    assert 12 in orders, f"no order-12 antiholomorphic element in {orders}"
    assert result.certified, "exact certification failed"
    _announce(2, "degree-13 map: Aut = Cyclic(6) generated by the zeta_6 "
                 "rotation, order-12 antiholomorphic element, certified, under 10 s")


def _tau_linked_coeffs(rng, d, theta):
    a = [gauss(rng) for _ in range(d)] + [nonzero_gauss(rng)]
    b = []
    for k in range(d + 1):
        term = theta * a[d - k].conj()
        if k % 2 == 1:
            term = -term
        b.append(term)
    return a, b


def test_criterion_03_coefficient_criterion_oracle_equivalence():
    rng = random.Random(303)
    tau = ExtendedMoebius.antipodal()
    checked = 0
    for d in (3, 5):
        count = 0
        while count < 100:
            theta = CycloNum.zeta(12, rng.randrange(12))
            a, b = _tau_linked_coeffs(rng, d, theta)
            if count % 2 == 1:
                b[rng.randrange(d + 1)] = b[rng.randrange(d + 1)] + CycloNum.one(4)
            try:
                phi = RationalMap.reduce(Poly(a), Poly(b))
            except Exception:
                continue
            if phi.degree != d:
                continue
            count += 1
            checked += 1
            witness = antipodal_witness(phi)
            commutes = verify_automorphism_exact(phi, tau)
            assert (witness is not None) == commutes, f"disagreement at degree {d}"
            if witness is not None:
                assert witness.is_unimodular()
    assert checked >= 200
    _announce(3, f"coefficient criterion agreed with exact verification on "
                 f"{checked}/{checked} random maps of degrees 3 and 5")


def test_criterion_04_dimension_formulas():
    forced = {"a": 0, "b": 1, "c": 2}
    pairs = 0
    for d in range(2, 21):
        for n in range(2, 11):
            params = admissible_cyclic_params(d, n)
            dim = cyclic_locus_dimension(d, n)
            if not params:
                assert dim is None
                continue
            pairs += 1
            # independent count: free psi-coefficients minus one for
            # projectivization minus one for the scaling action
            counts = {2 * (r + 1) - forced[case] - 2 for r, case in params}
            assert counts == {dim}, f"(d, n) = ({d}, {n}): {counts} vs {dim}"
    assert cyclic_locus_dimension(13, 6) == 4
    assert cyclic_locus_dimension(3, 2) == 2
    _announce(4, f"cyclic-locus dimension formula matched the parameter count "
                 f"at {pairs} feasible (d, n) pairs, 2<=d<=20, 2<=n<=10")


def _degree3_canonical_psi(rng, n, r):
    if (n, r) == (2, 1):  # d = 3 = 2*1+1, case a
        return RationalMap.reduce(
            Poly([gauss(rng), nonzero_gauss(rng)]),
            Poly([nonzero_gauss(rng), gauss(rng)]),
        )
    if (n, r) == (2, 2):  # d = 3 = 2*2-1, case c
        return RationalMap.reduce(
            Poly([nonzero_gauss(rng), gauss(rng)]),
            Poly([CycloNum.zero(4), gauss(rng), nonzero_gauss(rng)]),
        )
    if (n, r) == (3, 1):  # d = 3 = 3*1, case b
        return RationalMap.reduce(
            Poly([nonzero_gauss(rng), nonzero_gauss(rng)]),
            Poly([CycloNum.zero(4), nonzero_gauss(rng)]),
        )
    if (n, r) == (4, 1):  # d = 3 = 4*1-1, case c
        return RationalMap.reduce(
            Poly([nonzero_gauss(rng)]),
            Poly([CycloNum.zero(4), nonzero_gauss(rng)]),
        )
    raise AssertionError(f"unexpected parameters ({n}, {r})")


def test_criterion_05_degree3_nonexistence_statistics():
    # Stated criterion: zero pseudo-real verdicts over random degree-3
    # rotation-normal-form maps, and no admissible beta != 1 from the
    # inversion-identity solver.  This is NOT attainable: degree-3
    # pseudo-real maps with a rotation symmetry exist, e.g.
    # (1 + i z^2)/(z - i z^3) with the exact order-4 symmetry i/conj(z)
    # (see test_classify.test_degree3_pseudo_real_map_with_rotation_symmetry
    # for the machine-checked certificate).  The claim this criterion
    # encodes fails on the (n, r) = (2, 2) stratum; the assertion below is
    # kept faithful to the stated criterion and documents the finding when
    # the sampler hits the locus.
    rng = random.Random(505)
    case_tags = {(2, 1): "a", (2, 2): "c", (3, 1): "b", (4, 1): "c"}
    violations = []
    for (n, r), case in case_tags.items():
        samples = 0
        while samples < 200:
            psi = _degree3_canonical_psi(rng, n, r)
            if psi.degree != r:
                continue
            phi = rotation_form_map(rng, n, psi)
            if phi.degree != 3:
                continue
            samples += 1
            verdict = classify_map(phi, certify=False).verdict
            if verdict == PSEUDO_REAL:
                violations.append(
                    f"pseudo-real sample at (n, r) = ({n}, {r}): {phi.to_expr()}"
                )
            form = CanonicalCyclicForm(
                n=n, psi=psi, case_tag=case,
                conjugator=ExtendedMoebius.identity(), degree=3,
            )
            check = rotation_form_check(form)
            assert not check.unresolved_betas
            betas = [b for b in check.admissible_betas if not b.is_one()]
            if betas:
                violations.append(
                    f"admissible beta != 1 at (n, r) = ({n}, {r}): "
                    f"{[b.to_expr() for b in betas]} for psi = {psi.to_expr()}"
                )
    assert not violations, (
        "the degree-3 nonexistence claim fails on exact counterexamples; "
        "maps such as (1 + i z^2)/(z - i z^3) are pseudo-real with an "
        "order-4 antiholomorphic symmetry and appear among the samples:\n  "
        + "\n  ".join(violations[:6])
        + (f"\n  ... {len(violations) - 6} more" if len(violations) > 6 else "")
    )
    _announce(5, "800 random degree-3 rotation-normal-form maps: zero "
                 "pseudo-real verdicts and no admissible beta != 1")


def test_criterion_06_parity_obstruction():
    checked = 0
    for d in range(2, 51, 4):  # d = 2 (mod 4)
        for n in range(2, d + 3, 2):
            assert not antiholo_order_feasibility(d, n).feasible, f"(d, n) = ({d}, {n})"
            checked += 1
    _announce(6, f"order-2n antiholomorphic symmetry infeasible at every even n "
                 f"for all d = 2 (mod 4) up to 50 ({checked} pairs)")


def test_criterion_07_pseudo_real_maps_have_small_symmetry_groups():
    rng = random.Random(707)
    corpus = []
    for d in (3, 5, 7, 9, 11, 13):
        corpus.append((f"silverman({d})", silverman(d)))
    for n in (6, 8, 10):
        draws = 0
        while draws < 20:
            coeffs = [gauss(rng) for _ in range(3)]
            theta = CycloNum.zeta(8, rng.randrange(8))
            try:
                phi = cyclic_pseudo_real_family(n, 2, theta, coeffs)
            except ConditionViolationError:
                continue
            draws += 1
            corpus.append((f"family(n={n})#{draws}", phi))
    pseudo_count = 0
    for name, phi in corpus:
        result = classify_map(phi, certify=False)
        if result.verdict == PSEUDO_REAL:
            pseudo_count += 1
            assert result.holo_kind in ("Trivial", "Cyclic"), (
                f"{name}: pseudo-real with {result.holo_kind}"
            )
    assert pseudo_count == len(corpus)  # the whole corpus is pseudo-real
    _announce(7, f"all {pseudo_count} pseudo-real verdicts in the corpus "
                 f"(6 antipodal-family + 60 rotation-family maps) had trivial "
                 f"or cyclic symmetry groups")


def test_criterion_08_canonicalization_round_trip():
    rng = random.Random(808)
    done = 0
    failures = []
    per_n = {2: 34, 3: 33, 6: 33}
    for n, quota in per_n.items():
        built = 0
        while built < quota:
            r = rng.choice((1, 2))
            psi = RationalMap.reduce(
                Poly([nonzero_gauss(rng)] + [gauss(rng) for _ in range(r - 1)] + [nonzero_gauss(rng)]),
                Poly([nonzero_gauss(rng)] + [gauss(rng) for _ in range(r - 1)] + [nonzero_gauss(rng)]),
            )
            if psi.degree != r:
                continue
            phi = rotation_form_map(rng, n, psi)
            if phi.degree != n * r + 1:
                continue
            built += 1
            done += 1
            rep = aut_group_report(phi)
            gens = [g for g in rep.holo_elements if g.exact and g.order(2 * (phi.degree + 1)) == n]
            if not gens:
                failures.append((n, r, "no exact order-n element"))
                continue
            form = None
            for gen in gens:
                try:
                    form = canonicalize_cyclic(phi, gen)
                    break
                except NotCertifiedError:
                    continue
            if form is None:
                failures.append((n, r, "no canonicalizable order-n element"))
            elif solve_normalizer_orbit(psi, form.psi) is None:
                failures.append((n, r, "psi not in the normalizer orbit"))
    assert done == 100 and not failures, failures
    _announce(8, "100/100 rotation-symmetric maps (n in {2,3,6}): search found "
                 "an order-n symmetry and canonicalization recovered psi up to "
                 "the normalizer action")


def test_criterion_09_cross_ratio_non_concyclicity():
    i = CycloNum.i()
    one = CycloNum.one()
    value = cross_ratio(one, CycloNum.zero(), -i, -one)
    assert value == (one - i) / CycloNum.from_rational(2)
    assert not value.is_real()
    # the four points are the orbit of 1 under the degree-3 family map,
    # with the fourth point from direct evaluation (which gives -1)
    s3 = silverman(3)
    orbit = s3.orbit(one, 3)
    assert orbit == [one, CycloNum.zero(), -i, CycloNum.from_rational(-1)]
    _announce(9, "cross-ratio of the orbit (1, 0, -i, -1) is (1-i)/2 exactly, "
                 "not real, so the orbit is not concyclic")


def test_criterion_10_quotient_theorem():
    start = time.perf_counter()
    phi = cyclic_pseudo_real_family(
        6, 2, CycloNum.one(4), [CycloNum.one(4), CycloNum.one(4), CycloNum.i()]
    )
    form = canonicalize_cyclic(phi, ExtendedMoebius.rotation(6, 1))
    quot = quotient_map(form)
    assert verify_semiconjugacy(phi, quot, 6)
    result = classify_map(quot)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0, f"took {elapsed:.2f}s"
    assert result.verdict == PSEUDO_REAL
    assert result.holo_kind == "Trivial"
    _announce(10, "degree-13 quotient: exact semiconjugacy, pseudo-real with "
                  "trivial symmetries, under 10 s")


def test_criterion_11_disconnectedness_witness():
    phi = cyclic_pseudo_real_family(
        8, 2, CycloNum.one(4), [CycloNum.one(4), CycloNum.one(4), CycloNum.i()]
    )
    assert phi.degree == 17
    result = classify_map(phi)
    assert result.verdict == PSEUDO_REAL
    assert len(result.report.elements) == 16  # order-16 full symmetry group
    orders = [g.order(40) for g in result.report.antiholo_elements]
    assert max(orders) == 16

    s17 = classify_map(silverman(17), certify=False)
    assert s17.verdict == PSEUDO_REAL
    assert s17.imaginary_witness is not None
    assert s17.imaginary_witness.order(10) == 2

    census = pseudo_real_component_census(17)
    assert census.witnessed >= 2
    _announce(11, "degree 17: rotation family at n = 8 gives a pseudo-real map "
                  "with a full symmetry group of order 16, the antipodal family "
                  "gives an order-2 witness, census reports >= 2 components")
