import math
import random

import pytest

from pseudoreal import (
    CycloNum,
    classify,
    ExtendedMoebius,
    Poly,
    RationalMap,
    antipodal_witness,
    classify_map,
    is_conjugate_to_conjugate,
    rotation_form_check,
    silverman,
    solve_scalar_identity,
    verify_automorphism_exact,
)
from pseudoreal import autgrp
from pseudoreal.autgrp import CanonicalCyclicForm
from pseudoreal.classify import NO_ANTIHOLOMORPHIC, PSEUDO_REAL, REAL
from pseudoreal.cyclotomic import _bezout, common_order
from pseudoreal.errors import BadDegreeError, NotCertifiedError
from pseudoreal.families import sample_degree13

from conftest import gauss, nonzero_gauss, random_map, random_moebius


def z():
    return Poly.x()


def one():
    return Poly.one()


def _tau_linked_map(rng, d, theta):
    """A degree-d map with denominator built from the antipodal identity."""
    while True:
        a = [gauss(rng) for _ in range(d)] + [nonzero_gauss(rng)]
        b = []
        for k in range(d + 1):
            term = theta * a[d - k].conj()
            if k % 2 == 1:
                term = -term
            b.append(term)
        try:
            phi = RationalMap.reduce(Poly(a), Poly(b))
        except Exception:
            continue
        if phi.degree == d:
            return phi


def test_antipodal_witness_examples():
    s3 = silverman(3)
    w = antipodal_witness(s3)
    assert w == CycloNum.i()
    # z^3 commutes with -1/conj(z): the witness is c = 1, matching the
    # exact verification
    cube = RationalMap.reduce(z() ** 3, one())
    assert antipodal_witness(cube) == CycloNum.one()
    assert verify_automorphism_exact(cube, ExtendedMoebius.antipodal())
    # a perturbed odd-degree map loses the witness
    off = RationalMap.reduce(z() ** 3 + one(), one())
    assert antipodal_witness(off) is None
    assert not verify_automorphism_exact(off, ExtendedMoebius.antipodal())
    even = RationalMap.reduce(z() ** 2 + one(), z())
    assert antipodal_witness(even) is None  # even degree never qualifies


def test_antipodal_witness_matches_exact_verification():
    rng = random.Random(33)
    tau = ExtendedMoebius.antipodal()
    for d in (3, 5):
        for trial in range(30):
            theta = CycloNum.zeta(8, rng.randrange(8))
            phi = _tau_linked_map(rng, d, theta)
            if trial % 2 == 1:
                # perturb one denominator coefficient
                coeffs = list(phi.denom.padded(d + 1))
                coeffs[rng.randrange(d + 1)] = coeffs[rng.randrange(d + 1)] + CycloNum.one(4)
                try:
                    phi = RationalMap.reduce(phi.numer, Poly(coeffs))
                except Exception:
                    continue
                if phi.degree != d:
                    continue
            witness = antipodal_witness(phi)
            commutes = verify_automorphism_exact(phi, tau)
            assert (witness is not None) == commutes


def test_solve_scalar_identity_examples():
    i = CycloNum.i()
    assert solve_scalar_identity([i, -CycloNum.one()], [CycloNum.one(), i]) == [i]
    assert solve_scalar_identity([CycloNum.one(), CycloNum.zero()], [CycloNum.zero(), CycloNum.one()]) == []
    # c = 2 is rejected by the unimodular filter
    two = [CycloNum.from_rational(2), CycloNum.from_rational(2) * i]
    base = [CycloNum.one(), i]
    assert solve_scalar_identity(two, base) == []
    assert solve_scalar_identity(two, base, unimodular_only=False) == [CycloNum.from_rational(2)]


def test_rotation_form_check_on_degree13_psi():
    i = CycloNum.i()
    psi = RationalMap.reduce(Poly([1, 1, i]), Poly([-i, -CycloNum.one(4), CycloNum.one(4)]))
    form = CanonicalCyclicForm(
        n=6, psi=psi, case_tag="a", conjugator=ExtendedMoebius.identity(), degree=13
    )
    check = rotation_form_check(form)
    assert check.condition_a_holds
    assert check.verdict == PSEUDO_REAL
    assert check.beta == CycloNum.from_rational(-1)
    assert not check.includes_beta_one
    assert check.alpha_exact == CycloNum.zeta(12, 1)


def test_rotation_form_check_power_map():
    # psi(u) = u gives phi = z^3: psi-bar(c z) = psi(z) at c = 1
    psi = RationalMap.reduce(z(), one())
    form = CanonicalCyclicForm(
        n=2, psi=psi, case_tag="a", conjugator=ExtendedMoebius.identity(), degree=3
    )
    check = rotation_form_check(form)
    assert not check.condition_a_holds
    assert check.verdict == REAL


def test_rotation_form_check_real_map_with_inversion_witness():
    # (1 + z^2)/(z - z^3) admits the order-4 element i/conj(z), so the
    # inversion identity has the witness beta = -1 even though the map is
    # real: the rotation-conjugate identity is solvable as well, and that
    # reflection wins.  The two conditions never certify pseudo-reality
    # together in degree 3.
    i = CycloNum.i()
    psi = RationalMap.reduce(Poly([1, 1]), Poly([0, 1, -1]))
    phi = RationalMap.reduce(
        Poly.x() * psi.numer.substitute_power(2), psi.denom.substitute_power(2)
    )
    q = ExtendedMoebius(CycloNum.zero(4), i, CycloNum.one(4), CycloNum.zero(4), antiholo=True)
    assert verify_automorphism_exact(phi, q)
    assert q.order(10) == 4
    form = CanonicalCyclicForm(
        n=2, psi=psi, case_tag="c", conjugator=ExtendedMoebius.identity(), degree=3
    )
    check = rotation_form_check(form)
    assert not check.condition_a_holds
    assert check.admissible_betas == [CycloNum.from_rational(-1)]
    assert check.verdict == REAL
    assert classify_map(phi).verdict == REAL


def test_degree3_pseudo_real_map_with_rotation_symmetry():
    # (1 + i z^2)/(z - i z^3) is pseudo-real of degree 3 with holomorphic
    # symmetries exactly {z, -z}: its antiholomorphic symmetries are
    # +-i/conj(z) of order four, so no reflection exists.  Certified in
    # exact arithmetic end to end; the normal-form certificate agrees
    # ((a) holds and beta = -1 is admissible with alpha = +-i).
    from pseudoreal.families import sample_degree3_order4

    phi = sample_degree3_order4()
    assert phi.degree == 3
    i = CycloNum.i()
    q = ExtendedMoebius(CycloNum.zero(4), i, CycloNum.one(4), CycloNum.zero(4), antiholo=True)
    assert verify_automorphism_exact(phi, q)
    assert q.order(10) == 4
    result = classify_map(phi)
    assert result.verdict == PSEUDO_REAL
    assert (result.holo_kind, result.holo_n) == ("Cyclic", 2)
    assert result.reflection_witness is None
    assert result.certified
    assert len(result.report.elements) == 4
    assert result.beta == CycloNum.from_rational(-1)
    assert not phi.is_polynomial_like()


def test_degree3_counterexample_group_is_stable_under_conjugation():
    # move the map by random coordinate changes: the search picks different
    # source triples each time, yet must always find the order-4 group and
    # never a reflection
    from pseudoreal.families import sample_degree3_order4

    phi = sample_degree3_order4()
    rng = random.Random(606)
    for _ in range(8):
        moved = phi.conjugate_by(random_moebius(rng))
        result = classify_map(moved, certify=False)
        assert result.verdict == PSEUDO_REAL
        assert (result.holo_kind, result.holo_n) == ("Cyclic", 2)
        assert len(result.report.elements) == 4
        assert result.reflection_witness is None
        orders = sorted(g.order(12, tol=1e-6) for g in result.report.antiholo_elements)
        assert orders == [4, 4]


def test_degree3_counterexample_quotient_is_real():
    # the quotient under w = z^2 picks up the antipodal involution, but
    # here it is real: psi satisfies psi(-v) = -psi-bar(v) exactly, and
    # squaring kills the -1, so the quotient admits the reflection
    # -conj(w) (together with the flip 1/w).  A quotient of a pseudo-real
    # map with cyclic symmetry is therefore not pseudo-real in general;
    # only psi with no identity psi(cz) = zeta * psi-bar(z), zeta^n = 1,
    # produce pseudo-real quotients (the degree-13 sample does).
    from pseudoreal.autgrp import canonicalize_cyclic
    from pseudoreal.families import quotient_map, sample_degree3_order4, verify_semiconjugacy

    phi = sample_degree3_order4()
    form = canonicalize_cyclic(phi, ExtendedMoebius.scaling(-1))
    assert form.n == 2 and form.case_tag == "c"
    psi = form.psi
    # the exact twisted identity behind the reflection on the quotient
    minus = CycloNum.from_rational(-1)
    lhs = psi.numer.scale_argument(minus) * psi.denom.conj()
    rhs = psi.denom.scale_argument(minus) * psi.numer.conj().scale(minus)
    assert lhs == rhs  # psi(-v) = -psi-bar(v)
    quot = quotient_map(form)
    assert verify_semiconjugacy(phi, quot, 2)
    assert verify_automorphism_exact(quot, ExtendedMoebius.antipodal())
    refl = ExtendedMoebius(
        -CycloNum.one(4), CycloNum.zero(4), CycloNum.zero(4), CycloNum.one(4),
        antiholo=True,
    )
    assert verify_automorphism_exact(quot, refl)
    result = classify_map(quot)
    assert result.verdict == REAL
    assert result.reflection_witness is not None


def test_rotation_form_check_real_psi():
    rng = random.Random(3)
    psi = RationalMap.reduce(
        Poly([1, 2, 3]), Poly([4, 0, 1])
    )  # real coefficients: psi-bar = psi at c = 1
    form = CanonicalCyclicForm(
        n=2, psi=psi, case_tag="a", conjugator=ExtendedMoebius.identity(), degree=5
    )
    check = rotation_form_check(form)
    assert not check.condition_a_holds
    assert check.verdict == REAL


def test_classify_examples():
    for d in (3, 5):
        c = classify_map(silverman(d))
        assert c.verdict == PSEUDO_REAL
        assert c.holo_kind == "Trivial"
        assert c.imaginary_witness is not None
        assert c.reflection_witness is None
    c = classify_map(RationalMap.reduce(z() ** 3, one()))
    assert c.verdict == REAL and c.reflection_witness is not None
    c = classify_map(sample_degree13())
    assert c.verdict == PSEUDO_REAL
    assert (c.holo_kind, c.holo_n) == ("Cyclic", 6)
    assert c.beta == CycloNum.from_rational(-1)


def test_classify_takes_the_form_from_the_next_generator(monkeypatch):
    # the first order-6 generator does not canonicalize; the second one does
    calls, forms = [], []
    canonicalize = classify.canonicalize_cyclic

    def failing_once(phi, gen):
        calls.append(gen)
        if len(calls) == 1:
            raise NotCertifiedError("fixed points of the symmetry are not liftable")
        forms.append(canonicalize(phi, gen))
        return forms[-1]

    monkeypatch.setattr(classify, "canonicalize_cyclic", failing_once)
    c = classify_map(sample_degree13())
    assert len(calls) == 2 and not calls[0].projectively_equal(calls[1])
    assert c.form is forms[0] and c.form.n == 6
    assert c.certified and c.verdict == PSEUDO_REAL
    assert "rotation-form certificate agrees (exact)" in c.consistency_notes
    assert c.beta == CycloNum.from_rational(-1)


def test_classify_reports_an_unresolved_rotation_form_uncertified(monkeypatch):
    check = classify.rotation_form_check

    def unresolved(form):
        result = check(form)
        result.verdict = "unresolved"
        return result

    monkeypatch.setattr(classify, "rotation_form_check", unresolved)
    c = classify_map(sample_degree13())
    assert not c.certified and c.verdict == PSEUDO_REAL
    assert "rotation-form certificate inconclusive" in c.consistency_notes
    assert c.alpha is None and c.beta is None


def test_classify_rejects_low_degree():
    with pytest.raises(BadDegreeError):
        classify_map(RationalMap.reduce(z(), one()))


def test_is_conjugate_to_conjugate():
    assert is_conjugate_to_conjugate(silverman(3))
    assert is_conjugate_to_conjugate(RationalMap.reduce(z() ** 3, one()))
    no_sym = RationalMap.reduce(z() ** 2 + Poly.constant(CycloNum.i()), one())
    assert not is_conjugate_to_conjugate(no_sym)


def test_verdict_invariant_under_conjugation():
    rng = random.Random(44)
    # 50 random conjugators on the antipodal-family map
    for _ in range(50):
        moved = silverman(3).conjugate_by(random_moebius(rng))
        assert classify_map(moved, certify=False).verdict == PSEUDO_REAL
    others = [
        (RationalMap.reduce(z() ** 3, one()), REAL),
        (RationalMap.reduce(z() ** 2 + Poly.constant(CycloNum.i()), one()), NO_ANTIHOLOMORPHIC),
    ]
    for phi, expected in others:
        for _ in range(10):
            moved = phi.conjugate_by(random_moebius(rng))
            assert classify_map(moved, certify=False).verdict == expected


def test_no_antiholomorphic_on_random_dense_maps():
    rng = random.Random(50)
    for _ in range(5):
        phi = random_map(rng, 4)
        c = classify_map(phi, certify=False)
        assert c.verdict in (NO_ANTIHOLOMORPHIC, REAL)
        assert c.holo_kind == "Trivial"


# -- the earlier copies of the rotation-form rules, kept as references --------


def _ref_fold(relations):
    """Relations x^delta = v folded to x^g = w, anchored by the caller."""
    rels = [(d, v) if d >= 0 else (-d, v.inv()) for d, v in relations]
    g, w = rels[0]
    for delta, v in rels[1:]:
        x, y = _bezout(g, delta)
        w = (w ** x) * (v ** y)
        g = math.gcd(g, delta)
    for delta, v in rels:
        if (w ** (delta // g) if g else CycloNum.one(v.order)) != v:
            return None
    return g, w


def _ref_rotation_conjugate_solvable(psi):
    """psi(z) = psi-bar(c z) for a unimodular c, merged by exponent."""
    m = psi.field_order
    by_k = {}
    for poly in (psi.numer, psi.denom):
        for k, coeff in enumerate(poly.rebase(m).coeffs):
            if coeff.is_zero():
                continue
            w = coeff.conj() / coeff
            if k in by_k and by_k[k] != w:
                return False
            by_k.setdefault(k, w)
    ks = sorted(by_k)
    w0 = by_k[ks[0]]
    relations = [(k - ks[0], w0 / by_k[k]) for k in ks[1:]]
    return not relations or _ref_fold(relations) is not None


def _ref_reversed_twisted(p, factor, formal):
    """sum_k p_k factor^k z^(formal - k)."""
    out = [CycloNum.zero(p.order)] * (formal + 1)
    tk = CycloNum.one(factor.order)
    for k, c in enumerate(p.coeffs):
        out[formal - k] = c * tk
        tk = tk * factor
    return Poly(out, common_order(p.order, factor.order))


def _ref_inversion_identity(psi):
    """psi-bar(z) * psi(-1/z) = 1 as conj(P) rev(P) = conj(Q) rev(Q)."""
    minus_one = CycloNum.from_rational(-1)
    p, q, r = psi.numer, psi.denom, psi.degree
    return p.conj() * _ref_reversed_twisted(p, minus_one, r) == (
        q.conj() * _ref_reversed_twisted(q, minus_one, r)
    )


def _ref_arg_scaled(poly, t, formal):
    """Coefficients c_k t^(formal - k): the polynomial side of psi(u/t)."""
    out = []
    power = CycloNum.one(t.order)
    coeffs = poly.padded(formal + 1)
    for k in range(formal, -1, -1):
        out.append(coeffs[k] * power)
        power = power * t
    return Poly(list(reversed(out)))


def _ref_normalizer_action(psi, t, flip):
    r = max(psi.numer.degree, psi.denom.degree)
    scaled = RationalMap.reduce(
        _ref_arg_scaled(psi.numer, t, r), _ref_arg_scaled(psi.denom, t, r)
    )
    return autgrp._flip_psi(scaled) if flip else scaled


def _unit8(rng):
    """A root of unity in Q(zeta_8)."""
    return CycloNum.zeta(8, rng.randrange(8))


def _oracle_psi(rng):
    """psi of degree 1..4: Gaussian, unimodular Q(zeta_8) or family-rule."""
    while True:
        r = rng.randint(1, 4)
        kind = rng.randrange(3)
        if kind == 0:
            numer = [gauss(rng) for _ in range(r)] + [nonzero_gauss(rng)]
            denom = [gauss(rng) for _ in range(rng.randint(1, r + 1))]
        elif kind == 1:
            numer, denom = (
                [_unit8(rng) * rng.randint(1, 3) if rng.random() < 0.6 else 0
                 for _ in range(r + 1)]
                for _ in range(2)
            )
        else:
            numer = [gauss(rng) for _ in range(r + 1)]
            denom = classify.antipodal_denominator(_unit8(rng), numer)
        numer, denom = Poly(numer), Poly(denom)
        if numer.is_zero() or denom.is_zero():
            continue
        psi = RationalMap.reduce(numer, denom)
        if psi.degree >= 1:
            return psi


def _exact_key(poly):
    return poly.order, [(c.order, c.num, c.den) for c in poly.coeffs]


def test_rotation_form_rules_match_their_earlier_copies():
    rng = random.Random(2024)
    minus_one = CycloNum.from_rational(-1)
    seen_solvable, seen_identity = set(), set()
    for _ in range(300):
        psi = _oracle_psi(rng)
        solvable = classify._rotation_conjugate_solvable(psi)
        assert solvable == _ref_rotation_conjugate_solvable(psi), psi
        seen_solvable.add(solvable)
        identity = all(
            e.evaluate(minus_one).is_zero()
            for e in classify._inversion_identity_polynomials(psi)
        )
        assert identity == _ref_inversion_identity(psi), psi
        seen_identity.add(identity)
        t = rng.choice([nonzero_gauss(rng), _unit8(rng) * rng.randint(1, 3),
                        _unit8(rng) + 2, CycloNum.from_rational(2)])
        flip = rng.random() < 0.5
        got = autgrp.normalizer_action(psi, t, flip)
        want = _ref_normalizer_action(psi, t, flip)
        assert (_exact_key(got.numer), _exact_key(got.denom)) == (
            _exact_key(want.numer), _exact_key(want.denom)
        )
        assert got.to_expr() == want.to_expr()
    assert seen_solvable == {False, True} and seen_identity == {False, True}
