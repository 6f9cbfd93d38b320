import cmath
import random

import numpy as np
import pytest

from pseudoreal import INF, CycloNum, ExtendedMoebius, cross_ratio, named_generator
from pseudoreal.moebius import proj_distance, three_point_matrix
from pseudoreal.sphere import conj_point, homog
from pseudoreal.errors import (
    DegenerateTripleError,
    NotAnInvolutionError,
    TooManyCoincidencesError,
)

from conftest import gauss, random_moebius


def test_compose_examples():
    J = ExtendedMoebius.conjugation()
    tau = ExtendedMoebius.antipodal()
    assert J.compose(J).is_identity()
    assert tau.compose(tau).is_identity()
    # (-z) o tau = 1/conj(z), a reflection
    neg = ExtendedMoebius.scaling(-1)
    unit_refl = ExtendedMoebius(
        CycloNum.zero(), CycloNum.one(), CycloNum.one(), CycloNum.zero(), antiholo=True
    )
    assert neg.compose(tau).projectively_equal(unit_refl)
    assert unit_refl.classify_involution() == "reflection"


def test_compose_matches_pointwise_action():
    rng = random.Random(3)
    for _ in range(20):
        g = random_moebius(rng)
        h = random_moebius(rng)
        if rng.random() < 0.5:
            g = ExtendedMoebius(g.a, g.b, g.c, g.d, antiholo=True)
        if rng.random() < 0.5:
            h = ExtendedMoebius(h.a, h.b, h.c, h.d, antiholo=True)
        z = gauss(rng)
        assert g.compose(h).apply(z) == g.apply(h.apply(z))
        assert g.compose(g.inverse()).is_identity()


def test_order_examples():
    assert ExtendedMoebius.rotation(4, 1).order(10) == 4
    for n in (1, 2, 3):
        assert ExtendedMoebius.inversion_rotation(n).order(4 * n) == 2 * n
    assert ExtendedMoebius.scaling(2).order(60) is None


def test_order_halves_on_squares():
    for n in (4, 6, 10):
        g = ExtendedMoebius.rotation(n, 1)
        assert g.order(2 * n) == n
        assert g.compose(g).order(2 * n) == n // 2


def test_involution_classification_normal_forms():
    assert ExtendedMoebius.conjugation().classify_involution() == "reflection"
    assert ExtendedMoebius.antipodal().classify_involution() == "imaginary_reflection"
    unit = ExtendedMoebius(
        CycloNum.zero(), CycloNum.one(), CycloNum.one(), CycloNum.zero(), antiholo=True
    )
    assert unit.classify_involution() == "reflection"
    with pytest.raises(NotAnInvolutionError):
        ExtendedMoebius.rotation(4, 1).classify_involution()
    with pytest.raises(NotAnInvolutionError):
        ExtendedMoebius.inversion_rotation(2).classify_involution()


def test_involution_classification_matches_construction():
    # 500 random involutions of known type: N J N^-1 reflects, N tau N^-1 does not
    rng = random.Random(2024)
    J = ExtendedMoebius.conjugation()
    tau = ExtendedMoebius.antipodal()
    for k in range(500):
        n = random_moebius(rng)
        base = J if k % 2 == 0 else tau
        g = n.compose(base).compose(n.inverse())
        expected = "reflection" if k % 2 == 0 else "imaginary_reflection"
        assert g.classify_involution() == expected


def _newton_fixed_point(g, starts, iters=60):
    # solve g(z) = z in two real unknowns by damped Newton on the residual
    for z0 in starts:
        z = z0
        for _ in range(iters):
            f = g.apply(z)
            if f is INF:
                z += 0.1 + 0.1j
                continue
            r = f - z
            if abs(r) < 1e-12:
                return z
            h = 1e-6
            fz = g.apply(z + h)
            fw = g.apply(z + 1j * h)
            if fz is INF or fw is INF:
                z += 0.05
                continue
            # real Jacobian of residual via two directional derivatives
            dx = (fz - f) / h - 1
            dy = (fw - f) / h - 1j
            det = dx.real * dy.imag - dy.real * dx.imag
            if abs(det) < 1e-14:
                break
            sx = (-r.real * dy.imag + r.imag * dy.real) / det
            sy = (-dx.real * r.imag + dx.imag * r.real) / det
            z = z + complex(sx, sy)
        f = g.apply(z)
        if f is not INF and abs(f - z) < 1e-9:
            return z
    return None


def test_involution_classification_agrees_with_fixed_point_solver():
    rng = random.Random(555)
    J = ExtendedMoebius.conjugation()
    tau = ExtendedMoebius.antipodal()
    starts = [cmath.exp(2j * cmath.pi * k / 12) * r for k in range(12) for r in (0.3, 1.0, 2.5)]
    for k in range(60):
        n = random_moebius(rng)
        base = J if k % 2 == 0 else tau
        g = n.compose(base).compose(n.inverse()).to_numeric()
        found = _newton_fixed_point(g, starts)
        if g.classify_involution(tol=1e-6) == "reflection":
            assert found is not None
        else:
            assert found is None


def test_from_three_points_examples():
    zero, one_ = CycloNum.zero(), CycloNum.one()
    t = ExtendedMoebius.from_three_points([zero, one_, INF], [zero, one_, INF])
    assert t.is_identity()
    t = ExtendedMoebius.from_three_points([zero, one_, INF], [INF, one_, zero])
    assert t.projectively_equal(ExtendedMoebius.inversion())
    t = ExtendedMoebius.from_three_points([zero, one_, INF], [zero, one_, INF], antiholo=True)
    assert t.projectively_equal(ExtendedMoebius.conjugation())
    with pytest.raises(DegenerateTripleError):
        ExtendedMoebius.from_three_points([zero, zero, INF], [zero, one_, INF])


def _seeded_triples():
    """The (sources, targets, antiholo) draws of a fixed seed."""
    rng = random.Random(8)
    out = []
    for _ in range(25):
        pts = [gauss(rng) for _ in range(3)]
        if any(pts[i] == pts[j] for i in range(3) for j in range(i + 1, 3)):
            continue
        targets = [INF, gauss(rng), gauss(rng)]
        if targets[1] == targets[2]:
            continue
        out.append((pts, targets, rng.random() < 0.5))
    return out


def test_from_three_points_random_round_trip():
    for pts, targets, anti in _seeded_triples():
        t = ExtendedMoebius.from_three_points(pts, targets, antiholo=anti)
        for p, q in zip(pts, targets):
            got = t.apply(p)
            assert (got is INF and q is INF) or got == q


def test_three_point_matrix_on_arrays_matches_from_three_points():
    # the candidate search builds one matrix per target triple at once,
    # with unit homogeneous pairs whose coordinates are arrays
    triples = _seeded_triples()
    assert len(triples) >= 20

    def stacked(triple_of_points):
        pairs = np.array(
            [[homog(p if p is INF else p.to_complex()) for p in pts] for pts in triple_of_points]
        )
        return pairs.transpose(1, 2, 0)  # point, coordinate, triple

    sources = stacked([[conj_point(p) if anti else p for p in pts] for pts, _, anti in triples])
    targets = stacked([t for _, t, _ in triples])
    entries = np.stack(three_point_matrix(sources, targets), axis=1)
    for row, (pts, t, anti) in zip(entries, triples):
        ref = ExtendedMoebius.from_three_points(pts, t, antiholo=anti)
        assert proj_distance(ExtendedMoebius(*row, antiholo=anti), ref) <= 1e-12


def test_cross_ratio_orbit_points():
    i = CycloNum.i()
    value = cross_ratio(CycloNum.one(), CycloNum.zero(), -i, -CycloNum.one())
    assert value == (CycloNum.one() - i) / CycloNum.from_rational(2)
    assert not value.is_real()


def test_cross_ratio_real_cases():
    # 0, 1, inf, x is an affine function of x; real for real x
    for x in (-3, 2, 7):
        v = cross_ratio(CycloNum.zero(), CycloNum.one(), INF, CycloNum.from_rational(x))
        assert v.is_real()
    # four points on the unit circle are concyclic
    pts = [CycloNum.zeta(12, k) for k in (0, 2, 5, 9)]
    assert cross_ratio(*pts).is_real()
    with pytest.raises(TooManyCoincidencesError):
        cross_ratio(CycloNum.one(), CycloNum.one(), CycloNum.one(), CycloNum.zero())


def test_cross_ratio_moebius_invariance():
    rng = random.Random(12)
    for _ in range(15):
        pts = []
        while len(pts) < 4:
            p = gauss(rng)
            if not any(p == q for q in pts):
                pts.append(p)
        base = cross_ratio(*pts)
        g = random_moebius(rng)
        assert cross_ratio(*[g.apply(p) for p in pts]) == base
        anti = ExtendedMoebius(g.a, g.b, g.c, g.d, antiholo=True)
        assert cross_ratio(*[anti.apply(p) for p in pts]) == base.conj()


def test_named_generator_relations():
    A = named_generator("A")
    B = named_generator("B")
    C = named_generator("C")
    D = named_generator("D")
    for g in (A, B, C, D):
        assert g.order(5) == 2
    for n in (2, 3, 5, 7):
        t = named_generator("T", n)
        assert t.order(2 * n) == n
        assert t.compose(A).order(5) == 2  # dihedral relation (T А)^2 = I
    assert named_generator("T", 3).compose(B).order(10) == 3
    assert named_generator("T", 4).compose(C).order(10) == 3
    assert named_generator("T", 5).compose(D).order(10) == 3


def test_named_generator_fields_and_embeddings():
    import math

    B = named_generator("B")
    assert B.a.order == 12
    assert abs(B.a.to_complex() - (math.sqrt(3) - 1)) < 1e-12
    C = named_generator("C")
    assert C.d.order == 8
    assert abs(C.d.to_complex() - (math.sqrt(2) + 1)) < 1e-12
    D = named_generator("D")
    assert D.d.order == 20
    s = math.sqrt(2 - 2 * math.cos(2 * math.pi / 5))
    assert abs(D.d.to_complex() - (1 + s)) < 1e-12


def test_projectively_equal_exact_across_fields():
    rng = random.Random(23)
    w8 = CycloNum.zeta(8, 1)
    for _ in range(10):
        g = random_moebius(rng)
        h = ExtendedMoebius(*(w8 * e for e in (g.a, g.b, g.c, g.d)))
        assert g.a.order == 4 and h.a.order == 8
        assert g.projectively_equal(h) and h.projectively_equal(g)
        anti = ExtendedMoebius(h.a, h.b, h.c, h.d, antiholo=True)
        assert not g.projectively_equal(anti)
    zero, one = CycloNum.zero(), CycloNum.one()
    flip = ExtendedMoebius.inversion()
    assert flip.projectively_equal(ExtendedMoebius(zero, w8, w8, zero))
    # not proportional: the off-diagonal entries differ by a factor 2
    assert not flip.projectively_equal(ExtendedMoebius(zero, w8, 2 * w8, zero))
    assert not ExtendedMoebius.identity().projectively_equal(ExtendedMoebius(one, one, zero, one))


def test_compose_associative():
    rng = random.Random(20)
    for _ in range(15):
        g, h, k = (random_moebius(rng) for _ in range(3))
        lhs = g.compose(h).compose(k)
        rhs = g.compose(h.compose(k))
        assert lhs.projectively_equal(rhs)
