"""Seeded benchmark inputs and the known answer for each of them.

Every workload is an endless sequence of passes drawn from one
``random.Random(seed)``; pass k of a seed is always the same list of maps.
The program under test only ever sees ``Case.expr``.  The expected
``verdict`` and ``holo_type`` come from theory, never from a run of the
program, and ``Case.basis`` names the reason:

* ``paper theorem``: i((z-1)/(z+1))^d, d odd, is pseudo-real with trivial
  holomorphic symmetry group.
* ``construction theorem``: ``cyclic_pseudo_real_family(n, r, ...)`` is
  pseudo-real with symmetry group exactly the order-n rotations whenever the
  constructor accepts its input (it re-verifies the hypotheses exactly).
* ``documented sample``: the answers stated for ``sample_degree13`` and
  ``sample_degree3_order4`` in the package README and docstrings.
* ``genericity``: maps with symmetries form a proper subvariety, so a map
  with random dense Gaussian-integer coefficients has no nontrivial
  holomorphic or antiholomorphic symmetry.
* ``conjugation invariance``: verdict and group type are properties of the
  conjugacy class, so a Moebius conjugate keeps the answer of its base map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from pseudoreal import (
    CycloNum,
    ExtendedMoebius,
    Poly,
    RationalMap,
    cyclic_pseudo_real_family,
    sample_degree3_order4,
    sample_degree13,
    silverman,
)
from pseudoreal.cli import parse_map_expr
from pseudoreal.errors import ConditionViolationError

PSEUDO_REAL = "pseudo_real"
NO_ANTIHOLOMORPHIC = "no_antiholomorphic"

SILVERMAN_DEGREES = tuple(range(3, 26, 2))
DENSE_DEGREES = tuple(range(4, 17))
DENSE_SPAN = 3
# (n, r) pairs of the rotation family with degree 1 + n r at most 41; the
# degree-49 pair (12, 4) alone would take half of a pass.
ROTATION_PAIRS = tuple(
    (n, r) for n in (6, 8, 10, 12) for r in (2, 4) if 1 + n * r <= 41
)
ROTATION_SPAN = 2
# unimodular e^(i theta) kept inside Q(i), the field of the coefficients
UNIT_THETAS = ((1, 0), (0, 1), (-1, 0), (0, -1))
MOEBIUS_SPAN = 3


@dataclass(frozen=True)
class Case:
    """One input map and its known answer."""

    label: str
    expr: str
    verdict: str
    holo_type: str
    basis: str


def _case(label: str, phi: RationalMap, verdict: str, holo_type: str, basis: str) -> Case:
    expr = phi.to_expr()
    if parse_map_expr(expr) != phi:
        raise RuntimeError(f"{label}: the expression does not parse back to the map")
    return Case(label, expr, verdict, holo_type, basis)


def _gauss(rng: random.Random, span: int) -> CycloNum:
    return CycloNum.gaussian(rng.randint(-span, span), rng.randint(-span, span))


def _nonzero_gauss(rng: random.Random, span: int) -> CycloNum:
    while True:
        value = _gauss(rng, span)
        if not value.is_zero():
            return value


def _dense_map(rng: random.Random, degree: int) -> RationalMap:
    """Numerator and denominator both of full degree, redrawn until the
    reduced map keeps that degree."""
    while True:
        numer, denom = (
            Poly([_gauss(rng, DENSE_SPAN) for _ in range(degree)]
                 + [_nonzero_gauss(rng, DENSE_SPAN)])
            for _ in range(2)
        )
        if numer.is_zero() or denom.is_zero():
            continue
        phi = RationalMap.reduce(numer, denom)
        if phi.degree == degree:
            return phi


def _rotation_map(rng: random.Random, n: int, r: int) -> RationalMap:
    """A member of the family, redrawn while the constructor rejects it."""
    while True:
        theta = CycloNum.gaussian(*rng.choice(UNIT_THETAS))
        coeffs = [_gauss(rng, ROTATION_SPAN) for _ in range(r + 1)]
        try:
            return cyclic_pseudo_real_family(n, r, theta, coeffs)
        except ConditionViolationError:
            continue


def _moebius(rng: random.Random) -> ExtendedMoebius:
    while True:
        a, b, c, d = (_gauss(rng, MOEBIUS_SPAN) for _ in range(4))
        if not (a * d - b * c).is_zero():
            return ExtendedMoebius(a, b, c, d)


def dense_trivial_pass(rng: random.Random) -> list[Case]:
    cases = [
        _case(f"silverman({d})", silverman(d), PSEUDO_REAL, "Trivial", "paper theorem")
        for d in SILVERMAN_DEGREES
    ]
    cases += [
        _case(f"dense({d})", _dense_map(rng, d), NO_ANTIHOLOMORPHIC, "Trivial", "genericity")
        for d in DENSE_DEGREES
    ]
    return cases


def rotation_family_pass(rng: random.Random) -> list[Case]:
    cases = [
        _case(f"cyclic(n={n},r={r})", _rotation_map(rng, n, r), PSEUDO_REAL,
              f"Cyclic({n})", "construction theorem")
        for n, r in ROTATION_PAIRS
    ]
    cases.append(_case("sample_degree13", sample_degree13(), PSEUDO_REAL,
                       "Cyclic(6)", "documented sample"))
    cases.append(_case("sample_degree3_order4", sample_degree3_order4(), PSEUDO_REAL,
                       "Cyclic(2)", "documented sample"))
    return cases


def scrambled_pass(rng: random.Random) -> list[Case]:
    """Conjugates of one pass of each other workload, in seeded order."""
    bases = dense_trivial_pass(rng) + rotation_family_pass(rng)
    rng.shuffle(bases)
    cases = []
    for base in bases:
        phi = parse_map_expr(base.expr).conjugate_by(_moebius(rng))
        cases.append(_case(f"scrambled {base.label}", phi, base.verdict, base.holo_type,
                           f"conjugation invariance of {base.basis}"))
    return cases


WORKLOADS = {
    "dense-trivial": dense_trivial_pass,
    "rotation-family": rotation_family_pass,
    "scrambled": scrambled_pass,
}


def passes(workload: str, seed: int):
    """The workload's passes for this seed, generated on demand."""
    make_pass = WORKLOADS[workload]
    rng = random.Random(seed)
    while True:
        yield make_pass(rng)

