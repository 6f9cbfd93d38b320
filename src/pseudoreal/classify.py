"""Real / pseudo-real classification of rational maps.

A map is real when its symmetry group contains a reflection (an
antiholomorphic involution with fixed points), pseudo-real when it has
antiholomorphic symmetries but none of them is a reflection, and plain
otherwise.  The decision comes from the computed group; two exact
certificates cross-check it where available:

* the coefficient criterion for the antipodal map -1/conj(z): the map
  commutes with it iff the degree d is odd and some unimodular factor
  links the coefficient lists by b_k = (-1)^k * c * conj(a_(d-k));
* for maps in the rotation normal form z * psi(z^n): solvability of
  psi(z) = psi-bar(c z) (which forces a reflection) and of
  psi(z) * psi-bar(beta / z) = 1 for a unimodular beta != 1 (which gives
  an orientation-reversing symmetry swapping 0 and infinity).

Disagreement between the certificates and the group computation raises
ConsistencyViolationError: it indicates a bug, never an expected state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .autgrp import (
    AutGroupReport,
    CanonicalCyclicForm,
    aut_group_report,
    canonicalize_cyclic,
)
from .cyclotomic import CycloNum, common_order, fold_power_relations, lift, solve_scalar_identity
from .errors import (
    BadDegreeError,
    ConsistencyViolationError,
    NotCertifiedError,
    NotCanonicalError,
)
from .moebius import ExtendedMoebius
from .polyring import Poly, poly_gcd, roots_numeric
from .ratmap import RationalMap

REAL = "real"
PSEUDO_REAL = "pseudo_real"
NO_ANTIHOLOMORPHIC = "no_antiholomorphic"


# -- coefficient criterion for the antipodal involution ------------------------


def antipodal_denominator(theta: CycloNum, coeffs: list[CycloNum]) -> list[CycloNum]:
    """b_k = (-1)^k * theta * conj(a_(d-k)) for the numerator coefficients
    a_0..a_d: the denominator rule of maps commuting with -1/conj(z)."""
    d = len(coeffs) - 1
    out = []
    for k in range(d + 1):
        term = theta * coeffs[d - k].conj()
        out.append(-term if k % 2 == 1 else term)
    return out


def antipodal_witness(phi: RationalMap) -> CycloNum | None:
    """The unimodular factor c = e^(i theta) with
    b_k = (-1)^k * c * conj(a_(d-k)) for all k, when one exists.

    Such a factor exists iff -1/conj(z) commutes with the map; it requires
    odd degree.  Coefficient lists are taken at formal degree d."""
    d = phi.degree
    if d % 2 == 0:
        return None
    a = phi.numer.padded(d + 1)
    b = phi.denom.padded(d + 1)
    found = solve_scalar_identity(b, antipodal_denominator(CycloNum.one(), a))
    return found[0] if found else None


# -- the rotation-normal-form criteria ----------------------------------------


@dataclass
class RotationFormCheck:
    """Outcome of the two reality conditions on z * psi(z^n)."""

    n: int
    condition_a_holds: bool              # no unimodular c with psi(z) = psi-bar(c z)
    admissible_betas: list[CycloNum]     # exact unimodular solutions of the inversion identity
    includes_beta_one: bool
    unresolved_betas: list[complex]      # numeric unimodular roots that resisted lifting
    verdict: str
    beta: CycloNum | None = None
    alpha_exact: CycloNum | None = None
    alpha_numeric: complex | None = None
    notes: list[str] = field(default_factory=list)


def _rotation_conjugate_solvable(psi: RationalMap) -> bool:
    """Existence of a unimodular c with psi(z) = psi-bar(c z).

    Reduced fractions force conj(x_k) c^k = mu x_k coefficient-wise with
    one scalar mu shared by numerator and denominator: (conj(x_k)/x_k) c^k
    is one value for every nonzero coefficient, and such unimodular
    relations are solvable on the unit circle iff they are consistent."""
    terms = [
        (k, coeff.conj() / coeff)
        for poly in (psi.numer, psi.denom)
        for k, coeff in enumerate(poly.coeffs)
        if not coeff.is_zero()
    ]
    return fold_power_relations(terms) is not None


def _inversion_identity_polynomials(psi: RationalMap) -> list[Poly]:
    """For each power of z, the polynomial in beta whose vanishing encodes
    psi(z) * psi-bar(beta/z) = 1 (cross-multiplied)."""
    m = common_order(psi.field_order, 4)
    r = max(psi.numer.degree, psi.denom.degree)
    p = [c.rebase(m) for c in psi.numer.padded(r + 1)]
    q = [c.rebase(m) for c in psi.denom.padded(r + 1)]
    zero = CycloNum.zero(m)
    out = []
    for j in range(2 * r + 1):
        coeffs = [zero] * (r + 1)
        for k in range(r + 1):
            i = j - r + k
            if 0 <= i <= r:
                coeffs[k] = coeffs[k] + (p[i] * p[k].conj() - q[i] * q[k].conj())
        poly = Poly(coeffs, m)
        if not poly.is_zero():
            out.append(poly)
    return out


def _admissible_inversion_factors(psi: RationalMap):
    """(exact unimodular betas, includes_one, unresolved numeric betas)."""
    eqs = _inversion_identity_polynomials(psi)
    if not eqs:
        # identity holds for every beta; beta = 1 included
        return [], True, []
    g = eqs[0]
    for e in eqs[1:]:
        if g.degree == 0:
            break
        g = poly_gcd(g, e)
    one = CycloNum.one(g.order)
    includes_one = all(e.evaluate(one).is_zero() for e in eqs)
    exact: list[CycloNum] = []
    unresolved: list[complex] = []
    # g.order is a multiple of 4; the field with zeta_8 comes first, since
    # the field that accepts beta decides how it prints
    m = g.order
    fields = (common_order(m, 8), m, common_order(m, 12))

    def is_root(beta: CycloNum) -> bool:
        return beta.is_unimodular() and g.evaluate(beta).is_zero()

    if g.degree >= 1:
        for root, _ in roots_numeric(g):
            if abs(abs(root) - 1.0) > 1e-6:
                continue
            if abs(root - 1.0) <= 1e-9:
                continue  # handled exactly above
            lifted = lift(root, fields, is_root)
            if lifted is not None:
                exact.append(lifted)
            else:
                unresolved.append(root)
    return exact, includes_one, unresolved


def _root_of_unity_power(beta: CycloNum) -> tuple[int, int] | None:
    """(L, j) with beta = zeta_L^j, or None when beta is not a root of unity."""
    bound = int(math.lcm(2, beta.order))
    acc = beta
    for k in range(1, bound + 1):
        if acc.is_one():
            # beta^k = 1; locate the exponent by exact comparison with zeta_k^j
            for j in range(k):
                if beta == CycloNum.zeta(k, j):
                    return (k, j)
            return None
        acc = acc * beta
    return None


def rotation_form_check(form: CanonicalCyclicForm) -> RotationFormCheck:
    """Decide reality for a map in rotation normal form z * psi(z^n).

    Condition (a): no unimodular c satisfies psi(z) = psi-bar(c z); its
    failure produces a reflection fixing 0 and infinity.  Condition (b):
    some unimodular beta = alpha^n solves psi(z) * psi-bar(beta/z) = 1;
    the symmetry alpha/conj(z) it produces avoids being a reflection
    exactly when beta != 1.  Pseudo-real iff (a) holds and such a beta
    exists while beta = 1 is not admissible."""
    if form.n < 2:
        raise NotCanonicalError("rotation normal form needs order n >= 2")
    psi = form.psi
    solvable = _rotation_conjugate_solvable(psi)
    betas, includes_one, unresolved = _admissible_inversion_factors(psi)
    notes: list[str] = []
    if not solvable:
        if includes_one:
            verdict = REAL
            notes.append("beta = 1 admissible: a reflection 1/conj(z)-type symmetry exists")
        elif betas:
            verdict = PSEUDO_REAL
        elif unresolved:
            verdict = "unresolved"
            notes.append("unimodular candidates resisted exact lifting")
        else:
            verdict = NO_ANTIHOLOMORPHIC
    else:
        verdict = REAL
        notes.append("psi(z) = psi-bar(c z) solvable: rotation-axis reflection exists")
    check = RotationFormCheck(
        n=form.n,
        condition_a_holds=not solvable,
        admissible_betas=betas,
        includes_beta_one=includes_one,
        unresolved_betas=unresolved,
        verdict=verdict,
        notes=notes,
    )
    if verdict == PSEUDO_REAL:
        beta = betas[0]
        check.beta = beta
        ru = _root_of_unity_power(beta)
        if ru is not None:
            order, j = ru
            check.alpha_exact = CycloNum.zeta(order * form.n, j)
        check.alpha_numeric = beta.to_complex() ** (1.0 / form.n)
    return check


# -- the full pipeline -------------------------------------------------------------


@dataclass
class Classification:
    verdict: str
    degree: int
    holo_kind: str
    holo_n: int | None
    theta: CycloNum | None
    alpha: CycloNum | None
    alpha_numeric: complex | None
    beta: CycloNum | None
    reflection_witness: ExtendedMoebius | None
    imaginary_witness: ExtendedMoebius | None
    mode: str
    certified: bool
    consistency_notes: list[str]
    report: AutGroupReport
    form: CanonicalCyclicForm | None  # the rotation normal form, for Cyclic groups

    def holo_label(self) -> str:
        return self.report.holo_label()


def classify_map(phi: RationalMap, *, certify: bool = True) -> Classification:
    """Compute the symmetry group and decide real / pseudo-real status;
    ``certify=False`` skips exact certification of the group."""
    if phi.degree < 2:
        raise BadDegreeError("classification needs degree >= 2")
    report = aut_group_report(phi, certify=certify)
    notes = list(report.notes)
    antis = report.antiholo_elements

    reflection = None
    imaginary = None
    for g, k in report.with_orders(antiholo=True):
        if k == 2:
            kind = g.classify_involution(tol=1e-6)
            if kind == "reflection" and reflection is None:
                reflection = g
            elif kind == "imaginary_reflection" and imaginary is None:
                imaginary = g

    if not antis:
        verdict = NO_ANTIHOLOMORPHIC
    elif reflection is not None:
        verdict = REAL
    else:
        verdict = PSEUDO_REAL

    theta = antipodal_witness(phi)
    if theta is not None:
        notes.append("antipodal coefficient identity holds (exact)")

    alpha = None
    alpha_numeric = None
    beta = None
    form = None
    certified = report.certified
    if report.holo_kind == "Trivial" and antis:
        notes.append("trivial symmetry group: classified by involution type")
    if report.holo_kind == "Cyclic":
        exact_gens = [
            g for g, k in report.with_orders(antiholo=False) if g.exact and k == report.holo_n
        ]
        if exact_gens:
            for gen in exact_gens:
                try:
                    form = canonicalize_cyclic(phi, gen)
                    break
                except NotCertifiedError:
                    continue
            if form is not None:
                check = rotation_form_check(form)
                if check.verdict == "unresolved":
                    certified = False
                    notes.append("rotation-form certificate inconclusive")
                elif check.verdict != verdict:
                    raise ConsistencyViolationError(
                        f"rotation-form certificate says {check.verdict}, "
                        f"group computation says {verdict}"
                    )
                else:
                    notes.append("rotation-form certificate agrees (exact)")
                    alpha = check.alpha_exact
                    alpha_numeric = check.alpha_numeric
                    beta = check.beta
            else:
                certified = False
                notes.append("cyclic generator not liftable; no exact rotation-form certificate")
        else:
            certified = False
            notes.append("no exact cyclic generator available")

    if verdict == PSEUDO_REAL:
        if phi.degree % 2 == 0 or phi.degree < 3:
            raise ConsistencyViolationError(
                f"pseudo-real verdict at degree {phi.degree}; odd degree >= 3 required"
            )
        if report.holo_kind not in ("Trivial", "Cyclic"):
            raise ConsistencyViolationError(
                f"pseudo-real verdict with {report.holo_kind} symmetry group"
            )
        if phi.is_polynomial_like(report.points):
            raise ConsistencyViolationError(
                "pseudo-real verdict on a polynomial-like map"
            )
        notes.append("pseudo-real necessary conditions verified: odd degree, "
                     "not polynomial-like, trivial-or-cyclic symmetries")

    return Classification(
        verdict=verdict,
        degree=phi.degree,
        holo_kind=report.holo_kind,
        holo_n=report.holo_n,
        theta=theta,
        alpha=alpha,
        alpha_numeric=alpha_numeric,
        beta=beta,
        reflection_witness=reflection,
        imaginary_witness=imaginary,
        mode=report.mode,
        certified=certified,
        consistency_notes=notes,
        report=report,
        form=form,
    )


def is_conjugate_to_conjugate(phi: RationalMap) -> bool:
    """True iff phi is Moebius-conjugate to the coefficient-conjugated map.

    T o phi o T^(-1) = phi-bar holds for some Moebius T iff J o T is an
    antiholomorphic symmetry of phi, so this is exactly the existence of
    an antiholomorphic element in the computed group."""
    return classify_map(phi).verdict != NO_ANTIHOLOMORPHIC
