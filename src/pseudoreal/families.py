"""Constructors for explicit pseudo-real maps and the quotient construction.

* silverman(d): i * ((z-1)/(z+1))^d for odd d >= 3; admits the antipodal
  involution -1/conj(z) and no reflection.
* cyclic_pseudo_real_family: z * psi(z^n) with the denominator of psi built
  from the numerator by b_k = (-1)^k * e^(i theta) * conj(a_(r-k)); under
  the stated coefficient inequalities the map is pseudo-real with
  symmetry group exactly the order-n rotations.
* quotient_map: for a map in rotation normal form, the degree-preserving
  quotient under z -> z^n, which trades the rotation symmetry for the
  antipodal involution on the quotient sphere.
"""

from __future__ import annotations

from .autgrp import CanonicalCyclicForm
from .classify import (
    _inversion_identity_polynomials,
    _rotation_conjugate_solvable,
    antipodal_denominator,
)
from .cyclotomic import CycloNum, common_order
from .errors import BadDegreeError, ConditionViolationError, NotCanonicalError
from .polyring import Poly
from .ratmap import RationalMap


def silverman(d: int) -> RationalMap:
    """i * ((z-1)/(z+1))^d, expanded exactly over Q(i); d odd, d >= 3."""
    if d < 3 or d % 2 == 0:
        raise BadDegreeError("the family needs odd degree d >= 3")
    i = CycloNum.i()
    z = Poly.x(4)
    one = Poly.one(4)
    return RationalMap.reduce(Poly.constant(i) * (z - one) ** d, (z + one) ** d)


def cyclic_pseudo_real_family(
    n: int, r: int, theta: CycloNum, coeffs
) -> RationalMap:
    """z * psi(z^n) with denominator b_k = (-1)^k e^(i theta) conj(a_(r-k)).

    Requires n >= 6, even r >= 2, unimodular e^(i theta), a_1 a_r != 0 and
    a_0 a_r != e^(2 i theta) conj(a_0 a_r).  The construction hypotheses
    are re-verified exactly: beta = -1 must solve the inversion identity
    psi(z) * psi-bar(beta/z) = 1 of the rotation-form criterion, and
    psi(z) = psi-bar(c z) must have no unimodular solution c.  The result
    has degree 1 + n r, is pseudo-real, and its holomorphic symmetries
    are exactly the order-n rotations."""
    coeffs = [CycloNum._coerce(c) for c in coeffs]
    if n < 6:
        raise ConditionViolationError("rotation order n must be at least 6")
    if r < 2 or r % 2 == 1:
        raise ConditionViolationError("psi degree r must be even and at least 2")
    if len(coeffs) != r + 1:
        raise ConditionViolationError(f"need r + 1 = {r + 1} coefficients")
    theta = CycloNum._coerce(theta)
    if not theta.is_unimodular():
        raise ConditionViolationError("theta parameter must be unimodular")
    # with a_1 != 0 and psi of degree r below, no factor of psi cancels,
    # so psi keeps its z^1 term and is never a function of z^m for m >= 2:
    # the rotation group is exactly the order-n rotations
    if coeffs[1].is_zero() or coeffs[r].is_zero():
        raise ConditionViolationError("a_1 * a_r must be nonzero")
    prod = coeffs[0] * coeffs[r]
    if prod == theta * theta * prod.conj():
        raise ConditionViolationError(
            "a_0 * a_r = e^(2 i theta) * conj(a_0 * a_r): the inversion flip "
            "z -> s/z would be a symmetry"
        )
    psi = RationalMap.reduce(Poly(coeffs), Poly(antipodal_denominator(theta, coeffs)))
    if psi.degree != r:
        raise ConditionViolationError("psi degenerated under reduction")
    # exact inversion identity psi(z) * psi-bar(-1/z) = 1: beta = -1 is a
    # root of every polynomial that encodes psi(z) * psi-bar(beta/z) = 1
    minus_one = CycloNum.from_rational(-1)
    eqs = _inversion_identity_polynomials(psi)
    if any(not e.evaluate(minus_one).is_zero() for e in eqs):
        raise ConditionViolationError("inversion identity psi-bar(z) = 1/psi(-1/z) failed")
    # safety: the rotation-axis reflection must not exist
    if _rotation_conjugate_solvable(psi):
        raise ConditionViolationError("psi(z) = psi-bar(c z) solvable; map would be real")
    z = Poly.x(psi.field_order)
    return RationalMap.reduce(
        z * psi.numer.substitute_power(n), psi.denom.substitute_power(n)
    )


def sample_degree13() -> RationalMap:
    """The built-in degree-13 sample: z (1 + z^6 + i z^12)/(-i - z^6 + z^12),
    pseudo-real with symmetry group the order-6 rotations."""
    i = CycloNum.i()
    return cyclic_pseudo_real_family(
        6, 2, CycloNum.one(4), [CycloNum.one(4), CycloNum.one(4), i]
    )


def sample_degree3_order4() -> RationalMap:
    """(1 + i z^2)/(z - i z^3): a degree-3 pseudo-real map whose holomorphic
    symmetries are exactly {z, -z} and whose antiholomorphic symmetries
    i/conj(z) and -i/conj(z) have order four, so no reflection exists.

    This witnesses an order-4 antiholomorphic symmetry in degree 3 (the
    tests pin the full certificate)."""
    i = CycloNum.i()
    z = Poly.x(4)
    one = Poly.one(4)
    return RationalMap.reduce(
        one + Poly.constant(i) * z * z, z - Poly.constant(i) * z ** 3
    )


def quotient_map(form: CanonicalCyclicForm) -> RationalMap:
    """The quotient of z * psi(z^n) under the branched cover w = z^n:
    w -> w * psi(w)^n, reduced."""
    if form.n < 2:
        raise NotCanonicalError("quotient needs rotation order n >= 2")
    psi = form.psi
    w = Poly.x(psi.field_order)
    return RationalMap.reduce(w * psi.numer ** form.n, psi.denom ** form.n)


def verify_semiconjugacy(phi: RationalMap, quotient: RationalMap, n: int) -> bool:
    """Exact check of (z^n) o phi = quotient o (z^n), i.e.
    phi(z)^n = quotient(z^n) as rational functions."""
    if n < 2:
        raise ValueError("cover degree n must be at least 2")
    m = common_order(phi.field_order, quotient.field_order)
    lhs_num = phi.numer.rebase(m) ** n
    lhs_den = phi.denom.rebase(m) ** n
    rhs_num = quotient.numer.rebase(m).substitute_power(n)
    rhs_den = quotient.denom.rebase(m).substitute_power(n)
    return lhs_num * rhs_den == rhs_num * lhs_den
