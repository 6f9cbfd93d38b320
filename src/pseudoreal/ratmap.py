"""Rational maps P/Q on the Riemann sphere as dynamical objects.

A RationalMap is stored reduced (gcd(P, Q) = 1) with a canonical
projective scale, so two maps are equal as rational functions iff their
coefficient tuples agree.  The degree is max(deg P, deg Q); membership in
the degree-d family (nonvanishing formal resultant) follows from
reducedness plus one of the polynomials attaining degree d.

Conjugation by extended Moebius transformations g computes g o phi o
g^(-1) exactly; for antiholomorphic g this first conjugates the
coefficients (phi-bar) and then applies the matrix substitution, matching
the conjugate-first orientation convention of the moebius module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import CycloNum, common_order
from .errors import BadDegreeError, DegenerateSetError, ZeroMapError
from .moebius import ExtendedMoebius
from .polyring import Poly, poly_gcd, roots_numeric
from .sphere import INF, homog, is_inf


class RationalMap:
    """A reduced rational map of degree >= 0."""

    __slots__ = ("numer", "denom", "degree")

    def __init__(self, numer: Poly, denom: Poly, _reduced: bool = False):
        if not _reduced:
            raise TypeError("use RationalMap.reduce to construct maps")
        self.numer = numer
        self.denom = denom
        self.degree = max(numer.degree, denom.degree)

    @classmethod
    def reduce(cls, numer: Poly, denom: Poly) -> "RationalMap":
        """Cancel the gcd and normalize the projective scale."""
        if numer.is_zero() and denom.is_zero():
            raise ZeroMapError("numerator and denominator are both zero")
        m = common_order(numer.order, denom.order)
        numer, denom = numer.rebase(m), denom.rebase(m)
        g = poly_gcd(numer, denom)
        if g.degree > 0:
            numer = numer // g
            denom = denom // g
        pivot = denom.lead() if not denom.is_zero() else numer.lead()
        inv = pivot.inv()
        return cls(numer.scale(inv), denom.scale(inv), _reduced=True)

    @property
    def field_order(self) -> int:
        return common_order(self.numer.order, self.denom.order)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, z):
        """Value at an exact sphere point (total on the sphere)."""
        if is_inf(z):
            dp, dq = self.numer.degree, self.denom.degree
            if dp > dq:
                return INF
            if dp < dq:
                return CycloNum.zero(self.field_order)
            return self.numer.lead() / self.denom.lead()
        z = CycloNum._coerce(z)
        num = self.numer.evaluate(z)
        den = self.denom.evaluate(z)
        if den.is_zero():
            return INF
        return num / den

    def orbit(self, z, length: int) -> list:
        out = [z]
        for _ in range(length):
            out.append(self.evaluate(out[-1]))
        return out

    # -- algebraic views -----------------------------------------------------

    def conj_map(self) -> "RationalMap":
        """phi-bar: the map with conjugated coefficients."""
        return RationalMap(self.numer.conj(), self.denom.conj(), _reduced=True)

    def conjugate_by(self, g: ExtendedMoebius) -> "RationalMap":
        """g o self o g^(-1), exact; a group action on maps."""
        base = self.conj_map() if g.antiholo else self
        a, b, c, d = g.a, g.b, g.c, g.d
        if not g.exact:
            raise TypeError("exact conjugation needs exact matrix entries")
        deg = max(base.numer.degree, base.denom.degree)
        # substitute the inverse (adjugate) first: z -> (d z - b) / (-c z + a)
        u = Poly([-b, d])
        v = Poly([a, -c])
        p_sub = _homogeneous_substitute(base.numer, u, v, deg)
        q_sub = _homogeneous_substitute(base.denom, u, v, deg)
        new_num = p_sub.scale(a) + q_sub.scale(b)
        new_den = p_sub.scale(c) + q_sub.scale(d)
        result = RationalMap.reduce(new_num, new_den)
        if result.degree != self.degree:
            raise ArithmeticError("conjugation changed the degree; matrix is singular")
        return result

    def equals_projective(self, other: "RationalMap") -> bool:
        """Same rational function.

        ``reduce`` makes a map canonical: numerator and denominator coprime,
        the denominator monic (the numerator when the denominator is zero).
        Two maps in this form are the same function iff their numerators
        are equal and their denominators are equal, in any common field."""
        return self.numer == other.numer and self.denom == other.denom

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return self.equals_projective(other)

    __hash__ = None

    # -- distinguished finite data ----------------------------------------------

    def fixed_point_polynomial(self) -> Poly:
        """P(z) - z Q(z); its roots are the finite fixed points."""
        return self.numer - Poly.x(self.field_order) * self.denom

    def infinity_fixed_multiplicity(self, fixed_poly: Poly) -> int:
        """Fixed multiplicity at infinity, given the fixed-point polynomial."""
        if self.numer.degree <= self.denom.degree:
            return 0
        return (self.degree + 1) - fixed_poly.degree

    def critical_polynomial(self) -> Poly:
        """Wronskian P'Q - PQ'; roots are the finite critical points."""
        return self.numer.derivative() * self.denom - self.numer * self.denom.derivative()

    def _infinity_critical_multiplicity(self, crit_poly: Poly) -> int:
        """Critical multiplicity at infinity, given the Wronskian."""
        target = 2 * self.degree - 2
        return target - crit_poly.degree if crit_poly.degree < target else 0

    def distinguished_points(self) -> list["LabeledPoint"]:
        """Numeric Fix u Crit with (fixed, critical) multiplicity labels.

        For degree >= 2 the set has at least three points: Crit has at
        least two, and a critical fixed point is a simple fixed point."""
        if self.degree < 2:
            raise BadDegreeError("distinguished set needs degree >= 2")
        merged: list[list] = []  # [point, fixed_mult, crit_mult]
        # unit homogeneous pair of each entry; d + 1 fixed and 2d - 2
        # critical points counted with multiplicity bound the entries
        pairs = np.empty((3 * self.degree - 1, 2), dtype=complex)

        def add(point, fixed_mult=0, crit_mult=0):
            x, y = homog(point)
            n = len(merged)
            # chordal distance |x1*y2 - x2*y1| to every entry; the first
            # entry within 1e-8 takes the labels
            near = np.flatnonzero(np.abs(pairs[:n, 0] * y - x * pairs[:n, 1]) <= 1e-8)
            if near.size:
                entry = merged[near[0]]
                entry[1] += fixed_mult
                entry[2] += crit_mult
                return
            pairs[n] = x, y
            merged.append([point, fixed_mult, crit_mult])

        fixed_poly = self.fixed_point_polynomial()
        if fixed_poly.degree >= 1:
            for root, mult in roots_numeric(fixed_poly):
                add(root, fixed_mult=mult)
        inf_fix = self.infinity_fixed_multiplicity(fixed_poly)
        if inf_fix:
            add(INF, fixed_mult=inf_fix)
        crit_poly = self.critical_polynomial()
        if crit_poly.degree >= 1:
            for root, mult in roots_numeric(crit_poly):
                add(root, crit_mult=mult)
        inf_crit = self._infinity_critical_multiplicity(crit_poly)
        if inf_crit:
            add(INF, crit_mult=inf_crit)
        if len(merged) < 3:
            raise DegenerateSetError(f"distinguished set has only {len(merged)} points")
        return [LabeledPoint(*e) for e in merged]

    def is_polynomial_like(self, points: list["LabeledPoint"] | None = None) -> bool:
        """True iff some fixed point is totally invariant, i.e. the map is
        Moebius-conjugate to a polynomial: a fixed point is totally
        invariant iff its critical multiplicity is d - 1.

        ``points`` is the map's distinguished set when the caller already
        has it."""
        points = self.distinguished_points() if points is None else points
        return any(p.fixed_mult > 0 and p.crit_mult == self.degree - 1 for p in points)

    # -- serialization -----------------------------------------------------------

    def to_coeff_json(self) -> dict:
        m = self.field_order
        d = self.degree

        def encode(poly: Poly):
            return [
                [str(q) for q in coeff.coords] for coeff in poly.rebase(m).padded(d + 1)
            ]

        return {
            "field_order": m,
            "numer": encode(self.numer),
            "denom": encode(self.denom),
        }

    @classmethod
    def from_coeff_json(cls, data) -> "RationalMap":
        """The map of a ``to_coeff_json`` object; ValueError for data of
        another shape."""
        if not isinstance(data, dict):
            raise ValueError("coefficient data must be a JSON object")
        try:
            m = int(data["field_order"])
            numer, denom = (
                Poly([CycloNum(m, [Fraction(s) for s in row]) for row in data[key]], m)
                for key in ("numer", "denom")
            )
        except KeyError as exc:
            raise ValueError(f"coefficient data lacks {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed coefficient data: {exc}") from None
        return cls.reduce(numer, denom)

    def to_expr(self) -> str:
        num = self.numer.to_expr()
        den = self.denom.to_expr()
        if self.denom.degree == 0 and self.denom.lead().is_one():
            return num
        return f"({num})/({den})"

    def __repr__(self):
        return f"RationalMap({self.to_expr()}, degree={self.degree})"


@dataclass(frozen=True)
class LabeledPoint:
    """A distinguished point with conjugation-invariant labels."""

    point: object  # complex or INF
    fixed_mult: int
    crit_mult: int

    @property
    def label(self) -> tuple:
        return (self.fixed_mult, self.crit_mult)


def _homogeneous_substitute(p: Poly, u: Poly, v: Poly, formal_degree: int) -> Poly:
    """sum_k p_k u^k v^(D-k), i.e. v^D * p(u/v) at formal degree D."""
    m = common_order(p.order, u.order, v.order)
    coeffs = p.rebase(m).padded(formal_degree + 1)
    acc = Poly.constant(coeffs[formal_degree], m)
    v_pow = Poly.one(m)
    for k in range(formal_degree - 1, -1, -1):
        v_pow = v_pow * v
        acc = acc * u
        if not coeffs[k].is_zero():
            acc = acc + v_pow.scale(coeffs[k])
    return acc

