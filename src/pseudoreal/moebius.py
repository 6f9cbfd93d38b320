"""Holomorphic and antiholomorphic automorphisms of the Riemann sphere.

An ExtendedMoebius is a projective 2x2 matrix M together with an
orientation flag: the action is z -> M.z for holomorphic elements and
z -> M.(conj z) for antiholomorphic ones (conjugate first, then apply the
matrix).  Entries are CycloNum in exact mode or complex in numeric mode;
the two modes share all group operations.

Composition follows (M, s) * (N, t) = (M . s(N), s xor t) where s(N)
conjugates the entries of N when s is antiholomorphic; this matches
pointwise composition g(h(z)) and is pinned by unit tests.
"""

from __future__ import annotations

import math

import numpy as np

from .cyclotomic import CycloNum, common_order, solve_scalar_identity
from .errors import (
    DegenerateTripleError,
    NotAnInvolutionError,
    TooManyCoincidencesError,
)
from .sphere import INF, conj_point, is_inf


def _is_exact(value) -> bool:
    return isinstance(value, CycloNum)


class ExtendedMoebius:
    """z -> M.z or z -> M.(conj z), as a projective matrix plus flag."""

    __slots__ = ("a", "b", "c", "d", "antiholo")

    def __init__(self, a, b, c, d, antiholo: bool = False):
        entries = (a, b, c, d)
        if any(_is_exact(e) for e in entries):
            m = common_order(*(e.order for e in entries if _is_exact(e)))
            a, b, c, d = (
                e.rebase(m) if _is_exact(e) else CycloNum.from_rational(e).rebase(m)
                for e in entries
            )
            if (a * d - b * c).is_zero():
                raise ValueError("Moebius matrix must be invertible")
        else:
            a, b, c, d = (complex(e) for e in entries)
            if a * d - b * c == 0:
                raise ValueError("Moebius matrix must be invertible")
        self.a, self.b, self.c, self.d = a, b, c, d
        self.antiholo = bool(antiholo)

    # -- basic structure ---------------------------------------------------

    @property
    def exact(self) -> bool:
        return _is_exact(self.a)

    def entry_conj(self, value):
        return value.conj() if self.exact else value.conjugate()

    def conj_entries(self) -> "ExtendedMoebius":
        return ExtendedMoebius(
            self.entry_conj(self.a),
            self.entry_conj(self.b),
            self.entry_conj(self.c),
            self.entry_conj(self.d),
            self.antiholo,
        )

    def to_numeric(self) -> "ExtendedMoebius":
        if not self.exact:
            return self
        return ExtendedMoebius(
            self.a.to_complex(),
            self.b.to_complex(),
            self.c.to_complex(),
            self.d.to_complex(),
            self.antiholo,
        )

    def normalized(self) -> "ExtendedMoebius":
        """Canonical projective representative.

        Exact mode scales the first nonzero entry in row-major order to 1.
        Numeric mode scales to unit Frobenius norm and rotates the entry
        that ``pivot_index`` picks to positive real phase.
        """
        entries = (self.a, self.b, self.c, self.d)
        if self.exact:
            pivot = next(e for e in entries if not e.is_zero())
            inv = pivot.inv()
            return ExtendedMoebius(*(e * inv for e in entries), self.antiholo)
        norm = math.sqrt(sum(abs(e) ** 2 for e in entries))
        pivot = entries[pivot_index(entries)]
        phase = pivot / abs(pivot)
        scale = 1.0 / (norm * phase)
        return ExtendedMoebius(*(e * scale for e in entries), self.antiholo)

    # -- group operations ----------------------------------------------------

    def compose(self, other: "ExtendedMoebius") -> "ExtendedMoebius":
        """self o other, acting as self(other(z))."""
        o = other.conj_entries() if self.antiholo else other
        return ExtendedMoebius(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
            self.antiholo != other.antiholo,
        )

    def inverse(self) -> "ExtendedMoebius":
        adj = ExtendedMoebius(self.d, -self.b, -self.c, self.a, self.antiholo)
        return adj.conj_entries() if self.antiholo else adj

    def apply(self, point):
        """Image of a sphere point (exact or numeric, matching the mode)."""
        z = conj_point(point) if self.antiholo else point
        if is_inf(z):
            if self.exact:
                return INF if self.c.is_zero() else self.a / self.c
            return INF if self.c == 0 else self.a / self.c
        num = self.a * z + self.b
        den = self.c * z + self.d
        if self.exact:
            return INF if den.is_zero() else num / den
        return INF if den == 0 else num / den

    def is_identity(self, tol: float = 1e-9) -> bool:
        if self.antiholo:
            return False
        if self.exact:
            return self.b.is_zero() and self.c.is_zero() and self.a == self.d
        scale = max(abs(self.a), abs(self.d))
        return (
            abs(self.b) <= tol * scale
            and abs(self.c) <= tol * scale
            and abs(self.a - self.d) <= tol * scale
        )

    def order(self, bound: int, tol: float = 1e-9) -> int | None:
        """Least k <= bound with self^k projectively the identity, else None."""
        if bound < 1:
            raise ValueError("order bound must be positive")
        acc = self
        for k in range(1, bound + 1):
            if acc.is_identity(tol):
                return k
            acc = acc.compose(self)
            if not acc.exact:
                acc = acc.normalized()  # keep float powers well-scaled
        return None

    def projectively_equal(self, other: "ExtendedMoebius", tol: float = 1e-9) -> bool:
        if self.antiholo != other.antiholo:
            return False
        if self.exact and other.exact:
            return bool(solve_scalar_identity(
                (self.a, self.b, self.c, self.d),
                (other.a, other.b, other.c, other.d),
                unimodular_only=False,
            ))
        return proj_distance(self, other) <= tol

    def classify_involution(self, tol: float = 1e-9) -> str:
        """'reflection' (has fixed points) or 'imaginary_reflection' (none).

        For an antiholomorphic involution, M . conj(M) = lam * I with lam
        real; rescaling M multiplies lam by a positive number, so its sign
        is projective: positive means conjugate to conj(z), negative to
        -1/conj(z).
        """
        if not self.antiholo:
            raise NotAnInvolutionError("classification needs an antiholomorphic element")
        square = self.compose(self)
        if not square.is_identity(tol):
            raise NotAnInvolutionError("element does not have order two")
        conj_m = self.conj_entries()
        k00 = self.a * conj_m.a + self.b * conj_m.c
        if self.exact:
            lam = complex(k00.to_complex())
        else:
            lam = complex(k00)
        if abs(lam.imag) > tol * max(1.0, abs(lam)) or lam == 0:
            raise NotAnInvolutionError("degenerate involution normal form")
        return "reflection" if lam.real > 0 else "imaginary_reflection"

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, order: int = 1) -> "ExtendedMoebius":
        one = CycloNum.one(order)
        zero = CycloNum.zero(order)
        return cls(one, zero, zero, one)

    @classmethod
    def rotation(cls, m: int, k: int = 1) -> "ExtendedMoebius":
        """z -> zeta_m^k z."""
        zero = CycloNum.zero(m)
        return cls(CycloNum.zeta(m, k), zero, zero, CycloNum.one(m))

    @classmethod
    def scaling(cls, factor) -> "ExtendedMoebius":
        f = CycloNum._coerce(factor)
        zero = CycloNum.zero(f.order)
        return cls(f, zero, zero, CycloNum.one(f.order))

    @classmethod
    def inversion(cls) -> "ExtendedMoebius":
        """A(z) = 1/z."""
        one = CycloNum.one()
        zero = CycloNum.zero()
        return cls(zero, one, one, zero)

    @classmethod
    def conjugation(cls) -> "ExtendedMoebius":
        """J(z) = conj(z)."""
        one = CycloNum.one()
        zero = CycloNum.zero()
        return cls(one, zero, zero, one, antiholo=True)

    @classmethod
    def antipodal(cls) -> "ExtendedMoebius":
        """tau(z) = -1/conj(z), the fixed-point-free involution."""
        one = CycloNum.one()
        zero = CycloNum.zero()
        return cls(zero, -one, one, zero, antiholo=True)

    @classmethod
    def inversion_rotation(cls, n: int) -> "ExtendedMoebius":
        """z -> zeta_2n / conj(z); an antiholomorphic element of order 2n."""
        m = 2 * n
        zero = CycloNum.zero(m)
        return cls(zero, CycloNum.zeta(m, 1), CycloNum.one(m), zero, antiholo=True)

    @classmethod
    def from_three_points(cls, sources, targets, antiholo: bool = False) -> "ExtendedMoebius":
        """The unique element with the given orientation mapping each
        source point to the matching target point."""
        if len(sources) != 3 or len(targets) != 3:
            raise DegenerateTripleError("exactly three source and target points required")
        for triple in (sources, targets):
            for i in range(3):
                for j in range(i + 1, 3):
                    if _points_equal(triple[i], triple[j]):
                        raise DegenerateTripleError("triple points must be pairwise distinct")
        src = [conj_point(p) for p in sources] if antiholo else sources
        return cls(*three_point_matrix(_homog_pairs(src), _homog_pairs(targets)), antiholo)

    # -- named finite-subgroup generators ---------------------------------------

    @classmethod
    def generator_B(cls) -> "ExtendedMoebius":
        # sqrt(3) = zeta_12 + zeta_12^-1
        s3 = CycloNum.zeta(12, 1) + CycloNum.zeta(12, 11)
        u = s3 - 1
        return cls(u, u * u, CycloNum.from_rational(2, 12), -u)

    @classmethod
    def generator_C(cls) -> "ExtendedMoebius":
        # sqrt(2) = zeta_8 + zeta_8^-1
        s2 = CycloNum.zeta(8, 1) + CycloNum.zeta(8, 7)
        u = s2 + 1
        return cls(-u, u * u, CycloNum.one(8), u)

    @classmethod
    def generator_D(cls) -> "ExtendedMoebius":
        # sqrt(2 - w5 - w5^4) = 2 sin(pi/5) = zeta_20^3 - zeta_20^7
        s = CycloNum.zeta(20, 3) - CycloNum.zeta(20, 7)
        u = CycloNum.one(20) + s
        w5 = CycloNum.zeta(20, 4)
        low = CycloNum.one(20) - w5 - CycloNum.zeta(20, 16)
        return cls(-u, u * u, low, u)

    def __repr__(self):
        kind = "antiholo" if self.antiholo else "holo"
        if self.exact:
            ent = [e.to_expr() for e in (self.a, self.b, self.c, self.d)]
        else:
            ent = [f"{e:.6g}" for e in (self.a, self.b, self.c, self.d)]
        return f"ExtendedMoebius([[{ent[0]}, {ent[1]}], [{ent[2]}, {ent[3]}]], {kind})"


def named_generator(which: str, n: int | None = None) -> ExtendedMoebius:
    """Exact generators of the finite rotation groups: 'T' needs n."""
    if which == "T":
        if n is None or n < 1:
            raise ValueError("generator T needs a positive order n")
        return ExtendedMoebius.rotation(n, 1)
    table = {
        "A": ExtendedMoebius.inversion,
        "B": ExtendedMoebius.generator_B,
        "C": ExtendedMoebius.generator_C,
        "D": ExtendedMoebius.generator_D,
    }
    if which not in table:
        raise ValueError(f"unknown generator {which!r}")
    return table[which]()


def _points_equal(p, q) -> bool:
    if is_inf(p) or is_inf(q):
        return is_inf(p) and is_inf(q)
    if isinstance(p, CycloNum) or isinstance(q, CycloNum):
        return CycloNum._coerce(p) == CycloNum._coerce(q)
    return complex(p) == complex(q)


def _homog_pairs(points, exact: bool | None = None):
    """Homogeneous pairs (z, 1) and (1, 0) for INF, exact or complex; exact
    by default when some finite point is a CycloNum."""
    if exact is None:
        exact = any(isinstance(p, CycloNum) for p in points if not is_inf(p))
    if exact:
        one = CycloNum.one()
        zero = CycloNum.zero()
        return [(one, zero) if is_inf(p) else (CycloNum._coerce(p), one) for p in points]
    return [(1.0 + 0j, 0j) if is_inf(p) else (complex(p), 1.0 + 0j) for p in points]


def _cross(u, v):
    """u[0] v[1] - v[0] u[1]: zero iff the homogeneous pairs are the same
    point, and the chordal distance when both are unit pairs."""
    return u[0] * v[1] - v[0] * u[1]


def _to_zero_one_inf(p, q, r):
    """Entries of a matrix sending the homogeneous pairs p, q, r to 0, 1, INF."""
    qr = _cross(q, r)
    qp = _cross(q, p)
    return qr * p[1], -qr * p[0], qp * r[1], -qp * r[0]


def three_point_matrix(sources, targets):
    """Entries (a, b, c, d) of adj(G_t) . G_s, which sends three homogeneous
    pairs to three others through (0, 1, INF).  The coordinates may be
    exact, complex, or numpy arrays that hold one triple per position."""
    s00, s01, s10, s11 = _to_zero_one_inf(*sources)
    t00, t01, t10, t11 = _to_zero_one_inf(*targets)
    return (
        t11 * s00 - t01 * s10,
        t11 * s01 - t01 * s11,
        t00 * s10 - t10 * s00,
        t00 * s11 - t10 * s01,
    )


def pivot_index(entries) -> int:
    """Index of the first numeric entry above half the largest in absolute
    value.  An entry of exactly half the largest counts as above, with a
    relative margin of 1e-6, so rounding cannot move the pivot off a tie."""
    top = max(abs(e) for e in entries)
    return next(i for i, e in enumerate(entries) if abs(e) > 0.5 * top * (1 - 1e-6))


def proj_sine(u, v):
    """Sine of the angle between the complex lines through u and v, along
    the last axis.

    It is the length of the part of u's unit vector orthogonal to v's, not
    sqrt(1 - cos^2), which cannot resolve angles below about 1e-8."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    inner = (u * v.conj()).sum(axis=-1, keepdims=True)
    return np.linalg.norm(u - inner * v, axis=-1)


def proj_distance(g: ExtendedMoebius, h: ExtendedMoebius) -> float:
    """``proj_sine`` of the entry vectors of two matrices."""
    g, h = g.to_numeric(), h.to_numeric()
    return float(proj_sine((g.a, g.b, g.c, g.d), (h.a, h.b, h.c, h.d)))


def cross_ratio(z1, z2, z3, z4):
    """(z1-z3)(z2-z4) / ((z1-z4)(z2-z3)) with INF limits.

    Exactly real iff the four points lie on a common circle or line.
    """
    pts = [z1, z2, z3, z4]
    distinct = []
    for p in pts:
        if not any(_points_equal(p, q) for q in distinct):
            distinct.append(p)
    if len(distinct) < 3:
        raise TooManyCoincidencesError("cross-ratio needs at least three distinct points")
    exact = any(isinstance(p, CycloNum) for p in pts if not is_inf(p))
    exact = exact or all(is_inf(p) or isinstance(p, (int,)) for p in pts)
    p1, p2, p3, p4 = _homog_pairs(pts, exact)
    num = _cross(p1, p3) * _cross(p2, p4)
    den = _cross(p1, p4) * _cross(p2, p3)
    if isinstance(num, CycloNum):
        return INF if den.is_zero() else num / den
    return INF if den == 0 else num / den
