"""Univariate polynomials over cyclotomic fields.

Coefficients are CycloNum values sharing one field order (mixed inputs are
rebased to the lcm on construction).  Coefficients are stored by ascending
power with the invariant that the last stored coefficient is nonzero; the
zero polynomial stores an empty tuple and reports degree -1.

Exact operations: ring arithmetic, divmod, monic gcd, Yun squarefree
decomposition, Sylvester resultants at explicit formal degrees, z -> z^n
substitution and coefficient conjugation.  A product with a constant is
a scaling, and a power of a monomial is built directly.  ``poly_gcd``
returns 1 when :mod:`pseudoreal.modp` certifies its inputs coprime modulo
a prime, so Yun's algorithm, a sequence of gcds, runs the exact remainder
sequence only for a gcd that is not 1.

Numeric roots come from an Aberth-Ehrlich simultaneous iteration run on
each squarefree factor, so multiple roots never degrade the attained
accuracy (Bini, Numer. Algorithms 13, 1996).  The iteration, the Newton
polish and the residual check run on numpy arrays: one update per
iteration moves all roots of a factor, and p and p' come from one fused
Horner recurrence.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .cyclotomic import CycloNum, common_order
from .errors import BothZeroError, ConvergenceFailureError
from .modp import coprime_mod_p

# relative residual a numeric root must reach, see roots_numeric
ROOT_TOL = 1e-12


class Poly:
    """Polynomial over Q(zeta_m), ascending coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        vals = [CycloNum._coerce(c) for c in coeffs]
        m = common_order(*(v.order for v in vals)) if vals else (order or 1)
        if order is not None:
            m = common_order(m, order)
        vals = [v if v.order == m else v.rebase(m) for v in vals]
        while vals and vals[-1].is_zero():
            vals.pop()
        self.order = m
        self.coeffs = tuple(vals)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order: int = 1) -> "Poly":
        return cls([], order)

    @classmethod
    def one(cls, order: int = 1) -> "Poly":
        return cls([CycloNum.one(order)])

    @classmethod
    def x(cls, order: int = 1) -> "Poly":
        return cls([CycloNum.zero(order), CycloNum.one(order)])

    @classmethod
    def constant(cls, value, order: int = 1) -> "Poly":
        return cls([CycloNum._coerce(value)], order)

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 stands in for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> CycloNum:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return CycloNum.zero(self.order)

    def padded(self, length: int) -> list[CycloNum]:
        zero = CycloNum.zero(self.order)
        return list(self.coeffs) + [zero] * (length - len(self.coeffs))

    def lead(self) -> CycloNum:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def rebase(self, new_order: int) -> "Poly":
        if new_order == self.order:
            return self
        return Poly([c.rebase(new_order) for c in self.coeffs], new_order)

    def _common(self, other: "Poly"):
        m = common_order(self.order, other.order)
        return self.rebase(m), other.rebase(m)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self._common(other)
        n = max(len(a.coeffs), len(b.coeffs))
        return Poly(
            [a.coeff(k) + b.coeff(k) for k in range(n)], a.order
        )

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs], self.order)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self._common(other)
        if a.is_zero() or b.is_zero():
            return Poly.zero(a.order)
        if len(a.coeffs) == 1:
            return b.scale(a.coeffs[0])
        if len(b.coeffs) == 1:
            return a.scale(b.coeffs[0])
        zero = CycloNum.zero(a.order)
        out = [zero] * (len(a.coeffs) + len(b.coeffs) - 1)
        for j, x in enumerate(a.coeffs):
            if x.is_zero():
                continue
            for k, y in enumerate(b.coeffs):
                if not y.is_zero():
                    out[j + k] = out[j + k] + x * y
        return Poly(out, a.order)

    def scale(self, value) -> "Poly":
        c = CycloNum._coerce(value)
        return Poly([c * x for x in self.coeffs], common_order(self.order, c.order))

    __rmul__ = scale

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        if self.coeffs and not any(self.coeffs[:-1]):
            # c z^k: the power is c^e z^(k e)
            zero = CycloNum.zero(self.order)
            return Poly([zero] * (self.degree * exponent) + [self.lead() ** exponent], self.order)
        result = Poly.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None

    def divmod(self, other: "Poly"):
        a, b = self._common(other)
        if b.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead_inv = b.lead().inv()
        rem = list(a.coeffs)
        db = b.degree
        if a.degree < db:
            return Poly.zero(a.order), a
        quot = [CycloNum.zero(a.order)] * (a.degree - db + 1)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + db] * lead_inv
            quot[k] = c
            if not c.is_zero():
                for j, bj in enumerate(b.coeffs):
                    rem[k + j] = rem[k + j] - c * bj
        return Poly(quot, a.order), Poly(rem[:db], a.order)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.lead().inv())

    def derivative(self) -> "Poly":
        return Poly(
            [c * k for k, c in enumerate(self.coeffs) if k >= 1], self.order
        )

    # -- mapped operations -------------------------------------------------

    def substitute_power(self, n: int) -> "Poly":
        """p(z^n); the degree multiplies by n for nonzero p."""
        if n < 1:
            raise ValueError("substitution exponent must be positive")
        if self.is_zero():
            return self
        zero = CycloNum.zero(self.order)
        out = [zero] * (self.degree * n + 1)
        for k, c in enumerate(self.coeffs):
            out[k * n] = c
        return Poly(out, self.order)

    def conj(self) -> "Poly":
        """Coefficient-wise complex conjugation."""
        return Poly([c.conj() for c in self.coeffs], self.order)

    def scale_argument(self, factor) -> "Poly":
        """p(factor * z)."""
        t = CycloNum._coerce(factor)
        out = []
        tk = CycloNum.one(t.order)
        for c in self.coeffs:
            out.append(c * tk)
            tk = tk * t
        return Poly(out, common_order(self.order, t.order))

    def evaluate(self, z: CycloNum) -> CycloNum:
        acc = CycloNum.zero(common_order(self.order, z.order))
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def to_complex_coeffs(self, length: int | None = None) -> list[complex]:
        out = [c.to_complex() for c in self.coeffs]
        if length is not None:
            out += [0j] * (length - len(out))
        return out

    def to_expr(self) -> str:
        """Expression-grammar text in z; re-parses to the same polynomial."""
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            txt = c.to_expr()
            needs_paren = ("+" in txt[1:]) or ("-" in txt[1:])
            if k == 0:
                parts.append(f"({txt})" if needs_paren else txt)
                continue
            z = "z" if k == 1 else f"z^{k}"
            if c.is_one():
                parts.append(z)
            elif (-c).is_one():
                parts.append(f"-{z}")
            else:
                coeff_txt = f"({txt})" if (needs_paren or txt.startswith("-")) else txt
                parts.append(f"{coeff_txt}*{z}")
        text = parts[0]
        for t in parts[1:]:
            text += t if t.startswith("-") else "+" + t
        return text

    def __repr__(self):
        return f"Poly({self.to_expr()})"


# -- gcd / resultant / squarefree machinery ------------------------------


def strip_rational_content(p: Poly) -> Poly:
    """Divide out the common rational content of all coordinates."""
    # each coefficient is num/den with gcd(num, den) = 1, so its content is
    # gcd(num)/den in lowest terms
    num_gcd = math.gcd(*(n for c in p.coeffs for n in c.num))
    den_lcm = math.lcm(*(c.den for c in p.coeffs))
    if num_gcd == 0:
        return p
    return p.scale(Fraction(den_lcm, num_gcd))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd: 1 when ``coprime_mod_p`` certifies the pair, else by a
    Euclidean remainder sequence.

    Each remainder is made monic and stripped of rational content to keep
    the coordinate fractions from blowing up mid-sequence.
    """
    if p.is_zero() and q.is_zero():
        raise BothZeroError("gcd(0, 0) is undefined")
    a, b = p._common(q)
    if coprime_mod_p(a, b):
        return Poly.one(a.order)
    a, b = strip_rational_content(a), strip_rational_content(b)
    while not b.is_zero():
        a, b = b, a % b
        if not b.is_zero():
            b = strip_rational_content(b.monic())
    return a.monic()


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: [(g_i, i)] with p ~ prod g_i^i, g_i monic squarefree."""
    if p.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    f = p.monic()
    if f.degree == 0:
        return []
    df = f.derivative()
    g = poly_gcd(f, df)
    if g.degree == 0:
        return [(f, 1)]
    c = f // g
    d = (df // g) - c.derivative()
    out = []
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d) if not d.is_zero() else c.monic()
        if a.degree > 0:
            out.append((a, i))
        c = c // a
        d = (d // a) - c.derivative()
        i += 1
    return out


def resultant(p: Poly, q: Poly, deg_p: int | None = None, deg_q: int | None = None) -> CycloNum:
    """Sylvester resultant at explicit formal degrees.

    Formal degrees may exceed the actual ones; the value then vanishes
    exactly when the degree-(deg_p, deg_q) homogenizations share a
    projective root.  Computed by fraction-free (Bareiss) elimination.
    """
    m = common_order(p.order, q.order)
    p, q = p.rebase(m), q.rebase(m)
    n1 = p.degree if deg_p is None else deg_p
    n2 = q.degree if deg_q is None else deg_q
    if n1 < p.degree or n2 < q.degree:
        raise ValueError("formal degree below actual degree")
    one = CycloNum.one(m)
    zero = CycloNum.zero(m)
    size = n1 + n2
    if size == 0:
        return one
    pc = list(reversed(p.padded(n1 + 1)))
    qc = list(reversed(q.padded(n2 + 1)))
    rows = []
    for sh in range(n2):
        rows.append([zero] * sh + pc + [zero] * (size - n1 - 1 - sh))
    for sh in range(n1):
        rows.append([zero] * sh + qc + [zero] * (size - n2 - 1 - sh))
    sign = 1
    prev = one
    for k in range(size - 1):
        pivot_row = next((r for r in range(k, size) if not rows[r][k].is_zero()), None)
        if pivot_row is None:
            return zero
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        prev_inv = prev.inv()
        pivot = rows[k][k]
        for i in range(k + 1, size):
            row_i = rows[i]
            head = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - head * rows[k][j]) * prev_inv
            row_i[k] = zero
        prev = pivot
    det = rows[size - 1][size - 1]
    return det if sign == 1 else -det


# -- numeric roots ---------------------------------------------------------


def horner(coeffs: list[complex], z):
    """Value at z (a complex or an array of them) of the polynomial with
    ascending complex coefficients."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _value_and_derivative(coeffs: list[complex], z: np.ndarray):
    """(p(z), p'(z)) for an array z, by one fused Horner recurrence."""
    p = np.empty_like(z)
    p.fill(coeffs[-1])
    d = np.zeros(len(z), dtype=complex)
    for c in coeffs[-2::-1]:
        d *= z
        d += p
        p *= z
        p += c
    return p, d


def _aberth(coeffs: list[complex], max_iter: int = 400) -> np.ndarray:
    """All roots of a squarefree complex polynomial (ascending coeffs).

    Each iteration moves every root at once (a total step): the Aberth
    correction of root j is built from the roots of the previous iteration.
    Steps that are NaN do not count toward the stopping test."""
    n = len(coeffs) - 1
    if n == 1:
        return np.array([-coeffs[0] / coeffs[1]])
    lead = coeffs[-1]
    a = [c / lead for c in coeffs]
    if n == 2:
        b, c = a[1], a[0]
        disc = cmath.sqrt(b * b - 4 * c)
        # pair the subtraction to avoid cancellation
        r1 = (-b - disc) / 2 if abs(b + disc) < abs(b - disc) else (-b + disc) / 2
        r2 = c / r1 if r1 != 0 else -b - r1
        return np.array([r1, r2])
    radius = 1.0 + max(abs(c) for c in a[:-1])
    roots = np.array(
        [0.9 * radius * cmath.exp(2j * math.pi * (k / n + 0.2632)) for k in range(n)]
    )
    # overflow on a badly scaled factor ends in NaN roots, which roots_numeric
    # rejects, not in a warning
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            pz, dz = _value_and_derivative(a, roots)
            diff = roots[:, None] - roots
            diff[diff == 0] = 1e-20
            recip = 1.0 / diff
            recip.flat[:: n + 1] = 0
            # sum_k 1/(z_j - z_k), added in index order as a scalar loop would
            s = recip.cumsum(axis=1)[:, -1]
            w = pz / dz
            denom = 1.0 - w * s
            step = np.where(denom != 0, w / denom, w)
            moved = np.abs(step) / (1.0 + np.abs(roots))
            new = roots - step
            # a zero derivative nudges the root and forces another iteration
            stuck = dz == 0
            if stuck.any():
                new[stuck] = roots[stuck] * (1 + 1e-8) + 1e-8
                moved[stuck] = np.inf
            roots = new
            if np.fmax.reduce(moved, initial=0.0) < 1e-15:
                break
    return roots


def _newton_polish(coeffs: list[complex], z: np.ndarray) -> np.ndarray:
    """Three Newton steps on every root of z; a root stops at a zero
    derivative."""
    live = np.ones(len(z), dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(3):
            pz, dz = _value_and_derivative(coeffs, z)
            live &= dz != 0
            z = np.where(live, z - pz / dz, z)
    return z


def roots_numeric(p: Poly) -> list[tuple[complex, int]]:
    """Roots of p with multiplicities, as (approximate root, multiplicity).

    The exact squarefree decomposition is computed first and the Aberth
    iteration runs on each (simple-rooted) factor, so clustered output
    stays accurate even at high multiplicity.  The roots are Python
    complex numbers.  Raises ConvergenceFailureError if any root is not
    finite or any residual exceeds ROOT_TOL * (1 + sum_k |c_k| |root|^k).
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    out: list[tuple[complex, int]] = []
    for factor, mult in squarefree_decomposition(p):
        cs = factor.to_complex_coeffs()
        # trailing zero coefficients of the factor are exact roots at 0
        t = 0
        while abs(cs[0]) == 0.0 and len(cs) > 1:
            cs.pop(0)
            t += 1
        if t:
            out.append((0j, t * mult))
        if len(cs) > 1:
            out.extend((r, mult) for r in _newton_polish(cs, _aberth(cs)).tolist())
    roots = np.array([root for root, _ in out])
    # a NaN root would pass the residual test below, since nan > bound is False
    finite = np.isfinite(roots)
    if not finite.all():
        nonfinite = [(root, math.nan) for (root, _), ok in zip(out, finite) if not ok]
        raise ConvergenceFailureError(
            f"{len(nonfinite)} root(s) not finite", residuals=nonfinite
        )
    coeffs = p.to_complex_coeffs()
    with np.errstate(all="ignore"):
        res = np.abs(horner(coeffs, roots))
        # backward-error scale: evaluating p at z is only conditioned to
        # sum |c_k| |z|^k, so the flat max-coefficient bound is unattainable
        # for roots far outside the unit disc
        size = np.abs(roots)
        cond = np.zeros(len(roots))
        power = np.ones(len(roots))
        for c in coeffs:
            cond += abs(c) * power
            power *= size
        above = res > ROOT_TOL * (1.0 + cond)
    if above.any():
        bad = [(root, r) for (root, _), r, hit in zip(out, res.tolist(), above) if hit]
        raise ConvergenceFailureError(
            f"{len(bad)} root(s) above residual tolerance", residuals=bad
        )
    return out
