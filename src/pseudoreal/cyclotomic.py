"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is stored as a vector of rationals of length phi(m) (Euler
totient) over the power basis {zeta_m^j : 0 <= j < phi(m)}, reduced modulo
the m-th cyclotomic polynomial.  This representation is canonical: two
elements of the same field are equal iff their coordinate vectors are
equal.  Complex conjugation is the field automorphism zeta -> zeta^(-1),
so conjugation, unimodularity tests and the like are exact.  Mixed-field
arithmetic rebases both operands to the lcm of their orders.

Every exact identity "one coefficient vector is a scalar times another"
is decided by :func:`solve_scalar_identity`.

Floats become field elements through :func:`lift` alone: a lifted value is
only a guess until the caller's exact check accepts it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .errors import NotASubfieldError

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("field order must be a positive integer")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, monic divisor (ascending coeffs).
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num[:dd]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending, monic of degree phi(m)."""
    if m == 1:
        return (-1, 1)
    poly = [0] * (m + 1)
    poly[0] = -1
    poly[m] = 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Coordinates of zeta_m^j over the power basis, for 0 <= j < m."""
    deg = euler_phi(m)
    phi_m = cyclotomic_polynomial(m)
    rows = []
    cur = [_ZERO] * deg
    cur[0] = _ONE
    for _ in range(m):
        rows.append(tuple(cur))
        carry = cur[deg - 1]
        nxt = [_ZERO] + cur[: deg - 1]
        if carry:
            for idx in range(deg):
                nxt[idx] -= carry * phi_m[idx]
        cur = nxt
    return tuple(rows)


@lru_cache(maxsize=None)
def _embedding_basis(m: int) -> tuple[complex, ...]:
    deg = euler_phi(m)
    return tuple(
        complex(math.cos(2.0 * math.pi * j / m), math.sin(2.0 * math.pi * j / m))
        for j in range(deg)
    )


def _reduce_mod_phi(m: int, raw: list[Fraction]) -> tuple[Fraction, ...]:
    deg = euler_phi(m)
    phi_m = cyclotomic_polynomial(m)
    if len(raw) < deg:
        raw = raw + [_ZERO] * (deg - len(raw))
    for k in range(len(raw) - 1, deg - 1, -1):
        c = raw[k]
        if c:
            for j in range(deg):
                raw[k - deg + j] -= c * phi_m[j]
            raw[k] = _ZERO
    return tuple(raw[:deg])


def _coerce_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class CycloNum:
    """An exact element of Q(zeta_m)."""

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords):
        self.order = order
        coords = tuple(_coerce_fraction(c) for c in coords)
        if len(coords) != euler_phi(order):
            raise ValueError("coordinate vector length must equal phi(order)")
        self.coords = coords

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycloNum":
        q = _coerce_fraction(value)
        coords = [q] + [_ZERO] * (euler_phi(order) - 1)
        return cls(order, coords)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CycloNum":
        if order < 1:
            raise ValueError("root-of-unity order must be positive")
        return cls(order, _power_table(order)[power % order])

    @classmethod
    def zero(cls, order: int = 1) -> "CycloNum":
        return cls(order, [_ZERO] * euler_phi(order))

    @classmethod
    def one(cls, order: int = 1) -> "CycloNum":
        return cls.from_rational(1, order)

    @classmethod
    def i(cls) -> "CycloNum":
        return cls.zeta(4, 1)

    @classmethod
    def gaussian(cls, re, im) -> "CycloNum":
        """re + im*i as an element of Q(zeta_4)."""
        return cls(4, [_coerce_fraction(re), _coerce_fraction(im)])

    # -- field housekeeping -------------------------------------------

    def rebase(self, new_order: int) -> "CycloNum":
        if new_order == self.order:
            return self
        if new_order % self.order != 0:
            raise NotASubfieldError(
                f"Q(zeta_{self.order}) is not contained in Q(zeta_{new_order})"
            )
        step = new_order // self.order
        table = _power_table(new_order)
        deg = euler_phi(new_order)
        acc = [_ZERO] * deg
        for j, c in enumerate(self.coords):
            if c:
                row = table[(j * step) % new_order]
                for idx in range(deg):
                    acc[idx] += c * row[idx]
        return CycloNum(new_order, acc)

    def _common(self, other: "CycloNum"):
        if self.order == other.order:
            return self, other
        m = math.lcm(self.order, other.order)
        return self.rebase(m), other.rebase(m)

    @staticmethod
    def _coerce(value) -> "CycloNum":
        if isinstance(value, CycloNum):
            return value
        return CycloNum.from_rational(value)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_one(self) -> bool:
        return self.coords[0] == 1 and all(c == 0 for c in self.coords[1:])

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when it is rational, else None."""
        if all(c == 0 for c in self.coords[1:]):
            return self.coords[0]
        return None

    def is_real(self) -> bool:
        return self.conj() == self

    def is_unimodular(self) -> bool:
        return (self * self.conj()).is_one()

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._common(other)
        return CycloNum(a.order, [x + y for x, y in zip(a.coords, b.coords)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.order, [-c for c in self.coords])

    def __sub__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._common(other)
        return CycloNum(a.order, [x - y for x, y in zip(a.coords, b.coords)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._common(other)
        deg = len(a.coords)
        conv = [_ZERO] * (2 * deg - 1)
        for j, x in enumerate(a.coords):
            if x:
                for k, y in enumerate(b.coords):
                    if y:
                        conv[j + k] += x * y
        return CycloNum(a.order, list(_reduce_mod_phi(a.order, conv)))

    __rmul__ = __mul__

    def inv(self) -> "CycloNum":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        m = self.order
        phi_m = [Fraction(c) for c in cyclotomic_polynomial(m)]
        # Extended Euclid over Q[x]: u*self + v*Phi_m = 1 (Phi_m irreducible).
        r0, r1 = phi_m, list(self.coords)
        s0, s1 = [_ZERO], [_ONE]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if not r1:
                raise ArithmeticError("gcd with the cyclotomic polynomial is not 1")
            if len(r1) == 1:
                c = r1[0]
                return CycloNum(m, list(_reduce_mod_phi(m, [x / c for x in s1])))
            q, rem = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _frac_poly_sub(s0, _frac_poly_mul(q, s1))

    def __truediv__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._common(other)
        return a * b.inv()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = CycloNum.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj(self) -> "CycloNum":
        """Complex conjugation, zeta_m -> zeta_m^(-1)."""
        m = self.order
        table = _power_table(m)
        deg = euler_phi(m)
        acc = [_ZERO] * deg
        for j, c in enumerate(self.coords):
            if c:
                row = table[(m - j) % m]
                for idx in range(deg):
                    acc[idx] += c * row[idx]
        return CycloNum(m, acc)

    # -- comparisons / conversion ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._common(other)
        return a.coords == b.coords

    __hash__ = None  # cross-field equality makes a consistent hash impractical

    def __bool__(self):
        return not self.is_zero()

    def to_complex(self) -> complex:
        basis = _embedding_basis(self.order)
        total = 0j
        for c, w in zip(self.coords, basis):
            if c:
                total += float(c) * w
        return total

    def __repr__(self):
        return f"CycloNum({self.order}, {self.to_expr()!r})"

    def to_expr(self) -> str:
        """Expression-grammar text; re-parses to the same value."""
        terms = []
        for j, c in enumerate(self.coords):
            if c == 0:
                continue
            if j == 0:
                terms.append(_frac_text(c))
            else:
                root = "i" if self.order == 4 and j == 1 else f"w({self.order},{j})"
                if c == 1:
                    terms.append(root)
                elif c == -1:
                    terms.append(f"-{root}")
                else:
                    terms.append(f"{_frac_text(c)}*{root}")
        if not terms:
            return "0"
        text = terms[0]
        for t in terms[1:]:
            text += t if t.startswith("-") else "+" + t
        return text


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- rational-coefficient polynomial helpers (internal to this module) --


def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    while den and den[-1] == 0:
        den = den[:-1]
    dd = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dd:
        return [_ZERO], num
    out = [_ZERO] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd] / lead
        out[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    return out, num[:dd] if dd else [_ZERO]


def _frac_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                if y:
                    out[j + k] += x * y
    return out


def _frac_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [_ZERO] * (n - len(a))
    b = b + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# -- module-level helpers ---------------------------------------------------


def common_order(*orders: int) -> int:
    out = 1
    for m in orders:
        out = math.lcm(out, m)
    return out


def solve_scalar_identity(lhs, rhs, unimodular_only: bool = True) -> list[CycloNum]:
    """All scalars c with lhs_k = c * rhs_k for every k.

    At most one solution exists when some rhs_k is nonzero; an
    inconsistent system yields the empty list, and so does a c that is not
    unimodular when ``unimodular_only`` is set."""
    lhs = [CycloNum._coerce(v) for v in lhs]
    rhs = [CycloNum._coerce(v) for v in rhs]
    if len(lhs) != len(rhs):
        raise ValueError("sequences must have equal length")
    j = next((k for k, v in enumerate(rhs) if not v.is_zero()), None)
    if j is None:
        if all(v.is_zero() for v in lhs):
            raise ValueError("both sequences are zero; every scalar works")
        return []
    c = lhs[j] / rhs[j]
    for x, y in zip(lhs, rhs):
        if x != c * y:
            return []
    if unimodular_only and not c.is_unimodular():
        return []
    return [c]


# -- from floats to field elements ----------------------------------------

# joint lifts try at most this many candidate combinations per field
_MAX_COMBOS = 16
# recognized rationals have denominators up to DENOM_BOUND and lie within
# RECOGNIZE_TOL, relative to max(1, |value|), of the float
DENOM_BOUND = 10**6
RECOGNIZE_TOL = 1e-7


def recognize_cyclo_candidates(value: complex, order: int) -> list[CycloNum]:
    """Candidate lifts of a float into Q(zeta_order), most structured first:
    0, a rational, q * zeta^j, then a Gaussian rational.

    Every candidate e satisfies |value - e| <= RECOGNIZE_TOL * max(1, |value|),
    but is only an embedding-close guess; use it through :func:`lift`."""
    out: list[CycloNum] = []
    scale = max(1.0, abs(value))
    if abs(value) <= RECOGNIZE_TOL:
        return [CycloNum.zero(order)]
    if abs(value.imag) <= RECOGNIZE_TOL * scale:
        q = Fraction(value.real).limit_denominator(DENOM_BOUND)
        if abs(value - complex(q)) <= RECOGNIZE_TOL * scale:
            out.append(CycloNum.from_rational(q, order))
    for j in range(1, order):
        w = value * complex(
            math.cos(2 * math.pi * j / order), -math.sin(2 * math.pi * j / order)
        )
        if abs(w.imag) <= RECOGNIZE_TOL * scale:
            q = Fraction(w.real).limit_denominator(DENOM_BOUND)
            if q != 0 and abs(w - complex(q)) <= RECOGNIZE_TOL * scale:
                out.append(CycloNum.zeta(order, j) * CycloNum.from_rational(q, order))
    if order % 4 == 0 and abs(value.imag) > RECOGNIZE_TOL * scale:
        qr = Fraction(value.real).limit_denominator(DENOM_BOUND)
        qi = Fraction(value.imag).limit_denominator(DENOM_BOUND)
        if abs(value - complex(float(qr), float(qi))) <= RECOGNIZE_TOL * scale:
            out.append(CycloNum.gaussian(qr, qi).rebase(order))
    return out


def lift(values, fields, check):
    """The first exact lift of ``values`` that ``check`` accepts, or None.

    ``values`` is one complex number, or a tuple of them lifted jointly
    into one field.  Fields are tried in the given order, each once.  Within
    a field the candidates come from :func:`recognize_cyclo_candidates`; for
    a tuple they are combined entry by entry in product order, at most
    ``_MAX_COMBOS`` combinations per field.  ``check`` receives a CycloNum,
    or a tuple of them for a tuple, and decides acceptance exactly: the
    recognizer only guesses.

    The try order is part of the contract: the field in which a value is
    found decides how it prints."""
    joint = isinstance(values, tuple)
    entries = values if joint else (values,)
    for m in dict.fromkeys(fields):
        options = [recognize_cyclo_candidates(v, m) for v in entries]
        for combo in itertools.islice(itertools.product(*options), _MAX_COMBOS):
            cand = combo if joint else combo[0]
            if check(cand):
                return cand
    return None


def _bezout(a: int, b: int) -> tuple[int, int]:
    """x, y with a x + b y = gcd(a, b), for a, b >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


def fold_power_relations(relations) -> tuple[int, CycloNum] | None:
    """Reduce the relations x^delta = v, given as (delta, v) pairs, to one
    relation x^g = w with g the gcd of the exponents.

    Returns (g, w), or None when the relations are inconsistent.  g = 0
    means that every exponent vanishes and every v is 1, so any nonzero x
    solves them."""
    # x^delta = v is x^(-delta) = 1/v: make every exponent non-negative
    rels = [(delta, v) if delta >= 0 else (-delta, v.inv()) for delta, v in relations]
    g, w = rels[0]
    for delta, v in rels[1:]:
        x, y = _bezout(g, delta)
        w = (w ** x) * (v ** y)
        g = math.gcd(g, delta)
    for delta, v in rels:
        if (w ** (delta // g) if g else CycloNum.one(v.order)) != v:
            return None
    return g, w
