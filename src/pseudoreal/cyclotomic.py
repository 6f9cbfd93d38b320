"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is stored as integer numerators over one positive integer
denominator: ``num`` is a tuple of phi(m) ints (phi is Euler's totient),
the coordinates over the power basis {zeta_m^j : 0 <= j < phi(m)} reduced
modulo the m-th cyclotomic polynomial, and ``den`` is an int.  The form is
canonical: gcd(num, den) = 1, den > 0, and zero is 0/1, so two elements of
the same field are equal iff their (num, den) pairs are equal.  Every
operation runs on ints, and ``coords`` is a read-only ``Fraction`` view.
Complex conjugation is the field automorphism zeta -> zeta^(-1), so
conjugation, unimodularity tests and the like are exact.  Mixed-field
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
def _phi_tail(m: int) -> tuple[tuple[int, int], ...]:
    """The nonzero coefficients (j, c_j), j < phi(m), of Phi_m: reducing
    c x^k for k >= phi(m) subtracts c c_j from the coefficient of
    x^(k - phi(m) + j)."""
    phi_m = cyclotomic_polynomial(m)
    return tuple((j, c) for j, c in enumerate(phi_m[:-1]) if c)


def _reduce_mod_phi(m: int, raw: list[int]) -> list[int]:
    """raw, an integer polynomial, reduced in place modulo Phi_m (monic)."""
    deg = euler_phi(m)
    tail = _phi_tail(m)
    for k in range(len(raw) - 1, deg - 1, -1):
        c = raw[k]
        if c:
            base = k - deg
            for j, p in tail:
                raw[base + j] -= c * p
    del raw[deg:]
    raw.extend([0] * (deg - len(raw)))
    return raw


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[int, ...], ...]:
    """Integer coordinates of zeta_m^j over the power basis, for 0 <= j < m."""
    return tuple(tuple(_reduce_mod_phi(m, [0] * j + [1])) for j in range(m))


@lru_cache(maxsize=None)
def _embedding_basis(m: int) -> tuple[complex, ...]:
    deg = euler_phi(m)
    return tuple(
        complex(math.cos(2.0 * math.pi * j / m), math.sin(2.0 * math.pi * j / m))
        for j in range(deg)
    )


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, in lowest terms."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _new(order: int, num, den: int) -> "CycloNum":
    # trusts (num, den) to be canonical already
    obj = object.__new__(CycloNum)
    obj.order = order
    obj.num = tuple(num)
    obj.den = den
    return obj


def _canonical(order: int, num: list[int], den: int) -> "CycloNum":
    """num / den brought to canonical form; den may be negative."""
    if den != 1:
        # den first: the running gcd then stays at most den, which keeps
        # each step cheap, and math.gcd stops once it reaches 1
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [v // g for v in num]
            den //= g
    return _new(order, num, den)


def _linear_image(num, den: int, order: int, step: int) -> "CycloNum":
    """The image of num/den under zeta^j -> zeta_order^(j*step) for all j."""
    table = _power_table(order)
    acc = [0] * euler_phi(order)
    for j, c in enumerate(num):
        if c:
            for idx, r in enumerate(table[(j * step) % order]):
                if r:
                    acc[idx] += c * r
    return _canonical(order, acc, den)


class CycloNum:
    """An exact element of Q(zeta_m): integer numerators ``num`` over the
    positive denominator ``den``, in canonical form."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coords):
        pairs = [_ratio(c) for c in coords]
        if len(pairs) != euler_phi(order):
            raise ValueError("coordinate vector length must equal phi(order)")
        # each pair is in lowest terms, so over the lcm the gcd is 1
        den = math.lcm(*(d for _, d in pairs))
        self.order = order
        self.num = tuple(n * (den // d) for n, d in pairs)
        self.den = den

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The rational coordinates over the power basis (a read-only view)."""
        return tuple(Fraction(n, self.den) for n in self.num)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycloNum":
        n, d = _ratio(value)
        return _new(order, (n,) + (0,) * (euler_phi(order) - 1), d)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CycloNum":
        if order < 1:
            raise ValueError("root-of-unity order must be positive")
        return _new(order, _power_table(order)[power % order], 1)

    @classmethod
    def zero(cls, order: int = 1) -> "CycloNum":
        return _new(order, (0,) * euler_phi(order), 1)

    @classmethod
    def one(cls, order: int = 1) -> "CycloNum":
        return cls.from_rational(1, order)

    @classmethod
    def i(cls) -> "CycloNum":
        return cls.zeta(4, 1)

    @classmethod
    def gaussian(cls, re, im) -> "CycloNum":
        """re + im*i as an element of Q(zeta_4)."""
        return cls(4, [re, im])

    # -- field housekeeping -------------------------------------------

    def rebase(self, new_order: int) -> "CycloNum":
        if new_order == self.order:
            return self
        if new_order % self.order != 0:
            raise NotASubfieldError(
                f"Q(zeta_{self.order}) is not contained in Q(zeta_{new_order})"
            )
        return _linear_image(self.num, self.den, new_order, new_order // self.order)

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
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when it is rational, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

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
        da, db = a.den, b.den
        if da == db:
            return _canonical(a.order, [x + y for x, y in zip(a.num, b.num)], da)
        return _canonical(a.order, [x * db + y * da for x, y in zip(a.num, b.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._common(other)
        da, db = a.den, b.den
        if da == db:
            return _canonical(a.order, [x - y for x, y in zip(a.num, b.num)], da)
        return _canonical(a.order, [x * db - y * da for x, y in zip(a.num, b.num)], da * db)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._common(other)
        ys = b.num
        conv = [0] * (2 * len(ys) - 1)
        for j, x in enumerate(a.num):
            if x:
                for k, y in enumerate(ys, j):
                    conv[k] += x * y
        return _canonical(a.order, _reduce_mod_phi(a.order, conv), a.den * b.den)

    __rmul__ = __mul__

    def inv(self) -> "CycloNum":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        m = self.order
        # Fraction-free extended Euclid on (Phi_m, num): each remainder r
        # keeps a cofactor s with s * num = r (mod Phi_m); every step takes
        # an integer combination of two such pairs and divides out the
        # content, so 1/num = s/r once r is a constant.
        r0, s0 = list(cyclotomic_polynomial(m)), [0]
        r1, s1 = _trimmed(self.num), [1]
        while len(r1) > 1:
            lead = r1[-1]
            while len(r0) >= len(r1):
                c, shift = r0[-1], len(r0) - len(r1)
                r0 = _trimmed(_axpy(lead, r0, -c, r1, shift))
                s0 = _axpy(lead, s0, -c, s1, shift)
                g = math.gcd(*r0, *s0)
                if g > 1:
                    r0 = [v // g for v in r0]
                    s0 = [v // g for v in s0]
            if not r0:
                raise ArithmeticError("gcd with the cyclotomic polynomial is not 1")
            r0, s0, r1, s1 = r1, s1, r0, s0
        s1 = _reduce_mod_phi(m, s1)
        return _canonical(m, [self.den * v for v in s1], r1[0])

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
        return _linear_image(self.num, self.den, self.order, -1)

    # -- comparisons / conversion ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._common(other)
        return a.den == b.den and a.num == b.num

    __hash__ = None  # cross-field equality makes a consistent hash impractical

    def __bool__(self):
        return not self.is_zero()

    def to_complex(self) -> complex:
        basis = _embedding_basis(self.order)
        den = self.den
        total = 0j
        for n, w in zip(self.num, basis):
            if n:
                # int / int is correctly rounded, as float(Fraction) is
                total += n / den * w
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


# -- integer polynomial helpers of the inverse ------------------------------


def _trimmed(p) -> list[int]:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _axpy(a: int, p: list[int], b: int, q: list[int], shift: int) -> list[int]:
    """a * p + b * x^shift * q."""
    out = [a * v for v in p]
    out.extend([0] * (len(q) + shift - len(out)))
    for k, v in enumerate(q, shift):
        out[k] += b * v
    return out


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


def fold_power_relations(terms) -> tuple[int, CycloNum] | None:
    """Reduce the terms (e, v), each saying that v * x^e is one value
    across all terms, to one relation x^g = w.

    Anchored at the first term (e0, v0), each other term says
    x^(e - e0) = v0 / v, and g is the gcd of these differences.  Returns
    (g, w), or None when the relations are inconsistent, as when one
    exponent carries two values.  g = 0 means every term has exponent e0
    and value v0, so any nonzero x solves them; one term gives (0, 1)."""
    (e0, v0), *rest = terms
    # x^delta = v is x^(-delta) = 1/v: make every exponent non-negative
    rels = [(e - e0, v0 / v) if e >= e0 else (e0 - e, v / v0) for e, v in rest]
    g, w = 0, CycloNum.one(v0.order)
    for delta, v in rels:
        x, y = _bezout(g, delta)
        w = (w ** x) * (v ** y)
        g = math.gcd(g, delta)
    for delta, v in rels:
        if (w ** (delta // g) if g else CycloNum.one(v.order)) != v:
            return None
    return g, w
