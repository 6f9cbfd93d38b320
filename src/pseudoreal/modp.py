"""Reduction of polynomials over Q(zeta_m) to F_p, and a one-sided
coprimality test.

For each field order m, :func:`prime_for` fixes a prime p = 1 (mod m)
and an element w of exact order m in F_p.  Then (p, zeta_m - w) is a
prime of Z[zeta_m] above p with residue field F_p, and zeta_m -> w
reduces every coefficient whose denominator p does not divide.

:func:`coprime_mod_p` answers True only when gcd(f, g) = 1 over
Q(zeta_m).  Were h a common factor of positive degree, Gauss's lemma over
the localisation at that prime would make h primitive and a factor of f
and g there; as the leading coefficient of f survives, h reduces to a
common factor of the same degree of the two images.  Any other outcome,
a bad prime included, answers False and leaves the question to the exact
Euclidean algorithm (Langemyr & McCallum, J. Symbolic Comput. 8, 1989;
Encarnacion, J. Symbolic Comput. 20, 1995).
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import euler_phi

# the search starts here; a larger p makes a bad prime rarer
PRIME_FLOOR = 2**31
# Miller-Rabin with these bases decides primality for every n < 3.3e24
# (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] if n > 1 else out


@lru_cache(maxsize=None)
def prime_for(m: int) -> tuple[int, int]:
    """(p, w): the least prime p = 1 (mod m) above PRIME_FLOOR, and the
    first of w = a^((p-1)/m), a = 2, 3, ..., of exact order m in F_p."""
    p = PRIME_FLOOR - PRIME_FLOOR % m + 1
    while p <= PRIME_FLOOR or not is_prime(p):
        p += m
    qs = _prime_factors(m)
    a = 2
    while True:
        w = pow(a, (p - 1) // m, p)
        if all(pow(w, m // q, p) != 1 for q in qs):
            return p, w
        a += 1


@lru_cache(maxsize=None)
def _powers(w: int, p: int, n: int) -> tuple[int, ...]:
    """w^j mod p for 0 <= j < n."""
    return tuple(pow(w, j, p) for j in range(n))


def image(poly) -> list[int] | None:
    """The ascending coefficients mod p of ``poly`` under zeta_m -> w,
    with m = ``poly.order``; None when p divides a denominator or the
    leading coefficient vanishes mod p.  The zero polynomial maps to []."""
    p, w = prime_for(poly.order)
    basis = _powers(w, p, euler_phi(poly.order))
    out = []
    for c in poly.coeffs:
        if c.den % p == 0:
            return None
        value = sum(n * b for n, b in zip(c.num, basis) if n)
        out.append(value * pow(c.den, -1, p) % p)
    if out and not out[-1]:
        return None
    return out


def _rem(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b in F_p[x]; b is monic, both are ascending and trimmed."""
    r = list(a)
    db = len(b) - 1
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k]
        if c:
            base = k - db
            for j in range(db):
                r[base + j] = (r[base + j] - c * b[j]) % p
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return r


def coprime_mod_p(f, g) -> bool:
    """True only if gcd(f, g) = 1 over the common field of f and g.

    Both images must exist (see :func:`image`) and be coprime in F_p[x];
    the proof needs only the leading coefficient of f to survive.  False
    means "not decided here": a zero side, a bad prime or a real common
    factor."""
    if f.is_zero() or g.is_zero():
        return False
    f, g = f._common(g)
    p, _ = prime_for(f.order)
    a, b = image(f), image(g)
    if a is None or b is None:
        return False
    while b:
        inv = pow(b[-1], -1, p)
        b = [v * inv % p for v in b]
        a, b = b, _rem(a, b, p)
    return len(a) == 1
