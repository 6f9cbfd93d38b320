"""Points of the Riemann sphere and small numeric helpers.

A sphere point is either a finite value (CycloNum in exact contexts,
complex in numeric ones) or the distinguished point INF.  Numeric code
works with unit homogeneous pairs (x, y) ~ (z, 1), INF ~ (1, 0); distances
between points use the chordal metric |x1*y2 - x2*y1| on unit pairs, which
treats INF like any other point.
"""

from __future__ import annotations

import math

from .cyclotomic import CycloNum


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def conjugate(self):
        return self


INF = _Infinity()


def is_inf(p) -> bool:
    return p is INF


def conj_point(p):
    """Complex conjugate of a sphere point (INF is fixed)."""
    if p is INF:
        return p
    if isinstance(p, CycloNum):
        return p.conj()
    return complex(p).conjugate()


def homog(p) -> tuple[complex, complex]:
    """Unit homogeneous representative of a numeric sphere point."""
    if p is INF:
        return (1.0 + 0j, 0j)
    z = complex(p)
    norm = math.hypot(abs(z), 1.0)
    return (z / norm, 1.0 / norm + 0j)


def chordal(p, q) -> float:
    """Chordal distance between numeric sphere points, in [0, sqrt(2)]."""
    x1, y1 = p if isinstance(p, tuple) else homog(p)
    x2, y2 = q if isinstance(q, tuple) else homog(q)
    return abs(x1 * y2 - x2 * y1)
