"""Closed-form moduli bookkeeping for symmetry loci.

Dimension formulas and feasibility conditions for the loci of degree-d
maps with prescribed symmetries, the parameterization of the locus of
maps commuting with the antipodal involution, and the component census
for the pseudo-real locus.  Connectivity flags are recorded known
results, not computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classify import antipodal_denominator, antipodal_witness
from .cyclotomic import CycloNum
from .errors import BadDegreeError, ConditionViolationError, ResultantVanishesError
from .polyring import Poly
from .ratmap import RationalMap


def admissible_cyclic_params(d: int, n: int) -> list[tuple[int, str]]:
    """(r, case) pairs for an order-n rotation symmetry in degree d:
    case 'a' is d = nr + 1, 'b' is d = nr, 'c' is d = nr - 1."""
    if d < 2 or n < 2:
        raise ValueError("need d >= 2 and n >= 2")
    out = []
    if (d - 1) % n == 0 and (d - 1) // n >= 1:
        out.append(((d - 1) // n, "a"))
    if d % n == 0:
        out.append((d // n, "b"))
    if (d + 1) % n == 0:
        out.append(((d + 1) // n, "c"))
    return out


def cyclic_locus_dimension(d: int, n: int) -> int | None:
    """Complex dimension of the locus of degree-d classes with an order-n
    rotation symmetry; None when the congruence d = -1, 0, 1 (mod n) fails.

    Cases a, b and c of ``admissible_cyclic_params`` give 2r, 2r - 1 and
    2r - 2; when two congruences hold at once (n = 2, d odd) they agree."""
    values = [
        {"a": 2 * r, "b": 2 * r - 1, "c": 2 * r - 2}[case]
        for r, case in admissible_cyclic_params(d, n)
    ]
    if not values:
        return None
    assert len(set(values)) == 1, f"congruence overlap disagrees at (d, n) = ({d}, {n})"
    return values[0]


@dataclass
class FeasibilityRecord:
    """Necessary conditions for an antiholomorphic symmetry of order 2n."""

    degree: int
    half_order: int            # the n of order 2n
    feasible: bool
    admissible_r: list[tuple[int, str]] = field(default_factory=list)
    reason: str = ""


def antiholo_order_feasibility(d: int, n: int) -> FeasibilityRecord:
    """Can a degree-d map admit an antiholomorphic symmetry of order 2n?

    n = 1 and odd n reduce to the antipodal case and need d odd (for odd
    n the n-th power of the symmetry is the antipodal involution); odd
    n >= 3 additionally needs the rotation congruence.  For even n the
    square is an order-n rotation, so the map is z * psi(z^n) with
    r in {(d-1)/n, d/n, (d+1)/n}, and the coefficient identity forces r
    even; in particular no such map exists when d = 2 (mod 4)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        ok = d % 2 == 1
        return FeasibilityRecord(
            d, 1, ok, [], "antipodal involution needs odd degree" if not ok else ""
        )
    if n % 2 == 1:
        if d % 2 == 0:
            return FeasibilityRecord(d, n, False, [], "odd order-2n power is antipodal; needs odd degree")
        params = admissible_cyclic_params(d, n)
        if not params:
            return FeasibilityRecord(d, n, False, [], f"d != -1,0,1 mod {n}")
        return FeasibilityRecord(d, n, True, params, "")
    params = admissible_cyclic_params(d, n)
    even_params = [(r, case) for r, case in params if r % 2 == 0]
    if not even_params:
        reason = f"no even r in the admissible set for (d, n) = ({d}, {n})"
        if d % 4 == 2:
            reason = "d = 2 (mod 4) excludes every even n"
        return FeasibilityRecord(d, n, False, [], reason)
    return FeasibilityRecord(d, n, True, even_params, "")


@dataclass(frozen=True)
class LocusDescriptor:
    locus: str
    real_dimension: int
    connected: bool | None
    notes: str = ""


def locus_dimensions(d: int) -> list[LocusDescriptor]:
    """Real dimensions of the antipodal-symmetry loci for odd d >= 3,
    plus the inversion-rotation loci of each feasible order 2n (n even).

    antipodal_maps is the set of degree-d maps commuting with -1/conj(z);
    *_classes are the images in moduli space; *_real are the subsets of
    real maps.  order2n loci collect maps with an antiholomorphic
    symmetry of order 2n."""
    if d < 3 or d % 2 == 0:
        raise BadDegreeError("locus table needs odd d >= 3")
    out = [
        LocusDescriptor("antipodal_maps", 2 * d + 1, True),
        LocusDescriptor("antipodal_classes", 2 * d - 2, True),
        LocusDescriptor("antipodal_real_maps", d + 1, None),
        LocusDescriptor("antipodal_real_classes", d - 2, None),
        LocusDescriptor(
            "antipodal_pseudo_real_classes", d - 2, True,
            "pseudo-real classes with an antipodal symmetry",
        ),
    ]
    n = 2
    while n <= d + 1:
        rec = antiholo_order_feasibility(d, n)
        if rec.feasible:
            for r, case in rec.admissible_r:
                out.append(
                    LocusDescriptor(
                        f"order{2 * n}_maps(n={n})", 2 * r + 1, True,
                        f"maps with an order-{2 * n} antiholomorphic symmetry, case {case}",
                    )
                )
                out.append(
                    LocusDescriptor(
                        f"order{2 * n}_classes(n={n})", 2 * r - 2, True,
                        f"case {case}",
                    )
                )
        n += 2
    return out


def antipodal_family(theta: CycloNum, coeffs) -> RationalMap:
    """The map with numerator sum a_k z^k and denominator
    sum (-1)^k e^(i theta) conj(a_(d-k)) z^k; it commutes with the
    antipodal involution and every such map arises this way.

    Raises ResultantVanishesError when the two polynomials share a
    projective root at formal degree d (the excluded hypersurface)."""
    coeffs = [CycloNum._coerce(c) for c in coeffs]
    d = len(coeffs) - 1
    if d < 1 or d % 2 == 0:
        raise BadDegreeError("the family needs odd degree")
    theta = CycloNum._coerce(theta)
    if not theta.is_unimodular():
        raise ConditionViolationError("theta parameter must be unimodular")
    numer = Poly(coeffs)
    denom = Poly(antipodal_denominator(theta, coeffs))
    if numer.is_zero() or denom.is_zero():
        raise ResultantVanishesError("zero polynomial in the family")
    phi = RationalMap.reduce(numer, denom)
    # the formal-degree-d resultant vanishes iff reduction lowers the
    # degree: a shared finite root cancels, and a_0 = a_d = 0 (both formal
    # leading coefficients vanish) puts a shared root at 0
    if phi.degree < d:
        raise ResultantVanishesError("numerator and denominator share a root")
    assert antipodal_witness(phi) is not None
    return phi


@dataclass(frozen=True)
class ComponentCandidate:
    s: int
    antiholo_order: int      # 2^(s+1)
    status: str              # "witnessed" | "candidate" | "excluded"
    detail: str


@dataclass
class ComponentCensus:
    degree: int
    candidates: list[ComponentCandidate]

    @property
    def witnessed(self) -> int:
        return sum(1 for c in self.candidates if c.status == "witnessed")

    @property
    def possible(self) -> int:
        return sum(1 for c in self.candidates if c.status != "excluded")

    def bounds(self) -> tuple[int, int]:
        """[min, max] for the number of connected components of the
        pseudo-real locus."""
        return (self.witnessed, self.possible)


def pseudo_real_component_census(d: int) -> ComponentCensus:
    """Connected components of the pseudo-real locus in degree d are
    counted by the powers 2^(s+1) realizable as antiholomorphic symmetry
    orders of degree-d maps: loci for different s never meet.

    s = 0 is witnessed by the antipodal family for every odd d >= 3.
    For s >= 1 the order-(2 * 2^s) feasibility conditions gate candidacy;
    a candidate is witnessed when the rotation-family construction
    applies (n = 2^s >= 6 with an even r >= 2 and d = n r + 1), or by the
    explicit degree-3 map (1 + i z^2)/(z - i z^3), which carries an
    order-4 antiholomorphic symmetry and no reflection."""
    if d < 3 or d % 2 == 0:
        raise BadDegreeError("census needs odd d >= 3")
    out = [
        ComponentCandidate(0, 2, "witnessed", "antipodal family (e.g. i((z-1)/(z+1))^d)")
    ]
    s = 1
    while 2**s <= d + 1:
        n = 2**s
        rec = antiholo_order_feasibility(d, n)
        if not rec.feasible:
            out.append(ComponentCandidate(s, 2 * n, "excluded", rec.reason))
        elif d == 3 and s == 1:
            out.append(
                ComponentCandidate(
                    s, 2 * n, "witnessed",
                    "explicit map (1 + i z^2)/(z - i z^3) with the order-4 "
                    "symmetry i/conj(z)",
                )
            )
        else:
            witness_r = [
                r for r, case in rec.admissible_r if case == "a" and r >= 2 and r % 2 == 0
            ]
            if n >= 6 and witness_r:
                out.append(
                    ComponentCandidate(
                        s, 2 * n, "witnessed",
                        f"rotation family at n = {n}, r = {witness_r[0]}",
                    )
                )
            else:
                out.append(
                    ComponentCandidate(
                        s, 2 * n, "candidate",
                        "necessary conditions hold; no constructive witness "
                        f"(rotation family needs n >= 6 and d = nr + 1; n = {n})",
                    )
                )
        s += 1
    return ComponentCensus(d, out)
