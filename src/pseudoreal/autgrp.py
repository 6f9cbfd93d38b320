"""Automorphism groups of rational maps and the cyclic normal form.

The search works on the distinguished set S = Fix(phi) u Crit(phi), root-
found once per report: every (anti)holomorphic automorphism permutes S and
preserves the multiplicity labels, so fixing one source triple in S and
enumerating label-compatible ordered target triples is a complete
candidate generator.  The source triple comes from the rarest labels,
which keeps the target triples few.  The projective primitives come from
``moebius``: ``three_point_matrix`` builds every candidate at once on numpy
arrays, the chordal cross product filters them by whether they map all of
S into S, and ``proj_sine`` between phi's coefficient vector and the
conjugated one confirms the few survivors.

Confirmed numeric elements can then be certified.  Every float-to-exact
step here (matrix entries, fixed points, square roots, roots of unity)
goes through the one routine ``cyclotomic.lift``: bounded-denominator
recognition proposes candidates field by field, and a lifted value is only
a guess until an exact check accepts it.  For a matrix M that check is the
coefficient identity M F^s = lam F o M on phi's pair F = (P, Q) of
degree-d forms (F^s with conjugated coefficients for antiholomorphic
elements): the x^d and y^d coefficients first, then all 2d + 2.

The report certifies a generating set, not every element (Faber, Manes and
Viray, "Computing conjugating sets and automorphism groups of rational
functions", J. Algebra 423, 2015).  One product table of the numeric group
names the element nearest to each product within its orientation: its worst
distance is the closure check, orders are walks along it, and the exact
closure of the certified elements must follow it product for product.  A
failed lift leaves the element numeric and the report uncertified, and so
does a closure that does not match; neither produces a wrong exact claim.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .cyclotomic import CycloNum, common_order, fold_power_relations, lift, solve_scalar_identity
from .errors import (
    NotAGroupError,
    NotAnAutomorphismError,
    NotCertifiedError,
    OrderMismatchError,
    SearchBoundExceededError,
)
from .moebius import (
    ExtendedMoebius,
    _cross,
    _homog_pairs,
    pivot_index,
    proj_distance,
    proj_sine,
    three_point_matrix,
)
from .polyring import ROOT_TOL, Poly
from .ratmap import LabeledPoint, RationalMap, _homogeneous_substitute
from .sphere import INF, conj_point, homog, is_inf


# the search accepts a candidate whose conjugated coefficient vector is within
# MATCH_TOL of phi's, merges elements within DEDUP_TOL, keeps a candidate
# while every probe point lands within PROBE_TOL of the set, and refuses
# distinguished sets of more than SEARCH_CAP points
MATCH_TOL = 1e-8
DEDUP_TOL = 1e-7
PROBE_TOL = 1e-6
SEARCH_CAP = 200
TOLERANCES = {"root": ROOT_TOL, "match": MATCH_TOL, "dedup": DEDUP_TOL, "probe": PROBE_TOL}


@dataclass
class AutGroupReport:
    """Holomorphic and antiholomorphic automorphisms plus group structure.

    ``orders[i]`` is the order of ``elements[i]``: read off the numeric
    group's product table and carried to the exact element matched to it."""

    elements: list[ExtendedMoebius]
    orders: list[int]
    holo_kind: str          # Trivial | Cyclic | Dihedral | A4 | S4 | A5
    holo_n: int | None      # the n of Cyclic(n) / Dihedral(n)
    points: list[LabeledPoint]  # the distinguished set the search ran on
    certified: bool
    notes: list[str] = field(default_factory=list)

    @property
    def mode(self) -> str:
        """"exact" when every element is certified, else "numeric"."""
        return "exact" if self.certified else "numeric"

    def with_orders(self, antiholo: bool) -> list[tuple[ExtendedMoebius, int]]:
        """(element, order) pairs of one orientation, in report order."""
        return [(g, k) for g, k in zip(self.elements, self.orders) if g.antiholo == antiholo]

    @property
    def holo_elements(self) -> list[ExtendedMoebius]:
        return [g for g in self.elements if not g.antiholo]

    @property
    def antiholo_elements(self) -> list[ExtendedMoebius]:
        return [g for g in self.elements if g.antiholo]

    def holo_label(self) -> str:
        if self.holo_kind in ("Cyclic", "Dihedral"):
            return f"{self.holo_kind}({self.holo_n})"
        return self.holo_kind


# -- numeric search ---------------------------------------------------------


def _numeric_conjugated_coeffs(p, q, mat, antiholo, formal_deg):
    """Coefficient vectors of g o phi o g^(-1) from complex data: the Horner
    of ``ratmap._homogeneous_substitute`` with u = d z - b and v = a - c z,
    each product with a linear factor one ``np.convolve``."""
    if antiholo:
        p, q = np.conj(p), np.conj(q)
    a, b, c, d = mat
    u, v = (-b, d), (a, -c)
    acc_p, acc_q, v_pow = p[formal_deg:], q[formal_deg:], np.ones(1, dtype=complex)
    for k in range(formal_deg - 1, -1, -1):
        v_pow = np.convolve(v_pow, v)
        acc_p = np.convolve(acc_p, u) + p[k] * v_pow
        acc_q = np.convolve(acc_q, u) + q[k] * v_pow
    return a * acc_p + b * acc_q, c * acc_p + d * acc_q


def _search_orientation(phi: RationalMap, antiholo: bool, points: list[LabeledPoint] | None):
    pts = phi.distinguished_points() if points is None else points
    if len(pts) > SEARCH_CAP:
        raise SearchBoundExceededError(
            f"distinguished set has {len(pts)} points, cap is {SEARCH_CAP}"
        )

    def sort_key(lp):
        if is_inf(lp.point):
            return (1, 0.0, 0.0)
        return (0, round(lp.point.real, 9), round(lp.point.imag, 9))

    pts = sorted(pts, key=sort_key)
    # rarest labels first: the source triple and the first probes come from
    # the smallest label classes, which leaves the fewest target triples
    class_size = Counter(lp.label for lp in pts)
    pts.sort(key=lambda lp: class_size[lp.label])
    n_pts = len(pts)
    H = np.array([homog(lp.point) for lp in pts], dtype=complex)  # (N, 2)
    labels = [lp.label for lp in pts]
    classes: dict[tuple, list[int]] = {}
    for idx, lab in enumerate(labels):
        classes.setdefault(lab, []).append(idx)

    sources = pts[:3]
    src_points = [conj_point(lp.point) for lp in sources] if antiholo else [
        lp.point for lp in sources
    ]

    # ordered target triples compatible with the source labels
    sets = [np.array(classes[lp.label], dtype=int) for lp in sources]
    ii, jj, kk = np.meshgrid(sets[0], sets[1], sets[2], indexing="ij")
    tri = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)
    distinct = (
        (tri[:, 0] != tri[:, 1]) & (tri[:, 0] != tri[:, 2]) & (tri[:, 1] != tri[:, 2])
    )
    tri = tri[distinct]

    # one candidate per target triple; its coordinates are arrays over them
    targets = H[tri].transpose(1, 2, 0)
    cand = np.stack(three_point_matrix(_homog_pairs(src_points), targets), axis=1)
    norms = np.sqrt((np.abs(cand) ** 2).sum(axis=1))
    good = norms > 0
    cand = cand[good] / norms[good, None]
    dets = cand[:, 0] * cand[:, 3] - cand[:, 1] * cand[:, 2]
    cand = cand[np.abs(dets) > 1e-12]

    alive = np.arange(len(cand))
    for probe_idx in range(3, n_pts):
        if len(alive) == 0:
            break
        lp = pts[probe_idx]
        vec = homog(conj_point(lp.point) if antiholo else lp.point)
        sub = cand[alive]
        x = sub[:, 0] * vec[0] + sub[:, 1] * vec[1]
        y = sub[:, 2] * vec[0] + sub[:, 3] * vec[1]
        scale = np.sqrt(np.abs(x) ** 2 + np.abs(y) ** 2)
        scale[scale == 0] = 1.0
        x, y = x / scale, y / scale
        cls = H[np.array(classes[lp.label], dtype=int)]
        # chordal distance from each candidate's image to each class point
        dist = np.abs(_cross((x[:, None], y[:, None]), cls.T[:, None, :]))
        alive = alive[dist.min(axis=1) <= PROBE_TOL]

    # confirm survivors on the coefficient vector
    d = phi.degree
    p_c = np.array(phi.numer.to_complex_coeffs(d + 1))
    q_c = np.array(phi.denom.to_complex_coeffs(d + 1))
    vec_old = np.concatenate([p_c, q_c])
    found: list[ExtendedMoebius] = []
    kept = []  # the entries of each element found
    for row in cand[alive]:
        mat = tuple(complex(v) for v in row)
        new_p, new_q = _numeric_conjugated_coeffs(p_c, q_c, mat, antiholo, d)
        if proj_sine(np.concatenate([new_p, new_q]), vec_old) <= MATCH_TOL:
            g = ExtendedMoebius(*mat, antiholo=antiholo).normalized()
            entries = (g.a, g.b, g.c, g.d)
            if not kept or proj_sine(entries, kept).min() > DEDUP_TOL:
                found.append(g)
                kept.append(entries)
    return found


def holomorphic_automorphisms(
    phi: RationalMap, *, points: list[LabeledPoint] | None = None
) -> list[ExtendedMoebius]:
    """All Moebius transformations commuting with phi (numeric mode).

    ``points`` is phi's distinguished set when the caller already has it."""
    out = _search_orientation(phi, antiholo=False, points=points)
    if not any(g.is_identity(1e-6) for g in out):
        out.insert(0, ExtendedMoebius(1 + 0j, 0j, 0j, 1 + 0j))
    return out


def antiholomorphic_automorphisms(
    phi: RationalMap, *, points: list[LabeledPoint] | None = None
) -> list[ExtendedMoebius]:
    """All antiholomorphic transformations commuting with phi (numeric mode).

    ``points`` is phi's distinguished set when the caller already has it."""
    return _search_orientation(phi, antiholo=True, points=points)


# -- group structure ---------------------------------------------------------


def _product_table(elements: list[ExtendedMoebius]) -> tuple[list[list[int]], float]:
    """(table, defect): ``table[i][j]`` is the index of the element of the
    orientation of elements[i] o elements[j] nearest to that product, and
    ``defect`` the largest such distance, measured by ``proj_sine``; inf
    when an orientation has no element."""
    anti = np.array([g.antiholo for g in elements])
    mats = np.array([(h.a, h.b, h.c, h.d) for h in map(ExtendedMoebius.to_numeric, elements)])
    mats /= np.linalg.norm(mats, axis=1)[:, None]
    # an antiholomorphic left factor acts on the conjugated right matrix
    m = mats.reshape(-1, 2, 2)
    right = np.where(anti[:, None, None, None], m.conj()[None], m[None])
    prod = (m[:, None] @ right).reshape(len(elements), len(elements), 4)
    prod /= np.linalg.norm(prod, axis=2)[..., None]
    prod_anti = anti[:, None] != anti[None, :]
    cos = np.abs(prod @ mats.conj().T)
    cos[prod_anti[..., None] != anti] = -1.0
    table = cos.argmax(axis=2)
    dist = np.where(anti[table] == prod_anti, proj_sine(prod, mats[table]), np.inf)
    return table.tolist(), float(dist.max())


def _orders(table: list[list[int]]) -> list[int]:
    """Element orders read off a product table: the steps of the walk
    g, g o g, ... that reach the identity, the one element with e o e = e."""
    identity = next((i for i, row in enumerate(table) if row[i] == i), None)
    orders = []
    for i, row in enumerate(table):
        x, k = i, 1
        while x != identity:
            if k == len(table):
                raise NotAGroupError("element order exceeds the group-order bound")
            x, k = row[x], k + 1
        orders.append(k)
    return orders


def classify_group_type(elements: list[ExtendedMoebius], orders: list[int] | None = None):
    """(kind, n) for the holomorphic part: Trivial, Cyclic(n), Dihedral(n),
    A4, S4 or A5, decided by the element-order multiset.

    ``orders`` are the numeric orders of the holomorphic elements, in
    their order, when the caller has already read them off the product
    table."""
    holo = [g for g in elements if not g.antiholo]
    n = len(holo)
    if n == 0:
        raise NotAGroupError("empty element list")
    if n == 1:
        return ("Trivial", None)
    if orders is None:
        orders = _orders(_product_table(holo)[0])
    top = max(orders)
    if top == n:
        return ("Cyclic", n)
    multiset = {k: orders.count(k) for k in set(orders)}
    if n == 12 and multiset == {1: 1, 2: 3, 3: 8}:
        return ("A4", None)
    if n == 24 and multiset == {1: 1, 2: 9, 3: 8, 4: 6}:
        return ("S4", None)
    if n == 60 and multiset == {1: 1, 2: 15, 3: 20, 5: 24}:
        return ("A5", None)
    if n % 2 == 0 and top == n // 2:
        return ("Dihedral", n // 2)
    raise NotAGroupError(f"order multiset {multiset} matches no finite rotation group")


def closure_defect(elements: list[ExtendedMoebius]) -> float:
    """Worst distance from a pairwise product to the elements of its orientation."""
    return _product_table(elements)[1]


def verify_automorphism_exact(phi: RationalMap, g: ExtendedMoebius) -> bool:
    """Exact check that g commutes with phi, i.e. g o phi o g^(-1) = phi.

    Let F = (P, Q) be phi's pair of degree-d forms and F^s the pair with
    conjugated coefficients when g is antiholomorphic.  Both M F^s(x, y) and
    F(M (x, y)) are coprime pairs of degree-d forms (phi is reduced, M
    invertible), so g commutes with phi iff the first is one scalar times
    the second.  The x^d and y^d coefficients, the values at (1:0) and
    (0:1), are compared first in O(d) operations, which rejects most
    near-miss lifts; then all 2d + 2 coefficients.  No gcd is needed."""
    if not g.exact:
        raise TypeError("exact verification needs exact matrix entries")
    m = common_order(phi.field_order, g.a.order)
    a, b, c, d = (e.rebase(m) for e in (g.a, g.b, g.c, g.d))
    p, q = phi.numer.rebase(m), phi.denom.rebase(m)
    deg = phi.degree

    def twisted(value: CycloNum) -> CycloNum:
        return value.conj() if g.antiholo else value

    ends_lhs, ends_rhs = [], []
    for k, (x, y) in ((deg, (a, c)), (0, (b, d))):
        pk, qk = twisted(p.coeff(k)), twisted(q.coeff(k))
        ends_lhs += [a * pk + b * qk, c * pk + d * qk]
        ends_rhs += [_homogeneous_substitute(f, x, y, deg) for f in (p, q)]
    if not solve_scalar_identity(ends_lhs, ends_rhs, unimodular_only=False):
        return False
    ps, qs = (p.conj(), q.conj()) if g.antiholo else (p, q)
    u, v = Poly([b, a]), Poly([d, c])
    lhs, rhs = [], []
    for (s, t), form in (((a, b), p), ((c, d), q)):
        lhs += (ps.scale(s) + qs.scale(t)).padded(deg + 1)
        rhs += _homogeneous_substitute(form, u, v, deg).padded(deg + 1)
    return bool(solve_scalar_identity(lhs, rhs, unimodular_only=False))


# -- exact lifting ------------------------------------------------------------


def _numeric_fixed_points(g: ExtendedMoebius):
    a, b, c, d = g.a, g.b, g.c, g.d
    if abs(c) < 1e-13:
        if abs(b) < 1e-13:
            return 0j, INF
        if abs(d - a) < 1e-13:
            return INF, INF
        return b / (d - a), INF
    disc = (d - a) ** 2 + 4 * b * c
    s = disc ** 0.5
    return ((a - d) + s) / (2 * c), ((a - d) - s) / (2 * c)


def _lift_holo_via_fixed_points(
    phi: RationalMap, g: ExtendedMoebius, k: int
) -> ExtendedMoebius | None:
    """An elliptic holomorphic element of order k rebuilt from its
    fixed-point pair and rotation multiplier, verified to commute with phi,
    or None.

    A finite-order element is conjugate to z -> zeta z; its matrix entries
    may be arbitrary field elements, but the fixed points are often simple
    (images of 0 and infinity under the scrambling map) and the multiplier
    is exactly a root of unity, so lifting those suffices."""
    p_num, q_num = _numeric_fixed_points(g)
    if q_num is INF and p_num is INF:
        return None
    # multiplier at the first fixed point: (ad - bc) / (c z0 + d)^2
    det = g.a * g.d - g.b * g.c
    if p_num is INF:
        p_num, q_num = q_num, p_num
    mu = det / (g.c * p_num + g.d) ** 2
    if abs(abs(mu) - 1.0) > 1e-6:
        return None
    j = round(k * (cmath.phase(mu) / (2 * math.pi))) % k
    if abs(mu - cmath.exp(2 * math.pi * 1j * j / k)) > 1e-6:
        return None

    def fixed_pair(lifted):
        return (lifted, INF) if q_num is INF else lifted

    def rebuild(p, q) -> ExtendedMoebius:
        rot_order = common_order(p.order, k)
        rot = ExtendedMoebius.rotation(rot_order, j * (rot_order // k))
        conj = _conjugator_to_zero_inf(p, q)
        return conj.inverse().compose(rot).compose(conj)

    def commutes(lifted) -> bool:
        p, q = fixed_pair(lifted)
        if q is not INF and p == q:
            return False
        cand = rebuild(p, q)
        return proj_distance(cand.to_numeric(), g) <= 1e-6 and verify_automorphism_exact(
            phi, cand
        )

    base = common_order(phi.field_order, 4)
    values = p_num if q_num is INF else (p_num, q_num)
    lifted = lift(values, (base, common_order(base, k)), commutes)
    return None if lifted is None else rebuild(*fixed_pair(lifted))


def _pivot_scaled(g: ExtendedMoebius):
    """(j, entries / entry j) for a numeric g, where j is the
    ``pivot_index`` of its entries: the values a matrix lift starts from."""
    entries = (g.a, g.b, g.c, g.d)
    j = pivot_index(entries)
    return j, tuple(e / entries[j] for e in entries)


def _matrix_fields(phi: RationalMap, k: int) -> list[int]:
    """The fields a matrix lift tries, in order: the map's field with i
    adjoined, then its extensions by the roots of unity of orders k and 2k
    (k the order of the element)."""
    base = common_order(phi.field_order, 4)
    return sorted({base, common_order(base, k), common_order(base, 2 * k)})


def certify_element(phi: RationalMap, g: ExtendedMoebius, order: int) -> ExtendedMoebius | None:
    """Exact element verified to commute with phi, or None.

    ``order`` is the order of g, as read off the product table of the
    numeric group; it picks the fields of the lift.  The four entries,
    scaled by a large one, are lifted jointly and the exact commutation
    check decides; an elliptic holomorphic element that resists this in
    every field is rebuilt from its fixed points."""
    if g.exact:
        return g if verify_automorphism_exact(phi, g) else None

    def commutes(lifted) -> bool:
        try:
            cand = ExtendedMoebius(*lifted, antiholo=g.antiholo)
        except ValueError:
            return False
        return verify_automorphism_exact(phi, cand)

    _, values = _pivot_scaled(g)
    lifted = lift(values, _matrix_fields(phi, order), commutes)
    if lifted is not None:
        return ExtendedMoebius(*lifted, antiholo=g.antiholo)
    if not g.antiholo and not g.is_identity(1e-9):
        return _lift_holo_via_fixed_points(phi, g, order)
    return None


# -- the full report -----------------------------------------------------------


def _sort_elements(pairs: list[tuple[ExtendedMoebius, int]]):
    """(element, order) pairs by orientation, order and rounded entries."""

    def key(pair):
        g, k = pair
        num = g.to_numeric().normalized()
        ent = tuple(
            (round(v.real, 7) + 0.0, round(v.imag, 7) + 0.0)
            for v in (num.a, num.b, num.c, num.d)
        )
        return (g.antiholo, k, ent)

    return sorted(pairs, key=key)


def _certify_group(phi: RationalMap, elements: list[ExtendedMoebius], orders: list[int], table):
    """Exact elements for the numeric group ``elements`` with its orders and
    product table, from a certified generating set: ((exact element, order)
    pairs, lift failures), or None when the exact closure does not match.

    The identity is the empty product and needs no check.  Then come the
    holomorphic elements by decreasing order, then the antiholomorphic
    ones; one the closure has reached is taken from it, any other one is
    certified alone and becomes a generator.  The closure grows by left
    products with the generators along the table: the exact s o x must be
    the exact element at table[s][x] or, at a new index, lie within 1e-6 of
    its numeric element and not be the identity.  So index to exact element
    is a homomorphism with trivial kernel: no exact element stands for two
    numeric ones."""
    identity = orders.index(1)
    closure = {identity: ExtendedMoebius.identity(common_order(phi.field_order, 4))}
    gens: list[tuple[int, ExtendedMoebius]] = []
    work = sorted((i for i, g in enumerate(elements) if not g.antiholo), key=lambda i: -orders[i])
    work += [i for i, g in enumerate(elements) if g.antiholo]
    exact: list[tuple[ExtendedMoebius, int]] = []
    failed = 0
    for w in work:
        g, k = elements[w], orders[w]
        if w in closure:
            # scaled to g's pivot, as certify_element scales a lifted element
            j, _ = _pivot_scaled(g)
            e = closure[w]
            entries = (e.a, e.b, e.c, e.d)
            pivot_inv = entries[j].inv()
            exact.append((ExtendedMoebius(*(x * pivot_inv for x in entries), e.antiholo), k))
            continue
        cert = certify_element(phi, g, k)
        if cert is None:
            failed += 1
            exact.append((g, k))
            continue
        gens.append((w, cert.normalized()))
        queue = list(closure)
        n_old = len(queue)
        # old elements are closed under the old generators already
        for pos, x in enumerate(queue):
            for s, gen in gens if pos >= n_old else gens[-1:]:
                # the table gives y the orientation of the element it names
                y_idx, y = table[s][x], gen.compose(closure[x]).normalized()
                if y_idx in closure:
                    e = closure[y_idx]
                    if (y.a, y.b, y.c, y.d) != (e.a, e.b, e.c, e.d):
                        return None
                elif y.is_identity() or proj_distance(y, elements[y_idx]) > 1e-6:
                    return None
                else:
                    closure[y_idx] = y
                    queue.append(y_idx)
        exact.append((cert, k))
    return exact, failed


def aut_group_report(phi: RationalMap, *, certify: bool = True) -> AutGroupReport:
    """Compute Aut(phi) and the antiholomorphic part, classify, and certify
    unless ``certify`` is False."""
    points = phi.distinguished_points()
    holos = holomorphic_automorphisms(phi, points=points)
    antis = antiholomorphic_automorphisms(phi, points=points)
    elements = holos + antis
    notes: list[str] = []
    table, defect = _product_table(elements)
    if defect > 10 * DEDUP_TOL:
        raise NotAGroupError(f"element list not closed under composition ({defect:.2e})")
    if antis and len(antis) != len(holos):
        raise NotAGroupError(
            f"antiholomorphic coset has size {len(antis)} against {len(holos)}"
        )
    orders = _orders(table)
    kind, n = classify_group_type(holos, orders=orders[: len(holos)])
    pairs = list(zip(elements, orders))
    certified = False
    if certify:
        result = _certify_group(phi, elements, orders, table)
        if result is None:
            notes.append("exact closure of the certified elements does not match the search")
        else:
            pairs, failed = result
            if failed == 0:
                certified = True
            else:
                notes.append(f"{failed} element(s) kept numeric; exact lift failed")
    pairs = _sort_elements(pairs)
    return AutGroupReport(
        elements=[g for g, _ in pairs],
        orders=[k for _, k in pairs],
        holo_kind=kind,
        holo_n=n,
        points=points,
        certified=certified,
        notes=notes,
    )


# -- cyclic canonical form -------------------------------------------------------


@dataclass
class CanonicalCyclicForm:
    """phi conjugated to z * psi(z^n), with the conjugator that got there."""

    n: int
    psi: RationalMap
    case_tag: str            # 'a': d = nr+1, 'b': d = nr, 'c': d = nr-1
    conjugator: ExtendedMoebius
    degree: int

    @property
    def r(self) -> int:
        return self.psi.degree

    def canonical_map(self) -> RationalMap:
        """z * psi(z^n) as a rational map.

        psi = P/Q is reduced, so P(z^n) and Q(z^n) are coprime, and z is
        common to z P(z^n) and Q(z^n) only when Q(0) = 0 (case c): it
        cancels by a shift of Q(z^n), as in ``_extract_power_form``."""
        num = self.psi.numer.substitute_power(self.n)
        den = self.psi.denom.substitute_power(self.n)
        if den.coeff(0).is_zero():
            den = Poly(den.coeffs[1:], den.order)
        else:
            num = Poly.x(num.order) * num
        return RationalMap.reduce(num, den)


def _exact_sqrt(value: CycloNum) -> CycloNum | None:
    """A y with y*y == value, found by lifting the numeric square root.

    One sign suffices: in these even-order fields the candidates for -root
    are the negatives of those for root, and y passes exactly when -y does."""
    fields = sorted({common_order(value.order, 4), common_order(value.order, 8)})
    return lift(value.to_complex() ** 0.5, fields, lambda y: y * y == value)


def _fixed_points_exact(t: ExtendedMoebius):
    a, b, c, d = t.a, t.b, t.c, t.d
    if c.is_zero() and b.is_zero():
        return (CycloNum.zero(a.order), INF)
    if c.is_zero():
        return (b / (d - a), INF)
    if b.is_zero():
        return (CycloNum.zero(a.order), (a - d) / c)
    disc = (d - a) * (d - a) + 4 * b * c
    if disc.is_zero():
        raise OrderMismatchError("parabolic element has a single fixed point")
    # lift the numeric roots of c z^2 + (d - a) z - b and verify exactly
    base = common_order(a.order, 4)
    fields = (base, common_order(base, 8), common_order(base, 12))

    def is_fixed(z: CycloNum) -> bool:
        return (c * z * z + (d - a) * z - b).is_zero()

    r1, r2 = _numeric_fixed_points(t.to_numeric())
    p = lift(r1, fields, is_fixed)
    q = None if p is None else lift(r2, fields, is_fixed)
    if q is not None and p != q:
        return (p, q)
    # fallback: an exact square root of the discriminant
    s = _exact_sqrt(disc)
    if s is None:
        raise NotCertifiedError("fixed points of the symmetry are not liftable")
    two_c = (c + c).inv()
    return (((a - d) + s) * two_c, ((a - d) - s) * two_c)


def _conjugator_to_zero_inf(p, q) -> ExtendedMoebius:
    one = CycloNum.one()
    zero = CycloNum.zero()
    if is_inf(p):
        return ExtendedMoebius(zero, one, one, -q)
    if is_inf(q):
        return ExtendedMoebius(one, -p, zero, one)
    return ExtendedMoebius(one, -p, one, -q)


def _extract_power_form(phi: RationalMap, n: int):
    """(P, Q) with phi(z) = z P(z^n)/Q(z^n), or None when phi has no such form.

    phi(z)/z is N/(z D) with N and D coprime, so gcd(N, z D) is z when
    N(0) = 0 and 1 otherwise: the z cancels by a shift of N."""
    u, v = phi.numer, phi.denom
    if u.coeff(0).is_zero():
        u = Poly(u.coeffs[1:], u.order)
    else:
        v = Poly.x(v.order) * v
    if any(c for f in (u, v) for k, c in enumerate(f.coeffs) if k % n):
        return None
    return Poly(u.coeffs[::n], u.order), Poly(v.coeffs[::n], v.order)


def canonicalize_cyclic(phi: RationalMap, t: ExtendedMoebius) -> CanonicalCyclicForm:
    """Bring phi to z * psi(z^n) using an order-n symmetry t of phi.

    The conjugator sends the fixed points of t to 0 and infinity; the case
    with phi(0) = 0 = phi(infinity) is folded into case 'b' by an extra
    1/z flip.  The extraction is the proof that t commutes with phi: t's
    order n and fixed points are exact, so in the new coordinates t is
    z -> zeta z with zeta of order n, and a map commutes with it iff it is
    z P(z^n)/Q(z^n).  Otherwise NotAnAutomorphismError is raised.
    """
    if not t.exact:
        raise NotCertifiedError("canonicalization needs an exact symmetry")
    if t.antiholo:
        raise NotAnAutomorphismError("the symmetry must be holomorphic")
    n = t.order(2 * (phi.degree + 1))
    if n is None or n < 2:
        raise OrderMismatchError("symmetry must have finite order at least 2")
    p_fix, q_fix = _fixed_points_exact(t)
    conj = _conjugator_to_zero_inf(p_fix, q_fix)
    work = phi.conjugate_by(conj)
    # z P(z^n)/Q(z^n) keeps this form under 1/z, so the order of the two
    # fixed points does not matter
    extracted = _extract_power_form(work, n)
    if extracted is None:
        raise NotAnAutomorphismError("map is not rotation-symmetric of this order")
    psi = RationalMap.reduce(*extracted)
    r = psi.degree
    a_r = psi.numer.coeff(r)
    b_0 = psi.denom.coeff(0)
    if a_r.is_zero() and not b_0.is_zero():
        # phi(0) = 0 = phi(inf): flip by 1/z into the b-case
        conj = ExtendedMoebius.inversion().compose(conj)
        work = _flip_psi(work)
        psi = _flip_psi(psi)  # 1/psi(1/u), of the same degree r
        a_r = psi.numer.coeff(r)
        b_0 = psi.denom.coeff(0)
    d = phi.degree
    if not a_r.is_zero() and not b_0.is_zero():
        case, expected = "a", n * r + 1
    elif not a_r.is_zero():
        case, expected = "b", n * r
    else:
        case, expected = "c", n * r - 1
    if d != expected:
        raise NotAnAutomorphismError(
            f"degree {d} inconsistent with case {case} at (n, r) = ({n}, {r})"
        )
    form = CanonicalCyclicForm(n=n, psi=psi, case_tag=case, conjugator=conj, degree=d)
    if not form.canonical_map().equals_projective(work):
        raise NotAnAutomorphismError("canonical reconstruction mismatch")
    return form


# -- the normalizer action on the psi parameter -----------------------------------


def _flip_psi(psi: RationalMap) -> RationalMap:
    """1/psi(1/u), the conjugate of psi by the inversion u -> 1/u."""
    r = max(psi.numer.degree, psi.denom.degree)
    rev_num = Poly(list(reversed(psi.denom.padded(r + 1))))
    rev_den = Poly(list(reversed(psi.numer.padded(r + 1))))
    return RationalMap.reduce(rev_num, rev_den)


def normalizer_action(psi: RationalMap, t, flip: bool) -> RationalMap:
    """The induced action on psi of the maps normalizing the rotation group:
    scaling z by lambda sends psi(u) to psi(u/t) with t = lambda^n, and the
    1/z flip sends psi(u) to 1/psi(1/u)."""
    t = CycloNum._coerce(t)
    if t.is_zero():
        raise ValueError("scale parameter must be nonzero")
    inv_t = t.inv()
    scaled = RationalMap.reduce(
        psi.numer.scale_argument(inv_t), psi.denom.scale_argument(inv_t)
    )
    return _flip_psi(scaled) if flip else scaled


def solve_normalizer_orbit(psi1: RationalMap, psi2: RationalMap):
    """(t, flip) with normalizer_action(psi1, t, flip) == psi2, or None."""
    for flip in (False, True):
        target = _flip_psi(psi2) if flip else psi2
        t = _solve_argument_scale(psi1, target)
        if t is not None and normalizer_action(psi1, t, flip).equals_projective(psi2):
            return t, flip
    return None


def _solve_argument_scale(psi_a: RationalMap, psi_b: RationalMap):
    """Exact t with psi_a(u/t) == psi_b (projectively), or None."""
    if psi_a.degree != psi_b.degree:
        return None
    r = max(
        psi_a.numer.degree, psi_a.denom.degree, psi_b.numer.degree, psi_b.denom.degree
    )
    m = common_order(psi_a.field_order, psi_b.field_order)
    va = psi_a.numer.rebase(m).padded(r + 1) + psi_a.denom.rebase(m).padded(r + 1)
    vb = psi_b.numer.rebase(m).padded(r + 1) + psi_b.denom.rebase(m).padded(r + 1)
    support = [k for k in range(len(va)) if not va[k].is_zero()]
    if [k for k in range(len(vb)) if not vb[k].is_zero()] != support:
        return None
    # vb = s * va * t^(r - e), so (vb / va) * t^e = s * t^r is one value;
    # e is the power of u the coefficient belongs to, not its index in the
    # concatenated vector
    folded = fold_power_relations(
        [(k if k <= r else k - (r + 1), vb[k] / va[k]) for k in support]
    )
    if folded is None:
        return None
    g, val = folded
    if g == 0:
        return CycloNum.one(m)
    if g == 1:
        return val
    # an exact g-th root of val
    fields = (common_order(m, 4), common_order(m, 4 * g))
    base = val.to_complex() ** (1.0 / g)
    for ell in range(g):
        cand_num = base * complex(
            math.cos(2 * math.pi * ell / g), math.sin(2 * math.pi * ell / g)
        )
        t = lift(cand_num, fields, lambda cand: cand ** g == val)
        if t is not None:
            return t
    return None
