"""Hyperbolicity toolkit: Gromov products, tripod-thin triangles,
quasigeodesicity checks, concatenation bounds, and measured constants.

All quantities are exact.  Gromov products are half-integers represented as
``Fraction`` values.  Thinness is the maximum diameter of a tripod point
preimage at vertex and edge-midpoint positions, where the maxima of the
piecewise-linear preimage distances occur; the scans count these positions
as integers, in doubled arclengths.  ``thin_triangle_delta`` scans one
triangle's canonical geodesic sides in any view.  ``measure_delta`` scans
every triple of a ball with one ``_ScanTable``, over numbered vertices,
whose sides multiply each edge of the table once and read it back after.
The scan is pruned exactly by the triangle inequality behind the tripod
definition (Bridson–Haefliger III.H.1.17): matched points at doubled
position t are each t/2 from their corner, so at doubled distance at most
2t, and t runs up to the corner's doubled Gromov product L.  Through the
far ends of their sides they are also at doubled distance at most
2P - 2t, for the perimeter P.  A position beats a doubled running maximum
B only when floor(B/2) < t <= min(L, P - floor(B/2) - 1); a triple or
position outside that range is skipped.  A free group's
word metric is a tree, whose triangles are tripods (0-thin), so there
``measure_delta`` returns 0 without a scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .cayley import Ball, BrokenLine, EdgePath, RelGraphView, word_metric_view
from .errors import BudgetExceededError
from .groups import FreeGroup


def gromov_product(x, y, z, view: RelGraphView) -> Fraction:
    """<x, y>_z = (d(x,z) + d(y,z) - d(x,y)) / 2, an exact half-integer."""
    return Fraction(view.dist(x, z) + view.dist(y, z) - view.dist(x, y), 2)


@dataclass(frozen=True)
class QuasigeodesicVerdict:
    ok: bool
    witness: Optional[EdgePath] = None

    def __bool__(self) -> bool:
        return self.ok


def is_quasigeodesic(p: EdgePath, lam, c) -> QuasigeodesicVerdict:
    """Exhaustive check of len(q) <= lam * d(q-, q+) + c over all subpaths q.

    Returns a failing subpath as witness when the bound is violated.
    """
    dist = p.view.dist
    lam = Fraction(lam)
    c = Fraction(c)
    # with lam = a/b and c = r/s: span > (a/b) d + r/s  iff  span b s > a s d + r b
    a, b, r, s = lam.numerator, lam.denominator, c.numerator, c.denominator
    a_s, r_b = a * s, r * b
    verts = p.vertices
    n = len(p.labels)
    for span in range(1, n + 1):
        lhs = span * b * s
        for i in range(0, n - span + 1):
            if lhs > a_s * dist(verts[i], verts[i + span]) + r_b:
                return QuasigeodesicVerdict(False, p.subpath(i, i + span))
    return QuasigeodesicVerdict(True)


# -- tripod thinness ---------------------------------------------------------


class _ScanTable:
    """What a δ scan reads again and again, in one view, for one scan.

    Vertices are numbered once, in order of first sight: vertex i is
    ``elems[i]``, with sort key ``keys[i]``; ``rows[i]`` maps j to d(i, j),
    from ``rows[i][i] = 0``, memoised under both orders.  ``sides[i, j]`` is
    the canonical side from i to j as its vertex numbers and each edge label
    less its element, built once per unordered pair when a scanned corner
    reads it: the labels of ``view.decompose`` from the end with the lower
    sort key, stored under both orders, the second reversed.  The side walks
    its labels through ``steps``, which maps (vertex number, label element)
    to the vertex number of their product, so each edge of the table costs
    one ``base.mul``, on its first walk.  A table is made by
    ``measure_delta`` for one scan, or by a lone ``thin_triangle_delta``
    call for its triangle, and dropped with it.
    """

    __slots__ = ("view", "nums", "elems", "keys", "rows", "sides", "steps")

    def __init__(self, view: RelGraphView):
        self.view = view
        self.nums, self.elems, self.keys, self.rows = {}, [], [], []
        self.sides, self.steps = {}, {}

    def num(self, g) -> int:
        i = self.nums.get(g)
        if i is None:
            i = self.nums[g] = len(self.elems)
            self.elems.append(g)
            self.keys.append(self.view.group.base.sort_key(g))
            self.rows.append({i: 0})
        return i

    def side(self, u: int, v: int):
        s = self.sides.get((u, v))
        if s is None:
            lo, hi = (v, u) if self.keys[v] < self.keys[u] else (u, v)
            base, elems, steps = self.view.group.base, self.elems, self.steps
            labels = self.view.decompose(base.mul(base.inv(elems[lo]), elems[hi]))
            verts = [lo]
            for lab in labels:
                step = verts[-1], lab[-1]
                w = steps.get(step)
                if w is None:
                    w = steps[step] = self.num(base.mul(elems[verts[-1]], lab[-1]))
                verts.append(w)
            verts, kinds = tuple(verts), tuple(lab[:-1] for lab in labels)
            self.sides[lo, hi] = verts, kinds
            self.sides[hi, lo] = verts[::-1], kinds[::-1]
            s = self.sides[u, v]
        return s

    def dist(self, a: int, b: int) -> int:
        row = self.rows[a]
        d = row.get(b)
        if d is None:
            d = row[b] = self.rows[b][a] = self.view.dist(self.elems[a], self.elems[b])
        return d


def thin_triangle_delta(
    x, y, z, view: RelGraphView, table: Optional[_ScanTable] = None, floor=Fraction(0)
) -> Fraction:
    """max(floor, thinness) of the triangle on x, y, z with canonical sides.

    Builds the comparison tripod whose legs are the three Gromov products,
    maps each side isometrically onto it, and returns the largest diameter
    of a point preimage.  Each side is the canonical geodesic between its
    ends in sort-key order.  Matched points sit at one doubled position t:
    two vertices (t even) at doubled distance 2 d(a, b); two edge midpoints
    (t odd) at 0 on one edge, fixed by its unordered ends and its label less
    the element, else at 2 + 2 min d(a, b) over their ends.  Both points are
    t/2 from their corner, so that doubled distance is at most 2t.  On the
    sides from corner c to p and to q they are also d(c, p) - t/2 from p
    and d(c, q) - t/2 from q, so through p and q, with P the perimeter,
    that doubled distance is at most 2P - 2t.  With B twice floor (an int
    or a Fraction) rounded down, a position beats floor only when
    floor(B/2) < t <= P - floor(B/2) - 1, and t runs up to the doubled
    Gromov product L of its corner: only that range is read, and a corner
    where it is empty is skipped before its sides are built.  A triangle
    that cannot beat floor returns the floor object itself.

    Sides and distances come from ``table``, the calling scan's
    ``_ScanTable``, which must be a table of ``view`` itself; without one
    the call builds its own for this triangle.  Both give the same value,
    since a table entry depends on its pair of vertices alone.
    """
    if table is None:
        table = _ScanTable(view)
    elif table.view is not view:
        raise ValueError("the table belongs to another view")
    side, dist, num = table.side, table.dist, table.num
    x, y, z = num(x), num(y), num(z)
    dxy, dxz, dyz = dist(x, y), dist(x, z), dist(y, z)
    per = dxy + dxz + dyz
    best = bar = 2 * floor.numerator // floor.denominator  # d beats floor iff d > bar
    for c, p, q, leg in (
        (x, y, z, per - 2 * dyz),
        (y, x, z, per - 2 * dxz),
        (z, x, y, per - 2 * dxy),
    ):
        low = best // 2  # d <= 2t and d <= 2 per - 2t beat best only above low
        top = per - low - 1
        if leg < top:
            top = leg
        if top <= low:
            continue
        (verts1, kinds1), (verts2, kinds2) = side(c, p), side(c, q)
        for t in range(low + 1, top + 1):
            i = t >> 1
            if t & 1:
                a1, b1, a2, b2 = verts1[i], verts1[i + 1], verts2[i], verts2[i + 1]
                if kinds1[i] == kinds2[i] and (a1, b1) in ((a2, b2), (b2, a2)):
                    continue
                d = 2 + 2 * min(dist(a1, a2), dist(a1, b2), dist(b1, a2), dist(b1, b2))
            else:
                d = 2 * dist(verts1[i], verts2[i])
            if d > best:
                best = d
    return Fraction(best, 2) if best > bar else floor


@dataclass(frozen=True)
class DeltaMeasurement:
    """Measured tripod-thinness maximum over all vertex triples of a ball."""

    delta: Fraction
    radius: int
    triples: int
    witness: Optional[tuple] = None


def measure_delta(ball: Ball, budget: Optional[int] = None) -> DeltaMeasurement:
    """Max of thin_triangle_delta over all vertex triples of the ball, in
    the word metric of ``ball.group``.

    On a free group the answer is 0 with no witness, from the ball's size
    alone, with no scan and no word read: the Cayley graph of a free basis
    is a tree, where the three sides of a triangle meet at one branch point
    and the points the tripod map matches coincide.  Otherwise one
    ``_ScanTable`` serves every triple, numbering the ball's elements first
    and holding all n² distances first.
    A triangle beats best only at a doubled position t with
    floor(best) < t <= min(L, P - floor(best) - 1), for its largest doubled
    Gromov product L and its perimeter P (see ``thin_triangle_delta``), so
    a triple where that range is empty is skipped with no call, and the
    rest run with ``floor=best``, returned as is unless raised: the value,
    the first witness and the count are those of the full scan.
    BudgetExceededError is raised before a scan of more than ``budget``
    triples (None: no cap).
    """
    count = comb(len(ball), 3)
    if isinstance(ball.group, FreeGroup):
        return DeltaMeasurement(Fraction(0), ball.radius, count)
    if budget is not None and count > budget:
        raise BudgetExceededError(
            "%d vertex triples exceed the budget of %d" % (count, budget)
        )
    elems = ball.elements
    view = word_metric_view(ball.group)
    table = _ScanTable(view)
    nums = [table.num(g) for g in elems]  # vertex i is elems[i]
    dist = [[table.dist(i, j) for j in nums] for i in nums]
    best, low, witness = Fraction(0), 0, None  # low = floor(best)
    n = len(elems)
    for i in range(n - 2):
        di, x = dist[i], elems[i]
        for j in range(i + 1, n - 1):
            dj, y, dij = dist[j], elems[j], di[j]
            for k in range(j + 1, n):
                dik, djk = di[k], dj[k]
                per = dij + dik + djk
                # skip when t has no room: per - low - 1 <= low, or the largest L
                # (per - 2 min) <= low
                if per <= 2 * low + 1 or per - 2 * min(dij, dik, djk) <= low:
                    continue
                v = thin_triangle_delta(x, y, elems[k], view, table, floor=best)
                if v is not best:  # the maximum rose
                    best, low, witness = v, v.numerator // v.denominator, (x, y, elems[k])
    return DeltaMeasurement(best, ball.radius, count, witness)


@dataclass(frozen=True)
class ConstantsProfile:
    """Constants derived from a measured delta.

    c1 = 12(c0 + delta) + 1, c2 = 10(delta + c1), c3 = 10(delta + 2 c1).
    """

    delta: Fraction
    c0: Fraction

    def __post_init__(self):
        if self.delta < 0 or self.c0 < 0:
            raise ValueError("delta and c0 must be non-negative")

    @property
    def c1(self) -> Fraction:
        return 12 * (self.c0 + self.delta) + 1

    @property
    def c2(self) -> Fraction:
        return 10 * (self.delta + self.c1)

    @property
    def c3(self) -> Fraction:
        return 10 * (self.delta + 2 * self.c1)


@dataclass(frozen=True)
class ConcatReport:
    """Outcome of the broken-line concatenation bound.

    ``violation`` is set when the hypotheses hold but the conclusion fails,
    which would contradict the concatenation lemma.
    """

    hypotheses_hold: bool
    strong_hypotheses: bool
    conclusion_c3: QuasigeodesicVerdict
    conclusion_c2: Optional[QuasigeodesicVerdict]
    violation: bool


def check_concat_lemma(bl: BrokenLine, c0, profile: ConstantsProfile) -> ConcatReport:
    """Check the concatenation-of-geodesics bound on a broken line.

    Hypotheses: interior segments of length >= c1 and node Gromov products
    <= c0.  Conclusion: the path is (4, c3)-quasigeodesic, or (4, c2) when
    every segment (ends included) is long.
    """
    c0 = Fraction(c0)
    if c0 < 14 * profile.delta:
        raise ValueError("need c0 >= 14 * delta")
    view = bl.view
    nodes = bl.nodes
    n = len(bl.segments)
    lens = [len(s) for s in bl.segments]
    interior_ok = all(lens[i] >= profile.c1 for i in range(1, n - 1))
    strong = all(l >= profile.c1 for l in lens)
    products_ok = all(
        gromov_product(nodes[i - 1], nodes[i + 1], nodes[i], view) <= c0
        for i in range(1, n)
    )
    whole = bl.whole_path()
    concl3 = is_quasigeodesic(whole, 4, profile.c3)
    concl2 = is_quasigeodesic(whole, 4, profile.c2) if strong and products_ok else None
    hyp = interior_ok and products_ok
    violation = (hyp and not concl3.ok) or (
        strong and products_ok and concl2 is not None and not concl2.ok
    )
    return ConcatReport(hyp, strong and products_ok, concl3, concl2, violation)
