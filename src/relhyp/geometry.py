"""Hyperbolicity toolkit: Gromov products, tripod-thin triangles,
quasigeodesicity checks, concatenation bounds, and measured constants.

All quantities are exact: Gromov products are half-integers represented as
``Fraction`` values, and thinness is the maximum diameter of a tripod point
preimage evaluated at vertex and edge-midpoint positions (where the maxima
of the piecewise-linear preimage distances occur).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .cayley import Ball, BrokenLine, EdgePath, RelGraphView, word_metric_view
from .groups import FreeGroup, SubgroupSpec


def gromov_product(x, y, z, view: RelGraphView) -> Fraction:
    """<x, y>_z = (d(x,z) + d(y,z) - d(x,y)) / 2, an exact half-integer."""
    return Fraction(view.dist(x, z) + view.dist(y, z) - view.dist(x, y), 2)


@dataclass(frozen=True)
class QuasigeodesicVerdict:
    ok: bool
    witness: Optional[EdgePath] = None

    def __bool__(self) -> bool:
        return self.ok


def is_quasigeodesic(p: EdgePath, lam, c, view: Optional[RelGraphView] = None) -> QuasigeodesicVerdict:
    """Exhaustive check of len(q) <= lam * d(q-, q+) + c over all subpaths q.

    Returns a failing subpath as witness when the bound is violated.
    """
    view = view or p.view
    lam = Fraction(lam)
    c = Fraction(c)
    verts = p.vertices
    n = len(p.labels)
    for span in range(1, n + 1):
        for i in range(0, n - span + 1):
            if span > lam * view.dist(verts[i], verts[i + span]) + c:
                return QuasigeodesicVerdict(False, p.subpath(i, i + span))
    return QuasigeodesicVerdict(True)


# -- tripod thinness ---------------------------------------------------------


def _same_edge(view: RelGraphView, e1, e2) -> bool:
    """Do two traversed edges coincide geometrically (up to direction)?"""
    (a1, b1), lab1 = e1
    (a2, b2), lab2 = e2
    if (a1, b1) == (a2, b2):
        return lab1 == lab2
    if (a1, b1) != (b2, a2):
        return False
    G = view.group
    if lab1[0] != lab2[0]:
        return False
    if lab1[0] == "x":
        return lab1[1] == G.inv(lab2[1])
    return lab1[1] == lab2[1] and lab1[2] == G.inv(lab2[2])


def _realized_dist(view: RelGraphView, p1, p2) -> Fraction:
    """Distance between two points, each a vertex or a traversed-edge midpoint."""
    dist = view.dist
    kind1, data1 = p1
    kind2, data2 = p2
    if kind1 == "v" and kind2 == "v":
        return Fraction(dist(data1, data2))
    if kind1 == "v":
        (a, b), _ = data2
        return Fraction(1, 2) + min(dist(data1, a), dist(data1, b))
    if kind2 == "v":
        (a, b), _ = data1
        return Fraction(1, 2) + min(dist(a, data2), dist(b, data2))
    if _same_edge(view, data1, data2):
        return Fraction(0)
    (a1, b1), _ = data1
    (a2, b2), _ = data2
    return Fraction(1) + min(
        dist(a1, a2), dist(a1, b2), dist(b1, a2), dist(b1, b2)
    )


def _side_point(path: EdgePath, t: Fraction):
    """Point of ``path`` at arclength t: a vertex or an edge midpoint."""
    if t.denominator == 1:
        return ("v", path.vertices[int(t)])
    k = int(t)  # floor; t = k + 1/2
    return ("m", ((path.vertices[k], path.vertices[k + 1]), path.labels[k]))


def _corner_scan(view: RelGraphView, leg: Fraction, side1: EdgePath, side2: EdgePath) -> Fraction:
    """Max distance between matched points along one tripod leg."""
    best = Fraction(0)
    t = Fraction(0)
    half = Fraction(1, 2)
    while t <= leg:
        d = _realized_dist(view, _side_point(side1, t), _side_point(side2, t))
        if d > best:
            best = d
        t += half
    return best


def thin_triangle_delta(x, y, z, view: RelGraphView) -> Fraction:
    """Thinness of the triangle on x, y, z with canonically chosen sides.

    Builds the comparison tripod whose legs are the three Gromov products,
    maps each side isometrically onto it, and returns the largest diameter
    of a point preimage.
    """
    G = view.group
    base = G.base
    if isinstance(base, FreeGroup) and not G.peripherals:
        return _tree_triple_delta(x, y, z)

    def side(u, v):
        if G.sort_key(u) <= G.sort_key(v):
            return view.geodesic(u, v)
        return view.geodesic(v, u).reverse()

    s_xy, s_xz, s_yz = side(x, y), side(x, z), side(y, z)
    legs = (
        gromov_product(y, z, x, view),
        gromov_product(x, z, y, view),
        gromov_product(x, y, z, view),
    )
    best = _corner_scan(view, legs[0], s_xy, s_xz)
    best = max(best, _corner_scan(view, legs[1], s_xy.reverse(), s_yz))
    best = max(best, _corner_scan(view, legs[2], s_xz.reverse(), s_yz.reverse()))
    return best


# Fast exact path for free-group word metrics: every geodesic side is a
# concatenation of prefixes of the corner words, so matched-point distances
# reduce to integer arithmetic on common-prefix lengths.


def _cp(u, v) -> int:
    n = min(len(u), len(v))
    i = 0
    while i < n and u[i] == v[i]:
        i += 1
    return i


def _tree_triple_delta(x, y, z) -> Fraction:
    """Tripod thinness of one free-group word-metric triangle."""
    return _tree_ball_scan((x, y, z))[0]


def _tree_pdist(words, cptab, w1, l1, w2, l2):
    c = min(l1, l2) if w1 == w2 else min(l1, l2, cptab[w1][w2])
    return l1 + l2 - 2 * c


def _tree_mid_dist2(words, cptab, w1, a1, w2, a2) -> int:
    """Doubled distance between points at doubled positions, odd = midpoint."""
    if a1 & 1 and a2 & 1:
        e1 = ((w1, (a1 - 1) // 2), (w1, (a1 + 1) // 2))
        e2 = ((w2, (a2 - 1) // 2), (w2, (a2 + 1) // 2))
        fwd = all(_tree_pdist(words, cptab, *p, *q) == 0 for p, q in zip(e1, e2))
        rev = all(
            _tree_pdist(words, cptab, *p, *q) == 0 for p, q in zip(e1, e2[::-1])
        )
        if fwd or rev:
            return 0
        return 2 + 2 * min(
            _tree_pdist(words, cptab, *p, *q) for p in e1 for q in e2
        )
    if a1 & 1:
        (w1, a1), (w2, a2) = (w2, a2), (w1, a1)
    ends = ((w2, (a2 - 1) // 2), (w2, (a2 + 1) // 2))
    return 1 + 2 * min(
        _tree_pdist(words, cptab, w1, a1 // 2, *e) for e in ends
    )


@dataclass(frozen=True)
class DeltaMeasurement:
    """Measured tripod-thinness maximum over all vertex triples of a ball."""

    delta: Fraction
    radius: int
    triples: int
    witness: Optional[tuple] = None


def _tree_ball_scan(elems):
    """Exhaustive triple scan with precomputed prefix tables (free groups).

    All positions are doubled so midpoints are integers.  Side points are
    prefixes of the corner words, so matched-point distances are arithmetic
    on common-prefix lengths; the shared initial segment of the two sides at
    a corner (where both are equal prefixes of the corner word) contributes
    zero and is skipped wholesale.
    """
    n = len(elems)
    lens = [len(w) for w in elems]
    cp = [[0] * n for _ in range(n)]
    for i in range(n):
        wi = elems[i]
        row = cp[i]
        for j in range(i + 1, n):
            c = _cp(wi, elems[j])
            row[j] = c
            cp[j][i] = c
    best2 = 0
    witness = None
    count = 0
    rng3 = range(3)
    for i in range(n):
        for j in range(i + 1, n):
            dij = lens[i] + lens[j] - 2 * cp[i][j]
            for k in range(j + 1, n):
                count += 1
                dik = lens[i] + lens[k] - 2 * cp[i][k]
                djk = lens[j] + lens[k] - 2 * cp[j][k]
                for corner in rng3:
                    if corner == 0:
                        c, o1, o2, leg2 = i, j, k, dij + dik - djk
                    elif corner == 1:
                        c, o1, o2, leg2 = j, i, k, dij + djk - dik
                    else:
                        c, o1, o2, leg2 = k, i, j, dik + djk - dij
                    cp1 = cp[c][o1]
                    cp2 = cp[c][o2]
                    lc = lens[c]
                    b1_2 = 2 * (lc - cp1)
                    b2_2 = 2 * (lc - cp2)
                    start = b1_2 if b1_2 < b2_2 else b2_2
                    if start >= leg2:
                        continue  # both sides ride the corner word for the whole leg
                    words = (elems[c], elems[o1], elems[o2])
                    cptab = (
                        (None, cp1, cp2),
                        (cp1, None, cp[o1][o2]),
                        (cp2, cp[o2][o1], None),
                    )
                    for t2 in range(start, leg2 + 1):
                        # point on side [corner -> o_i]: (word, doubled prefix length)
                        if t2 <= b1_2:
                            w1, a1 = 0, 2 * lc - t2
                        else:
                            w1, a1 = 1, 2 * cp1 + (t2 - b1_2)
                        if t2 <= b2_2:
                            w2, a2 = 0, 2 * lc - t2
                        else:
                            w2, a2 = 2, 2 * cp2 + (t2 - b2_2)
                        if a1 & 1 == 0 and a2 & 1 == 0:
                            if w1 == w2:
                                d2 = a1 - a2 if a1 >= a2 else a2 - a1
                            else:
                                m = a1 if a1 < a2 else a2
                                cc2 = 2 * cptab[w1][w2]
                                if cc2 < m:
                                    m = cc2
                                d2 = a1 + a2 - 2 * m
                        else:
                            d2 = _tree_mid_dist2(words, cptab, w1, a1, w2, a2)
                        if d2 > best2:
                            best2 = d2
                            witness = (elems[i], elems[j], elems[k])
    return Fraction(best2, 2), witness, count


def measure_delta(ball: Ball) -> DeltaMeasurement:
    """Max of thin_triangle_delta over all vertex triples of the ball."""
    view = word_metric_view(ball.group)
    elems = ball.elements
    if isinstance(ball.group, FreeGroup):
        best, witness, count = _tree_ball_scan(elems)
        return DeltaMeasurement(best, ball.radius, count, witness)
    best = Fraction(0)
    witness = None
    count = 0
    for i, j, k in combinations(range(len(elems)), 3):
        x, y, z = elems[i], elems[j], elems[k]
        v = thin_triangle_delta(x, y, z, view)
        count += 1
        if v > best:
            best = v
            witness = (x, y, z)
    return DeltaMeasurement(best, ball.radius, count, witness)


@dataclass(frozen=True)
class ConstantsProfile:
    """Constants derived from a measured delta on a stated ball.

    c1 = 12(c0 + delta) + 1, c2 = 10(delta + c1), c3 = 10(delta + 2 c1);
    lam/c are the quasigeodesicity parameters under test, and ``empirical``
    records estimates measured on finite data as (name, value, radius).
    """

    delta: Fraction
    c0: Fraction
    ball_radius: int
    lam: Optional[Fraction] = None
    c: Optional[Fraction] = None
    empirical: tuple = ()

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
    concl3 = is_quasigeodesic(whole, 4, profile.c3, view)
    concl2 = is_quasigeodesic(whole, 4, profile.c2, view) if strong and products_ok else None
    hyp = interior_ok and products_ok
    violation = (hyp and not concl3.ok) or (
        strong and products_ok and concl2 is not None and not concl2.ok
    )
    return ConcatReport(hyp, strong and products_ok, concl3, concl2, violation)


def nbhd_intersection_constant(
    A: SubgroupSpec, B: SubgroupSpec, K: int, ball: Ball
) -> tuple[int, str]:
    """Smallest K' such that, inside the ball, being K-close to both A and B
    implies being K'-close to the intersection.

    All three subgroup traces are enumerated inside the ball, so the value
    carries the ball-radius caveat.
    """
    from .separability import membership_oracle

    G = ball.group
    view = word_metric_view(G)
    in_a = membership_oracle(G, A.gens)
    in_b = membership_oracle(G, B.gens)
    a_pts = [g for g in ball.elements if in_a(g)]
    b_pts = [g for g in ball.elements if in_b(g)]
    ab_pts = [g for g in a_pts if in_b(g)]

    def dset(v, pts):
        return min((view.x_dist(v, p) for p in pts), default=None)

    worst = 0
    for v in ball.elements:
        da = dset(v, a_pts)
        db = dset(v, b_pts)
        if da is None or db is None or da > K or db > K:
            continue
        dc = dset(v, ab_pts)
        if dc is None:
            raise ValueError("intersection has no points inside the ball")
        worst = max(worst, dc)
    return worst, "measured inside the radius-%d ball" % ball.radius
