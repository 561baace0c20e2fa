"""Finite balls, exact relative metrics, and labelled paths.

The relative Cayley graph adds one edge per nontrivial peripheral element.
For the whitelisted structures the relative metric is computed exactly from
normal forms, never by truncated search, by one syllable rule.  The normal
form splits into keyed syllables: a free-product element into its own
(keyed by factor), a free word with cyclic-generator peripherals into its
maximal one-generator runs (keyed by generator), anything else into one.
The canonical geodesic from 1 to g takes one edge per peripheral syllable
and a geodesic word of its factor per other syllable; d(u, v) cancels a
common prefix of u and v (whole syllables, or letters of a free word), then
fuses their first tail syllables into one when they share a key.  The same
rule keys the left cosets of a peripheral subgroup: v H_nu is keyed by the
syllables of v less a last syllable in H_nu.

A view with no peripherals is the plain word metric, so the same path and
geodesic machinery serves both metrics.

A ball is its levels: the size of each level, and its elements in BFS
order.  Balls are built by ``groups.bfs``, except a free group's: its Cayley
graph is a tree, so level d holds n (n-1)^(d-1) reduced words for n letters,
and the ball is these sizes, checked against the vertex budget.  Its words
(a walk down the tree, level by level) and its distance map are built only
when a caller reads them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from typing import Optional, Sequence

from .errors import BudgetExceededError
from .groups import (
    Elem,
    FreeGroup,
    FreeProduct,
    GroupSpec,
    RelHyp,
    bfs,
    common_prefix,
    letter,
    per_instance,
)

# An edge label is ("x", generator_elem) or ("h", nu, peripheral_elem): its
# element comes last.
Label = tuple

DEFAULT_VERTEX_BUDGET = 2_000_000


def _as_is(x):
    return x


def _syllable_tails(u, v):
    """Free-product normal forms u and v past their common syllable prefix
    (a normal form is its own syllable list)."""
    i = common_prefix(u, v)
    return u[i:], v[i:]


def _run_tails(u, v):
    """Reduced free words u and v past their common letter prefix, as
    maximal one-generator runs.  A run cut there costs what it would whole:
    the other word goes on with another generator, or ends."""
    i = common_prefix(u, v)
    return _runs(u, i), _runs(v, i)


def _runs(g, k: int) -> list:
    """The runs of g from position k, keyed by generator."""
    out = []
    n = len(g)
    while k < n:
        x = g[k]
        j = k + 1
        while j < n and g[j] == x:
            j += 1
        out.append((x if x > 0 else -x, g[k:j]))
        k = j
    return out


@dataclass(frozen=True)
class RelGraphView:
    """Metric view of Gamma(G, X u H) for a RelHyp: ``group.base`` does the
    arithmetic, ``group.peripherals`` add the H edges.

    With an empty peripheral family this is the word metric d_X.
    """

    group: RelHyp

    @cached_property
    def _walk(self):
        """The syllable rule of this view, as ``(tails, prices)``.

        ``tails(u, v)`` lists the syllables of the normal forms of u and of v
        past a common prefix, as ``(key, x)`` pairs, the first two distinct;
        ``prices[key]`` is ``(nu, factor, embed)``: the peripheral index of
        such a syllable (None if it is not peripheral), the factor x lies in,
        and the map carrying x into the base group.
        """
        G = self.group
        base = G.base
        whole = [p.nu for p in G.peripherals if p.kind == "whole-group"]
        if isinstance(base, FreeProduct) and not whole:
            nus = {p.arg: p.nu for p in G.peripherals}
            # a syllable is never the identity: it embeds as a one-syllable word
            return _syllable_tails, {
                i: (nus.get(i), fac, lambda x, i=i: ((i, x),))
                for i, fac in enumerate(base.factors)
            }
        if isinstance(base, FreeGroup) and G.peripherals and not whole:
            nus = {letter(base.symbols.index(p.arg)): p.nu for p in G.peripherals}
            return _run_tails, {
                i: (nus.get(i), base, _as_is) for i in map(letter, range(base.rank))
            }
        # no peripherals, or the whole group: each element is one syllable
        e = base.identity()

        def tails(u, v):
            if u == v:
                return (), ()
            return (() if u == e else ((None, u),)), (() if v == e else ((None, v),))

        return tails, {None: (whole[0] if whole else None, base, _as_is)}

    # -- metric ------------------------------------------------------------

    def decompose(self, g: Elem) -> list[Label]:
        """Canonical edge labels of the chosen geodesic from 1 to ``g``: one
        ``h`` label per peripheral syllable, the factor's letters otherwise."""
        tails, prices = self._walk
        base = self.group.base
        out: list[Label] = []
        for key, x in tails(base.identity(), g)[1]:
            nu, _, embed = prices[key]
            y = embed(x)
            if nu is None:
                out += [("x", l) for l in base.geodesic_word(y)]
            else:
                out.append(("h", nu, y))
        return out

    def dist(self, u: Elem, v: Elem) -> int:
        """Exact d_{X u H}(u, v), the label count of ``decompose(u^-1 v)``.

        Past the common prefix of u and v, the first two tail syllables fuse
        into one when their keys agree; every other tail syllable keeps its
        own cost.
        """
        tails, prices = self._walk
        su, sv = tails(u, v)
        total = i = 0
        if su and sv and su[0][0] == sv[0][0]:
            nu, fac, _ = prices[su[0][0]]
            total = 1 if nu is not None else fac.x_dist(su[0][1], sv[0][1])
            i = 1
        for key, x in su[i:] + sv[i:]:
            nu, fac, _ = prices[key]
            total += 1 if nu is not None else fac.x_length(x)
        return total

    def x_dist(self, u: Elem, v: Elem) -> int:
        """Exact d_X(u, v) in the base word metric."""
        return self.group.base.x_dist(u, v)

    def geodesic(self, u: Elem, v: Elem) -> "EdgePath":
        """The canonical geodesic from u to v (deterministic tie-breaking)."""
        base = self.group.base
        g = base.mul(base.inv(u), v)
        return EdgePath(self, u, tuple(self.decompose(g)))

    def coset_key(self, nu: int, v: Elem) -> tuple:
        """Hashable key of the left coset v H_nu: the syllables of v, as the
        syllable walk splits them, less a last one that lies in H_nu."""
        tails, prices = self._walk
        syl = tails(self.group.base.identity(), v)[1]
        if syl and prices[syl[-1][0]][0] == nu:
            syl = syl[:-1]
        return tuple(syl)


def word_metric_view(G: GroupSpec) -> RelGraphView:
    """Word-metric view of a whitelisted group, or of a RelHyp's base."""
    if isinstance(G, RelHyp):
        return RelGraphView(RelHyp(G.base, ()))
    return RelGraphView(RelHyp(G, ()))


def relative_view(G: GroupSpec) -> RelGraphView:
    if isinstance(G, RelHyp):
        return RelGraphView(G)
    return word_metric_view(G)


@dataclass(frozen=True)
class EdgePath:
    """A labelled combinatorial path in the (relative) Cayley graph.

    Labels compose: vertex i+1 is vertex i times the label's element.  No
    label is the identity; the length of the path is its edge count.
    """

    view: RelGraphView
    start: Elem
    labels: tuple[Label, ...]

    def __post_init__(self):
        G = self.view.group
        e = G.base.identity()
        for lab in self.labels:
            if lab[0] == "x":
                if lab[1] == e:
                    raise ValueError("identity edge label")
            elif lab[0] == "h":
                _, nu, h = lab
                if h == e or not G.peripheral_contains(nu, h):
                    raise ValueError("h-label must be a nontrivial peripheral element")
            else:
                raise ValueError("unknown label kind %r" % (lab[0],))

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def vertices(self) -> tuple[Elem, ...]:
        mul = self.view.group.base.mul
        out = [self.start]
        v = self.start
        for lab in self.labels:
            v = mul(v, lab[-1])
            out.append(v)
        return tuple(out)

    @property
    def end(self) -> Elem:
        return self.vertices[-1]

    def elem(self) -> Elem:
        """The group element represented by the path label."""
        base = self.view.group.base
        return base.mul(base.inv(self.start), self.end)

    def subpath(self, i: int, j: int) -> "EdgePath":
        if not 0 <= i <= j <= len(self.labels):
            raise IndexError((i, j))
        return EdgePath(self.view, self.vertices[i], self.labels[i:j])

    def is_geodesic(self) -> bool:
        return len(self.labels) == self.view.dist(self.start, self.end)


def trivial_path(view: RelGraphView, at: Elem) -> EdgePath:
    return EdgePath(view, at, ())


@dataclass(frozen=True)
class BrokenLine:
    """A concatenation of geodesic segments with a fixed decomposition."""

    segments: tuple[EdgePath, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a broken line needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            if a.end != b.start:
                raise ValueError("segments do not chain")
        for seg in self.segments:
            if not seg.is_geodesic():
                raise ValueError("segments of a broken line must be geodesic")

    @property
    def view(self) -> RelGraphView:
        return self.segments[0].view

    @property
    def nodes(self) -> tuple[Elem, ...]:
        return (self.segments[0].start,) + tuple(s.end for s in self.segments)

    @property
    def start(self) -> Elem:
        return self.segments[0].start

    @property
    def end(self) -> Elem:
        return self.segments[-1].end

    def length(self) -> int:
        return sum(len(s) for s in self.segments)

    @per_instance
    def whole_path(self) -> EdgePath:
        """The segments as one path (they chain by construction), built once."""
        return EdgePath(
            self.view, self.start, tuple(l for seg in self.segments for l in seg.labels)
        )

    @staticmethod
    def from_nodes(view: RelGraphView, nodes: Sequence[Elem]) -> "BrokenLine":
        """Broken line through ``nodes`` with canonical geodesic segments."""
        if len(nodes) < 2:
            return BrokenLine((trivial_path(view, nodes[0]),))
        return BrokenLine(
            tuple(view.geodesic(a, b) for a, b in zip(nodes, nodes[1:]))
        )


@dataclass(frozen=True)
class Ball:
    """The radius-r ball of the word metric, level by level: ``sizes[d]``
    vertices at distance d, up to the last nonempty level, and ``elements``
    in BFS order, filled by ``build_ball`` from its BFS, or on a free group
    walked down the tree (``_free_levels``) on first read."""

    group: GroupSpec
    radius: int
    sizes: tuple[int, ...]

    @property
    def max_distance(self) -> int:
        return len(self.sizes) - 1

    @cached_property
    def elements(self) -> tuple[Elem, ...]:
        return tuple(chain.from_iterable(_free_levels(self.group, self.max_distance)))

    @cached_property
    def dist(self) -> dict:
        """Exact BFS distances in element order, built from the levels on
        first read."""
        return dict(zip(self.elements, chain.from_iterable(map(repeat, count(), self.sizes))))

    def __contains__(self, g) -> bool:
        return g in self.dist

    def __len__(self) -> int:
        return sum(self.sizes)


def _free_sizes(G: FreeGroup, r: int, budget: int) -> tuple[int, ...]:
    """The level sizes of ``bfs(G.identity(), G.letters(), G.mul, r, budget)``
    on a free group, n (n-1)^(d-1) at level d >= 1 for n letters, with bfs's
    budget error on the same inputs and no word built."""
    n = 2 * G.rank
    sizes, size = [1], 1
    while n and len(sizes) <= r and size <= budget:
        sizes.append(n * (n - 1) ** (len(sizes) - 1))
        size += sizes[-1]
    if size > budget:
        raise BudgetExceededError("search exceeded the %d-element budget" % budget)
    return tuple(sizes)


def _free_levels(G: FreeGroup, top: int):
    """Levels 0 to ``top`` of a free group's ball, as lists of reduced words in
    the order ``bfs`` finds them, by a walk down the Cayley tree.

    Every product v y of a reduced word v by a letter is v's parent (y
    cancels v's last letter) or a new reduced word, so level d + 1 is each
    word of level d, in order, followed by each letter in ``letters()`` order
    but the inverse of its last.
    """
    letters = G.letters()
    succ = {x: [y for y in letters if y[0] != -x] for (x,) in letters}
    level = [G.identity()]
    yield level
    for d in range(top):
        level = [v + y for v in level for y in succ[v[-1]]] if d else letters
        yield level


def build_ball(G: GroupSpec, r: int, budget: Optional[int] = None) -> Ball:
    """Complete radius-r ball of the word metric; |g|_X is exact on it.

    At most ``budget`` vertices (None: DEFAULT_VERTEX_BUDGET) are stored;
    BudgetExceededError is raised past that.  A free group's ball is its
    closed-form level sizes (``_free_sizes``), checked against the budget;
    no word is built until ``elements`` is read.  Every other family runs the
    generic ``bfs`` once, whose distances are nondecreasing in discovery
    order, so counting them gives the levels, and its keys fill ``elements``.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    if budget is None:
        budget = DEFAULT_VERTEX_BUDGET
    if isinstance(G, FreeGroup):
        return Ball(G, r, _free_sizes(G, r, budget))
    dist = bfs(G.identity(), G.letters(), G.mul, r, budget)
    ball = Ball(G, r, tuple(Counter(dist.values()).values()))
    ball.__dict__["elements"] = tuple(dist)  # frozen: fill the cache directly
    return ball
