"""Finite balls, exact relative metrics, and labelled paths.

The relative Cayley graph adds one edge per nontrivial peripheral element.
For the whitelisted structures the relative metric is computed exactly from
normal forms, never by truncated search:

* free base with cyclic-generator peripherals: each maximal peripheral run
  costs one edge, every other letter costs one;
* free product base with free-factor peripherals: peripheral syllables cost
  one edge, other syllables cost their factor word length;
* whole-group peripheral: the graph has diameter one.

A view with no peripherals is the plain word metric, so the same path and
geodesic machinery serves both metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .errors import UnsupportedFamilyError
from .groups import (
    Amalgam,
    Elem,
    FiniteGroup,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    GroupSpec,
    RelHyp,
    bfs,
    per_instance,
)

# An edge label is ("x", generator_elem) or ("h", nu, peripheral_elem).
Label = tuple

DEFAULT_VERTEX_BUDGET = 2_000_000


def _factor_letter_path(fac: GroupSpec, x: Elem) -> list[Elem]:
    """A canonical geodesic word for ``x`` in its factor, as generator elements."""
    if isinstance(fac, FreeGroup):
        return [(l,) for l in x]
    if isinstance(fac, FreeAbelian):
        rank = fac.rank
        pos, neg = [], []
        for i, e in enumerate(x):
            unit = tuple(1 if j == i else 0 for j in range(rank))
            if e > 0:
                pos.extend([unit] * e)
            else:
                neg.extend([fac.inv(unit)] * (-e))
        return pos + neg
    if isinstance(fac, FiniteGroup):
        return _finite_letter_path(fac, x)
    if isinstance(fac, FreeProduct):
        out = []
        for idx, s in x:
            out.extend(fac.embed(idx, l) for l in _factor_letter_path(fac.factors[idx], s))
        return out
    if isinstance(fac, Amalgam):
        return [fac.embed(side, s) for side, s in x]
    if isinstance(fac, RelHyp):
        return _factor_letter_path(fac.base, x)
    raise UnsupportedFamilyError(type(fac).__name__)


@per_instance
def _finite_paths(fac: FiniteGroup):
    return bfs(fac.identity(), _ball_letters(fac), fac.mul)[1]


def _finite_letter_path(fac: FiniteGroup, x: Elem) -> list[Elem]:
    parent = _finite_paths(fac)
    out = []
    while parent[x] is not None:
        v, g = parent[x]
        out.append(g)
        x = v
    out.reverse()
    return out


@dataclass(frozen=True)
class RelGraphView:
    """Metric view of Gamma(G, X u H) for a RelHyp group.

    With an empty peripheral family this is the word metric d_X.
    """

    group: RelHyp

    @cached_property
    def _letter_to_nu(self) -> dict:
        out = {}
        for p in self.group.peripherals:
            if p.kind == "cyclic-generator":
                out[self.group.base.symbols.index(p.arg) + 1] = p.nu
        return out

    @cached_property
    def _factor_to_nu(self) -> dict:
        out = {}
        for p in self.group.peripherals:
            if p.kind == "free-factor":
                out[p.arg] = p.nu
        return out

    @cached_property
    def _whole_nu(self) -> Optional[int]:
        for p in self.group.peripherals:
            if p.kind == "whole-group":
                return p.nu
        return None

    # -- metric ------------------------------------------------------------

    def decompose(self, g: Elem) -> list[Label]:
        """Canonical edge labels of the chosen geodesic from 1 to ``g``."""
        base = self.group.base
        if g == base.identity():
            return []
        if self._whole_nu is not None:
            return [("h", self._whole_nu, g)]
        if isinstance(base, FreeGroup):
            return self._decompose_free(base, g)
        if isinstance(base, FreeProduct):
            return self._decompose_product(base, g)
        if self.group.peripherals:
            raise UnsupportedFamilyError(
                "relative metric is only exact for the whitelisted structures"
            )
        return [("x", l) for l in _factor_letter_path(base, g)]

    def _decompose_free(self, base: FreeGroup, g) -> list[Label]:
        lab = self._letter_to_nu
        out: list[Label] = []
        i, n = 0, len(g)
        while i < n:
            x = g[i]
            nu = lab.get(abs(x))
            if nu is None:
                out.append(("x", (x,)))
                i += 1
            else:
                j = i
                while j < n and g[j] == x:
                    j += 1
                out.append(("h", nu, g[i:j]))
                i = j
        return out

    def _decompose_product(self, base: FreeProduct, g) -> list[Label]:
        fmap = self._factor_to_nu
        out: list[Label] = []
        for idx, x in g:
            nu = fmap.get(idx)
            if nu is None:
                out.extend(
                    ("x", base.embed(idx, l))
                    for l in _factor_letter_path(base.factors[idx], x)
                )
            else:
                out.append(("h", nu, base.embed(idx, x)))
        return out

    def dist(self, u: Elem, v: Elem) -> int:
        """Exact d_{X u H}(u, v)."""
        base = self.group.base
        if self._whole_nu is None:
            # cancel the common normal-form prefix instead of building u^-1 v
            if isinstance(base, FreeProduct):
                return self._dist_product_fast(base, u, v)
            if isinstance(base, FreeGroup):
                return self._dist_free_fast(base, u, v)
        return self._dist_generic(u, v)

    def _dist_generic(self, u: Elem, v: Elem) -> int:
        return len(self.decompose(self.group.mul(self.group.inv(u), v)))

    def _dist_product_fast(self, base: FreeProduct, u, v) -> int:
        fmap = self._factor_to_nu
        facs = base.factors
        n1, n2 = len(u), len(v)
        i = 0
        while i < n1 and i < n2 and u[i] == v[i]:
            i += 1
        total = 0
        if i < n1 and i < n2 and u[i][0] == v[i][0]:
            idx = u[i][0]
            fac = facs[idx]
            merged = fac.mul(fac.inv(u[i][1]), v[i][1])
            total += 1 if idx in fmap else fac.x_length(merged)
            start = i + 1
        else:
            start = i
        for k in range(start, n1):
            idx, x = u[k]
            total += 1 if idx in fmap else facs[idx].x_length(x)
        for k in range(start, n2):
            idx, x = v[k]
            total += 1 if idx in fmap else facs[idx].x_length(x)
        return total

    def _dist_free_fast(self, base: FreeGroup, u, v) -> int:
        lab = self._letter_to_nu
        n1, n2 = len(u), len(v)
        i = 0
        while i < n1 and i < n2 and u[i] == v[i]:
            i += 1

        def tail_cost(word, start, n):
            t = 0
            k = start
            while k < n:
                x = word[k]
                if (x if x > 0 else -x) in lab:
                    j = k + 1
                    while j < n and word[j] == x:
                        j += 1
                    t += 1
                    k = j
                else:
                    t += 1
                    k += 1
            return t

        total = tail_cost(u, i, n1) + tail_cost(v, i, n2)
        if i < n1 and i < n2:
            bu = u[i] if u[i] > 0 else -u[i]
            bv = v[i] if v[i] > 0 else -v[i]
            if bu == bv and bu in lab:
                total -= 1  # the two boundary runs fuse into one peripheral edge
        return total

    def x_dist(self, u: Elem, v: Elem) -> int:
        """Exact d_X(u, v) in the base word metric."""
        return self.group.x_length(self.group.mul(self.group.inv(u), v))

    def geodesic(self, u: Elem, v: Elem) -> "EdgePath":
        """The canonical geodesic from u to v (deterministic tie-breaking)."""
        g = self.group.mul(self.group.inv(u), v)
        return EdgePath(self, u, tuple(self.decompose(g)))

    def label_elem(self, label: Label) -> Elem:
        return label[1] if label[0] == "x" else label[2]

    def peripheral_contains(self, nu: int, g: Elem) -> bool:
        return self.group.peripheral_contains(nu, g)

    def coset_key(self, nu: int, v: Elem):
        """Hashable canonical key of the left coset v * H_nu."""
        p = self.group.peripheral(nu)
        base = self.group.base
        if p.kind == "whole-group":
            return ()
        if p.kind == "cyclic-generator":
            i = base.symbols.index(p.arg) + 1
            w = v
            k = len(w)
            while k > 0 and abs(w[k - 1]) == i:
                k -= 1
            return w[:k]
        # free-factor: strip a trailing syllable of the peripheral factor
        if v and v[-1][0] == p.arg:
            return v[:-1]
        return v

    def word_view(self) -> "RelGraphView":
        """The same group with no peripherals: the plain word metric."""
        return RelGraphView(RelHyp(self.group.base, ()))


def word_metric_view(G: GroupSpec) -> RelGraphView:
    """Word-metric view of any whitelisted group."""
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
        for lab in self.labels:
            if lab[0] == "x":
                if lab[1] == G.identity():
                    raise ValueError("identity edge label")
            elif lab[0] == "h":
                _, nu, h = lab
                if h == G.identity() or not G.peripheral_contains(nu, h):
                    raise ValueError("h-label must be a nontrivial peripheral element")
            else:
                raise ValueError("unknown label kind %r" % (lab[0],))

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def vertices(self) -> tuple[Elem, ...]:
        G = self.view.group
        out = [self.start]
        v = self.start
        for lab in self.labels:
            v = G.mul(v, self.view.label_elem(lab))
            out.append(v)
        return tuple(out)

    @property
    def end(self) -> Elem:
        return self.vertices[-1]

    def elem(self) -> Elem:
        """The group element represented by the path label."""
        G = self.view.group
        return G.mul(G.inv(self.start), self.end)

    def subpath(self, i: int, j: int) -> "EdgePath":
        if not 0 <= i <= j <= len(self.labels):
            raise IndexError((i, j))
        return EdgePath(self.view, self.vertices[i], self.labels[i:j])

    def concat(self, other: "EdgePath") -> "EdgePath":
        if other.start != self.end:
            raise ValueError("paths do not chain")
        return EdgePath(self.view, self.start, self.labels + other.labels)

    def reverse(self) -> "EdgePath":
        G = self.view.group
        labs = []
        for lab in reversed(self.labels):
            if lab[0] == "x":
                labs.append(("x", G.inv(lab[1])))
            else:
                labs.append(("h", lab[1], G.inv(lab[2])))
        return EdgePath(self.view, self.end, tuple(labs))

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

    def whole_path(self) -> EdgePath:
        path = self.segments[0]
        for seg in self.segments[1:]:
            path = path.concat(seg)
        return path

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
    """The radius-r ball of the word metric, with exact BFS distances."""

    group: GroupSpec
    radius: int
    elements: tuple[Elem, ...]
    dist: dict

    def __contains__(self, g) -> bool:
        return g in self.dist

    def __len__(self) -> int:
        return len(self.elements)

    def edges(self) -> Iterator[tuple[Elem, Elem, Elem]]:
        """All labelled edges inside the ball as (source, target, generator)."""
        G = self.group
        letters = _ball_letters(G)
        for v in self.elements:
            for g in letters:
                w = G.mul(v, g)
                if w in self.dist:
                    yield (v, w, g)


def _ball_letters(G: GroupSpec) -> list[Elem]:
    """The word metric's letters: generators by index, then their inverses
    (every nontrivial factor element for an amalgam)."""
    if isinstance(G, Amalgam):
        return G.nontrivial_factor_elems()
    gens = [g for _, g in G.generator_elems()]
    return gens + [G.inv(g) for g in gens]


def build_ball(G: GroupSpec, r: int, budget: Optional[int] = None) -> Ball:
    """Complete radius-r ball of the word metric; |g|_X is exact on it.

    At most ``budget`` vertices (None: DEFAULT_VERTEX_BUDGET) are stored.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    if isinstance(G, RelHyp):
        G = G.base
    if budget is None:
        budget = DEFAULT_VERTEX_BUDGET
    dist, _ = bfs(G.identity(), _ball_letters(G), G.mul, r, budget)
    return Ball(G, r, tuple(dist), dist)


def rel_dist(u: Elem, v: Elem, view: RelGraphView) -> int:
    return view.dist(u, v)


def rel_geodesic(u: Elem, v: Elem, view: RelGraphView) -> EdgePath:
    return view.geodesic(u, v)
