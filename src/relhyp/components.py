"""H-components of labelled paths: maximality, connectedness, backtracking.

A component is a maximal subpath whose labels all lie in one peripheral
subgroup.  Two components of the same subgroup are connected when their
start vertices lie in the same left coset; a path is without backtracking
when its components are pairwise non-connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cayley import BrokenLine, EdgePath


@dataclass(frozen=True)
class HComponent:
    """A maximal run of H_nu-labelled edges of one path.

    ``start``/``stop`` delimit the edge index range [start, stop) in the
    owning path; endpoints and the X-length of the represented peripheral
    element are precomputed.
    """

    path: EdgePath
    start: int
    stop: int
    nu: int
    h_minus: object
    h_plus: object
    x_length: int

    def elem(self):
        G = self.path.view.group
        return G.mul(G.inv(self.h_minus), self.h_plus)

    def edge_count(self) -> int:
        return self.stop - self.start


def find_components(p: EdgePath) -> list[HComponent]:
    """Ordered maximal components; adjacent same-subgroup edges merge."""
    out: list[HComponent] = []
    verts = p.vertices
    view = p.view
    i, n = 0, len(p.labels)
    while i < n:
        lab = p.labels[i]
        if lab[0] != "h":
            i += 1
            continue
        nu = lab[1]
        j = i + 1
        while j < n and p.labels[j][0] == "h" and p.labels[j][1] == nu:
            j += 1
        out.append(
            HComponent(
                path=p,
                start=i,
                stop=j,
                nu=nu,
                h_minus=verts[i],
                h_plus=verts[j],
                x_length=view.x_dist(verts[i], verts[j]),
            )
        )
        i = j
    return out


def connected(h: HComponent, k: HComponent) -> bool:
    """Same peripheral subgroup and start vertices in the same left coset."""
    if h.nu != k.nu:
        return False
    view = h.path.view
    G = view.group
    return G.peripheral_contains(h.nu, G.mul(G.inv(h.h_minus), k.h_minus))


def is_without_backtracking(p: EdgePath) -> bool:
    comps = find_components(p)
    seen = set()
    view = p.view
    for c in comps:
        key = (c.nu, view.coset_key(c.nu, c.h_minus))
        if key in seen:
            return False
        seen.add(key)
    return True


def phase_vertices(p: EdgePath) -> set[int]:
    """Vertex indices not interior to any multi-edge component."""
    out = set(range(len(p.labels) + 1))
    for c in find_components(p):
        out -= set(range(c.start + 1, c.stop))
    return out


@dataclass(frozen=True)
class BacktrackInstance:
    """Pairwise-connected components over consecutive segments of a broken line.

    ``pairs`` lists (segment index, component); ``kind`` is "adjacent" for a
    two-segment instance and "multiple" for a longer one.
    """

    pairs: tuple[tuple[int, HComponent], ...]
    nu: int

    @property
    def kind(self) -> str:
        return "adjacent" if len(self.pairs) == 2 else "multiple"

    @property
    def first(self) -> HComponent:
        return self.pairs[0][1]

    @property
    def last(self) -> HComponent:
        return self.pairs[-1][1]


def segment_components(bl: BrokenLine) -> list[list[HComponent]]:
    return [find_components(seg) for seg in bl.segments]


def find_consecutive_backtracking(bl: BrokenLine) -> list[BacktrackInstance]:
    """All maximal chains of pairwise-connected components over consecutive
    segments (two or more segments per chain)."""
    view = bl.view
    per_seg = segment_components(bl)
    # For each (nu, coset) record which segments carry a component in it.
    hits: dict = {}
    for si, comps in enumerate(per_seg):
        for c in comps:
            key = (c.nu, view.coset_key(c.nu, c.h_minus))
            hits.setdefault(key, []).append((si, c))
    out = []
    for (nu, _), items in hits.items():
        items.sort(key=lambda t: t[0])
        run: list = [items[0]]
        for cur in items[1:]:
            if cur[0] == run[-1][0] + 1:
                run.append(cur)
            else:
                if len(run) >= 2:
                    out.append(BacktrackInstance(tuple(run), nu))
                run = [cur]
        if len(run) >= 2:
            out.append(BacktrackInstance(tuple(run), nu))
    out.sort(key=lambda inst: (inst.pairs[0][0], inst.nu))
    return out


def maximal_chain_from(
    bl: BrokenLine,
    per_seg: list[list[HComponent]],
    seg_index: int,
    comp: HComponent,
) -> list[tuple[int, HComponent]]:
    """The longest chain comp, ... over consecutive segments starting at comp."""
    view = bl.view
    key = (comp.nu, view.coset_key(comp.nu, comp.h_minus))
    chain = [(seg_index, comp)]
    si = seg_index + 1
    while si < len(bl.segments):
        nxt = None
        for c in per_seg[si]:
            if (c.nu, view.coset_key(c.nu, c.h_minus)) == key:
                nxt = c
                break
        if nxt is None:
            break
        chain.append((si, nxt))
        si += 1
    return chain


def x_length_of_path(p: EdgePath, theta: Optional[int] = None) -> int:
    """|p|_X from endpoint normal forms.

    When ``theta`` is given, every component must satisfy |h|_X <= theta and
    the bound |p|_X <= theta * len(p) is asserted.
    """
    view = p.view
    val = view.x_dist(p.start, p.end)
    if theta is not None:
        for c in find_components(p):
            if c.x_length > theta:
                raise ValueError("component of X-length %d exceeds theta" % c.x_length)
        assert val <= theta * len(p.labels)
    return val
