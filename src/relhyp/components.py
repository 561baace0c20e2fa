"""H-components of labelled paths: maximality, connectedness, backtracking.

A component is a maximal subpath whose labels all lie in one peripheral
subgroup.  Two components of the same subgroup are connected when their
start vertices lie in the same left coset; a path is without backtracking
when its components are pairwise non-connected.  On a broken line, the
components of one coset over consecutive segments form a run
(``coset_runs``); a run of two or more is consecutive backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .cayley import BrokenLine, EdgePath
from .groups import per_instance


@dataclass(frozen=True)
class HComponent:
    """A maximal run of H_nu-labelled edges of one path.

    ``start``/``stop`` delimit the edge index range [start, stop) in the
    owning path; endpoints are precomputed, and the X-length of the
    represented peripheral element is computed when first read.
    """

    path: EdgePath
    start: int
    stop: int
    nu: int
    h_minus: object
    h_plus: object

    @cached_property
    def x_length(self) -> int:
        return self.path.view.x_dist(self.h_minus, self.h_plus)

    def edge_count(self) -> int:
        return self.stop - self.start


def find_components(p: EdgePath) -> list[HComponent]:
    """Ordered maximal components; adjacent same-subgroup edges merge."""
    out: list[HComponent] = []
    verts = p.vertices
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
        out.append(HComponent(p, i, j, nu, verts[i], verts[j]))
        i = j
    return out


def is_without_backtracking(p: EdgePath) -> bool:
    return pairwise_unconnected(find_components(p))


def pairwise_unconnected(comps: list[HComponent]) -> bool:
    """No two of ``comps``, the components of one path, are connected."""
    seen = set()
    for c in comps:
        key = (c.nu, c.path.view.coset_key(c.nu, c.h_minus))
        if key in seen:
            return False
        seen.add(key)
    return True


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


@per_instance
def coset_runs(bl: BrokenLine) -> tuple[tuple[int, tuple[tuple[int, HComponent], ...]], ...]:
    """Every maximal run of same-coset components over consecutive segments,
    as ``(nu, ((segment index, component), ...))``, runs of one included;
    found once per broken line.

    A geodesic segment has at most one component in any coset (the subpath
    between two would be a single edge), so a run takes one per segment.
    """
    view = bl.view
    hits: dict = {}
    for si, seg in enumerate(bl.segments):
        for c in find_components(seg):
            hits.setdefault((c.nu, view.coset_key(c.nu, c.h_minus)), []).append((si, c))
    out = []
    for (nu, _), items in hits.items():
        run = [items[0]]
        for cur in items[1:]:
            if cur[0] != run[-1][0] + 1:
                out.append((nu, tuple(run)))
                run = []
            run.append(cur)
        out.append((nu, tuple(run)))
    return tuple(out)


def find_consecutive_backtracking(bl: BrokenLine) -> list[BacktrackInstance]:
    """All maximal chains of pairwise-connected components over consecutive
    segments (two or more segments per chain)."""
    out = [BacktrackInstance(run, nu) for nu, run in coset_runs(bl) if len(run) >= 2]
    out.sort(key=lambda inst: (inst.pairs[0][0], inst.nu))
    return out


def run_suffixes(bl: BrokenLine) -> dict[int, list[tuple[int, HComponent]]]:
    """Each H-labelled edge of ``bl.whole_path()``, by index, to the rest of
    its coset run from its own component on."""
    offsets = [0, *accumulate(len(seg) for seg in bl.segments)]
    out = {}
    for _, run in coset_runs(bl):
        for k, (si, c) in enumerate(run):
            for edge in range(offsets[si] + c.start, offsets[si] + c.stop):
                out[edge] = list(run[k:])
    return out
