"""Folded core graphs for finitely generated subgroups of free groups.

A letter is a signed generator code ``groups.letter(i)``, matching the
free-group word payloads.  Graphs are stored with transitions in both
directions, so after folding each vertex reads each letter at most once and
membership is a deterministic walk from the basepoint.

Folding is union-find driven by a stack of pending merges (Touikan, "A fast
algorithm for Stallings' folding process", IJAC 2006), near-linear in the
input size.  The fold partition is unique, and the output does not depend on
merge order because of two invariants: each class is rooted at its smallest
input label, and the output's transition dicts are filled by one walk over
the input edges in their given order.  The core is trimmed on the folded
classes and its roots numbered in increasing order, so vertex numbers, and
the key order of each transition dict, are a function of the input edge
list alone; ``basis`` reads them in that order.

Every traversal is ``groups.bfs`` over ``_letters``, each generator's code
and then its inverse: the spanning tree of ``basis`` and the product graph
of ``pullback``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..groups import Elem, FreeGroup, bfs, bfs_tree, letter, per_instance


@dataclass(frozen=True)
class StallingsGraph:
    """Folded core graph with basepoint 0.

    ``out[v]`` maps letters (positive and negative) to target vertices.
    Membership of a reduced word is a closed walk at the basepoint.
    """

    rank: int
    out: tuple[dict, ...]

    @property
    def basepoint(self) -> int:
        return 0

    def __len__(self) -> int:
        return len(self.out)

    def accepts(self, word: Elem) -> bool:
        """Is the reduced word ``word`` a closed walk at the basepoint?"""
        out = self.out
        v = 0
        for x in word:
            v = out[v].get(x)
            if v is None:
                return False
        return v == 0

    def edges(self):
        for u, trans in enumerate(self.out):
            for x, v in trans.items():
                if x > 0:
                    yield (u, x, v)

    def closed_words(self, G: FreeGroup, radius: int, budget: Optional[int] = None) -> list:
        """The subgroup's elements of length at most ``radius`` in
        ``build_ball``'s order, from the reduced walks (word, end) at the
        basepoint.  A letter the end cannot read, or one that cancels, leaves
        the walk as it is, so ``bfs`` skips it.  ``budget`` caps the walks."""
        def step(walk, x):
            word, v = walk
            u = self.out[v].get(x)
            return walk if u is None or word[-1:] == (-x,) else (word + (x,), u)

        walks = bfs(((), 0), [x for (x,) in G.letters()], step, radius, budget)
        return [word for word, v in walks if v == 0]


def subgroup_graph(gens: Sequence[Elem], G: FreeGroup) -> StallingsGraph:
    """Folded core graph of the subgroup generated by ``gens``, folded once
    per generator tuple and ``G``: the memo lives on the ``FreeGroup``
    instance (``per_instance``), not in the process, and dies with it."""
    return _fold(G, tuple(gens))


@per_instance
def _fold(G: FreeGroup, gens: tuple) -> StallingsGraph:
    # a word of length k is a loop at 0 through k - 1 new vertices
    edges = []
    n = 1
    for w in gens:
        path = (0, *range(n, n + len(w) - 1), 0)
        edges += zip(path, w, path[1:])
        n += len(path) - 2
    return _assemble(G.rank, n, edges)


def _assemble(rank: int, n: int, edges) -> StallingsGraph:
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    # Union-find folding.  trans[r] is the transition dict of root r; its
    # targets may be stale labels, resolved through find.  A second target
    # for the same letter queues a merge of the two targets.
    trans = [{} for _ in range(n)]
    pending = []
    for (u, x, v) in edges:
        t = trans[u].setdefault(x, v)
        if t != v:
            pending.append((t, v))
        t = trans[v].setdefault(-x, u)
        if t != u:
            pending.append((t, u))
    while pending:
        a, b = pending.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra  # every class stays rooted at its smallest label
        big, small = trans[ra], trans[rb]
        if len(big) < len(small):
            big, small = small, big
        trans[ra], trans[rb] = big, None
        for l, t in small.items():
            s = big.setdefault(l, t)
            if s != t:
                pending.append((s, t))

    # Every class is rooted at its smallest label, so parent[v] <= v and one
    # increasing pass leaves each label's root in parent.
    for v in range(n):
        parent[v] = parent[parent[v]]

    # Trim to the core on the folded dicts: a root's degree is its dict's
    # size less its entries to roots already trimmed; 0 is the basepoint.
    alive = [t is not None for t in trans]
    deg = [len(t) if t is not None else 0 for t in trans]
    hanging = [v for v in range(1, n) if alive[v] and deg[v] <= 1]
    while hanging:
        v = hanging.pop()
        if not alive[v]:
            continue
        alive[v] = False
        for t in trans[v].values():
            w = parent[t]
            if alive[w]:
                deg[w] -= 1
                if w and deg[w] <= 1:
                    hanging.append(w)

    # Live roots numbered in increasing order (the basepoint first), and
    # each transition dict filled in input edge order: an edge stays when
    # both its ends are live, as the basepoint's folded dict keeps its
    # entries to trimmed roots.
    index = [0] * n
    live = [v for v in range(n) if alive[v]]
    for i, v in enumerate(live):
        index[v] = i
    out = tuple({} for _ in live)
    for (u, x, v) in edges:
        ru, rv = parent[u], parent[v]
        if alive[ru] and alive[rv]:
            iu, iv = index[ru], index[rv]
            out[iu][x] = iv
            out[iv][-x] = iu
    return StallingsGraph(rank, out)


def _letters(rank: int) -> list:
    """Each generator's code, then its inverse, in generator order."""
    return [s * letter(i) for i in range(rank) for s in (1, -1)]


def basis(H: StallingsGraph, G: FreeGroup) -> list[Elem]:
    """Free basis of the subgroup: one generator per edge off the BFS
    spanning tree from the basepoint.  A letter a vertex cannot read leaves
    it where it is, so ``bfs`` skips it."""
    letters = _letters(H.rank)

    def step(v, x):
        return H.out[v].get(x, v)

    access = {0: ()}
    tree = set()
    for w, pe in bfs_tree(bfs(0, letters, step), letters, step).items():
        if pe is not None:
            v, x = pe
            access[w] = access[v] + (x,)
            tree |= {(v, x, w), (w, -x, v)}
    return [
        G.mul(G.mul(access[u], (x,)), G.inv(access[v]))
        for (u, x, v) in H.edges()
        if (u, x, v) not in tree
    ]


def _product(A: StallingsGraph, B: StallingsGraph) -> dict:
    """The based component of the product graph of ``A`` and ``B``: its
    vertices (a, b) in discovery order.  A letter that one side cannot read
    leaves the pair where it is."""
    def step(v, x):
        a, b = v
        a2, b2 = A.out[a].get(x), B.out[b].get(x)
        return v if a2 is None or b2 is None else (a2, b2)

    return bfs((0, 0), _letters(A.rank), step)


def pullback(A: StallingsGraph, B: StallingsGraph) -> StallingsGraph:
    """Core of the based component of the product graph: the intersection.

    The edges are read in one pass over the product's vertices, so a
    self-loop, which the search skips, is kept."""
    index = {v: i for i, v in enumerate(_product(A, B))}
    edges = [
        (i, x, index[(a2, B.out[b][x])])
        for (a, b), i in index.items()
        for x, a2 in A.out[a].items()
        if x > 0 and x in B.out[b]
    ]
    return _assemble(A.rank, len(index), edges)
