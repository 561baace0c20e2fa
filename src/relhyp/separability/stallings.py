"""Folded core graphs for finitely generated subgroups of free groups.

A letter is a nonzero signed generator index, matching the free-group word
payloads.  Graphs are stored with transitions in both directions, so after
folding each vertex reads each letter at most once and membership is a
deterministic walk from the basepoint.

Folding is union-find driven by a stack of pending merges (Touikan, "A fast
algorithm for Stallings' folding process", IJAC 2006), near-linear in the
input size.  The fold partition is unique, and the output does not depend on
merge order because of two invariants: each class is rooted at its smallest
input label, and the final rebuild walks the input edges in their given
order.  So vertex numbers, and the key order of each transition dict, are a
function of the input edge list alone; ``basis``, ``chord_alphabet`` and
``rewrite`` read them in that order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..groups import Elem, FreeGroup


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

    def walk(self, word: Elem) -> Optional[int]:
        v = 0
        for x in word:
            v = self.out[v].get(x)
            if v is None:
                return None
        return v

    def edges(self):
        for u, trans in enumerate(self.out):
            for x, v in trans.items():
                if x > 0:
                    yield (u, x, v)


def subgroup_graph(gens: Sequence[Elem], G: FreeGroup) -> StallingsGraph:
    """Folded core graph of the subgroup generated by ``gens``."""
    edges = []
    next_v = 1
    for w in gens:
        prev = 0
        for i, x in enumerate(w):
            tgt = 0 if i == len(w) - 1 else next_v
            if i != len(w) - 1:
                next_v += 1
            edges.append((prev, x, tgt))
            prev = tgt
    return _assemble(G.rank, next_v, edges)


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
        for (a, l, b) in ((u, x, v), (v, -x, u)):
            t = trans[a].setdefault(l, b)
            if t != b:
                pending.append((t, b))
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

    # Rebuild on representatives, in input edge order, then trim to the core.
    out_map: dict = {}
    for (u, x, v) in edges:
        out_map.setdefault(find(u), {})[x] = find(v)
        out_map.setdefault(find(v), {})[-x] = find(u)
    base = find(0)
    out_map.setdefault(base, {})
    hanging = [v for v in out_map if v != base and len(out_map[v]) <= 1]
    while hanging:
        v = hanging.pop()
        if v not in out_map:
            continue
        for x, w in out_map.pop(v).items():
            trans_w = out_map[w]
            del trans_w[-x]
            if w != base and len(trans_w) <= 1:
                hanging.append(w)

    order = sorted(out_map, key=lambda v: (v != base, v))
    index = {v: i for i, v in enumerate(order)}
    out = tuple({x: index[w] for x, w in out_map[v].items()} for v in order)
    return StallingsGraph(rank, out)


def member(g: Elem, H: StallingsGraph) -> bool:
    """Is the reduced word ``g`` in the subgroup of ``H``?"""
    return H.walk(g) == H.basepoint


def spanning_tree(H: StallingsGraph):
    """BFS tree from the basepoint; returns (parent edges, access words)."""
    parent: dict = {0: None}
    word: dict = {0: ()}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for x in sorted(H.out[v], key=lambda l: (abs(l), l < 0)):
            w = H.out[v][x]
            if w not in parent:
                parent[w] = (v, x)
                word[w] = word[v] + (x,)
                queue.append(w)
    return parent, word


def _tree_edges(H: StallingsGraph):
    """Edges of the BFS spanning tree in both directions, and the access words."""
    parent, access = spanning_tree(H)
    tree_edges = set()
    for w, pe in parent.items():
        if pe is not None:
            v, x = pe
            tree_edges.add((v, x, w))
            tree_edges.add((w, -x, v))
    return tree_edges, access


def basis(H: StallingsGraph, G: FreeGroup) -> list[Elem]:
    """Free basis of the subgroup: one generator per non-tree edge."""
    tree_edges, access = _tree_edges(H)
    out = []
    for (u, x, v) in H.edges():
        if (u, x, v) in tree_edges:
            continue
        out.append(G.mul(G.mul(access[u], (x,)), G.inv(access[v])))
    return out


def chord_alphabet(H: StallingsGraph):
    """The non-tree edges in canonical order; index i stands for chord i+1."""
    tree_edges, _ = _tree_edges(H)
    chords = [e for e in sorted(H.edges()) if e not in tree_edges]
    return chords, tree_edges


def rewrite(H: StallingsGraph, g: Elem) -> Optional[tuple[int, ...]]:
    """Express a subgroup element as a word over the chord basis.

    Returns None when ``g`` is not in the subgroup.  Chord i (1-based) is
    the i-th non-tree edge; a reversed crossing contributes ``-i``.
    """
    chords, tree_edges = chord_alphabet(H)
    chord_index = {}
    for i, (u, x, v) in enumerate(chords):
        chord_index[(u, x, v)] = i + 1
        chord_index[(v, -x, u)] = -(i + 1)
    v = H.basepoint
    out: list[int] = []
    for x in g:
        w = H.out[v].get(x)
        if w is None:
            return None
        e = (v, x, w)
        if e not in tree_edges:
            c = chord_index[e]
            if out and out[-1] == -c:
                out.pop()
            else:
                out.append(c)
        v = w
    if v != H.basepoint:
        return None
    return tuple(out)


def pullback(A: StallingsGraph, B: StallingsGraph) -> StallingsGraph:
    """Core of the based component of the product graph: the intersection."""
    rank = A.rank
    start = (0, 0)
    seen = {start: 0}
    order = [start]
    queue = deque([start])
    edges = []
    while queue:
        (u1, u2) = queue.popleft()
        for x, v1 in A.out[u1].items():
            v2 = B.out[u2].get(x)
            if v2 is None:
                continue
            tgt = (v1, v2)
            if tgt not in seen:
                seen[tgt] = len(order)
                order.append(tgt)
                queue.append(tgt)
            if x > 0:
                edges.append((seen[(u1, u2)], x, seen[tgt]))
    return _assemble(rank, len(order), edges)


def is_complete(H: StallingsGraph) -> bool:
    """Complete means every vertex reads every letter: a finite cover."""
    return all(len(trans) == 2 * H.rank for trans in H.out)


def subgroups_equal(A: StallingsGraph, B: StallingsGraph, G: FreeGroup) -> bool:
    return all(member(g, B) for g in basis(A, G)) and all(
        member(g, A) for g in basis(B, G)
    )


def finite_index_in(U: StallingsGraph, V: StallingsGraph, G: FreeGroup) -> bool:
    """Is the index of the intersection of U and V finite in U?

    The intersection is rewritten over a free basis of U; the index is
    finite exactly when the rewritten subgroup's core graph is complete.
    """
    chords, _ = chord_alphabet(U)
    u_rank = len(chords)
    if u_rank == 0:
        return True  # U is trivial
    inter = pullback(U, V)
    inter_words = basis(inter, G)
    rewritten = []
    for w in inter_words:
        rw = rewrite(U, w)
        if rw is None:
            raise AssertionError("intersection element fell outside U")
        rewritten.append(rw)
    F_u = FreeGroup(tuple("c%d" % i for i in range(u_rank)))
    H = subgroup_graph(rewritten, F_u)
    return is_complete(H)
