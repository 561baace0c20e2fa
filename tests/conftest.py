"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library's own normal-form code paths:
free words are reduced by repeated adjacent-pair deletion, amalgam equality
is decided by a union-find closure of elementary rewriting moves, relative
distances are recomputed by breadth-first search on explicitly built coned
graphs, and finite subgroups and word lengths are fixpoints of set products.
"""

from __future__ import annotations

import math
import random

import pytest

from relhyp import (
    Amalgam,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    PeripheralSpec,
    RelHyp,
    cyclic_group,
    word_to_elem,
)
from relhyp.cayley import RelGraphView, relative_view, word_metric_view


def w(word, G):
    return word_to_elem(word, G)


@pytest.fixture(scope="session")
def fab():
    return FreeGroup(("a", "b"))


@pytest.fixture(scope="session")
def fab_rel_a(fab):
    return relative_view(RelHyp(fab, (PeripheralSpec(0, "cyclic-generator", "a"),)))


@pytest.fixture(scope="session")
def fab_word(fab):
    return word_metric_view(fab)


@pytest.fixture(scope="session")
def z2():
    return FreeAbelian(("x", "y"))


@pytest.fixture(scope="session")
def z2z():
    base = FreeProduct((FreeAbelian(("x", "y")), FreeAbelian(("t",))))
    return relative_view(
        RelHyp(
            base,
            (PeripheralSpec(0, "free-factor", 0), PeripheralSpec(1, "free-factor", 1)),
        )
    )


@pytest.fixture(scope="session")
def amalgam46():
    A = Amalgam(cyclic_group(4, "b"), cyclic_group(6, "c"), ((0, 0), (2, 3)))
    A.spot_check()
    return A


# -- independent oracles -----------------------------------------------------


def reduce_letters_naive(letters):
    """Free reduction by repeated scanning, independent of the library."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def random_free_letters(rng: random.Random, rank: int, max_len: int):
    return [
        rng.choice([s * i for i in range(1, rank + 1) for s in (1, -1)])
        for _ in range(rng.randrange(max_len + 1))
    ]


def amalgam_word_classes(A: Amalgam, max_syllables: int):
    """Union-find over elementary rewriting moves on short syllable words.

    Moves: merge adjacent same-factor syllables (dropping identities), slide
    an edge-subgroup element into the next syllable, and flip the factor of
    a lone edge-subgroup syllable.  Two words are equal in the group iff they
    are connected by these moves, so the classes are an equality oracle that
    never consults the library's normal form.
    """
    sides = (A.left, A.right)
    d_left, d_right = A.d_sets()
    d_of = (d_left, d_right)
    cross = {(0, d): A.cross(0, d) for d in d_left}
    cross.update({(1, d): A.cross(1, d) for d in d_right})

    def clean(syls):
        return tuple((s, x) for (s, x) in syls if x != sides[s].identity())

    def neighbors(word):
        out = []
        for i in range(len(word) - 1):
            (s1, x1), (s2, x2) = word[i], word[i + 1]
            if s1 == s2:
                # merge adjacent same-factor syllables
                prod = sides[s1].mul(x1, x2)
                out.append(clean(word[:i] + ((s1, prod),) + word[i + 2 :]))
            else:
                # slide a nontrivial edge element across the boundary
                for d in d_of[s1]:
                    if d == sides[s1].identity():
                        continue
                    y1 = sides[s1].mul(x1, d)
                    y2 = sides[s2].mul(sides[s2].inv(cross[(s1, d)]), x2)
                    out.append(
                        clean(word[:i] + ((s1, y1), (s2, y2)) + word[i + 2 :])
                    )
        for i, (s, x) in enumerate(word):
            if x in d_of[s]:
                # a lone edge syllable reads on either side
                out.append(word[:i] + ((1 - s, cross[(s, x)]),) + word[i + 1 :])
        return out

    words = [()]
    nontrivial = [
        (side, x)
        for side, fac in enumerate(sides)
        for x in fac.all_elements()
        if x != fac.identity()
    ]
    frontier = [()]
    for _ in range(max_syllables):
        nxt = []
        for word in frontier:
            for syl in nontrivial:
                nxt.append(word + (syl,))
        words.extend(nxt)
        frontier = nxt

    index = {word: i for i, word in enumerate(words)}
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for word in words:
        i = index[word]
        for nb in neighbors(word):
            j = index.get(nb)
            if j is not None:
                union(i, j)
    return words, index, find


def fixpoint_lengths(letters, mul, identity):
    """Word lengths in a finite group by set products, with no search.

    ``level`` is every product of at most k letters; it is multiplied by the
    whole letter set until it stops growing.  Returns {element: least k}.
    """
    lengths = {identity: 0}
    level = {identity}
    k = 0
    while True:
        k += 1
        grown = level | {mul(a, x) for a in level for x in letters}
        if grown == level:
            return lengths
        for g in grown - level:
            lengths[g] = k
        level = grown


def fixpoint_closure(gens, mul, identity):
    """The subgroup of a finite group generated by ``gens``: pairwise products
    of everything found so far, repeated until nothing new appears (in a
    finite group the generated monoid is already the subgroup)."""
    elems = {identity, *gens}
    while True:
        new = {mul(a, b) for a in elems for b in elems} - elems
        if not new:
            return elems
        elems |= new


def reference_assemble(rank, n, edges):
    """The original quadratic fold, kept as an oracle for ``stallings._assemble``.

    After every single merge it rescans every edge for a vertex that reads a
    letter twice; the rebuild and core trim are full passes.
    """
    from relhyp.separability.stallings import StallingsGraph

    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    work = list(edges)
    while True:
        trans: dict = {}
        conflict = None
        for (u, x, v) in work:
            for (a, l, b) in ((find(u), x, find(v)), (find(v), -x, find(u))):
                key = (a, l)
                if key in trans and trans[key] != b:
                    conflict = (trans[key], b)
                    break
            if conflict:
                break
            trans[(find(u), x)] = find(v)
            trans[(find(v), -x)] = find(u)
        if conflict is None:
            break
        union(*conflict)

    out_map: dict = {}
    for (u, x, v) in work:
        out_map.setdefault(find(u), {})[x] = find(v)
        out_map.setdefault(find(v), {})[-x] = find(u)
    base = find(0)
    out_map.setdefault(base, {})
    changed = True
    while changed:
        changed = False
        for v in list(out_map):
            if v != base and len(out_map[v]) <= 1:
                for x, w in list(out_map[v].items()):
                    out_map[w].pop(-x, None)
                del out_map[v]
                changed = True

    order = sorted(out_map, key=lambda v: (v != base, v))
    index = {v: i for i, v in enumerate(order)}
    out = tuple({x: index[w] for x, w in out_map[v].items()} for v in order)
    return StallingsGraph(rank, out)


def least_hit(elements, pred):
    """(least length of an element satisfying ``pred``, the first such
    element of that length), by a full scan that keeps only a strictly
    shorter hit; (inf, None) when nothing satisfies ``pred``.  Elements are
    reduced free words, so the length is the tuple's."""
    measured, witness = math.inf, None
    for g in elements:
        if pred(g) and len(g) < measured:
            measured, witness = len(g), g
    return measured, witness


def reference_minx_condition(ctx, cond_id, inside, outside, threshold, params, caveats=()):
    """``conditions._minx_condition`` over a full scan of the ball
    (``least_hit``), with no use of the ball's breadth-first order."""
    from relhyp.conditions import ConditionReport

    measured, witness = least_hit(
        ctx.ball_elements(), lambda g: inside.contains(g) and not outside(g)
    )
    if measured < threshold:
        return ConditionReport(
            cond_id, "fails", ctx.radius, witness, measured, params, caveats
        )
    return ConditionReport(
        cond_id,
        "holds-to-radius",
        ctx.radius,
        None,
        measured,
        params,
        caveats + ("pass is radius-stamped; a failure witness would be absolute",),
    )
