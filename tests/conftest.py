"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library's own normal-form code paths:
free words are reduced by repeated adjacent-pair deletion, amalgam equality
is decided by a union-find closure of elementary rewriting moves, relative
distances are recomputed by breadth-first search on explicitly built coned
graphs whose peripheral cosets are keyed by peripheral kind rather than by
the syllable walk, and finite subgroups and word lengths are fixpoints of
set products.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import deque
from fractions import Fraction
from math import comb
from typing import Optional

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
from relhyp.cayley import (
    BrokenLine,
    EdgePath,
    RelGraphView,
    build_ball,
    relative_view,
    word_metric_view,
)
from relhyp.groups import common_prefix, letter


def w(word, G):
    return word_to_elem(word, G)


def signed_letters(rank: int) -> list:
    """The free-group letter codes of rank ``rank``: each generator's code
    (``relhyp.groups.letter``), then its inverse's, in generator order."""
    return [s * letter(i) for i in range(rank) for s in (1, -1)]


def gen_index(x: int) -> int:
    """The 0-based generator index of the free-group letter ``x`` or ``-x``."""
    return abs(x) - letter(0)


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


def reference_word_to_elem(word: str, G):
    """``groups.word_to_elem`` as it was before it read each distinct token
    once: every token is parsed and raised again, then multiplied on."""
    from relhyp import FamilyMismatchError

    lookup = {}
    for sym, g in G.generator_elems():
        lookup[sym] = g
    out = G.identity()
    for token in word.split():
        if token == "1":
            continue
        if "^" in token:
            sym, _, exp = token.partition("^")
            try:
                n = int(exp)
            except ValueError:
                raise FamilyMismatchError("bad exponent in letter %r" % token)
        else:
            sym, n = token, 1
        if sym not in lookup:
            raise FamilyMismatchError("unknown letter %r" % sym)
        out = G.mul(out, G.pow(lookup[sym], n))
    return out


def random_free_letters(rng: random.Random, rank: int, max_len: int):
    return [
        rng.choice(signed_letters(rank))
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


def reference_amalgam_normalize(A: Amalgam, sylls) -> tuple:
    """The normal form of a syllable list, built in two passes from scratch.

    ``_reduce`` merges to an alternating form with no interior D-syllables;
    a coset pass then replaces every syllable but the last by the least
    element of its left D-coset and carries the D-remainder rightward.  This
    is ``Amalgam._normalize`` as it stood before it became a single push.
    """

    def _coset_rep(side, x):
        fac = A._sides[side]
        d_side = sorted(A.d_sets()[side], key=fac.sort_key)
        rep = min((fac.mul(x, d) for d in d_side), key=fac.sort_key)
        rem = fac.mul(fac.inv(rep), x)
        return rep, rem

    def _reduce(sylls):
        """Merge to an alternating form with no interior D-syllables.

        Invariant: apart from a lone first syllable, nothing on ``out`` lies
        in D, so D-crossing only ever happens at the top.
        """
        out: list = []
        for side, x in sylls:
            stack = [(side, x)]
            while stack:
                s, y = stack.pop()
                fac = A._sides[s]
                if y == fac.identity():
                    continue
                if out and out[-1][0] == s:
                    _, py = out.pop()
                    stack.append((s, fac.mul(py, y)))
                elif out and A.in_d(out[-1][0], out[-1][1]):
                    ps, py = out.pop()
                    stack.append((s, y))
                    stack.append((1 - ps, A.cross(ps, py)))
                elif out and A.in_d(s, y):
                    stack.append((1 - s, A.cross(s, y)))
                else:
                    out.append((s, y))
        return tuple(out)

    red = _reduce(sylls)
    if not red:
        return ()
    if len(red) == 1:
        side, x = red[0]
        if A.in_d(side, x) and side == 1:
            return ((0, A.cross(1, x)),)
        return (red[0],)
    out = []
    carry = None  # D-remainder, as an element of the previous side
    prev_side = None
    for i, (side, x) in enumerate(red):
        if carry is not None:
            x = A._sides[side].mul(A.cross(prev_side, carry), x)
        if i < len(red) - 1:
            rep, carry = _coset_rep(side, x)
            out.append((side, rep))
            prev_side = side
        else:
            out.append((side, x))
    return tuple(out)


def reference_free_product_reduce(G: FreeProduct, sylls) -> tuple:
    """The normal form of a syllable list in a free product, by pushing.

    Each syllable is pushed onto a stack: an identity syllable vanishes, one
    from the top's factor merges with the top and is pushed again, any other
    is stacked.  This is ``FreeProduct.mul`` as it stood before it became a
    loop over the junction, and it accepts any syllable list.
    """
    out: list = []

    def push(idx, x):
        fac = G.factors[idx]
        if x == fac.identity():
            return
        if out and out[-1][0] == idx:
            _, prev = out.pop()
            push(idx, fac.mul(prev, x))
        else:
            out.append((idx, x))

    for idx, x in sylls:
        push(idx, x)
    return tuple(out)


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


def reference_walk(H, word) -> Optional[int]:
    """The vertex that the folded graph ``H`` reaches from its basepoint by
    reading ``word``, or None when some letter cannot be read."""
    v = 0
    for x in word:
        v = H.out[v].get(x)
        if v is None:
            return None
    return v


def reference_quadratic_assemble(rank, n, edges):
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


def reference_trim(out_map: dict, keep=None) -> dict:
    """Drop vertices of degree at most 1, other than ``keep``, until none is
    left: the core of the graph ``out_map`` (vertex -> letter -> vertex), in
    place."""
    hanging = [v for v in out_map if v != keep and len(out_map[v]) <= 1]
    while hanging:
        v = hanging.pop()
        if v not in out_map:
            continue
        for x, w in out_map.pop(v).items():
            trans_w = out_map[w]
            del trans_w[-x]
            if w != keep and len(trans_w) <= 1:
                hanging.append(w)
    return out_map


def reference_assemble(rank, n, edges):
    """``stallings._assemble`` as it was before it trimmed and numbered on
    the union-find: the same fold, then a rebuild of the whole graph as a
    dict of dicts on the roots, in input edge order, trimmed to the core
    (``reference_trim``), sorted with the basepoint first and renumbered."""
    from relhyp.separability.stallings import StallingsGraph

    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

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
        parent[rb] = ra
        big, small = trans[ra], trans[rb]
        if len(big) < len(small):
            big, small = small, big
        trans[ra], trans[rb] = big, None
        for l, t in small.items():
            s = big.setdefault(l, t)
            if s != t:
                pending.append((s, t))

    root = [find(v) for v in range(n)]
    out_map: dict = {}
    for (u, x, v) in edges:
        ru, rv = root[u], root[v]
        out_map.setdefault(ru, {})[x] = rv
        out_map.setdefault(rv, {})[-x] = ru
    base = root[0]
    out_map.setdefault(base, {})
    reference_trim(out_map, base)

    order = sorted(out_map, key=lambda v: (v != base, v))
    index = {v: i for i, v in enumerate(order)}
    out = tuple({x: index[w] for x, w in out_map[v].items()} for v in order)
    return StallingsGraph(rank, out)


def naive_perm_word(images, degree, word):
    """Image of a free word under generator images, one letter at a time:
    the letter of generator i applies ``images[i]`` and its inverse the
    inverse, found by ``index``.  Permutations compose left to right
    (apply p, then q)."""
    out = tuple(range(degree))
    for x in word:
        p = images[gen_index(x)]
        if x < 0:
            p = tuple(p.index(i) for i in range(degree))
        out = tuple(p[i] for i in out)
    return out


def naive_perm_word_rows(images, word):
    """``naive_perm_word`` under many assignments at once: ``images`` is a
    numpy array of shape (assignments, rank, degree), and row k of the
    returned array is the image of ``word`` under assignment k, composed one
    letter at a time, the inverse of generator i by the inverse
    (``argsort``) of image i."""
    import numpy as np

    out = np.broadcast_to(np.arange(images.shape[2]), images.shape[::2])
    for x in word:
        p = images[:, gen_index(x)]
        if x < 0:
            p = np.argsort(p, axis=1)
        out = np.take_along_axis(p, out, axis=1)
    return out


def _compose(p, q):
    return tuple([q[i] for i in p])


@functools.lru_cache(maxsize=1)
def _separation_memos(factors):
    """The memos of ``reference_find_separating_quotient``, shared by its
    calls on the same factors: a frozenset of generator images -> its
    closure; a closure -> its one copy; a closure -> its set of inverses;
    (closures, direction) -> the set walked through them, None past the
    budget; (element, closures) -> the product test's answer.  Every key
    fixes its value whatever the target."""
    return {}, {}, {}, {}, {}


def reference_find_separating_quotient(g, target, n_max=6):
    """``quotients.find_separating_quotient`` as it was before it skipped
    simultaneously conjugate candidates, without its candidate budget: every
    assignment in the search order (S_2..S_4, block sums, the completion,
    then S_5 and S_6 at every rank) is tried, every image is composed letter
    by letter (``naive_perm_word_rows``, for all of a stage's assignments at
    once) and every subgroup is closed by products with its generators
    until nothing new appears (the completion stage instead checks where the
    basepoint goes).
    Returns (degree, generator images) of the first separating assignment,
    or None; raises BudgetExceededError where a subgroup image exceeds the
    closure budget.

    Over calls on the same factors, a subgroup is closed once per set of
    generator images, each half of a product test is walked once per tuple
    of closures, and a product test is answered once per element and
    closures (``_separation_memos``): a rank-3 word that no quotient of
    degree 5 separates meets 100,800 assignments in the S_5 scan, but S_5
    has only 156 subgroups."""
    import numpy as np

    from relhyp.errors import BudgetExceededError
    from relhyp.separability.quotients import _completion_quotient

    G, rank = target.group, target.group.rank
    subgroups, distinct, inverse, walks, answers = _separation_memos(target.factors)

    def closure(gens, n):
        key = frozenset(gens)
        if key not in subgroups:
            elems = frontier = {tuple(range(n))}
            while frontier:  # in a finite group the generated monoid is the subgroup
                frontier = {_compose(p, x) for p in frontier for x in gens} - elems
                elems = elems | frontier
                if len(elems) > 100_000:  # the budget of quotients.subgroup_closure
                    raise BudgetExceededError("subgroup closure over budget")
            elems = frozenset(elems)
            subgroups[key] = distinct.setdefault(elems, elems)
        return subgroups[key]

    def in_product(pg, parts, budget=400_000):
        # the meet in the middle of _image_in_product, with its budget skip:
        # its walk from pg through the first half is {m pg : m in mids} for
        # the same walk from the identity, so every set size, and every
        # budget skip, is the same for each pg
        if len(parts) == 1:
            return pg in parts[0]
        half = (len(parts) + 1) // 2
        right = walk(parts[half:], len(pg), budget, False)
        mids = walk(tuple(inverses(h) for h in parts[:half]), len(pg), budget, True)
        if right is None or mids is None:
            return None
        if (pg, parts) not in answers:
            answers[pg, parts] = any(_compose(m, pg) in right for m in mids)
        return answers[pg, parts]

    def inverses(h):
        if h not in inverse:
            inverse[h] = frozenset(tuple(x.index(j) for j in range(len(x))) for x in h)
        return inverse[h]

    def walk(parts, n, budget, back):
        # the set walked from the identity through the parts, one at a time,
        # each part's element applied after (back: before) the walk so far,
        # or None where a step passes the budget
        if (parts, back) not in walks:
            out = {tuple(range(n))}
            for part in parts:
                if len(out) * len(part) > budget:
                    out = None
                    break
                out = {_compose(q, p) if back else _compose(p, q) for p in out for q in part}
            walks[parts, back] = out
        return walks[parts, back]

    # phi(g0)^-1 phi(g) is the image of the word g0^-1 g
    probe = tuple(-x for x in reversed(target.g0)) + tuple(g)

    def first(assignments):
        assignments = list(assignments)
        n = len(assignments[0][0])
        images = np.array(assignments)
        pgs = naive_perm_word_rows(images, probe)
        # every product of subgroups holds the identity
        moved = (pgs != np.arange(n)).any(axis=1).nonzero()[0].tolist()
        pgs = pgs.tolist()
        factor_images = [[naive_perm_word_rows(images, x).tolist() for x in gens]
                         for gens in target.factors]
        for k in moved:
            parts = tuple(closure([tuple(rows[k]) for rows in gens], n)
                          for gens in factor_images)
            if in_product(tuple(pgs[k]), parts) is False:
                return n, tuple(assignments[k])
        return None

    def blocks_of(sizes):
        pools = [list(itertools.permutations(range(b))) for b in sizes]
        for combo in itertools.product(*[itertools.product(pool, repeat=rank) for pool in pools]):
            images = []
            for i in range(rank):
                img, shift = (), 0
                for blk, size in zip(combo, sizes):
                    img += tuple(v + shift for v in blk[i])
                    shift += size
                images.append(img)
            yield images

    for n in range(2, min(4, n_max) + 1):
        found = first(itertools.product(itertools.permutations(range(n)), repeat=rank))
        if found:
            return found
    for sizes in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
        found = first(blocks_of(sizes)) if sum(sizes) <= n_max else None
        if found:
            return found
    if len(target.factors) == 1 and not target.g0:
        comp = _completion_quotient(G, target.graphs[0], g)
        # the search checks this stage by where the basepoint 0 goes, not by
        # closing the subgroup image, which can pass the closure budget
        fixes = [naive_perm_word(comp.gen_images, comp.degree, x)[0] == 0
                 for x in target.factors[0]]
        if all(fixes) and naive_perm_word(comp.gen_images, comp.degree, g)[0] != 0:
            return comp.degree, comp.gen_images
    for n in range(5, n_max + 1):
        perms = list(itertools.permutations(range(n)))
        for pa in reference_class_firsts(n):
            found = first((pa,) + rest for rest in itertools.product(perms, repeat=rank - 1))
            if found:
                return found
    return None


def reference_class_firsts(n):
    """The lexicographically least permutation of each cycle type of S_n, in
    lexicographic order."""
    reps = {}
    for p in itertools.permutations(range(n)):
        cycles = set()
        for i in range(n):
            cycle, j = {i}, p[i]
            while j != i:
                cycle.add(j)
                j = p[j]
            cycles.add(frozenset(cycle))
        reps.setdefault(tuple(sorted(map(len, cycles))), p)
    return list(reps.values())


def reference_first_of_orbits(assignments, conjugators):
    """The candidates ``find_separating_quotients.first`` tried in one
    exhaustive stage before the stages were memoised: each assignment not in
    the simultaneous-conjugacy orbit c^-1 images c of a tried one, for c
    given as pairs (c, c^-1), in order."""
    tried = set()
    for images in assignments:
        if images not in tried:
            yield images
            tried |= {tuple(tuple(c[p[j]] for j in ci) for p in images) for c, ci in conjugators}


def reference_stage(rank, blocks):
    """The representatives of an exhaustive search stage, in search order,
    as the stages were built before they enumerated orbit representatives
    directly: the first of each simultaneous-conjugacy orbit, found by a loop
    over every assignment with a set of tried orbits
    (``reference_first_of_orbits``).  A block sum's orbits are those under
    the c in S_n that map blocks onto blocks.  S_n's assignments (blocks =
    (n,)) come class by class of their first image, each class's least
    permutation pa in lexicographic order, with orbits under the c
    centralising pa.  Conjugators are pairs (c, c^-1)."""
    from relhyp.separability.quotients import perm_inv

    n = sum(blocks)
    blk = [j for j, b in enumerate(blocks) for _ in range(b)]
    conjugators = [(c, perm_inv(c)) for c in itertools.permutations(range(n))
                   if len({(blk[i], blk[x]) for i, x in enumerate(c)}) == len(blocks)]
    if len(blocks) > 1:
        offsets = itertools.accumulate(blocks[:-1], initial=0)
        pools = [[tuple(v + o for v in p) for p in itertools.permutations(range(b))]
                 for b, o in zip(blocks, offsets)]
        combos = itertools.product(*[itertools.product(pool, repeat=rank) for pool in pools])
        return reference_first_of_orbits(
            (tuple(sum(imgs, ()) for imgs in zip(*combo)) for combo in combos), conjugators)
    perms = list(itertools.permutations(range(n)))
    return itertools.chain.from_iterable(
        reference_first_of_orbits(
            ((pa,) + rest for rest in itertools.product(perms, repeat=rank - 1)),
            [(c, ci) for c, ci in conjugators if _compose(c, pa) == _compose(pa, c)])
        for pa in reference_class_firsts(n))


def reference_minx_harness(Z, C, n_max=6, check_radius=None):
    """``quotients.minx_quotient_harness`` with every quotient found by
    ``reference_find_separating_quotient`` and every ball element's image
    composed on its own by ``naive_perm_word``.  Returns (degree, generator
    images) of the block-summed quotient or None, achieved_min, verified."""
    G = Z.group
    radius = check_radius if check_radius is not None else C + 2
    ball = build_ball(G, max(radius, C - 1, 0))
    images, degree = [()] * G.rank, 0
    for u in ball.elements:
        if len(u) < C and not Z.contains(u):
            found = reference_find_separating_quotient(u, Z, n_max)
            if found is None:
                return None, None, False
            n, gens = found
            images = [a + tuple(v + degree for v in b) for a, b in zip(images, gens)]
            degree += n
    if not degree:
        images, degree = [(0,)] * G.rank, 1
    z_image = {naive_perm_word(images, degree, Z.g0)}
    for gens in Z.factors:
        factor = fixpoint_closure(
            [naive_perm_word(images, degree, x) for x in gens], _compose, tuple(range(degree))
        )
        z_image = {_compose(p, q) for p in z_image for q in factor}
    achieved = math.inf
    for u in ball.elements:
        if len(u) <= radius and naive_perm_word(images, degree, u) in z_image and not Z.contains(u):
            achieved = min(achieved, len(u))
    return (degree, tuple(images)), achieved, achieved >= C


def reference_image_walk(G, images, degree, accepting, Z, radius):
    """The first element of the radius ball, in ``build_ball``'s level order,
    whose image lies in ``accepting`` and which Z rejects, or None: the ball
    walk that ``minx_quotient_harness`` made before its product search.  Each
    image is one letter's permutation composed onto its prefix's image, as
    ``build_ball`` lists every reduced word after its prefix."""
    signed = {}
    for i, p in enumerate(images):
        x = letter(i)
        signed[x], signed[-x] = p, tuple(p.index(j) for j in range(degree))
    image = {(): tuple(range(degree))}
    for g in build_ball(G, radius).elements:
        if g:
            image[g] = _compose(image[g[:-1]], signed[g[-1]])
        if image[g] in accepting and not Z.contains(g):
            return g
    return None


def reference_bfs_parents(start, letters, mul, radius=None):
    """``groups.bfs`` as it was when it built the parent map itself, without
    the budget: ``(dist, parent)``, both in discovery order, ``parent[w]``
    the ``(v, g)`` with ``w == mul(v, g)`` that first reached ``w``."""
    dist = {start: 0}
    parent = {start: None}
    frontier = [start]
    d = 0
    while frontier and (radius is None or d < radius):
        d += 1
        nxt = []
        for v in frontier:
            for g in letters:
                w = mul(v, g)
                if w not in dist:
                    dist[w] = d
                    parent[w] = (v, g)
                    nxt.append(w)
        frontier = nxt
    return dist, parent


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


def reference_minx_condition(ctx, inside, outside, threshold, caveats=()):
    """``conditions._minx_condition`` over a full scan of the ball
    (``least_hit``), with no use of the ball's breadth-first order; both
    subsets are decided by ``contains``."""
    from relhyp.conditions import ConditionReport

    measured, witness = least_hit(
        build_ball(ctx.G, ctx.radius).elements,
        lambda g: inside.contains(g) and not outside.contains(g),
    )
    if measured < threshold:
        return ConditionReport("fails", ctx.radius, witness, measured, caveats)
    return ConditionReport(
        "holds-to-radius",
        ctx.radius,
        None,
        measured,
        caveats + ("pass is radius-stamped; a failure witness would be absolute",),
    )


def subgroups_equal(A, B, G) -> bool:
    """Do the folded graphs ``A`` and ``B`` have the same subgroup?  Each
    free basis is read in the other graph."""
    from relhyp.separability import basis

    return all(B.accepts(g) for g in basis(A, G)) and all(
        A.accepts(g) for g in basis(B, G)
    )


def reference_coset_reps_in_ball(ctx, big, small):
    """``conditions._coset_reps_in_ball`` as it was when it scanned the
    radius ball: each element of ``big`` is kept unless a kept r has
    r^-1 g in ``small``, both decided by membership oracles."""
    from relhyp.separability import membership_oracle

    G = ctx.G
    in_big = membership_oracle(G, big.gens)
    in_small = membership_oracle(G, small.gens)
    reps = []
    for g in build_ball(G, ctx.radius).elements:
        if in_big(g) and not any(in_small(G.mul(G.inv(r), g)) for r in reps):
            reps.append(g)
    return reps


def reference_quasiconvexity_epsilon(Q, view, radius):
    """``conditions.quasiconvexity_epsilon`` as it was before it took one
    geodesic per point: the vertices of the canonical geodesic between every
    ordered pair of distinct points of Q ∩ B_r, each scanned against every
    point.  Any base."""
    from relhyp.separability import membership_oracle

    G = view.group.base
    ball = build_ball(G, radius)
    oracle = membership_oracle(G, Q.gens)
    pts = [g for g in ball.elements if oracle(g)]
    need = set()
    for u in pts:
        for v in pts:
            if u == v:
                continue
            need.update(view.geodesic(u, v).vertices)
    eps = 0
    for v in need:
        d = min(view.x_dist(v, q) for q in pts)
        eps = max(eps, d)
    return eps, "measured on the radius-%d ball" % radius


def random_broken_line(rng, G, view, max_nodes=5, radius=4):
    """A broken line of canonical geodesics from 1 through up to
    ``max_nodes`` further nodes, each a random step from the radius ball."""
    ball = build_ball(G, radius)
    n = rng.randint(1, max_nodes)
    nodes = [G.identity()]
    for _ in range(n):
        nodes.append(G.mul(nodes[-1], rng.choice(ball.elements)))
    return BrokenLine.from_nodes(view, nodes)


def reference_coset_key(G: RelHyp, nu, v):
    """A key of the left coset v H_nu read off the peripheral kind, apart
    from the syllable walk: nothing for the whole group, v less its trailing
    run of the generator for a cyclic-generator peripheral, v less a trailing
    syllable of the factor for a free factor."""
    p = G.peripheral(nu)
    if p.kind == "whole-group":
        return ()
    if p.kind == "cyclic-generator":
        i = letter(G.base.symbols.index(p.arg))
        k = len(v)
        while k > 0 and abs(v[k - 1]) == i:
            k -= 1
        return v[:k]
    if v and v[-1][0] == p.arg:
        return v[:-1]
    return v


def reference_chain(bl, per_seg, seg_index, comp):
    """The longest chain of same-coset components over consecutive segments
    of a broken line, starting at ``comp`` of segment ``seg_index``, found by
    walking the segments one at a time with ``reference_coset_key``."""
    G = bl.view.group

    def key(c):
        return (c.nu, reference_coset_key(G, c.nu, c.h_minus))

    chain = [(seg_index, comp)]
    for si in range(seg_index + 1, len(per_seg)):
        nxt = next((c for c in per_seg[si] if key(c) == key(comp)), None)
        if nxt is None:
            break
        chain.append((si, nxt))
    return chain


def reference_backtracking(bl, per_seg):
    """Every chain of two or more components that no component of the
    previous segment extends, as (nu, ((segment index, start, stop), ...))."""
    G = bl.view.group

    def key(c):
        return (c.nu, reference_coset_key(G, c.nu, c.h_minus))

    out = []
    for si, comps in enumerate(per_seg):
        before = {key(d) for d in per_seg[si - 1]} if si else set()
        for c in comps:
            chain = reference_chain(bl, per_seg, si, c)
            if key(c) not in before and len(chain) >= 2:
                out.append((c.nu, tuple((i, d.start, d.stop) for i, d in chain)))
    return out


def reference_dist(view, u, v):
    """d(u, v) as the label count of ``decompose(u^-1 v)``, the canonical
    geodesic word, instead of the syllable walk's fused count."""
    G = view.group.base
    return len(view.decompose(G.mul(G.inv(u), v)))


# -- predicates on components and path representatives -----------------------
# The paper's definitions, which tests measure the library's output with.


def connected(h, k) -> bool:
    """Two H-components are connected: same peripheral subgroup, and start
    vertices in the same left coset."""
    key = h.path.view.coset_key
    return h.nu == k.nu and key(h.nu, h.h_minus) == key(k.nu, k.h_minus)


def check_alternation(rep, in_qp, in_rp, in_s) -> bool:
    """Do the segments of a path representative alternate between Q'-only
    and R'-only elements?  A single segment needs only to lie in Q' or R'."""
    elems = [seg.elem() for seg in rep.line.segments]
    if len(elems) == 1:
        return in_qp(elems[0]) or in_rp(elems[0])
    sides = []
    for x in elems:
        if in_s(x):
            return False
        q, r = in_qp(x), in_rp(x)
        if not (q or r):
            return False
        sides.append("Q'" if q else "R'")
    return all(a != b for a, b in zip(sides, sides[1:]))


def node_products(line) -> tuple:
    """The relative Gromov products <prev, next>_node at the interior nodes
    of a broken line."""
    from relhyp.geometry import gromov_product

    nodes = line.nodes
    return tuple(
        gromov_product(nodes[i - 1], nodes[i + 1], nodes[i], line.view)
        for i in range(1, len(nodes) - 1)
    )


# -- tripod thinness with Fraction arclengths and tagged points ---------------


def _same_edge(view: RelGraphView, e1, e2) -> bool:
    """Do two traversed edges coincide geometrically (up to direction)?"""
    (a1, b1), lab1 = e1
    (a2, b2), lab2 = e2
    if (a1, b1) == (a2, b2):
        return lab1 == lab2
    if (a1, b1) != (b2, a2):
        return False
    G = view.group.base
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


def _reverse(path: EdgePath) -> EdgePath:
    """The same edges traversed from the end, each label inverted."""
    G = path.view.group.base
    labs = []
    for lab in reversed(path.labels):
        if lab[0] == "x":
            labs.append(("x", G.inv(lab[1])))
        else:
            labs.append(("h", lab[1], G.inv(lab[2])))
    return EdgePath(path.view, path.end, tuple(labs))


def reference_thin_triangle_delta(x, y, z, view: RelGraphView) -> Fraction:
    """``geometry.thin_triangle_delta`` as it was before it scanned doubled
    integer positions: Fraction arclengths, tagged points, reversed
    ``EdgePath`` sides and Gromov-product legs, on every view."""
    from relhyp.geometry import gromov_product

    G = view.group.base

    def side(u, v):
        if G.sort_key(u) <= G.sort_key(v):
            return view.geodesic(u, v)
        return _reverse(view.geodesic(v, u))

    s_xy, s_xz, s_yz = side(x, y), side(x, z), side(y, z)
    legs = (
        gromov_product(y, z, x, view),
        gromov_product(x, z, y, view),
        gromov_product(x, y, z, view),
    )
    best = _corner_scan(view, legs[0], s_xy, s_xz)
    best = max(best, _corner_scan(view, legs[1], _reverse(s_xy), s_yz))
    best = max(best, _corner_scan(view, legs[2], _reverse(s_xz), _reverse(s_yz)))
    return best


# -- exhaustive tree-δ scan of free balls, against measure_delta's 0 ----------


def _tree_triple_points(li, lj, lk, cij, cik, cjk):
    """Yield ``(corner, t2, d2)`` for every point pair the tree scan compares
    on a triple of free words w_i, w_j, w_k with lengths li, lj, lk and
    pairwise common-prefix lengths cij, cik, cjk: at corner 0, 1 or 2 (w_i,
    w_j or w_k), the points at doubled position t2 on the two sides leaving
    it, at doubled distance d2.  Nothing else about the words enters, so the
    triple's doubled thinness is a function of these six integers.

    All positions are doubled so midpoints are integers.  Every point is a
    pair (corner word w, doubled arclength a along the tree ray from 1 to
    w), a vertex when a is even and an edge midpoint when it is odd.  Two
    rays from 1 share exactly their first cp(w1, w2) edges and then part for
    good, so at every position, vertex or midpoint, the doubled distance is
    a1 + a2 - 2 min(a1, a2, 2 cp(w1, w2)); with cp(w, w) = |w| this is
    |a1 - a2| on one ray.  The shared initial segment of the two sides at a
    corner (where both are equal prefixes of the corner word) is at
    distance zero and is not yielded.
    """
    lens = (li, lj, lk)
    cp = ((li, cij, cik), (cij, lj, cjk), (cik, cjk, lk))
    for corner, o1, o2 in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        lc = lens[corner]
        cp1 = cp[corner][o1]
        cp2 = cp[corner][o2]
        # doubled Gromov product at the corner: d(c,o1) + d(c,o2) - d(o1,o2)
        leg2 = 2 * (lc - cp1 - cp2 + cp[o1][o2])
        b1_2 = 2 * (lc - cp1)
        b2_2 = 2 * (lc - cp2)
        # doubled cp of the two points' words, indexed by
        # (side 1 on o1's ray, side 2 on o2's ray)
        cc2 = ((2 * lc, 2 * cp2), (2 * cp1, 2 * cp[o1][o2]))
        for t2 in range(min(b1_2, b2_2), leg2 + 1):
            # point on side [corner -> o_i]: (word, doubled prefix length)
            if t2 <= b1_2:
                w1, a1 = 0, 2 * lc - t2
            else:
                w1, a1 = 1, 2 * cp1 + (t2 - b1_2)
            if t2 <= b2_2:
                w2, a2 = 0, 2 * lc - t2
            else:
                w2, a2 = 1, 2 * cp2 + (t2 - b2_2)
            yield corner, t2, a1 + a2 - 2 * min(a1, a2, cc2[w1][w2])


def _tree_ball_scan(elems):
    """Exhaustive triple scan of free words, one corner scan per signature.

    A triple's signature is its three lengths and three pairwise
    common-prefix lengths, read from tables built once; its doubled
    thinness, the largest distance ``_tree_triple_points`` yields for that
    signature, is worked out once per distinct signature in this scan.
    Returns (thinness, first triple attaining it or None, triple count).
    """
    n = len(elems)
    lens = [len(w) for w in elems]
    cp = [[0] * n for _ in range(n)]
    for i in range(n):
        wi = elems[i]
        row = cp[i]
        for j in range(i + 1, n):
            c = common_prefix(wi, elems[j])
            row[j] = c
            cp[j][i] = c
    by_sig = {}
    best2 = 0
    witness = None
    for i in range(n):
        li, cpi = lens[i], cp[i]
        for j in range(i + 1, n):
            lj, cij, cpj = lens[j], cpi[j], cp[j]
            for k in range(j + 1, n):
                sig = (li, lj, lens[k], cij, cpi[k], cpj[k])
                d2 = by_sig.get(sig)
                if d2 is None:
                    d2 = by_sig[sig] = max((d for _, _, d in _tree_triple_points(*sig)), default=0)
                if d2 > best2:
                    best2 = d2
                    witness = (elems[i], elems[j], elems[k])
    return Fraction(best2, 2), witness, comb(n, 3)


# -- the deque spanning tree and two finite-index tests -----------------------
# stallings.basis and the chord-rewriting finite-index test as they were
# before both ran on groups.bfs, and the product-cover test that replaced the
# latter; no command reads a finite index yet.


def spanning_tree(H):
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


def _tree_edges(H):
    """Edges of the BFS spanning tree in both directions, and the access words."""
    parent, access = spanning_tree(H)
    tree_edges = set()
    for w, pe in parent.items():
        if pe is not None:
            v, x = pe
            tree_edges.add((v, x, w))
            tree_edges.add((w, -x, v))
    return tree_edges, access


def reference_basis(H, G):
    """Free basis of the subgroup: one generator per non-tree edge."""
    tree_edges, access = _tree_edges(H)
    out = []
    for (u, x, v) in H.edges():
        if (u, x, v) in tree_edges:
            continue
        out.append(G.mul(G.mul(access[u], (x,)), G.inv(access[v])))
    return out


def chord_alphabet(H):
    """The non-tree edges in canonical order; chord i is the letter ``letter(i)``."""
    tree_edges, _ = _tree_edges(H)
    chords = [e for e in sorted(H.edges()) if e not in tree_edges]
    return chords, tree_edges


def rewrite(H, g) -> Optional[tuple[int, ...]]:
    """Express a subgroup element as a word over the chord basis.

    Returns None when ``g`` is not in the subgroup.  Chord i (0-based), the
    i-th non-tree edge, is the letter ``letter(i)``; a reversed crossing
    contributes its inverse.
    """
    chords, tree_edges = chord_alphabet(H)
    chord_index = {}
    for i, (u, x, v) in enumerate(chords):
        chord_index[(u, x, v)] = letter(i)
        chord_index[(v, -x, u)] = -letter(i)
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


def is_complete(H) -> bool:
    """Complete means every vertex reads every letter: a finite cover."""
    return all(len(trans) == 2 * H.rank for trans in H.out)


def reference_finite_index_in(U, V, G) -> bool:
    """Is the index of the intersection of U and V finite in U?

    The intersection is rewritten over a free basis of U; the index is
    finite exactly when the rewritten subgroup's core graph is complete.
    """
    from relhyp.separability.stallings import basis, pullback, subgroup_graph

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


def finite_index_in(U, V) -> bool:
    """Is the index of the intersection of U and V finite in U?

    Let K be U's graph without its stem (its core with nothing kept).  The
    based component of the product graph covers K exactly when the index is
    finite: when it has a vertex over K, and each such vertex (a, b) reads
    in V every letter that a reads inside K.  A finite cover of K has no
    vertex of degree 1, so it lies in V's core.  A trivial U has index 1.
    """
    from relhyp.separability.stallings import _product

    core = reference_trim({v: dict(trans) for v, trans in enumerate(U.out)})
    if not core:
        return True
    over = [(a, b) for a, b in _product(U, V) if a in core]
    return bool(over) and all(core[a].keys() <= V.out[b].keys() for a, b in over)
