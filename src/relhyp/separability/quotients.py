"""Finite quotients as permutation representations, and separation searches.

A certificate is a homomorphism to a symmetric group, given by generator
images in one-line notation.  Every search re-verifies its candidate by
direct image computation before returning it.

Searches run up to simultaneous conjugacy.  Conjugation by c is an
automorphism of S_n that carries every image and image subgroup along, so
generator images c^-1 p_i c separate (or exceed a budget) exactly when the
p_i do.  One search serves a batch of words: each candidate is tried once
against every word still pending, and a candidate conjugate to a tried one
is skipped.  The tried one decided some words, which left the batch, and
failed for the rest, so a conjugate would fail for every word still
pending: a word's first success in the search order is never skipped, and
certificates depend neither on the skip nor on the batch.  Nor do the
candidates depend on the words: an exhaustive stage tries the first
assignment of each conjugacy orbit, in order, until nothing is pending.  So
each stage's representatives are memoised once per process, drawn lazily as
far as some search has read them.  The minx harness separates all its short
outsiders in one search and walks the ball's images under the block sum of
the distinct quotients, which has the kernel of the block sum of them all.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..cayley import build_ball
from ..errors import BudgetExceededError, InTargetError, UnsupportedFamilyError
from ..groups import Elem, FiniteGroup, FreeGroup, GroupSpec, bfs, bfs_tree, per_instance
from .rational import RationalSubset
from .stallings import StallingsGraph

Perm = tuple


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple([q[i] for i in p])


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _runs(w: Elem) -> tuple:
    """The free word ``w`` as its maximal letter runs ``(x, k)``: x repeated k times."""
    return tuple((x, len(list(run))) for x, run in itertools.groupby(w))


def _signed_images(images: Sequence[Perm]) -> dict:
    """Generator i+1 maps to ``images[i]`` and its inverse letter -(i+1) to the inverse."""
    signed = {}
    for i, p in enumerate(images, 1):
        signed[i] = p
        signed[-i] = perm_inv(p)
    return signed


def _image_runs(signed: dict, degree: int, runs) -> Perm:
    """Image of the word spelled by ``runs``; a run x^k costs O(log k) gathers."""
    out = list(range(degree))
    for x, k in runs:
        p = signed[x]
        while True:  # out <- out p^k, by repeated squaring of p
            if k & 1:
                out = [p[i] for i in out]
            k >>= 1
            if not k:
                break
            p = [p[i] for i in p]
    return tuple(out)


def subgroup_closure(gens: Sequence[Perm], n: int, budget: int = 100_000) -> frozenset:
    """The subgroup of S_n generated by ``gens`` (breadth-first closure)."""
    letters = list(gens) + [perm_inv(g) for g in gens]
    return frozenset(bfs(perm_identity(n), letters, perm_mul, budget=budget))


def product_set(parts: Sequence[frozenset], budget: int = 2_000_000) -> frozenset:
    if not parts:
        return frozenset()
    cur = frozenset(parts[0])
    for part in parts[1:]:
        if len(cur) * len(part) > budget:
            raise BudgetExceededError("permutation product set too large")
        cur = frozenset({perm_mul(p, q) for p in cur for q in part})
    return cur


@dataclass(frozen=True)
class FiniteQuotient:
    """A homomorphism from a whitelisted group onto permutations of n points.

    ``gen_images`` aligns with ``domain.generator_elems()``.  For free
    domains any assignment is a homomorphism; other families are checked.
    """

    domain: GroupSpec
    degree: int
    gen_images: tuple[Perm, ...]

    def __post_init__(self):
        self.check()

    def image_of(self, g: Elem) -> Perm:
        if isinstance(self.domain, FreeGroup):
            return _image_runs(_signed_images(self.gen_images), self.degree, _runs(g))
        if isinstance(self.domain, FiniteGroup):
            return self._finite_map()[g]
        raise UnsupportedFamilyError(type(self.domain).__name__)

    @per_instance
    def _finite_map(self):
        dom = self.domain
        gens = [g for _, g in dom.generator_elems()]
        images = dict(zip(gens, self.gen_images))
        e = dom.identity()
        letters = list(images)
        parent = bfs_tree(bfs(e, letters, dom.mul), letters, dom.mul)
        table = {e: perm_identity(self.degree)}
        for w, (v, g) in itertools.islice(parent.items(), 1, None):
            table[w] = perm_mul(table[v], images[g])
        return table

    def check(self) -> None:
        for p in self.gen_images:
            if sorted(p) != list(range(self.degree)):
                raise ValueError("generator image is not a permutation")
        if isinstance(self.domain, FiniteGroup):
            table = self._finite_map()
            if len(table) != self.domain.order:
                raise ValueError("generator images do not define a full map")
            for a in self.domain.all_elements():
                for b in self.domain.all_elements():
                    if table[self.domain.mul(a, b)] != perm_mul(table[a], table[b]):
                        raise ValueError("images do not respect the table")

    def subgroup_image(self, gens: Sequence[Elem]) -> frozenset:
        return subgroup_closure([self.image_of(g) for g in gens], self.degree)

    @per_instance
    def _image_index_map(self) -> dict:
        """Image elements in sorted order, each mapped to its position."""
        if isinstance(self.domain, FiniteGroup):
            image = set(self._finite_map().values())
        else:
            image = subgroup_closure(self.gen_images, self.degree)
        return {p: i for i, p in enumerate(sorted(image))}

    def certificate(self) -> dict:
        return {
            "degree": self.degree,
            "generator_images": [list(p) for p in self.gen_images],
        }


def image_of_rational_subset(q: FiniteQuotient, Z: RationalSubset) -> frozenset:
    parts = [frozenset([q.image_of(Z.g0)])] if Z.g0 else []
    for gens in Z.factors:
        parts.append(q.subgroup_image(gens))
    if not parts:
        parts = [frozenset([perm_identity(q.degree)])]
    return product_set(parts)


def verify_separation(q: FiniteQuotient, g: Elem, Z: RationalSubset) -> bool:
    """Independent re-verification: compute images from scratch."""
    return q.image_of(g) not in image_of_rational_subset(q, Z)


def _completion_quotient(G: FreeGroup, graph: StallingsGraph, g: Elem) -> FiniteQuotient:
    """Extend the core graph by the walk of g, then complete every letter's
    partial injection to a permutation.  The subgroup image stabilises the
    basepoint while the image of g moves it."""
    out = [dict(t) for t in graph.out]
    v = graph.basepoint
    for x in g:
        w = out[v].get(x)
        if w is None:
            out.append({})
            w = len(out) - 1
            out[v][x] = w
            out[w][-x] = v
        v = w
    n = len(out)
    images = []
    for i in range(G.rank):
        x = i + 1
        mapped = {u: out[u][x] for u in range(n) if x in out[u]}
        sources = [u for u in range(n) if u not in mapped]
        targets = [u for u in range(n) if u not in set(mapped.values())]
        # rotate so that, when possible, unmatched vertices are not fixed
        if len(targets) > 1:
            targets = targets[1:] + targets[:1]
        mapped.update(zip(sources, targets))
        images.append(tuple(mapped[u] for u in range(n)))
    return FiniteQuotient(G, n, tuple(images))


def _orbit(images: tuple, conjugators) -> set:
    """The simultaneous conjugates c^-1 images c, for c given as pairs (c, c^-1)."""
    return {tuple([tuple([c[p[j]] for j in ci]) for p in images]) for c, ci in conjugators}


@functools.lru_cache(maxsize=None)
def _conjugators(blocks: tuple) -> tuple:
    """Pairs (c, c^-1) for the c in S_n that map blocks of points onto blocks
    (memoised, like the classes below: every search asks for the same few)."""
    blk = [k for k, b in enumerate(blocks) for _ in range(b)]
    return tuple((c, perm_inv(c)) for c in itertools.permutations(range(len(blk)))
                 if len({(blk[i], blk[x]) for i, x in enumerate(c)}) == len(blocks))


@functools.lru_cache(maxsize=None)
def _conjugacy_classes(n: int) -> tuple:
    """(p, pairs (c, c^-1) for the c centralising p) for the lexicographically
    first permutation p of each conjugacy class of S_n, in order.  (p, *rest)
    and (p, *c^-1 rest c) are simultaneously conjugate when c centralises p."""
    pairs, seen, out = _conjugators((n,)), set(), []
    for p, _ in pairs:
        if (p,) not in seen:
            seen |= _orbit((p,), pairs)
            out.append((p, tuple((c, ci) for c, ci in pairs
                                 if all(c[p[i]] == p[x] for i, x in enumerate(c)))))
    return tuple(out)


class _Lazy:
    """The items of ``source``, drawn from it only as far as some reader has read."""

    def __init__(self, source):
        self.source, self.items = source, []

    def __iter__(self):
        items = self.items
        for i in itertools.count():
            if i == len(items):
                try:
                    items.append(next(self.source))
                except StopIteration:
                    return
                except BaseException:  # the source is dead: rebuild every stage on demand
                    _stage.cache_clear()
                    raise
            yield items[i]


def _first_of_orbits(assignments, conjugators):
    """The first assignment of each simultaneous-conjugacy orbit, in order, with
    its signed images; an orbit is closed only when the next one is asked for."""
    tried = set()
    for images in assignments:
        if images not in tried:
            yield images, _signed_images(images)
            tried |= _orbit(images, conjugators)


@functools.lru_cache(maxsize=None)
def _stage(rank: int, blocks: tuple, k: Optional[int] = None) -> _Lazy:
    """The representatives an exhaustive stage tries, once per process: the
    block sums of ``blocks`` or, for k, the assignments of S_n (blocks = (n,))
    whose first image is that of the k-th conjugacy class."""
    if k is None:
        return _Lazy(_first_of_orbits(_assignments_blocks(rank, blocks), _conjugators(blocks)))
    (n,) = blocks
    pa, centraliser = _conjugacy_classes(n)[k]
    rests = itertools.product(itertools.permutations(range(n)), repeat=rank - 1)
    return _Lazy(_first_of_orbits(((pa,) + rest for rest in rests), centraliser))


def _image_in_product(pg: Perm, closures, budget: int = 400_000):
    """Is pg in the setwise product of the image subgroups?

    Meet in the middle: the last half of the factors is multiplied out into
    one set, and pg is walked back through the first half, h_1^-1 pg, then
    h_2^-1 h_1^-1 pg and so on, until a walk lands in that set.  Returns
    True/False, or None when a product or walk would exceed the budget (the
    candidate is then skipped, never trusted).  The empty product is {1}.
    """
    if not closures:
        return pg == perm_identity(len(pg))
    if len(closures) == 1:
        return pg in closures[0]
    half = (len(closures) + 1) // 2
    try:
        right = product_set(closures[half:], budget)
    except BudgetExceededError:
        return None
    mids = {pg}
    for i, h in enumerate(closures[:half], 1):
        if len(mids) * len(h) > budget:
            return None
        # h is a subgroup, so it is its own set of inverses h_i^-1
        if i == half:
            return any(perm_mul(x, m) in right for m in mids for x in h)
        mids = {perm_mul(x, m) for m in mids for x in h}


def _assignments_blocks(rank: int, blocks: Sequence[int]):
    # block k moves the points from the sum of the earlier sizes on
    offsets = itertools.accumulate(blocks[:-1], initial=0)
    pools = [[tuple(v + o for v in p) for p in itertools.permutations(range(b))]
             for b, o in zip(blocks, offsets)]
    for combo in itertools.product(*[itertools.product(pool, repeat=rank) for pool in pools]):
        yield tuple(sum(imgs, ()) for imgs in zip(*combo))


def find_separating_quotients(gs: Sequence[Elem], target: RationalSubset, n_max: int = 6,
                              seed: int = 0, random_tries: int = 200) -> list:
    """One search for all of ``gs``, none of them in the target.  Entry i is
    the first quotient of the search order in which the image of gs[i]
    avoids the image of the target, None when the search cap is exhausted,
    or the BudgetExceededError of the first candidate whose factor images
    pass the closure budget while gs[i] is pending.

    Search order: exhaustive images in S_2..S_4, block sums filling up to
    n_max points, the basepoint-stabiliser completion for single subgroups,
    seeded random images, and finally (rank 2) an exhaustive scan of S_5 and
    S_6, which decides degrees <= n_max outright apart from budget-skipped
    three-factor candidates.  Each assignment is tried once, with its factor
    images closed once, against every word still pending; a word leaves when
    it is decided.  The exhaustive stages try the lexicographically first
    assignment of each simultaneous-conjugacy class, in lexicographic order:
    its first image is the first permutation of its cycle type, and its
    other images come first among their conjugates by the centraliser of
    that image.  The block-sum stages try the first assignment of each class
    under the c permuting the blocks.  A tried assignment failed for every
    word still pending or decided it, and a conjugate fails for each word
    exactly when it does, so each entry is that of the word's own search
    through the full order.  Which assignments a stage tries depends on the
    stage alone, never on the words or the target, so they come from the
    process-wide memo ``_stage``, with their signed images.
    """
    G = target.group
    rank = G.rank
    g0_runs = _runs(target.g0)
    factor_runs = [[_runs(x) for x in gens] for gens in target.factors]
    out: list = [None] * len(gs)
    pending = {i: _runs(g) for i, g in enumerate(gs)}

    def candidate(images, signed) -> None:
        n = len(images[0])
        back = perm_inv(_image_runs(signed, n, g0_runs)) if g0_runs else None
        identity = perm_identity(n)
        probes = []
        for i, runs in pending.items():
            probe = _image_runs(signed, n, runs)
            if back:
                probe = perm_mul(back, probe)
            if probe != identity:  # else phi(g) = phi(g0), which lies in phi(Z)
                probes.append((i, probe))
        if not probes:
            return
        try:
            closures = [subgroup_closure([_image_runs(signed, n, r) for r in gens], n)
                        for gens in factor_runs]
        except BudgetExceededError as e:
            closures = e  # the outcome of every word that reached the closures
        for i, probe in probes:
            if isinstance(closures, BudgetExceededError):
                out[i] = closures
            elif _image_in_product(probe, closures) is False:
                q = FiniteQuotient(G, n, tuple(images))
                if verify_separation(q, gs[i], target):
                    out[i] = q
            if out[i] is not None:
                del pending[i]

    def first(stage) -> None:
        """Try the stage's representatives in order until none is pending."""
        for images, signed in stage:
            candidate(images, signed)
            if not pending:
                return

    def scan(degrees) -> None:
        """Try every assignment in S_n, n in degrees, up to simultaneous conjugacy."""
        for n in degrees:
            for k in range(len(_conjugacy_classes(n))):
                first(_stage(rank, (n,), k))
                if not pending:
                    return

    if pending:
        scan(range(2, min(4, n_max) + 1))
    # (2, 2) block sums are degree-4 assignments, each conjugate to one tried above.
    for blocks in ((2, 3), (3, 3), (2, 2, 2)):
        if pending and sum(blocks) <= n_max:
            first(_stage(rank, blocks))
    if len(target.factors) == 1 and not target.g0:
        # checked by direct images, not by closing the image subgroup (which
        # can pass the closure budget): every factor generator fixes the
        # basepoint b, so the image subgroup does, and g moves b
        b = target.graphs[0].basepoint
        for i in list(pending):
            comp = _completion_quotient(G, target.graphs[0], gs[i])
            if comp.image_of(gs[i])[b] != b and all(comp.image_of(h)[b] == b
                                                    for h in target.factors[0]):
                out[i] = comp
                del pending[i]
    if not pending:
        return out
    rng = random.Random(seed)
    for n in range(5, n_max + 1):
        pool = list(range(n))
        for _ in range(random_tries):
            if not pending:
                return out
            images = []
            for _ in range(rank):
                p = pool[:]
                rng.shuffle(p)
                images.append(tuple(p))
            candidate(images, _signed_images(images))
    if rank == 2 and pending:
        scan(range(5, n_max + 1))
    return out


def find_separating_quotient(g: Elem, target: RationalSubset, n_max: int = 6, seed: int = 0,
                             random_tries: int = 200) -> Optional[FiniteQuotient]:
    """A finite quotient in which the image of g avoids the image of the
    target subset, or None when the search cap is exhausted: the one-word
    case of ``find_separating_quotients``.  Raises InTargetError when g lies
    in the target, and BudgetExceededError where a closure passes its budget.
    """
    if target.contains(g):
        raise InTargetError("element is in the target subset; nothing to separate")
    (found,) = find_separating_quotients([g], target, n_max, seed, random_tries)
    if isinstance(found, BudgetExceededError):
        raise found
    return found


@dataclass(frozen=True)
class MinxHarnessResult:
    quotient: Optional[FiniteQuotient]
    achieved_min: object  # int or math.inf over the checked ball
    verified: bool
    caveats: tuple[str, ...]


def combine_quotients(G: FreeGroup, quotients: Sequence[FiniteQuotient]) -> FiniteQuotient:
    """Direct sum on disjoint points; the kernel is the intersection of kernels."""
    if not quotients:
        return FiniteQuotient(G, 1, ((0,),) * G.rank)
    # quotient k moves the points from the sum of the earlier degrees on
    offsets = itertools.accumulate([q.degree for q in quotients], initial=0)
    parts = [[tuple(v + o for v in p) for p in q.gen_images] for q, o in zip(quotients, offsets)]
    return FiniteQuotient(G, sum(q.degree for q in quotients),
                          tuple(sum(ps, ()) for ps in zip(*parts)))


def minx_quotient_harness(
    Z: RationalSubset,
    C: int,
    n_max: int = 6,
    seed: int = 0,
    budget: Optional[int] = None,
) -> MinxHarnessResult:
    """Find a quotient whose kernel N satisfies minx(ZN \\ Z) >= C.

    Every element shorter than C outside Z gets a separating quotient; the
    block sum of those quotients has the required kernel.  Membership in ZN
    is decided through images, and the bound is re-verified on the ball of
    radius C + 2, of at most ``budget`` vertices (None: the default vertex
    budget of ``build_ball``).
    """
    G = Z.group
    radius = C + 2
    ball = build_ball(G, max(radius, 0), budget)
    # level order: the elements shorter than C come first
    outsiders = [u for u in itertools.takewhile(lambda u: len(u) < C, ball.elements)
                 if not Z.contains(u)]
    parts = find_separating_quotients(outsiders, Z, n_max=n_max, seed=seed)
    for u, q in zip(outsiders, parts):
        if q is None:
            return MinxHarnessResult(
                None, None, False, ("separation search cap exhausted at %s" % G.elem_str(u),)
            )
        if isinstance(q, BudgetExceededError):
            raise q
    combined = combine_quotients(G, parts)
    # The kernel of a block sum is the intersection of its blocks' kernels, so
    # a repeated block leaves N, and so ZN, unchanged: the check runs on the
    # block sum of the distinct parts, a fraction of the degree.
    distinct = combine_quotients(G, list(dict.fromkeys(parts)))
    z_image = image_of_rational_subset(distinct, Z)
    achieved = math.inf
    signed = _signed_images(distinct.gen_images)
    image = {}
    for g in ball.elements:
        # build_ball lists every reduced word after its prefix g[:-1]; only
        # words inside the radius are kept, as prefixes of words to come
        pg = perm_mul(image[g[:-1]], signed[g[-1]]) if g else perm_identity(distinct.degree)
        if ball.dist[g] < radius:
            image[g] = pg
        if pg in z_image and not Z.contains(g):
            achieved = min(achieved, len(g))
    caveat = "ZN membership checked through images on the radius-%d ball" % radius
    return MinxHarnessResult(combined, achieved, achieved >= C, (caveat,))
