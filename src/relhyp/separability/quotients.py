"""Finite quotients as permutation representations, and separation searches.

A certificate is a homomorphism to a symmetric group, given by generator
images in one-line notation.  Every search re-verifies its candidate by
direct image computation before returning it.  The search is exhaustive up
to its degree cap at every rank, and a budget bounds the candidates it tries.

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
outsiders in one search, then finds the least word of ZN \\ Z by one product
search of Z's automaton with the images under the block sum of the distinct
quotients, which has the kernel of the block sum of them all.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..cayley import DEFAULT_VERTEX_BUDGET, build_ball
from ..errors import BudgetExceededError, InTargetError, UnsupportedFamilyError
from ..groups import Elem, FiniteGroup, FreeGroup, GroupSpec, bfs, bfs_tree, letter, per_instance
from .rational import RationalSubset, least_word
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
    """Generator ``letter(i)`` maps to ``images[i]`` and its inverse to the inverse."""
    signed = {}
    for i, p in enumerate(images):
        signed[letter(i)], signed[-letter(i)] = p, perm_inv(p)
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

    @per_instance
    def _rational_image(self, g0: Elem, factors: tuple) -> frozenset:
        """The image of g0 * <factors[0]> ... <factors[-1]>, once per instance."""
        parts = [frozenset([self.image_of(g0)])] if g0 else []
        parts += [subgroup_closure([self.image_of(g) for g in gens], self.degree)
                  for gens in factors]
        return product_set(parts or [frozenset([perm_identity(self.degree)])])

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
    return q._rational_image(Z.g0, Z.factors)


def verify_separation(q: FiniteQuotient, g: Elem, Z: RationalSubset) -> bool:
    """Independent re-check from the quotient's own images, not the search's."""
    return q.image_of(g) not in image_of_rational_subset(q, Z)


@dataclass(frozen=True)
class _ImageAction:
    """A quotient's images as an automaton that steps (``least_word``): a
    word's state is its image, accepted when it lies in ``accepting``."""

    signed: dict
    degree: int
    accepting: frozenset

    def start(self) -> Perm:
        return perm_identity(self.degree)

    def step(self, p: Perm, x: int) -> Perm:
        return perm_mul(p, self.signed[x])

    def accepts(self, p: Perm) -> bool:
        return p in self.accepting


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
    for x in map(letter, range(G.rank)):
        mapped = {u: out[u][x] for u in range(n) if x in out[u]}
        sources = [u for u in range(n) if u not in mapped]
        targets = [u for u in range(n) if u not in set(mapped.values())]
        # rotate so that, when possible, unmatched vertices are not fixed
        if len(targets) > 1:
            targets = targets[1:] + targets[:1]
        mapped.update(zip(sources, targets))
        images.append(tuple(mapped[u] for u in range(n)))
    return FiniteQuotient(G, n, tuple(images))


def _orbit(p: Perm, conjugators) -> set:
    """The conjugates c^-1 p c, for c given as pairs (c, c^-1)."""
    return {tuple([c[p[j]] for j in ci]) for c, ci in conjugators}


@functools.lru_cache(maxsize=None)
def _conjugators(n: int) -> tuple:
    """Pairs (c, c^-1) for the c in S_n, once per process."""
    return tuple((c, perm_inv(c)) for c in itertools.permutations(range(n)))


def _centraliser(p: Perm, conjugators) -> tuple:
    """The pairs (c, c^-1) of ``conjugators`` whose c commutes with p."""
    return tuple((c, ci) for c, ci in conjugators
                 if all(c[p[i]] == p[x] for i, x in enumerate(c)))


def _firsts(rank: int, n: int, conjugators):
    """The first ``rank``-tuple of permutations of n points in each orbit under
    simultaneous conjugation by the group ``conjugators``, in lexicographic
    order: its first entry p is first in p's orbit, and its rest is first
    under the centraliser of p.  Each level holds a set of permutations only."""
    if not rank:
        yield ()
        return
    seen = set()
    for p in itertools.permutations(range(n)):
        if p not in seen:
            for rest in _firsts(rank - 1, n, _centraliser(p, conjugators) if rank > 1 else ()):
                yield (p,) + rest
            seen |= _orbit(p, conjugators)  # closed only once the next is asked for


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


def _direct_sum(blocks: Iterable[tuple], degrees: Iterable[int]) -> tuple:
    """The generator images of the direct sum of ``blocks`` (each a tuple of
    generator images) on disjoint points: block k moves the points from the
    sum of the earlier degrees on."""
    offsets = itertools.accumulate(degrees, initial=0)
    parts = [[tuple(v + o for v in p) for p in images] for images, o in zip(blocks, offsets)]
    return tuple(sum(ps, ()) for ps in zip(*parts))


def _block_sums(rank: int, blocks: tuple):
    """The first block sum in each orbit under the c mapping blocks onto
    blocks, in lexicographic order.  Such a c conjugates each block's images
    and swaps blocks of equal size (adjacent here), so a first block sum has
    first images on each block, in nondecreasing order across equal sizes."""
    runs = [itertools.combinations_with_replacement(list(_firsts(rank, b, _conjugators(b))),
                                                    len(list(run)))
            for b, run in itertools.groupby(blocks)]
    for combo in itertools.product(*runs):
        yield _direct_sum(itertools.chain(*combo), blocks)


@functools.lru_cache(maxsize=None)
def _stage(rank: int, blocks: tuple) -> _Lazy:
    """The representatives an exhaustive stage tries, with their signed
    images, once per process: the assignments of S_n for blocks = (n,), else
    the block sums of ``blocks``, the first of each conjugacy orbit."""
    if len(blocks) == 1:
        assignments = _firsts(rank, blocks[0], _conjugators(blocks[0]))
    else:
        assignments = _block_sums(rank, blocks)
    return _Lazy((images, _signed_images(images)) for images in assignments)


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


# Candidates one separating search may try: a pinned job tries at most 263, a
# rank-3 search at cap 5 at most 15,851 (README, --budget).
DEFAULT_CANDIDATE_BUDGET = 50_000


def find_separating_quotients(gs: Sequence[Elem], target: RationalSubset, n_max: int = 6,
                              budget: Optional[int] = None) -> list:
    """One search for all of ``gs``, none of them in the target.  Entry i is
    the first quotient of the search order in which the image of gs[i]
    avoids the image of the target, None when the search cap is exhausted,
    or a BudgetExceededError: that of the first candidate whose factor
    images pass the closure budget while gs[i] is pending, or the search's
    own when gs[i] is still pending after ``budget`` candidates (None:
    DEFAULT_CANDIDATE_BUDGET).

    Search order: exhaustive images in S_2..S_4, block sums filling up to
    n_max points, the basepoint-stabiliser completion for single subgroups,
    and finally an exhaustive scan of S_5 and S_6, which decides degrees
    <= n_max outright apart from budget-skipped three-factor candidates.
    Each assignment is tried once, with its factor images closed once,
    against every word still pending; a word leaves when it is decided.
    Every stage tries the lexicographically first assignment of each
    simultaneous-conjugacy class (under the c permuting the blocks, for a
    block sum), in lexicographic order.  A tried assignment failed for every
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
    budget = DEFAULT_CANDIDATE_BUDGET if budget is None else budget
    tried = itertools.count(1)

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
        q = None
        for i, probe in probes:
            if isinstance(closures, BudgetExceededError):
                out[i] = closures
            elif _image_in_product(probe, closures) is False:
                q = q or FiniteQuotient(G, n, tuple(images))
                if verify_separation(q, gs[i], target):
                    out[i] = q
            if out[i] is not None:
                del pending[i]

    def first(stage) -> None:
        """Try the stage's representatives in order until none is pending;
        past the budget, every word still pending is over it."""
        for images, signed in stage:
            if next(tried) > budget:
                over = BudgetExceededError("search passed its %d-candidate budget" % budget)
                for i in pending:
                    out[i] = over
                pending.clear()
                return
            candidate(images, signed)
            if not pending:
                return

    # S_2..S_4, then block sums: a (2, 2) one is conjugate to one tried in S_4
    for blocks in ((2,), (3,), (4,), (2, 3), (3, 3), (2, 2, 2)):
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
    for n in range(5, n_max + 1):
        if pending:
            first(_stage(rank, (n,)))
    return out


def find_separating_quotient(g: Elem, target: RationalSubset, n_max: int = 6,
                             budget: Optional[int] = None) -> Optional[FiniteQuotient]:
    """A finite quotient in which the image of g avoids the image of the
    target subset, or None when the search cap is exhausted: the one-word
    case of ``find_separating_quotients``.  Raises InTargetError when g lies
    in the target, and BudgetExceededError where a closure passes its budget.
    """
    if target.contains(g):
        raise InTargetError("element is in the target subset; nothing to separate")
    (found,) = find_separating_quotients([g], target, n_max, budget)
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
    degrees = [q.degree for q in quotients]
    return FiniteQuotient(G, sum(degrees),
                          _direct_sum((q.gen_images for q in quotients), degrees))


def minx_quotient_harness(
    Z: RationalSubset,
    C: int,
    n_max: int = 6,
    budget: Optional[int] = None,
) -> MinxHarnessResult:
    """Find a quotient whose kernel N satisfies minx(ZN \\ Z) >= C.

    Every element shorter than C outside Z gets a separating quotient; the
    block sum of those quotients has the required kernel.  The bound is
    re-verified up to radius C + 2 by one product search of Z's automaton
    with the images (``least_word``): its first word whose image lies in the
    image of Z and which Z rejects is the least element of ZN \\ Z.  The
    outsider ball (radius C - 1) has at most ``budget`` vertices and the
    product search stores at most ``budget`` states (None:
    DEFAULT_VERTEX_BUDGET); the separating search tries at most ``budget``
    candidates (None: DEFAULT_CANDIDATE_BUDGET).
    """
    G = Z.group
    radius = C + 2
    vertices = DEFAULT_VERTEX_BUDGET if budget is None else budget
    ball = build_ball(G, max(C - 1, 0), vertices)
    outsiders = [u for u in ball.elements if len(u) < C and not Z.contains(u)]
    parts = find_separating_quotients(outsiders, Z, n_max, budget)
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
    images = _ImageAction(_signed_images(distinct.gen_images), distinct.degree,
                          image_of_rational_subset(distinct, Z))
    least = least_word(G, images, Z.nfa, max(radius, 0), vertices)
    achieved = math.inf if least is None else len(least)
    caveat = "ZN membership checked through images on the radius-%d ball" % radius
    return MinxHarnessResult(combined, achieved, achieved >= C, (caveat,))
