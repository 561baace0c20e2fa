import gc
import itertools
import random
import weakref
from unittest import mock

import pytest
from conftest import (
    fixpoint_closure,
    naive_perm_word,
    reduce_letters_naive,
    reference_assemble,
    reference_basis,
    reference_find_separating_quotient,
    reference_first_of_orbits,
    reference_finite_index_in,
    reference_minx_harness,
    subgroups_equal,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relhyp import DIncompatibleError, FreeGroup, cyclic_group, word_to_elem
from relhyp.cayley import build_ball
from relhyp.errors import BudgetExceededError
from relhyp.groups import FreeAbelian
from relhyp.separability import (
    RationalSubset,
    amalgam_product_member,
    amalgam_reduce,
    basis,
    find_separating_quotient,
    finite_index_in,
    induced_quotient,
    lattice_contains,
    member,
    membership_oracle,
    minx_quotient_harness,
    product_member,
    pullback,
    stallings,
    subgroup_graph,
    verify_separation,
)
from relhyp.separability import quotients
from relhyp.separability.quotients import (
    FiniteQuotient,
    _assignments_blocks,
    _conjugacy_classes,
    _conjugators,
    _image_in_product,
    _signed_images,
    _stage,
    combine_quotients,
    find_separating_quotients,
    image_of_rational_subset,
    perm_identity,
    product_set,
    subgroup_closure,
)

w = word_to_elem


def brute_product_member(g, factor_lists, G, max_len):
    """DFS over bounded-length factor elements, pruned by remaining reach."""
    lists = [
        [x for x in build_ball(G, max_len).elements if oracle(x)]
        for oracle in factor_lists
    ]

    def rec(i, value):
        if i == len(lists):
            return value == g
        gap = G.x_length(G.mul(G.inv(value), g))
        if gap > (len(lists) - i) * max_len:
            return False
        return any(rec(i + 1, G.mul(value, y)) for y in lists[i])

    return rec(0, G.identity())


class TestStallings:
    def test_spec_graphs(self, fab):
        assert len(subgroup_graph((), fab)) == 1
        g = subgroup_graph((w("a a", fab), w("b", fab)), fab)
        assert len(g) == 2
        assert len(subgroup_graph((w("a", fab), w("b", fab)), fab)) == 1

    def test_membership(self, fab):
        H = subgroup_graph((w("a a", fab), w("b", fab)), fab)
        assert member(w("a a", fab), H) and member(w("b", fab), H)
        assert not member(w("a", fab), H)  # odd a-exponent
        assert member(w("a a b^-1 a^-1 a^-1", fab), H)

    def test_membership_matches_brute_force(self, fab):
        rng = random.Random(3)
        gens = (w("a a", fab), w("b a b^-1", fab))
        H = subgroup_graph(gens, fab)
        from relhyp.separability import membership_oracle

        oracle = membership_oracle(fab, gens)
        # brute force: products of generators up to length 3
        products = {fab.identity()}
        gens_pm = list(gens) + [fab.inv(g) for g in gens]
        for _ in range(4):
            products |= {fab.mul(p, g) for p in products for g in gens_pm}
        for g in build_ball(fab, 4).elements:
            if g in products:
                assert member(g, H)
            # membership implies brute-force reachable for short elements
        for p in products:
            assert member(p, H)

    def test_folding_confluence(self, fab):
        rng = random.Random(41)
        ball = build_ball(fab, 4)
        for _ in range(200):
            gens = [rng.choice(ball.elements) for _ in range(rng.randint(1, 4))]
            g1 = subgroup_graph(tuple(gens), fab)
            rng.shuffle(gens)
            g2 = subgroup_graph(tuple(gens), fab)
            assert subgroups_equal(g1, g2, fab)
            assert len(g1) == len(g2)

    def test_fold_memo_dies_with_its_group(self):
        """Each generator tuple is folded once per group, and the graph goes
        when the group does: a process-wide memo would keep it alive."""
        G = FreeGroup(("a", "b"))
        gens = ((1, 1), (2, 1, -2))
        ref = weakref.ref(subgroup_graph(gens, G))
        assert subgroup_graph(list(gens), G) is ref()
        assert subgroup_graph(gens, FreeGroup(("a", "b"))) is not ref()
        del G
        gc.collect()
        assert ref() is None

    def test_basis_roundtrip(self, fab):
        gens = (w("a a", fab), w("b b", fab), w("a b a^-1", fab))
        H = subgroup_graph(gens, fab)
        B = basis(H, fab)
        H2 = subgroup_graph(tuple(B), fab)
        assert subgroups_equal(H, H2, fab)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        rank=st.integers(1, 3),
        radius=st.integers(0, 5),
        budget=st.integers(1, 300),
    )
    def test_closed_words_is_the_ball_scan(self, data, rank, radius, budget):
        """The closed walks are the members of the radius ball, in the ball's
        order; the budget caps the walks, which are the ball's words that
        can be read from the basepoint."""
        G = FreeGroup(tuple("abc"[:rank]))
        gens = tuple(data.draw(st.lists(_free_word(rank, 4), max_size=3)))
        H = subgroup_graph(gens, G)
        ball = build_ball(G, radius).elements
        assert H.closed_words(G, radius) == [g for g in ball if member(g, H)]
        walks = sum(H.walk(g) is not None for g in ball)
        if budget < walks:
            with pytest.raises(BudgetExceededError):
                H.closed_words(G, radius, budget)
        else:
            assert H.closed_words(G, radius, budget) == H.closed_words(G, radius)


def _free_word(rank, max_len):
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    return st.lists(st.sampled_from(letters), max_size=max_len).map(reduce_letters_naive)


@st.composite
def _subgroup_pair(draw):
    rank = draw(st.integers(1, 3))
    word = st.one_of(_free_word(rank, 1), _free_word(rank, 7))
    gens = [tuple(draw(st.lists(word, max_size=4))) for _ in range(2)]
    probes = draw(st.lists(_free_word(rank, 8), max_size=8))
    return rank, gens, probes


def _reference(fn, *args):
    # a fresh copy of a group argument holds none of the fast fold's graphs
    args = [FreeGroup(a.symbols) if isinstance(a, FreeGroup) else a for a in args]
    with mock.patch.object(stallings, "_assemble", reference_assemble):
        return fn(*args)


def _same_graph(A, B):
    return len(A) == len(B) and all(
        list(a.items()) == list(b.items()) for a, b in zip(A.out, B.out)
    )


class TestFoldAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(_subgroup_pair())
    def test_graphs_and_membership_match(self, case):
        rank, gens, probes = case
        G = FreeGroup(tuple("abc"[:rank]))
        graphs = [subgroup_graph(g, G) for g in gens]
        refs = [_reference(subgroup_graph, g, G) for g in gens]
        for H, R in zip(graphs, refs):
            assert _same_graph(H, R)
        inter, ref_inter = pullback(*graphs), _reference(pullback, *refs)
        assert _same_graph(inter, ref_inter)
        for H, R in zip(graphs + [inter], refs + [ref_inter]):
            for g in probes:
                assert member(g, H) == member(g, R)

    def test_large_fold_matches_reference(self, fab):
        # 60 reduced generators of length 30; no time is checked
        rng = random.Random(7)
        gens = []
        for _ in range(60):
            g = [rng.choice((1, -1, 2, -2))]
            while len(g) < 30:
                g.append(rng.choice([x for x in (1, -1, 2, -2) if x != -g[-1]]))
            gens.append(tuple(g))
        H = subgroup_graph(gens, fab)
        R = _reference(subgroup_graph, gens, fab)
        assert len(H) == len(R) > 1
        assert len(list(H.edges())) == len(list(R.edges()))
        assert _same_graph(H, R)


def _stabiliser_gens(G, perms):
    """Generators of the stabiliser of the point 0 when letter i acts by
    ``perms[i - 1]``: a subgroup of finite index.  Each point p of the orbit
    gets an access word t_p by breadth-first search, and t_p x t_q^-1 for
    every edge p -x-> q generates."""
    def act(p, x):
        return perms[x - 1][p] if x > 0 else perms[-x - 1].index(p)

    access, queue = {0: ()}, [0]
    for p in queue:
        for x in _letters(G.rank):
            q = act(p, x)
            if q not in access:
                access[q] = G.mul(access[p], (x,))
                queue.append(q)
    return tuple(
        G.mul(G.mul(access[p], (x,)), G.inv(access[act(p, x)]))
        for p in access
        for x in range(1, G.rank + 1)
    )


@st.composite
def _graph_pair(draw):
    """(G, A's gens, B's gens, probes).  B is, a third of the time each, a
    random subgroup, a stabiliser of finite index, or the intersection of A
    with one; either side is conjugated half the time, which gives its
    graph a stem.  The probes are random words and powers of A's and B's
    generators, so some lie in both."""
    rank = draw(st.integers(1, 3))
    G = FreeGroup(tuple("abc"[:rank]))
    a = tuple(draw(st.lists(_free_word(rank, 5), min_size=1, max_size=3)))
    kind = draw(st.sampled_from(("random", "stabiliser", "meet")))
    if kind == "random":
        b = tuple(draw(st.lists(_free_word(rank, 5), max_size=4)))
    else:
        degree = draw(st.integers(1, 4))
        perm = st.permutations(range(degree)).map(tuple)
        b = _stabiliser_gens(G, draw(st.lists(perm, min_size=rank, max_size=rank)))
        if kind == "meet":
            b = tuple(basis(pullback(subgroup_graph(a, G), subgroup_graph(b, G)), G))
    sides = []
    for gens in (a, b):
        if draw(st.booleans()):
            c = draw(_free_word(rank, 3).filter(bool))
            gens = tuple(G.mul(G.mul(c, g), G.inv(c)) for g in gens)
        sides.append(gens)
    probes = draw(st.lists(_free_word(rank, 8), max_size=6))
    probes += [G.pow(g, k) for g in sides[0] + sides[1] for k in (1, 2, 3, 4, 6, 12)]
    return G, sides[0], sides[1], probes


def _folded_core(H):
    """Each letter x from u to v has its inverse -x from v to u (a second
    edge with the same letter at a vertex would break this), and every
    vertex but the basepoint has degree at least 2."""
    for u, trans in enumerate(H.out):
        for x, v in trans.items():
            assert H.out[v].get(-x) == u
        assert u == H.basepoint or len(trans) >= 2


class TestTraversals:
    """Basis, pullback and finite index on ``groups.bfs``, against the deque
    spanning tree and the chord-rewriting finite-index test."""

    @settings(max_examples=300, deadline=None)
    @given(_graph_pair())
    def test_pullback_is_the_intersection(self, case):
        G, a, b, probes = case
        A, B = subgroup_graph(a, G), subgroup_graph(b, G)
        inter = pullback(A, B)
        _folded_core(inter)
        for g in probes:
            assert member(g, inter) == (member(g, A) and member(g, B))

    @settings(max_examples=300, deadline=None)
    @given(_graph_pair())
    def test_basis_matches_deque_tree(self, case):
        G, a, b, _ = case
        A, B = subgroup_graph(a, G), subgroup_graph(b, G)
        for H in (A, B, pullback(A, B)):
            assert basis(H, G) == reference_basis(H, G)

    @settings(max_examples=300, deadline=None)
    @given(_graph_pair())
    def test_finite_index_matches_chord_rewriting(self, case):
        G, a, b, _ = case
        U, V = subgroup_graph(a, G), subgroup_graph(b, G)
        assert finite_index_in(U, V) == reference_finite_index_in(U, V, G)

    @pytest.mark.parametrize(
        "u,v,finite",
        [
            ("a b a^-1", "a b b a^-1", True),  # the stems agree
            ("b a b^-1", "a", False),  # V cannot read U's stem
            ("", "a", True),  # the trivial subgroup
            ("", "", True),
            ("a", "", False),
            ("b a b^-1", "b a a a b^-1", True),
            ("b a b^-1 | a", "a", False),
            ("a b a^-1", "a b a^-1 | b", True),
        ],
    )
    def test_stems(self, fab, u, v, finite):
        def graph(text):
            return subgroup_graph(tuple(w(x, fab) for x in text.split(" | ") if x), fab)

        U, V = graph(u), graph(v)
        assert finite_index_in(U, V) == finite
        assert reference_finite_index_in(U, V, fab) == finite

    def test_self_loop_edges_kept(self, fab):
        # a is a self-loop at the basepoint of both graphs: the search skips
        # it, the edge pass keeps it
        A = subgroup_graph((w("a", fab), w("b a b^-1", fab)), fab)
        B = subgroup_graph((w("a", fab), w("b b", fab)), fab)
        inter = pullback(A, B)
        assert inter.out[0][1] == 0
        assert member(w("a", fab), inter)
        assert not member(w("b a b^-1", fab), inter)


def _det(rows):
    """Leibniz determinant of a small square integer matrix."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


@st.composite
def _full_rank_lattice(draw):
    n = draw(st.integers(1, 3))
    entry = st.integers(-3, 3)
    rows = draw(
        st.lists(st.tuples(*[entry] * n), min_size=n, max_size=n).filter(
            lambda r: 1 <= abs(_det(r)) <= 12
        )
    )
    vec = st.tuples(*[st.integers(-30, 30)] * n)
    coeffs = st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=10, max_size=10)
    return rows, draw(st.lists(vec, min_size=10, max_size=10)), draw(coeffs)


class TestLattice:
    @settings(max_examples=200, deadline=None)
    @given(_full_rank_lattice())
    def test_lattice_contains_against_residues(self, case):
        """n generators of Z^n with |det| = d span a lattice L containing d Z^n,
        so v is in L exactly when v mod d is in the closure of the generators
        mod d in (Z/d)^n."""
        rows, probes, coeffs = case
        n, d = len(rows), abs(_det(rows))
        closure = fixpoint_closure(
            [tuple(x % d for x in r) for r in rows],
            lambda a, b: tuple((x + y) % d for x, y in zip(a, b)),
            (0,) * n,
        )
        members = [
            tuple(sum(c[k] * rows[k][i] for k in range(n)) for i in range(n))
            for c in coeffs
        ]
        oracle = membership_oracle(FreeAbelian(tuple("xyz"[:n])), rows)
        for v in probes + members:
            expected = tuple(x % d for x in v) in closure
            assert lattice_contains(rows, v) == expected
            assert oracle(v) == expected
        assert all(lattice_contains(rows, v) for v in members)


class TestImageInProduct:
    def test_matches_product_set(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(2, 4)
            closures = []
            for _ in range(rng.randint(1, 5)):
                gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 2))]
                closures.append(subgroup_closure(gens, n))
            pg = tuple(rng.sample(range(n), n))
            assert _image_in_product(pg, closures) == (pg in product_set(closures))

    def test_empty_product_is_trivial(self):
        assert _image_in_product(perm_identity(3), []) is True
        assert _image_in_product((1, 0, 2), []) is False

    def test_over_budget_is_skipped(self):
        s4 = subgroup_closure([(1, 2, 3, 0), (1, 0, 2, 3)], 4)
        assert _image_in_product(perm_identity(4), [s4] * 4, budget=100) is None

    def test_four_factor_search(self, fab):
        target = RationalSubset(
            fab, (), tuple((w(x, fab),) for x in ("a a", "b b", "a a", "b b"))
        )
        g = w("a b", fab)
        q = find_separating_quotient(g, target, n_max=5)
        assert q is not None and verify_separation(q, g, target)


def _letters(rank):
    return [s * i for i in range(1, rank + 1) for s in (1, -1)]


def _run_word(rank, max_runs, max_exp):
    """Words made of up to ``max_runs`` runs x^k, k <= ``max_exp``, as drawn
    (not reduced)."""
    run = st.tuples(st.sampled_from(_letters(rank)), st.integers(1, max_exp))
    return st.lists(run, max_size=max_runs).map(
        lambda runs: tuple(x for x, k in runs for _ in range(k))
    )


class TestPermWordEvaluator:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_letter_by_letter(self, data):
        rank, degree = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8))
        images = tuple(
            tuple(data.draw(st.permutations(range(degree)))) for _ in range(rank)
        )
        word = data.draw(_run_word(rank, 4, 60))
        q = FiniteQuotient(FreeGroup(tuple("abc"[:rank])), degree, images)
        assert q.image_of(word) == naive_perm_word(images, degree, word)


@st.composite
def _separation_case(draw):
    rank = draw(st.sampled_from((2, 3)))
    G = FreeGroup(tuple("abc"[:rank]))
    gen = _run_word(rank, 3, 3).map(reduce_letters_naive).filter(bool)
    subgroup = st.lists(gen, min_size=1, max_size=2).map(tuple)
    factors = draw(st.lists(subgroup, min_size=1, max_size=3))
    g = tuple(reduce_letters_naive(draw(_run_word(rank, 3, 6))))
    # The reference alone tries 7,920 candidates in the rank-2 S_6 scan and
    # 46,656 rank-3 (3, 3) block sums.  So only single-factor rank-2 targets
    # go up to S_6: the completion quotient settles them before the scan.
    n_max = draw(st.integers(4, 6 if rank == 2 and len(factors) == 1 else 5))
    return G, g, tuple(factors), n_max, draw(st.sampled_from((0, 200))), draw(st.integers(0, 99))


class TestSearchMatchesReference:
    """The search returns the reference's certificate: skipping simultaneous
    conjugates of failed candidates never skips the first success."""

    @staticmethod
    def _check(g, target, n_max, tries, seed):
        try:
            q = find_separating_quotient(g, target, n_max=n_max, seed=seed, random_tries=tries)
            got = None if q is None else (q.degree, q.gen_images)
        except BudgetExceededError:
            got = "over budget"
        try:
            expected = reference_find_separating_quotient(g, target, n_max, seed, tries)
        except BudgetExceededError:
            expected = "over budget"
        assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(_separation_case())
    def test_random_targets(self, case):
        G, g, factors, n_max, tries, seed = case
        target = RationalSubset(G, (), factors)
        assume(not target.contains(g))
        self._check(g, target, n_max, tries, seed)

    @pytest.mark.parametrize(
        "g,factors",
        [
            # first found in the S_5 scan, after skipped conjugates of pb
            ("a a", ("b b b b a a a a", "a^-1 a^-1 a^-1 a^-1 a^-1")),
            ("a^-1", ("b b a^-1 a^-1 a^-1", "a a a a b b")),
            ("b b b b", ("b^-1 b^-1 b^-1 b^-1 b^-1 a a a", "a^-1 a^-1 a^-1 a^-1 a^-1")),
        ],
    )
    def test_scan_targets(self, fab, g, factors):
        target = RationalSubset(fab, (), tuple((w(f, fab),) for f in factors))
        self._check(w(g, fab), target, 5, 0, 0)


@st.composite
def _batch_case(draw):
    """A separation case with up to five more words to separate in the same search."""
    G, g, factors, n_max, tries, seed = draw(_separation_case())
    more = draw(st.lists(_run_word(G.rank, 3, 6).map(reduce_letters_naive).map(tuple),
                         max_size=5))
    return G, [g] + more, factors, n_max, tries, seed


def _outcome(found):
    if isinstance(found, BudgetExceededError):
        return "over budget"
    return None if found is None else (found.degree, found.gen_images)


class TestBatchedSearch:
    """One search over several words gives each word its own search's outcome."""

    @settings(max_examples=25, deadline=None)
    @given(_batch_case())
    def test_matches_reference_per_word(self, case):
        G, gs, factors, n_max, tries, seed = case
        target = RationalSubset(G, (), factors)
        gs = [g for g in gs if not target.contains(g)]
        assume(gs)
        got = [_outcome(q) for q in find_separating_quotients(gs, target, n_max, seed, tries)]
        expected = []
        for g in gs:
            try:
                expected.append(reference_find_separating_quotient(g, target, n_max, seed, tries))
            except BudgetExceededError:
                expected.append("over budget")
        assert got == expected

    def test_earlier_none_wins_over_later_budget_error(self, fab, monkeypatch):
        # every element order in S_2..S_5 divides 60: the identity's probe
        # phi(g0)^-1 = phi(a^60)^-1 is trivial in every candidate, so it ends
        # None without a closure, while a reaches a closure, over a budget of 0
        from relhyp.separability import quotients

        closure = quotients.subgroup_closure
        monkeypatch.setattr(quotients, "subgroup_closure",
                            lambda gens, n, budget=None: closure(gens, n, budget=0))
        Z = RationalSubset(fab, fab.pow(w("a", fab), 60), ((w("b", fab),),))
        with pytest.raises(BudgetExceededError):
            find_separating_quotient(w("a", fab), Z, n_max=5)
        assert find_separating_quotient((), Z, n_max=5) is None
        outcomes = find_separating_quotients([(), w("a", fab)], Z, n_max=5)
        assert outcomes[0] is None and isinstance(outcomes[1], BudgetExceededError)
        # the harness meets the identity first, as a per-word loop would
        res = minx_quotient_harness(Z, 2, n_max=5)
        assert res.quotient is None and not res.verified
        assert res.caveats == ("separation search cap exhausted at 1",)


def _stage_source(rank, blocks, k=None):
    """(assignments, conjugators) of an exhaustive stage, in search order."""
    if k is None:
        return _assignments_blocks(rank, blocks), _conjugators(blocks)
    (n,) = blocks
    pa, centraliser = _conjugacy_classes(n)[k]
    perms = list(itertools.permutations(range(n)))
    return (((pa,) + rest for rest in itertools.product(perms, repeat=rank - 1)), centraliser)


def _stage_keys(rank, n_max):
    """Every stage that a search of the given rank reaches with this n_max."""
    degrees = list(range(2, min(4, n_max) + 1))
    if rank == 2:
        degrees += range(5, n_max + 1)
    keys = [(rank, (n,), k) for n in degrees for k in range(len(_conjugacy_classes(n)))]
    return keys + [(rank, b, None) for b in ((2, 3), (3, 3), (2, 2, 2)) if sum(b) <= n_max]


def _count_orbits(monkeypatch):
    calls = []
    orbit = quotients._orbit

    def counting(images, conjugators):
        calls.append(images)
        return orbit(images, conjugators)

    monkeypatch.setattr(quotients, "_orbit", counting)
    return calls


# g conjugates a^-60, trivial in every S_n with n <= 5: a separate-scan job
SCAN_G, SCAN_FACTORS = "a b^-1 a^-60 b a^-1", ("b^-1 a^-1 b^-1", "b^-1 a^-1 b^-1")


class TestStageMemo:
    """Each exhaustive stage's representatives are read from one lazy
    process-wide memo, which yields what the tried-set loop tried."""

    @pytest.mark.parametrize("rank,n_max", [(2, 6), (3, 5)])
    def test_memo_is_the_tried_set_loop(self, rank, n_max):
        _stage.cache_clear()
        for key in _stage_keys(rank, n_max):
            stage = _stage(*key)
            head = list(itertools.islice(iter(stage), 3))  # a partial read first
            got = list(stage)
            assert got[:3] == head
            assert [images for images, _ in got] == list(
                reference_first_of_orbits(*_stage_source(*key)))
            assert all(signed == _signed_images(images) for images, signed in got)

    def test_second_scan_search_closes_no_orbit(self, fab, monkeypatch):
        target = RationalSubset(fab, (), tuple((w(f, fab),) for f in SCAN_FACTORS))
        g = w(SCAN_G, fab)
        assert find_separating_quotient(g, target, n_max=5) is None
        calls = _count_orbits(monkeypatch)
        assert find_separating_quotient(g, target, n_max=5) is None
        assert calls == []

    def test_cold_search_reads_only_what_it_needs(self, fab, monkeypatch):
        # b a b^-1 meets <a> in every image in S_2 and is separated in S_3
        target = RationalSubset(fab, (), ((w("a", fab),),))
        g = w("b a b^-1", fab)
        for n in (2, 3, 4):
            _conjugacy_classes(n)
        calls = _count_orbits(monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(quotients, "_stage", lambda *key: (
                (images, _signed_images(images))
                for images in reference_first_of_orbits(*_stage_source(*key))))
            expected = find_separating_quotient(g, target, n_max=6)
        parent_calls = len(calls)
        del calls[:]
        _stage.cache_clear()
        q = find_separating_quotient(g, target, n_max=6)
        assert (q.degree, q.gen_images) == (expected.degree, expected.gen_images)
        assert q.degree == 3
        assert len(calls) <= parent_calls
        # only the stages of S_2 and S_3 are built: none of S_4, S_5 or the block sums
        assert _stage.cache_info().currsize <= len(_conjugacy_classes(2)) + len(_conjugacy_classes(3))

    def test_dead_source_is_rebuilt(self, monkeypatch):
        # an exception inside a stage's source drops the memo: no stage is left cut short
        key = (2, (3,), 0)
        _conjugacy_classes(3)
        _stage.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(quotients, "_orbit", mock.Mock(side_effect=KeyboardInterrupt))
            with pytest.raises(KeyboardInterrupt):
                list(_stage(*key))
        assert [images for images, _ in _stage(*key)] == list(
            reference_first_of_orbits(*_stage_source(*key)))


class TestProductMember:
    def test_spec_examples(self, fab):
        A = (w("a", fab),)
        B = (w("b", fab),)
        assert product_member(w("a b", fab), [A, B], fab)
        assert not product_member(w("b a", fab), [A, B], fab)
        assert not product_member(w("a b a b", fab), [A, B], fab)

    def test_with_cancellation(self, fab):
        # a^2 b^-1 . b a^2 = a^2 a^2 requires cancellation across factors
        H1 = (w("a a b^-1", fab),)
        H2 = (w("b a a", fab),)
        assert product_member(w("a a a a", fab), [H1, H2], fab)

    def test_nonempty_g0_examples(self, fab):
        b_a = RationalSubset(fab, w("b", fab), ((w("a", fab),),))
        assert b_a.contains(w("b a a a", fab)) and b_a.contains(w("b", fab))
        assert not b_a.contains(w("a b", fab)) and not b_a.contains(())
        # a^-1 . (a b)^k: the line for g0 cancels into the graph
        line = RationalSubset(fab, w("a^-1", fab), ((w("a b", fab),), (w("b", fab),)))
        assert line.contains(w("b b b", fab)) and line.contains(w("a^-1", fab))
        assert not line.contains(w("a", fab))
        lone = RationalSubset(fab, w("a b^-1", fab), ())
        assert lone.contains(w("a b^-1", fab)) and not lone.contains(())

    def test_nonempty_g0_against_translate(self, fab):
        # g lies in g0 H_1 ... H_s exactly when g0^-1 g lies in H_1 ... H_s
        rng = random.Random(61)
        ball = build_ball(fab, 4).elements
        gen_words = ["a", "b", "a a", "b b", "a b", "b a^-1", "a b a^-1"]
        for trial in range(60):
            factor_gens = tuple(
                tuple(w(x, fab) for x in rng.sample(gen_words, rng.randint(1, 2)))
                for _ in range(rng.randint(0, 2))
            )
            g0 = rng.choice(ball[1:])
            subset = RationalSubset(fab, g0, factor_gens)
            for g in rng.sample(ball, 20) + [g0]:
                expected = product_member(fab.mul(fab.inv(g0), g), factor_gens, fab)
                assert subset.contains(g) == expected, (trial, g0, g, factor_gens)

    def test_against_brute_force(self, fab):
        from relhyp.separability import membership_oracle

        rng = random.Random(59)
        ball = build_ball(fab, 5)
        gen_words = ["a", "b", "a a", "b b", "a b", "b a^-1", "a b a^-1"]
        for trial in range(60):
            s = rng.randint(1, 3)
            factor_gens = [
                tuple(w(x, fab) for x in rng.sample(gen_words, rng.randint(1, 2)))
                for _ in range(s)
            ]
            g = rng.choice(ball.elements)
            fast = product_member(g, factor_gens, fab)
            oracles = [membership_oracle(fab, fg) for fg in factor_gens]
            slow = brute_product_member(g, oracles, fab, 5)
            if fast and not slow:
                slow = brute_product_member(g, oracles, fab, 8)
            assert fast == slow, (trial, g, factor_gens)


class TestSeparation:
    def test_parity_example(self, fab):
        target = RationalSubset(fab, (), ((w("a a", fab), w("b", fab)),))
        q = find_separating_quotient(w("a", fab), target)
        assert q is not None and q.degree == 2
        assert verify_separation(q, w("a", fab), target)

    def test_double_coset_example(self, fab):
        target = RationalSubset(fab, (), ((w("a", fab),), (w("b", fab),)))
        q = find_separating_quotient(w("b a", fab), target)
        assert q is not None and q.degree <= 3
        assert verify_separation(q, w("b a", fab), target)

    def test_member_rejected(self, fab):
        target = RationalSubset(fab, (), ((w("a", fab),),))
        with pytest.raises(ValueError):
            find_separating_quotient(w("a", fab), target)

    def test_trivial_probe_closes_no_image(self, fab, monkeypatch):
        # every element order in S_2..S_5 divides 60, so a^60 maps to 1 = the
        # image of the empty g0 in every candidate: none can separate it, and
        # none closes an image subgroup
        from relhyp.separability import quotients

        calls = []
        closure = quotients.subgroup_closure

        def counted(*args, **kwargs):
            calls.append(args)
            return closure(*args, **kwargs)

        monkeypatch.setattr(quotients, "subgroup_closure", counted)
        target = RationalSubset(fab, (), ((w("b", fab),), (w("a b a^-1", fab),)))
        g = fab.pow(w("a", fab), 60)
        assert not target.contains(g)
        assert find_separating_quotient(g, target, n_max=5) is None
        assert calls == []

    @pytest.mark.parametrize("g0", ["", "b"])
    def test_empty_product(self, fab, g0):
        # no factors: the target is {g0}, and the sign map on a separates a
        target = RationalSubset(fab, w(g0, fab), ())
        q = find_separating_quotient(w("a", fab), target)
        assert q is not None and q.degree == 2
        assert verify_separation(q, w("a", fab), target)

    def test_random_corpus(self, fab):
        rng = random.Random(7)
        ball = build_ball(fab, 5)
        for _ in range(25):
            s = rng.randint(1, 2)
            factor_gens = tuple(
                (rng.choice(ball.elements[1:]),) for _ in range(s)
            )
            target = RationalSubset(fab, (), factor_gens)
            g = rng.choice(ball.elements)
            if target.contains(g):
                continue
            q = find_separating_quotient(g, target, seed=11)
            assert q is not None, (g, factor_gens)
            assert verify_separation(q, g, target)


class TestMinxHarness:
    @pytest.mark.parametrize("C", [0, 1, 2, 3])
    def test_cyclic_fixture(self, fab, C):
        Z = RationalSubset(fab, (), ((w("a", fab),),))
        res = minx_quotient_harness(Z, C)
        assert res.verified
        assert res.achieved_min >= C

    def test_whole_group(self, fab):
        Z = RationalSubset(fab, (), ((w("a", fab), w("b", fab)),))
        res = minx_quotient_harness(Z, 2)
        assert res.verified
        assert res.achieved_min == float("inf")

    def test_each_short_outsider_decided_once(self, fab):
        # the search's own guard decides each element shorter than C; the
        # re-verification scan decides again only those whose image lies in
        # the image of Z (here the 5 short members of Z, among 65 in all)
        Z = RationalSubset(fab, (), ((w("a a", fab), w("b b", fab)),))
        decided = []
        contains = RationalSubset.contains

        def counted(self, g):
            decided.append(g)
            return contains(self, g)

        with mock.patch.object(RationalSubset, "contains", counted):
            res = minx_quotient_harness(Z, 3)
        assert res.verified
        outsiders = [g for g in build_ball(fab, 2).elements if not Z.contains(g)]
        assert len(outsiders) == 12
        assert all(decided.count(g) == 1 for g in outsiders)
        assert len(decided) == 82

    def test_distinct_blocks_pinned_case(self, fab):
        # the pinned minx-harness-4 job: the reported quotient is the block
        # sum of every part, though only a few parts are distinct
        Z = RationalSubset(fab, (), ((w("a^-1 a^-1", fab),), (w("b^-1 b^-1", fab),)))
        res = minx_quotient_harness(Z, 4, n_max=5, seed=38)
        assert (res.quotient.degree, res.achieved_min, res.verified) == (96, 4, True)

    @pytest.mark.parametrize("C", [1, 2, 3])
    def test_distinct_blocks_decide_zn_as_the_full_sum(self, fab, C):
        # repeated blocks leave the kernel, so membership in ZN, unchanged
        Z = RationalSubset(fab, (), ((w("a^-1 a^-1", fab),), (w("b^-1 b^-1", fab),)))
        ball = build_ball(fab, C + 2)
        outsiders = [u for u in ball.elements if len(u) < C and not Z.contains(u)]
        parts = find_separating_quotients(outsiders, Z, n_max=5, seed=38)
        full = combine_quotients(fab, parts)
        distinct = combine_quotients(fab, list(dict.fromkeys(parts)))
        if C > 1:
            assert distinct.degree < full.degree
        z_full = image_of_rational_subset(full, Z)
        z_distinct = image_of_rational_subset(distinct, Z)
        for g in ball.elements:
            assert (full.image_of(g) in z_full) == (distinct.image_of(g) in z_distinct), g

    @settings(max_examples=25, deadline=None)
    @given(
        factors=st.lists(_run_word(2, 2, 2).map(reduce_letters_naive).filter(bool),
                         min_size=1, max_size=2),
        C=st.integers(1, 3),
        n_max=st.integers(4, 5),
    )
    def test_matches_per_element_reference(self, fab, factors, C, n_max):
        Z = RationalSubset(fab, (), tuple((f,) for f in factors))
        res = minx_quotient_harness(Z, C, n_max=n_max)
        got = None if res.quotient is None else (res.quotient.degree, res.quotient.gen_images)
        assert (got, res.achieved_min, res.verified) == reference_minx_harness(Z, C, n_max)


class TestAmalgamOps:
    def test_reduce_examples(self, amalgam46):
        A = amalgam46
        assert amalgam_reduce([(0, 2), (1, 3)], A).length == 0
        assert amalgam_reduce([(0, 1), (1, 1)], A).length == 2
        assert amalgam_reduce([(1, 1), (0, 1), (1, 1)], A).length == 3

    def test_reduce_against_rewriting_oracle(self, amalgam46):
        from conftest import amalgam_word_classes

        A = amalgam46
        words, index, find = amalgam_word_classes(A, 3)
        by_class = {}
        for word in words:
            nf = amalgam_reduce(word, A)
            by_class.setdefault(find(index[word]), set()).add(nf.syllables)
        for nfs in by_class.values():
            assert len(nfs) == 1

    def test_bc_membership_spec_examples(self, amalgam46):
        A = amalgam46
        assert amalgam_product_member(w("b c", A), "BC", A)
        assert not amalgam_product_member(w("c b", A), "BC", A)
        assert not amalgam_product_member(w("c b c", A), "BC", A)
        assert amalgam_product_member(A.identity(), "BC", A)

    def test_bc_against_enumeration(self, amalgam46):
        A = amalgam46
        bc_set = set()
        for b in range(4):
            for c in range(6):
                bc_set.add(A.mul(A.embed(0, b), A.embed(1, c)))
        for g in build_ball(A, 4).elements:
            assert amalgam_product_member(g, "BC", A) == (g in bc_set)

    def test_uc_and_ud(self, amalgam46):
        A = amalgam46
        U = [A.embed(0, 1)]  # just the element b
        uc = set()
        for c in range(6):
            uc.add(A.mul(U[0], A.embed(1, c)))
        for g in build_ball(A, 3).elements:
            assert amalgam_product_member(g, "UC", A, U=U) == (g in uc)
        ud = {A.mul(U[0], A.embed(0, d)) for d in (0, 2)}
        for g in build_ball(A, 2).elements:
            assert amalgam_product_member(g, "UD", A, U=U) == (g in ud)

    def test_bv_mirror(self, amalgam46):
        A = amalgam46
        V = [A.embed(1, 2)]  # c^2
        bv = set()
        for b in range(4):
            bv.add(A.mul(A.embed(0, b), V[0]))
        for g in build_ball(A, 3).elements:
            assert amalgam_product_member(g, "BV", A, V=V) == (g in bv)

    @pytest.mark.parametrize(
        "kind",
        [
            "UC",
            pytest.param(
                "BV",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="BV answers False for every g in B \\ D, even when V meets D,"
                    " though g = (g v^-1) v lies in B V for v in V n D; the fix"
                    " changes the pinned amalgam-member:70 report",
                ),
            ),
            "BC",
            "UD",
            "DV",
        ],
    )
    def test_against_brute_force_products(self, amalgam46, kind):
        """Every kind against its product set, enumerated, over the radius-3
        ball and every U, V of at most two factor elements (edge elements
        included)."""
        A = amalgam46
        B = [A.embed(0, b) for b in range(4)]
        C = [A.embed(1, c) for c in range(6)]
        D = [A.embed(0, d) for d in (0, 2)]
        ball = build_ball(A, 3).elements
        wrong = []
        for U, V in itertools.product(
            [u for k in range(3) for u in itertools.combinations(B, k)],
            [v for k in range(3) for v in itertools.combinations(C, k)],
        ):
            X, Y = {"UC": (U, C), "BV": (B, V), "BC": (B, C), "UD": (U, D), "DV": (D, V)}[kind]
            product = {A.mul(x, y) for x in X for y in Y}
            for g in ball:
                if amalgam_product_member(g, kind, A, U, V) != (g in product):
                    wrong.append((g, U, V))
        assert not wrong, "%d wrong answers, the first %r" % (len(wrong), wrong[0])


class TestInducedQuotient:
    def test_identity_quotients(self, amalgam46):
        A = amalgam46
        pb = FiniteQuotient(A.left, 4, ((1, 2, 3, 0),))
        pc = FiniteQuotient(A.right, 6, ((1, 2, 3, 4, 5, 0),))
        iq = induced_quotient(pb, pc, A)
        g = w("c b c", A)
        assert len(iq.apply(g)) == 3  # faithful on factors: length preserved

    def test_trivial_quotients_compatible(self, amalgam46):
        A = amalgam46
        pb = FiniteQuotient(A.left, 1, ((0,),))
        pc = FiniteQuotient(A.right, 1, ((0,),))
        iq = induced_quotient(pb, pc, A)
        assert iq.apply(w("b c b", A)) == iq.image.identity()

    def test_incompatible_rejected(self, amalgam46):
        A = amalgam46
        pb = FiniteQuotient(A.left, 2, ((1, 0),))  # kills b^2
        pc = FiniteQuotient(A.right, 2, ((1, 0),))  # keeps c^3
        with pytest.raises(DIncompatibleError):
            induced_quotient(pb, pc, A)

    def test_reduced_image_of_reduced_form(self, amalgam46):
        # syllable images outside the image edge subgroup keep the length
        A = amalgam46
        pb = FiniteQuotient(A.left, 4, ((1, 2, 3, 0),))
        pc = FiniteQuotient(A.right, 6, ((1, 2, 3, 4, 5, 0),))
        iq = induced_quotient(pb, pc, A)
        for word in [[(1, 1), (0, 1), (1, 1)], [(0, 1), (1, 1), (0, 3), (1, 2)]]:
            g = amalgam_reduce(word, A).syllables
            assert len(iq.apply(g)) == len(g)

    def test_corpus_rejects_exactly_incompatible(self, amalgam46):
        A = amalgam46
        rng = random.Random(13)
        degrees = [1, 2, 3, 4, 6]
        pairs = 0
        while pairs < 50:
            nb = rng.choice(degrees)
            nc = rng.choice(degrees)
            pb_img = _random_power_perm(rng, nb, order_divides=4)
            pc_img = _random_power_perm(rng, nc, order_divides=6)
            if pb_img is None or pc_img is None:
                continue
            pb = FiniteQuotient(A.left, nb, (pb_img,))
            pc = FiniteQuotient(A.right, nc, (pc_img,))
            # independent compatibility check, straight from the pairing
            img = {}
            ok = True
            rev = {}
            for dl, dr in A.edge:
                l, r = pb.image_of(dl), pc.image_of(dr)
                if img.setdefault(l, r) != r or rev.setdefault(r, l) != l:
                    ok = False
            raised = False
            try:
                induced_quotient(pb, pc, A)
            except DIncompatibleError:
                raised = True
            assert raised == (not ok)
            pairs += 1


def _random_power_perm(rng, n, order_divides):
    """A random permutation of order dividing the given number, or None."""
    for _ in range(30):
        pool = list(range(n))
        rng.shuffle(pool)
        p = tuple(pool)
        q = tuple(range(n))
        order = 1
        cur = p
        while cur != q:
            from relhyp.separability import perm_mul

            cur = perm_mul(cur, p)
            order += 1
            if order > 12:
                break
        if order <= 12 and order_divides % order == 0:
            return p
    return None
