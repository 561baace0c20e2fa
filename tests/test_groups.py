import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relhyp import (
    Amalgam,
    FamilyMismatchError,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    cyclic_group,
    mul,
    syllables,
    word_to_elem,
)
from relhyp.cayley import build_ball, word_metric_view
from relhyp.errors import BudgetExceededError
from relhyp.groups import FiniteGroup, GroupSpec, bfs, bfs_tree, letter, validate_elem
from relhyp.separability import membership_oracle
from relhyp.separability.quotients import perm_mul, subgroup_closure

from conftest import (
    amalgam_word_classes,
    fixpoint_closure,
    fixpoint_lengths,
    random_free_letters,
    reduce_letters_naive,
    reference_amalgam_normalize,
    reference_bfs_parents,
    reference_free_product_reduce,
    reference_word_to_elem,
    signed_letters,
)

w = word_to_elem


class TestFreeGroup:
    def test_inverse_axiom(self, fab):
        a = w("a", fab)
        assert mul(a, fab.inv(a), fab) == fab.identity()

    def test_free_reduction_example(self, fab):
        # mul(ab, b^-1 a) = aa, by the hand reduction oracle
        left = w("a b", fab)
        right = w("b^-1 a", fab)
        (a,), (b,) = w("a", fab), w("b", fab)
        expected = reduce_letters_naive((a, b, -b, a))
        assert fab.mul(left, right) == expected == (a, a)

    def test_word_parsing(self, fab):
        assert w("", fab) == fab.identity()
        (a,), (b,) = w("a", fab), w("b", fab)
        assert w("a b b^-1", fab) == reduce_letters_naive((a, b, -b)) == (a,)
        with pytest.raises(FamilyMismatchError):
            w("z", fab)

    def test_family_mismatch(self, fab, z2):
        with pytest.raises(FamilyMismatchError):
            mul(w("a", fab), (1, 0), fab)  # an exponent vector is not a word
        with pytest.raises(FamilyMismatchError):
            mul((1, 0), w("x", z2), fab)
        with pytest.raises(FamilyMismatchError):
            mul((letter(fab.rank),), w("a", fab), fab)  # letter index out of range

    def test_relhyp_is_not_a_family(self, fab, fab_rel_a):
        # a RelHyp has no arithmetic of its own: the wrappers refuse it
        # instead of failing on a missing method
        a = w("a", fab)
        with pytest.raises(FamilyMismatchError):
            mul(a, a, fab_rel_a.group)
        assert mul(a, a, fab_rel_a.group.base) == w("a a", fab)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_normal_form_soundness(self, data, fab):
        # word_to_elem(u v) == mul(word_to_elem(u), word_to_elem(v)), through
        # the junction test and the cancelling loop both
        reduced = st.lists(
            st.sampled_from(signed_letters(2)), min_size=0, max_size=12
        ).map(reduce_letters_naive)
        a = data.draw(reduced)
        k = data.draw(st.integers(0, len(a)))
        b = data.draw(
            st.one_of(
                reduced,  # empty, or cancelling at random
                st.just(fab.inv(a)),  # full cancellation
                reduced.map(lambda t: reduce_letters_naive(fab.inv(a[k:]) + t)),
            )
        )
        assert fab.mul(a, b) == reduce_letters_naive(a + b)

    def test_inverse_law_on_ball(self, fab):
        for g in build_ball(fab, 4).elements:
            assert fab.mul(g, fab.inv(g)) == fab.identity()


class TestLetterCodes:
    """Generator i is coded letter(i) = i + 2 and its inverse -letter(i): no
    code is -1, and in CPython hash(-1) == hash(-2), so the old codes +-(i+1)
    gave every word over {a^-1, b^-1} of one length the same hash."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_letter_hashes_are_distinct(self, rank):
        codes = [x for (x,) in FreeGroup(tuple("abc"[:rank])).letters()]
        assert len(set(map(hash, codes))) == len(codes) == 2 * rank

    @pytest.mark.parametrize("rank,radius", [(2, 8), (3, 6)])
    def test_ball_hashes_are_distinct(self, rank, radius):
        ball = build_ball(FreeGroup(tuple("abc"[:rank])), radius)
        assert len(set(map(hash, ball.elements))) == len(ball.elements)

    def test_validate_rejects_zero_and_unit_codes(self, fab):
        for x in (0, 1, -1):
            with pytest.raises(FamilyMismatchError):
                validate_elem((x,), fab)
        validate_elem((letter(0), -letter(1)), fab)

    @settings(max_examples=200, deadline=None)
    @given(rank=st.integers(1, 3), data=st.data())
    def test_word_round_trip(self, rank, data):
        F = FreeGroup(tuple("abc"[:rank]))
        tokens = data.draw(st.lists(
            st.tuples(st.integers(0, rank - 1), st.integers(-3, 3)), max_size=8))
        word = " ".join("%s^%d" % (F.symbols[i], e) for i, e in tokens)
        g = w(word, F)
        letters = [letter(i) if e > 0 else -letter(i) for i, e in tokens for _ in range(abs(e))]
        assert g == reduce_letters_naive(letters)
        validate_elem(g, F)
        assert w(F.elem_str(g), F) == g

class TestFreeAbelian:
    def test_arithmetic(self, z2):
        x3 = w("x x x", z2)
        assert x3 == (3, 0)
        assert z2.mul(x3, z2.inv(x3)) == (0, 0)
        assert z2.x_length(w("x x y^-1", z2)) == 3

    def test_inverse_law_on_ball(self, z2):
        for g in build_ball(z2, 4).elements:
            assert z2.mul(g, z2.inv(g)) == z2.identity()


class TestFiniteGroup:
    def test_cyclic(self):
        C = cyclic_group(6, "c")
        C.spot_check()
        c = w("c", C)
        assert C.pow(c, 6) == C.identity()
        assert C.x_length(C.pow(c, 3)) == 3
        assert C.inv(c) == 5

    def test_bad_table_rejected(self):
        from relhyp.groups import FiniteGroup

        bad = FiniteGroup(table=((0, 1), (1, 1)), identity_index=0)
        with pytest.raises(ValueError):
            bad.spot_check()


class TestFreeProduct:
    def test_syllable_merge(self, z2z):
        # x . y . t . x has syllables [(A, x+y), (B, t), (A, x)]
        G = z2z.group.base
        g = w("x y t x", G)
        assert syllables(g, G) == [(0, (1, 1)), (1, (1,)), (0, (1, 0))]
        assert syllables(G.identity(), G) == []

    def test_cancellation_across_syllables(self, z2z):
        G = z2z.group.base
        g = G.mul(w("x t", G), w("t^-1 x", G))
        assert syllables(g, G) == [(0, (2, 0))]

    def test_x_length(self, z2z):
        G = z2z.group.base
        assert G.x_length(w("x y t x", G)) == 4

    def test_identity_generator_is_the_identity(self):
        # letters are right operands of mul, which must be normal forms
        C = cyclic_group(3, "u")
        G = FreeProduct((FiniteGroup(C.table, 0, C.names, gens=(0, 1)), FreeAbelian(("t",))))
        for g in G.letters():
            validate_elem(g, G)
        assert G.mul(G.identity(), G.letters()[0]) == G.identity()

    def test_trivial_syllable_rejected(self, z2z):
        # equal elements have equal payloads: the identity's payload is ()
        G = z2z.group.base
        with pytest.raises(FamilyMismatchError):
            mul(((0, (0, 0)),), G.identity(), G)


class TestAmalgam:
    def test_edge_identification(self, amalgam46):
        A = amalgam46
        assert A.mul(w("b b", A), w("c c c", A)) == A.identity()

    def test_reduced_forms(self, amalgam46):
        A = amalgam46
        bc = w("b c", A)
        assert len(bc) == 2 and A.x_length(bc) == 2
        cbc = w("c b c", A)
        assert [s for s, _ in syllables(cbc, A)] == [1, 0, 1]
        # an edge element is a single left-side syllable
        d = w("b b", A)
        assert len(d) == 1 and d[0][0] == 0

    def test_rebracketing_invariance(self, amalgam46):
        A = amalgam46
        rng = random.Random(5)
        elems = [A.embed(s, x) for s in (0, 1) for x in A._sides[s].all_elements()]
        for _ in range(200):
            u, v, t = (rng.choice(elems) for _ in range(3))
            assert A.mul(u, A.mul(v, t)) == A.mul(A.mul(u, v), t)

    def test_inverse_law(self, amalgam46):
        A = amalgam46
        for g in build_ball(A, 3).elements:
            assert A.mul(g, A.inv(g)) == A.identity()

    def test_normal_form_against_rewriting_oracle(self, amalgam46):
        # same union-find class <=> same reduced form, on all short words
        A = amalgam46
        words, index, find = amalgam_word_classes(A, 3)
        reduced = []
        for word in words:
            g = A.identity()
            for side, x in word:
                g = A.mul(g, A.embed(side, x))
            reduced.append(g)
        cls_of_nf = {}
        for i, word in enumerate(words):
            root = find(i)
            nf = reduced[i]
            assert cls_of_nf.setdefault(root, nf) == nf, "class with two normal forms"
        # distinct classes never share a normal form
        seen = {}
        for root, nf in cls_of_nf.items():
            assert seen.setdefault(nf, root) == root, "normal form in two classes"

    def test_validate_rejects_non_normal_forms(self, amalgam46):
        # c^3 is the edge element b^2, stored on the left; b b is one syllable
        A = amalgam46
        for bad in (((1, 3),), ((0, 1), (0, 1))):
            with pytest.raises(FamilyMismatchError):
                mul(bad, A.identity(), A)
        assert mul(((0, 2),), ((0, 2),), A) == A.identity()

    def test_bad_edge_rejected(self):
        B = cyclic_group(4, "b")
        C = cyclic_group(6, "c")
        with pytest.raises(ValueError):
            Amalgam(B, C, ((0, 0), (1, 3))).spot_check()  # b has order 4, c^3 order 2

    def test_trivial_edge_group_stores_no_coset_reps(self):
        # over D = {1} a syllable is its own coset representative
        A = Amalgam(FreeAbelian(("x", "y")), cyclic_group(5, "c"), (((0, 0), 0),))
        rng = random.Random(11)
        g = A.identity()
        for _ in range(2000):
            if rng.random() < 0.5:
                h = A.embed(0, (rng.randint(-9, 9), rng.randint(-9, 9)))
            else:
                h = A.embed(1, rng.randrange(5))
            g = A.mul(g, h)
        assert not A.__dict__.get("_memo__coset_rep")
        # over a nontrivial D the same memo is filled
        B = cyclic_amalgam(4, 6, 2)
        B.mul(B.embed(0, 1), B.embed(1, 1))
        assert B.__dict__.get("_memo__coset_rep")

    def test_coset_memo_bounded_over_an_infinite_factor(self):
        # (Z/2 * Z) *_{Z/2} Z/4: a representative over the infinite left
        # factor is computed each time; only those over Z/4 are memoised
        L = FreeProduct((cyclic_group(2, "s"), FreeGroup(("t",))))
        (_, s), (_, t) = L.generator_elems()
        A = Amalgam(L, cyclic_group(4, "c"), ((L.identity(), 0), (s, 2)))
        A.spot_check()
        rng = random.Random(5)
        g = A.identity()
        for _ in range(20000):
            if rng.random() < 0.5:
                x = L.pow(t, rng.randint(-5, 5))
                h = A.embed(0, L.mul(x, s) if rng.random() < 0.5 else x)
            else:
                h = A.embed(1, rng.randrange(4))
            g = A.mul(g, h)
        assert len(g) > 1000
        assert len(A.__dict__.get("_memo__coset_rep", {})) <= 4


def cyclic_amalgam(m, n, d):
    """Z/m *_{Z/d} Z/n, with b^(m/d) identified with c^(n/d)."""
    edge = tuple((k * (m // d), k * (n // d)) for k in range(d))
    return Amalgam(cyclic_group(m, "b"), cyclic_group(n, "c"), edge)


NF_AMALGAMS = {
    "Z/4*Z/6": cyclic_amalgam(4, 6, 2),  # the amalgam46 fixture
    "Z/60*Z/45": cyclic_amalgam(60, 45, 15),
    "Z/6*Z/9": cyclic_amalgam(6, 9, 3),
    "Z2*Z/5": Amalgam(FreeAbelian(("x", "y")), cyclic_group(5, "c"), (((0, 0), 0),)),
}


def syllable_lists(A):
    """Syllables of either factor, edge elements (the identity too) often."""

    def syllable(side):
        fac = A._sides[side]
        if isinstance(fac, FreeAbelian):
            anything = st.tuples(*[st.integers(-2, 2)] * fac.rank)
        else:
            anything = st.integers(0, fac.order - 1)
        in_d = st.sampled_from(sorted(A.d_sets()[side]))
        return st.tuples(st.just(side), st.one_of(in_d, anything))

    return st.lists(st.one_of(syllable(0), syllable(1)), max_size=10).map(tuple)


class TestAmalgamNormalForm:
    """The one-pass ``_normalize`` and what rests on it, against the two-pass
    reference."""

    @pytest.mark.parametrize("name", list(NF_AMALGAMS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_two_pass_reference(self, name, data):
        A = NF_AMALGAMS[name]
        sylls = data.draw(syllable_lists(A))
        nf = reference_amalgam_normalize(A, sylls)
        assert A._normalize(sylls) == nf
        k = data.draw(st.integers(0, len(sylls)))
        a = reference_amalgam_normalize(A, sylls[:k])
        b = reference_amalgam_normalize(A, sylls[k:])
        assert A.mul(a, b) == nf
        inverse = tuple((s, A._sides[s].inv(x)) for s, x in reversed(sylls))
        assert A.inv(nf) == reference_amalgam_normalize(A, inverse)
        for s, x in sylls:
            assert A.embed(s, x) == reference_amalgam_normalize(A, ((s, x),))
        # validate_elem accepts exactly the normal forms
        validate_elem(nf, A)
        if sylls != nf:
            with pytest.raises(FamilyMismatchError):
                validate_elem(sylls, A)


NF_FREE_PRODUCTS = {
    "Z2*Z": FreeProduct((FreeAbelian(("x", "y")), FreeAbelian(("t",)))),
    "Z/4*Z/6": FreeProduct((cyclic_group(4, "b"), cyclic_group(6, "c"))),
    "C3*Z*F2": FreeProduct(
        (cyclic_group(3, "u"), FreeAbelian(("t",)), FreeGroup(("p", "q")))
    ),
}


def free_product_syllable_lists(G):
    """Syllables of any factor, the identity and same-factor neighbours often."""

    def syllable(idx):
        fac = G.factors[idx]
        if isinstance(fac, FreeAbelian):
            anything = st.tuples(*[st.integers(-1, 1)] * fac.rank)
        elif isinstance(fac, FreeGroup):
            letters = st.sampled_from(signed_letters(fac.rank))
            anything = st.lists(letters, max_size=3).map(reduce_letters_naive)
        else:
            anything = st.integers(0, fac.order - 1)
        return st.tuples(st.just(idx), st.one_of(st.just(fac.identity()), anything))

    factor = st.sampled_from(range(len(G.factors)))
    # a run of syllables from one factor, so neighbours often share it
    runs = factor.flatmap(lambda idx: st.lists(syllable(idx), min_size=1, max_size=3))
    return st.lists(runs, max_size=5).map(lambda rs: tuple(s for r in rs for s in r))


class TestFreeProductNormalForm:
    """The junction loop of ``FreeProduct.mul`` against the push reference."""

    @pytest.mark.parametrize("name", list(NF_FREE_PRODUCTS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_push_reference(self, name, data):
        G = NF_FREE_PRODUCTS[name]

        def inverse(sylls):
            return tuple((i, G.factors[i].inv(x)) for i, x in reversed(sylls))

        head = data.draw(free_product_syllable_lists(G))
        # head, the inverse of a tail of head, then anything: split after
        # head, cancellation cascades across the junction
        m = data.draw(st.integers(0, len(head)))
        sylls = head + inverse(head[m:]) + data.draw(free_product_syllable_lists(G))
        nf = reference_free_product_reduce(G, sylls)
        k = data.draw(st.one_of(st.just(len(head)), st.integers(0, len(sylls))))
        a = reference_free_product_reduce(G, sylls[:k])
        b = reference_free_product_reduce(G, sylls[k:])
        assert G.mul(a, b) == nf
        assert G.inv(nf) == reference_free_product_reduce(G, inverse(sylls))
        # validate_elem accepts exactly the normal forms
        validate_elem(nf, G)
        if sylls != nf:
            with pytest.raises(FamilyMismatchError):
                validate_elem(sylls, G)


def symmetric_group(n):
    """S_n as a multiplication table, its elements in lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[perm_mul(p, q)] for q in perms) for p in perms)
    return FiniteGroup(table=table, identity_index=index[tuple(range(n))])


S3, S4 = symmetric_group(3), symmetric_group(4)
perms_of = st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=3))
)
finite_with_gens = st.sampled_from(
    [cyclic_group(n) for n in (1, 2, 5, 12)] + [S3, S4]
).flatmap(lambda G: st.tuples(
    st.just(G), st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3)))


INFINITE_BALL_GROUPS = {
    "F2": FreeGroup(("a", "b")),
    "Z2": FreeAbelian(("x", "y")),
    "Z2*Z": FreeProduct((FreeAbelian(("x", "y")), FreeAbelian(("t",)))),
}


class TestBreadthFirstKernel:
    """``groups.bfs`` through each of its callers, against set-product fixpoints."""

    @settings(max_examples=150, deadline=None)
    @given(perms_of)
    def test_subgroup_closure(self, case):
        n, gens = case
        gens = [tuple(p) for p in gens]
        expected = fixpoint_closure(gens, perm_mul, tuple(range(n)))
        assert subgroup_closure(gens, n) == expected

    @settings(max_examples=150, deadline=None)
    @given(finite_with_gens)
    def test_finite_membership_oracle(self, case):
        G, gens = case
        closure = fixpoint_closure(gens, G.mul, G.identity())
        oracle = membership_oracle(G, gens)
        assert {g for g in range(G.order) if oracle(g)} == closure

    @settings(max_examples=150, deadline=None)
    @given(finite_with_gens)
    def test_finite_x_length_and_letter_path(self, case):
        G, gens = case
        G = FiniteGroup(G.table, G.identity_index, gens=tuple(gens))
        letters = set(gens) | {G.inv(g) for g in gens}
        lengths = fixpoint_lengths(letters, G.mul, G.identity())
        if len(lengths) < G.order:
            with pytest.raises(ValueError):
                G.x_length(G.identity())
            return
        for x in range(G.order):
            assert G.x_length(x) == lengths[x]
            path = G.geodesic_word(x)
            assert all(g in letters for g in path)
            assert len(path) == lengths[x]
            prod = G.identity()
            for g in path:
                prod = G.mul(prod, g)
            assert prod == x

    @pytest.mark.parametrize("rank,radius", [(1, 5), (2, 4), (3, 3)])
    def test_free_ball_is_every_reduced_word(self, rank, radius):
        F = FreeGroup(tuple("abc"[:rank]))
        words = {reduce_letters_naive(word)
                 for k in range(radius + 1)
                 for word in itertools.product(signed_letters(rank), repeat=k)}
        ball = build_ball(F, radius)
        assert len(ball.elements) == len(words) and set(ball.elements) == words
        assert all(ball.dist[g] == len(g) for g in words)

    def test_budget_and_radius(self):
        C = cyclic_group(12)
        dist = bfs(0, [1], C.mul, budget=12)
        parent = bfs_tree(dist, [1], C.mul)
        assert list(dist) == list(parent) == list(range(12))
        assert parent[0] is None and parent[5] == (4, 1)
        with pytest.raises(BudgetExceededError):
            bfs(0, [1], C.mul, budget=11)
        assert bfs(0, [1], C.mul, radius=0, budget=1) == {0: 0}
        with pytest.raises(BudgetExceededError):
            bfs(0, [1], C.mul, radius=0, budget=0)
        dist = bfs(0, [1, 11], C.mul, radius=2)
        assert dist == {0: 0, 1: 1, 11: 1, 2: 2, 10: 2}

    @pytest.mark.parametrize("name", ["F2", "Z2", "Z2*Z"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_infinite_ball_order_and_budget(self, name, data):
        # discovery order, and the budget met exactly at the ball's size
        G = INFINITE_BALL_GROUPS[name]
        letters = data.draw(st.permutations(G.letters()))
        radius = data.draw(st.integers(0, 4))
        dist, _ = reference_bfs_parents(G.identity(), letters, G.mul, radius)
        got = bfs(G.identity(), letters, G.mul, radius)
        assert list(got.items()) == list(dist.items())
        full = bfs(G.identity(), letters, G.mul, radius, budget=len(dist))
        assert list(full.items()) == list(dist.items())
        with pytest.raises(BudgetExceededError):
            bfs(G.identity(), letters, G.mul, radius, budget=len(dist) - 1)

    @settings(max_examples=150, deadline=None)
    @given(finite_with_gens, st.one_of(st.none(), st.integers(0, 3)))
    def test_bfs_tree_matches_parent_search(self, case, radius):
        # the tree rebuilt from dist is the one the parent-building search found
        G, gens = case
        letters = list(gens) + [G.inv(g) for g in gens]
        dist, parent = reference_bfs_parents(G.identity(), letters, G.mul, radius)
        got = bfs(G.identity(), letters, G.mul, radius)
        assert list(got.items()) == list(dist.items())
        assert list(bfs_tree(got, letters, G.mul).items()) == list(parent.items())


FAMILY_NAMES = ["F2", "Z2", "Z/6", "S3", "Z2*Z", "Z/4*Z/6", "amalgam46"]


def _family(name, fab, z2, amalgam46):
    return {
        "F2": fab,
        "Z2": z2,
        "Z/6": cyclic_group(6),
        "S3": S3,
        "Z2*Z": FreeProduct((FreeAbelian(("x", "y")), FreeAbelian(("t",)))),
        "Z/4*Z/6": FreeProduct((cyclic_group(4, "b"), cyclic_group(6, "c"))),
        "amalgam46": amalgam46,
    }[name]


class TestLettersAndGeodesicWords:
    """Each family's ``letters()`` and ``geodesic_word`` against BFS distances."""

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_geodesic_word_over_radius_3_ball(self, name, fab, z2, amalgam46):
        G = _family(name, fab, z2, amalgam46)
        letters = G.letters()
        ball = build_ball(G, 3)
        for x in ball.elements:
            word = G.geodesic_word(x)
            assert all(l in letters for l in word)
            prod = G.identity()
            for l in word:
                prod = G.mul(prod, l)
            assert prod == x
            assert len(word) == G.x_length(x) == ball.dist[x]

    def test_one_bfs_per_finite_group(self, monkeypatch):
        # x_length and the geodesic words of the word metric share one tree
        import relhyp.cayley as cayley_mod
        import relhyp.groups as groups_mod

        calls = []

        def counting_bfs(*args, **kwargs):
            calls.append(args[0])
            return bfs(*args, **kwargs)

        for mod in (groups_mod, cayley_mod):
            monkeypatch.setattr(mod, "bfs", counting_bfs)
        G = cyclic_group(6)
        view = word_metric_view(G)
        for x in G.all_elements():
            assert len(view.decompose(x)) == G.x_length(x)
        assert len(calls) == 1


class TestPow:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pow_is_repeated_mul(self, name, fab, z2, amalgam46, data):
        # pow squares; n-fold mul of a (or of a^-1 for n < 0) is the reference
        G = _family(name, fab, z2, amalgam46)
        a = data.draw(st.sampled_from(build_ball(G, 2).elements))
        n = data.draw(st.integers(-70, 70))
        step = a if n >= 0 else G.inv(a)
        expected = G.identity()
        for _ in range(abs(n)):
            expected = G.mul(expected, step)
        assert G.pow(a, n) == expected

    def test_amalgam_pow_agrees_with_repeated_squaring(self):
        # a one-syllable element is raised in its factor and normalized once;
        # on both amalgams of the pinned jobs it is GroupSpec.pow, n in [-70, 70]
        for A in (cyclic_amalgam(4, 6, 2), cyclic_amalgam(60, 45, 15)):
            two = A.mul(A.embed(0, 1), A.embed(1, 1))
            elems = [two] + [A.embed(side, x) for side, fac in enumerate(A._sides)
                             for x in fac.all_elements() if x != fac.identity()]
            for a in elems:
                for n in range(-70, 71):
                    assert A.pow(a, n) == GroupSpec.pow(A, a, n)


class TestWordReader:
    """``word_to_elem`` parses and raises each distinct token once; it reads
    every word as the token-by-token reference does, errors included."""

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_token_loop(self, name, fab, z2, amalgam46, data):
        G = _family(name, fab, z2, amalgam46)
        syms = [s for s, _ in G.generator_elems()]
        exps = st.sampled_from(["", "^0", "^1", "^-1", "^-3", "^2", "^37", "^-60"])
        token = st.builds(str.__add__, st.sampled_from(syms), exps) | st.just("1")
        pool = data.draw(st.lists(token, min_size=1, max_size=4))  # so tokens repeat
        tokens = data.draw(st.lists(st.sampled_from(pool), max_size=12))
        if data.draw(st.booleans()):
            bad = data.draw(st.sampled_from(["q", "q^-1", "1^2", syms[0] + "^x", syms[0] + "^"]))
            tokens.insert(data.draw(st.integers(0, len(tokens))), bad)

        def outcome(read):
            try:
                return read(" ".join(tokens), G)
            except FamilyMismatchError as e:
                return "error: %s" % e

        assert outcome(word_to_elem) == outcome(reference_word_to_elem)
