import random
from collections import Counter

import pytest

from relhyp import (
    Amalgam,
    BudgetExceededError,
    FreeGroup,
    FreeProduct,
    PeripheralSpec,
    RelHyp,
    cyclic_group,
    word_to_elem,
)
from relhyp import cayley
from relhyp.cayley import (
    BrokenLine,
    EdgePath,
    build_ball,
    relative_view,
    word_metric_view,
)
from relhyp.components import find_components, is_without_backtracking
from relhyp.groups import FreeAbelian, GroupSpec, bfs

from conftest import reference_coset_key, reference_dist

w = word_to_elem


def coned_bfs_oracle(view, domain_radius):
    """Truncated coned-graph BFS distances, independent of RelGraphView.dist.

    Vertices: the X-ball of the given radius.  Edges: X-edges plus every
    peripheral edge between domain vertices.
    """
    from collections import deque

    G = view.group
    ball = build_ball(G.base, domain_radius)
    elems = list(ball.elements)
    index = {g: i for i, g in enumerate(elems)}
    adj = [[] for _ in elems]
    letters = G.base.letters()
    for g in elems:
        for l in letters:
            h = G.base.mul(g, l)
            if h in index:
                adj[index[g]].append(index[h])
    # peripheral edges: group domain vertices by coset
    for p in G.peripherals:
        cosets = {}
        for g in elems:
            cosets.setdefault(reference_coset_key(G, p.nu, g), []).append(index[g])
        for members in cosets.values():
            for i in members:
                for j in members:
                    if i != j:
                        adj[i].append(j)

    def dist_from(src):
        d = {src: 0}
        q = deque([src])
        while q:
            v = q.popleft()
            for u in adj[v]:
                if u not in d:
                    d[u] = d[v] + 1
                    q.append(u)
        return d

    return elems, index, dist_from


class TestBall:
    def test_fab_radius_1(self, fab):
        assert len(build_ball(fab, 1)) == 5

    def test_radius_0(self, fab):
        assert len(build_ball(fab, 0)) == 1

    def test_z2_radius_2(self, z2):
        assert len(build_ball(z2, 2)) == 13

    def test_bfs_distance_matches_x_length(self, fab, z2):
        for G in (fab, z2):
            ball = build_ball(G, 4)
            for g in ball.elements:
                assert ball.dist[g] == G.x_length(g)

    def test_budget(self, fab):
        with pytest.raises(BudgetExceededError):
            build_ball(fab, 8, budget=100)

    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_free_ball_is_bfs_item_for_item(self, rank):
        # the tree walk gives the generic kernel's dist: same order, same distances
        F = FreeGroup(("a", "b", "c")[:rank])
        for r in range(8):
            ref = bfs(F.identity(), F.letters(), F.mul, r)
            ball = build_ball(F, r)
            assert ball.sizes == tuple(Counter(ref.values()).values())
            assert ball.elements == tuple(ref)
            assert list(ball.dist.items()) == list(ref.items())

    def test_levels_and_lazy_dist_are_bfs_item_for_item(self, fab, z2, z2z):
        # Z/4 is its own radius-2 ball: at radius 6 the levels stop at 2
        shapes = [(fab, r) for r in range(6)] + [
            (FreeGroup(("a", "b", "c")), 3), (z2, 2), (z2z.group.base, 2),
            (cyclic_group(4, "b"), 6),
        ]
        for G, r in shapes:
            ref = bfs(G.identity(), G.letters(), G.mul, r)
            ball = build_ball(G, r)
            assert ball.elements == tuple(ref)
            top = max(ref.values())
            assert ball.sizes == tuple(list(ref.values()).count(d) for d in range(top + 1))
            assert ball.max_distance == top
            assert "dist" not in ball.__dict__
            assert list(ball.dist.items()) == list(ref.items())
        assert build_ball(cyclic_group(4, "b"), 6).max_distance == 2

    def test_free_ball_builds_dist_on_first_read(self, fab):
        # a free ball is its closed-form level sizes: no word is built at build
        ball = build_ball(fab, 9)
        assert "elements" not in ball.__dict__ and "dist" not in ball.__dict__
        assert ball.sizes == (1,) + tuple(4 * 3 ** (d - 1) for d in range(1, 10))
        assert (len(ball), ball.max_distance) == (39365, 9)
        assert "elements" not in ball.__dict__
        assert ball.dist is ball.__dict__["dist"]
        assert ball.elements is ball.__dict__["elements"]
        assert len(ball.dist) == len(ball.elements) == len(ball)

    def test_other_balls_fill_elements_from_one_bfs(self, monkeypatch, z2, z2z):
        calls = []

        def counted(*args):
            calls.append(args)
            return bfs(*args)

        monkeypatch.setattr(cayley, "bfs", counted)
        # Z/4 is its own radius-2 ball: at radius 6 the levels stop at 2
        for G, r in ((z2, 3), (z2z.group.base, 3), (cyclic_group(4, "b"), 6)):
            del calls[:]
            ball = build_ball(G, r)
            assert len(calls) == 1
            assert ball.__dict__["elements"] == tuple(bfs(G.identity(), G.letters(), G.mul, r))
            assert len(ball.dist) == len(ball)
            assert len(calls) == 1

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_free_ball_budget_is_bfs_budget(self, rank):
        # raised exactly when bfs raises, with its message, although the free
        # ball checks the exact size before it builds anything
        F = FreeGroup(("a", "b", "c")[:rank])

        def error(build):
            try:
                build()
            except BudgetExceededError as e:
                return str(e)
            return None

        for r in range(6):
            n = len(bfs(F.identity(), F.letters(), F.mul, r))
            for budget in (0, 1, n - 1, n, n + 1):
                expect = error(lambda: bfs(F.identity(), F.letters(), F.mul, r, budget))
                assert error(lambda: build_ball(F, r, budget)) == expect
                assert (expect is not None) == (n > budget)

    def test_edge_inversion_closure(self, fab):
        ball = build_ball(fab, 3)
        steps = ((v, fab.mul(v, x)) for v in ball.dist for x in fab.letters())
        edges = {(u, v) for u, v in steps if v in ball.dist}
        for (u, v) in edges:
            assert (v, u) in edges

    def test_closed_under_geodesics_to_identity(self, fab, z2, z2z):
        for G in (fab, z2, z2z.group.base):
            view = word_metric_view(G)
            ball = build_ball(G, 3)
            for g in ball.elements:
                for v in view.geodesic(G.identity(), g).vertices:
                    assert v in ball


class TestRelDist:
    def test_spec_examples(self, fab_rel_a, fab):
        e = fab.identity()
        assert fab_rel_a.dist(e, w("a a a a a", fab)) == 1
        assert fab_rel_a.dist(w("b a", fab), w("b a", fab)) == 0
        assert fab_rel_a.dist(e, w("a a a b a a", fab)) == 3

    def test_free_product_syllable_count(self, z2z):
        G = z2z.group.base
        assert z2z.dist(G.identity(), w("x t", G)) == 2
        path = z2z.geodesic(G.identity(), w("x t", G))
        assert [lab[0] for lab in path.labels] == ["h", "h"]

    def test_geodesic_fixture(self, fab_rel_a, fab):
        path = fab_rel_a.geodesic(fab.identity(), w("a a a b", fab))
        assert len(path) == 2
        assert path.labels[0][0] == "h" and path.labels[1][0] == "x"

    def test_empty_geodesic(self, fab_rel_a, fab):
        g = w("a b", fab)
        path = fab_rel_a.geodesic(g, g)
        assert len(path) == 0 and path.start == path.end == g

    def test_rel_leq_word(self, fab_rel_a, fab):
        rng = random.Random(11)
        ball = build_ball(fab, 5)
        for _ in range(1000):
            u = rng.choice(ball.elements)
            v = rng.choice(ball.elements)
            assert fab_rel_a.dist(u, v) <= fab_rel_a.x_dist(u, v)

    def test_triangle_and_left_invariance(self, fab_rel_a, fab):
        # all triples in a small relative ball
        elems = [g for g in build_ball(fab, 3).elements if fab_rel_a.dist(fab.identity(), g) <= 2]
        sample = elems[:30]
        for x in sample:
            for y in sample:
                for z in sample:
                    assert fab_rel_a.dist(x, z) <= fab_rel_a.dist(x, y) + fab_rel_a.dist(y, z)
        t = w("b a a", fab)
        for x in sample[:12]:
            for y in sample[:12]:
                assert fab_rel_a.dist(fab.mul(t, x), fab.mul(t, y)) == fab_rel_a.dist(x, y)

    def test_whole_group_peripheral(self, fab):
        view = relative_view(RelHyp(fab, (PeripheralSpec(0, "whole-group"),)))
        assert view.dist(fab.identity(), w("a b a", fab)) == 1
        assert view.dist(w("a", fab), w("a", fab)) == 0

    def test_free_product_with_finite_factor(self):
        from relhyp import FreeProduct, cyclic_group
        from relhyp.groups import FreeAbelian

        FP = FreeProduct((cyclic_group(3, "u"), FreeAbelian(("t",))))
        view = relative_view(RelHyp(FP, (PeripheralSpec(0, "free-factor", 0),)))
        g = w("u t u u t^-1", FP)
        assert FP.x_length(g) == 4
        assert view.dist(FP.identity(), g) == 4
        geo = view.geodesic(FP.identity(), g)
        assert [lab[0] for lab in geo.labels] == ["h", "x", "h", "x"]

    def test_agrees_with_coned_bfs_small(self, fab_rel_a, fab):
        elems, index, dist_from = coned_bfs_oracle(fab_rel_a, 4)
        e = fab.identity()
        near = [g for g in elems if dist_from(index[e]).get(index[g], 99) <= 2]
        for uu in near[:40]:
            table = dist_from(index[uu])
            for vv in near[:40]:
                assert table[index[vv]] == fab_rel_a.dist(uu, vv)


_F3 = FreeGroup(("a", "b", "c"))
_Z2Z = FreeProduct((FreeAbelian(("x", "y")), FreeAbelian(("t",))))
_C3ZF2 = FreeProduct((cyclic_group(3, "u"), FreeAbelian(("t",)), FreeGroup(("p", "q"))))
_AM46 = Amalgam(cyclic_group(4, "b"), cyclic_group(6, "c"), ((0, 0), (2, 3)))


def _cyc(nu, s):
    return PeripheralSpec(nu, "cyclic-generator", s)


def _fac(nu, i):
    return PeripheralSpec(nu, "free-factor", i)


_WHOLE = (PeripheralSpec(0, "whole-group"),)

# (id, base, peripherals, ball radius): every family with every peripheral
# shape it admits, each syllable rule of RelGraphView._walk among them
METRIC_SHAPES = [
    ("F3", _F3, (), 4),
    ("F3-rel-a", _F3, (_cyc(0, "a"),), 4),
    ("F3-rel-a-c", _F3, (_cyc(0, "a"), _cyc(1, "c")), 4),
    ("F3-whole", _F3, _WHOLE, 3),
    ("Z2*Z", _Z2Z, (), 4),
    ("Z2*Z-rel-Z2", _Z2Z, (_fac(0, 0),), 4),
    ("Z2*Z-rel-both", _Z2Z, (_fac(0, 0), _fac(1, 1)), 4),
    ("Z2*Z-whole", _Z2Z, _WHOLE, 3),
    ("C3*Z*F2", _C3ZF2, (), 3),
    ("C3*Z*F2-rel-C3", _C3ZF2, (_fac(0, 0),), 3),
    ("C3*Z*F2-rel-F2", _C3ZF2, (_fac(0, 2),), 3),
    ("C3*Z-rel-C3", FreeProduct((cyclic_group(3, "u"), FreeAbelian(("t",)))), (_fac(0, 0),), 4),
    ("amalgam", _AM46, (), 3),
    ("amalgam-whole", _AM46, _WHOLE, 3),
    ("Z7", cyclic_group(7), (), 3),
    ("Z2", FreeAbelian(("x", "y")), (), 4),
]


@pytest.mark.parametrize(
    "base,peripherals,radius",
    [pytest.param(*shape[1:], id=shape[0]) for shape in METRIC_SHAPES],
)
def test_syllable_walk(base, peripherals, radius):
    """dist against the label count of decompose(u^-1 v) on random pairs,
    half of them (u, u s) with a shared prefix; dist from 1 against a
    coned-graph BFS over the whole ball, which holds the canonical geodesic
    of each of its elements; and dist between elements one coned edge from 1,
    where first tail syllables fuse or not, against the same BFS."""
    view = relative_view(RelHyp(base, peripherals))
    elems = build_ball(base, radius).elements
    steps = build_ball(base, 2).elements
    rng = random.Random(3)
    for k in range(2000):
        u = rng.choice(elems)
        v = rng.choice(elems) if k % 2 else base.mul(u, rng.choice(steps))
        assert view.dist(u, v) == reference_dist(view, u, v)
    _, index, dist_from = coned_bfs_oracle(view, radius)
    table = dist_from(index[base.identity()])
    for g in elems:
        assert view.dist(base.identity(), g) == table[index[g]]
        assert view.geodesic(base.identity(), g).end == g
    near = [g for g in elems if table[index[g]] <= 1][:30]
    for u in near:
        row = dist_from(index[u])
        for v in near:
            assert view.dist(u, v) == row[index[v]]


@pytest.mark.parametrize(
    "base,peripherals,radius",
    [pytest.param(*shape[1:], id=shape[0]) for shape in METRIC_SHAPES if shape[2]]
    + [
        pytest.param(FreeGroup(("a", "b")), _WHOLE, 4, id="F2-whole"),
        pytest.param(FreeAbelian(("x", "y")), _WHOLE, 4, id="Z2-whole"),
        pytest.param(cyclic_group(7), _WHOLE, 3, id="Z7-whole"),
    ],
)
def test_coset_key_partition(base, peripherals, radius):
    """coset_key, read off the syllable walk, and reference_coset_key, read
    off the peripheral kind, cut the ball into the same cosets of each
    peripheral subgroup."""
    G = RelHyp(base, peripherals)
    view = relative_view(G)
    elems = build_ball(base, radius).elements
    for p in peripherals:
        keys = [view.coset_key(p.nu, g) for g in elems]
        refs = [reference_coset_key(G, p.nu, g) for g in elems]
        assert len(set(keys)) == len(set(zip(keys, refs))) == len(set(refs))


@pytest.mark.parametrize(
    "G",
    [FreeGroup(("a", "b")), _F3, FreeAbelian(("t",)), FreeAbelian(("x", "y", "z"))],
    ids=["F2", "F3", "Z", "Z3"],
)
def test_x_dist_overrides_match_default(G):
    elems = build_ball(G, 4).elements
    rng = random.Random(5)
    for _ in range(2000):
        a, b = rng.choice(elems), rng.choice(elems)
        assert G.x_dist(a, b) == GroupSpec.x_dist(G, a, b)


class TestPaths:
    def test_labels_compose(self, fab_rel_a, fab):
        p = EdgePath(
            fab_rel_a,
            fab.identity(),
            (("h", 0, w("a a a", fab)), ("x", w("b", fab))),
        )
        assert p.vertices == (fab.identity(), w("a a a", fab), w("a a a b", fab))
        assert p.elem() == w("a a a b", fab)

    def test_identity_label_rejected(self, fab_rel_a, fab):
        with pytest.raises(ValueError):
            EdgePath(fab_rel_a, fab.identity(), (("x", fab.identity()),))

    def test_h_label_must_be_peripheral(self, fab_rel_a, fab):
        with pytest.raises(ValueError):
            EdgePath(fab_rel_a, fab.identity(), (("h", 0, w("b", fab)),))

    def test_broken_line_requires_geodesics(self, fab_rel_a, fab):
        bad = EdgePath(fab_rel_a, fab.identity(), (("x", w("a", fab)), ("h", 0, w("a", fab))))
        with pytest.raises(ValueError):
            BrokenLine((bad,))

    def test_geodesics_have_single_edge_components(self, fab_rel_a, fab):
        rng = random.Random(3)
        ball = build_ball(fab, 5)
        for _ in range(300):
            u = rng.choice(ball.elements)
            v = rng.choice(ball.elements)
            path = fab_rel_a.geodesic(u, v)
            assert len(path) == fab_rel_a.dist(u, v)
            for c in find_components(path):
                assert c.edge_count() == 1
            assert is_without_backtracking(path)
