import random

import pytest

from relhyp import word_to_elem
from relhyp.cayley import BrokenLine, EdgePath, build_ball
from relhyp.components import (
    find_components,
    find_consecutive_backtracking,
    is_without_backtracking,
)

from conftest import connected, random_broken_line

w = word_to_elem


def _path(view, G, labels):
    return EdgePath(view, G.identity(), tuple(labels))


class TestFindComponents:
    def test_all_x_path(self, fab_rel_a, fab):
        p = _path(fab_rel_a, fab, [("x", w("b", fab)), ("x", w("b", fab))])
        assert find_components(p) == []

    def test_two_components(self, fab_rel_a, fab):
        p = _path(
            fab_rel_a,
            fab,
            [("h", 0, w("a a a", fab)), ("x", w("b", fab)), ("h", 0, w("a a", fab))],
        )
        comps = find_components(p)
        assert [c.x_length for c in comps] == [3, 2]
        assert [(c.start, c.stop) for c in comps] == [(0, 1), (2, 3)]

    def test_adjacent_edges_merge(self, fab_rel_a, fab):
        p = _path(fab_rel_a, fab, [("h", 0, w("a", fab)), ("h", 0, w("a a", fab))])
        comps = find_components(p)
        assert len(comps) == 1
        assert comps[0].edge_count() == 2
        assert comps[0].x_length == 3


class TestConnected:
    def test_self(self, fab_rel_a, fab):
        p = _path(fab_rel_a, fab, [("h", 0, w("a a a a a", fab))])
        c = find_components(p)[0]
        assert connected(c, c)

    def test_different_coset(self, fab_rel_a, fab):
        # a^5-edge at 1 and a^2-edge at a^5 b: (a^5)^-1 (a^5 b) = b not in <a>
        p1 = _path(fab_rel_a, fab, [("h", 0, w("a a a a a", fab))])
        p2 = EdgePath(fab_rel_a, w("a a a a a b", fab), (("h", 0, w("a a", fab)),))
        assert not connected(find_components(p1)[0], find_components(p2)[0])

    def test_same_coset(self, fab_rel_a, fab):
        p1 = _path(fab_rel_a, fab, [("h", 0, w("a a a", fab))])
        p2 = EdgePath(fab_rel_a, w("a a a a", fab), (("h", 0, w("a", fab)),))
        assert connected(find_components(p1)[0], find_components(p2)[0])

    def test_transitivity_on_random_triples(self, fab_rel_a, fab):
        rng = random.Random(17)
        ball = build_ball(fab, 4)
        comps = []
        for _ in range(120):
            v = rng.choice(ball.elements)
            k = rng.choice([1, 2, 3])
            p = EdgePath(fab_rel_a, v, (("h", 0, w("a", fab) * k),))
            comps.append(find_components(p)[0])
        for _ in range(400):
            x, y, z = (rng.choice(comps) for _ in range(3))
            if connected(x, y) and connected(y, z):
                assert connected(x, z)

    @pytest.mark.parametrize("view_name", ["fab_rel_a", "z2z"])
    def test_matches_peripheral_membership(self, request, view_name):
        """connected(h, k) holds exactly when h_-^-1 k_- lies in H_nu, on the
        components of random broken lines and of their whole paths."""
        view = request.getfixturevalue(view_name)
        G = view.group
        rng = random.Random(37)
        for _ in range(60):
            bl = random_broken_line(rng, G.base, view)
            comps = [c for seg in bl.segments for c in find_components(seg)]
            comps += find_components(bl.whole_path())
            for h in comps:
                for k in comps:
                    same_coset = G.peripheral_contains(
                        h.nu, G.base.mul(G.base.inv(h.h_minus), k.h_minus)
                    )
                    assert connected(h, k) == (h.nu == k.nu and same_coset)


class TestBacktracking:
    def test_empty_and_geodesic(self, fab_rel_a, fab):
        p = _path(fab_rel_a, fab, [])
        assert is_without_backtracking(p)
        geo = fab_rel_a.geodesic(fab.identity(), w("a a b a", fab))
        assert is_without_backtracking(geo)

    def test_connected_components_detected(self, fab_rel_a, fab):
        p = _path(
            fab_rel_a,
            fab,
            [("h", 0, w("a", fab)), ("x", w("b", fab)), ("x", w("b^-1", fab)), ("h", 0, w("a", fab))],
        )
        assert not is_without_backtracking(p)

    def test_consecutive_instances(self, fab_rel_a, fab):
        a5 = w("a a a a a", fab)
        a10 = fab.mul(a5, a5)
        bl = BrokenLine.from_nodes(fab_rel_a, [fab.identity(), a5, a10])
        insts = find_consecutive_backtracking(bl)
        assert len(insts) == 1 and insts[0].kind == "adjacent"

    def test_multiple_instance(self, fab_rel_a, fab):
        # three one-edge segments in the same <a>-coset
        nodes = [fab.identity(), w("a a a", fab), w("a a a a", fab), w("a a a a a", fab)]
        bl = BrokenLine.from_nodes(fab_rel_a, nodes)
        insts = find_consecutive_backtracking(bl)
        assert len(insts) == 1 and insts[0].kind == "multiple"
        assert len(insts[0].pairs) == 3

    def test_disjoint_cosets(self, fab_rel_a, fab):
        nodes = [fab.identity(), w("a a b", fab), w("a a b b a a b", fab)]
        bl = BrokenLine.from_nodes(fab_rel_a, nodes)
        assert find_consecutive_backtracking(bl) == []


def test_isolated_component_ratio_is_finite(fab_rel_a, fab):
    """Empirical bound: over random relative cycles, the total X-length of
    isolated components stays within a finite multiple of the cycle length."""
    rng = random.Random(23)
    ball = build_ball(fab, 4)
    worst = 0.0
    for _ in range(200):
        mid = [rng.choice(ball.elements) for _ in range(2)]
        nodes = [fab.identity()] + mid + [fab.identity()]
        cycle = BrokenLine.from_nodes(fab_rel_a, nodes).whole_path()
        if len(cycle) == 0:
            continue
        comps = find_components(cycle)
        isolated = []
        for i, c in enumerate(comps):
            if all(not connected(c, d) for j, d in enumerate(comps) if j != i):
                isolated.append(c)
        total = sum(c.x_length for c in isolated)
        worst = max(worst, total / len(cycle))
    assert worst < float("inf")
