import itertools
import math
import random

import pytest

from relhyp import SubgroupSpec, word_to_elem
from relhyp.cayley import BrokenLine, build_ball, trivial_path
from relhyp.errors import BudgetExceededError
from relhyp.pathrep import (
    PathRep,
    RepType,
    SearchBudget,
    minimize_type,
    type_of,
)
from relhyp.separability import membership_oracle

from conftest import check_alternation, connected, node_products

w = word_to_elem


def brute_force_min_type(g, qp_gens, rp_gens, view, budget):
    """Flat enumeration over all factor sequences: the independent oracle."""
    G = view.group.base
    ball = build_ball(G, budget.max_len)
    in_q = membership_oracle(G, qp_gens)
    in_r = membership_oracle(G, rp_gens)
    cands = [x for x in ball.elements if x != G.identity() and (in_q(x) or in_r(x))]
    best = None
    for n in range(1, budget.max_factors + 1):
        for combo in itertools.product(cands, repeat=n):
            prod = G.identity()
            for y in combo:
                prod = G.mul(prod, y)
            if prod != g:
                continue
            nodes = [G.identity()]
            for y in combo:
                nodes.append(G.mul(nodes[-1], y))
            line = BrokenLine.from_nodes(view, nodes)
            total = line.length()
            comp = 0
            from relhyp.components import find_components

            for seg in line.segments:
                comp += sum(c.x_length for c in find_components(seg))
            t = (n, total, comp)
            if best is None or t < best:
                best = t
    return best


@pytest.fixture()
def qprp(fab):
    return (
        SubgroupSpec((w("a a", fab),)),
        SubgroupSpec((w("b b", fab),)),
    )


class TestTypeOf:
    def test_identity_rep(self, fab, fab_rel_a):
        line = BrokenLine((trivial_path(fab_rel_a, fab.identity()),))
        rep = PathRep(line, ("Q'",))
        assert type_of(rep) == RepType(1, 0, 0)

    def test_two_h_segments(self, fab, fab_rel_a):
        a5 = w("a a a a a", fab)
        line = BrokenLine.from_nodes(fab_rel_a, [fab.identity(), a5, fab.mul(a5, a5)])
        rep = PathRep(line, ("Q'", "Q'"))
        assert type_of(rep) == RepType(2, 2, 10)


class TestMinimize:
    def test_frozen_fixture(self, fab, fab_rel_a, qprp):
        qp, rp = qprp
        res = minimize_type(w("a a b b", fab), qp, rp, fab_rel_a, SearchBudget(3, 6))
        assert res.rep_type == RepType(2, 3, 2)
        assert "budget" in res.caveat

    def test_identity(self, fab, fab_rel_a, qprp):
        qp, rp = qprp
        res = minimize_type(fab.identity(), qp, rp, fab_rel_a)
        assert res.rep_type == RepType(1, 0, 0)

    def test_not_found_by_parity(self, fab, fab_rel_a, qprp):
        # a has odd a-exponent; everything in <a^2, b^2> has even exponents
        qp, rp = qprp
        res = minimize_type(w("a", fab), qp, rp, fab_rel_a, SearchBudget(3, 6))
        assert res.rep is None and res.rep_type is None

    def test_matches_brute_force(self, fab, fab_rel_a):
        rng = random.Random(37)
        budget = SearchBudget(3, 4)
        ball = build_ball(fab, 4)
        pairs = [("a a", "b b"), ("a a", "b a b^-1"), ("a a a", "b b b")]
        for qg, rg in pairs:
            qp = SubgroupSpec((w(qg, fab),))
            rp = SubgroupSpec((w(rg, fab),))
            for _ in range(6):
                g = rng.choice(ball.elements)
                res = minimize_type(g, qp, rp, fab_rel_a, budget)
                oracle = brute_force_min_type(g, qp.gens, rp.gens, fab_rel_a, budget)
                if oracle is None:
                    assert res.rep is None
                else:
                    assert tuple(res.rep_type) == oracle

    def test_node_budget(self, fab, fab_rel_a, qprp):
        # SearchBudget(4, 2) reads the 17-vertex ball of F2, and the search
        # then visits 53 nodes
        qp, rp = qprp
        g, b = w("a a b b", fab), SearchBudget(4, 2)
        found = minimize_type(g, qp, rp, fab_rel_a, b)
        for too_small in (16, 17, 52):
            with pytest.raises(BudgetExceededError):
                minimize_type(g, qp, rp, fab_rel_a, b, node_budget=too_small)
        assert minimize_type(g, qp, rp, fab_rel_a, b, node_budget=53) == found

    def test_reproducible(self, fab, fab_rel_a, qprp):
        qp, rp = qprp
        g = w("a a b b a a", fab)
        r1 = minimize_type(g, qp, rp, fab_rel_a, SearchBudget(4, 6))
        r2 = minimize_type(g, qp, rp, fab_rel_a, SearchBudget(4, 6))
        assert r1.rep_type == r2.rep_type
        assert [s.labels for s in r1.rep.line.segments] == [
            s.labels for s in r2.rep.line.segments
        ]


class TestAlternation:
    def _oracles(self, fab, qp, rp):
        G = fab
        in_q = membership_oracle(G, qp.gens)
        in_r = membership_oracle(G, rp.gens)
        in_s = lambda x: in_q(x) and in_r(x)
        return in_q, in_r, in_s

    def test_single_segment(self, fab, fab_rel_a, qprp):
        qp, rp = qprp
        line = BrokenLine.from_nodes(fab_rel_a, [fab.identity(), w("a a", fab)])
        rep = PathRep(line, ("Q'",))
        assert check_alternation(rep, *self._oracles(fab, qp, rp))

    def test_two_consecutive_q_segments(self, fab, fab_rel_a, qprp):
        qp, rp = qprp
        line = BrokenLine.from_nodes(
            fab_rel_a, [fab.identity(), w("a a", fab), w("a a a a", fab)]
        )
        rep = PathRep(line, ("Q'", "Q'"))
        assert not check_alternation(rep, *self._oracles(fab, qp, rp))

    def test_minimal_reps_alternate(self, fab, fab_rel_a, qprp):
        qp, rp = qprp
        oracles = self._oracles(fab, qp, rp)
        rng = random.Random(5)
        ball = build_ball(fab, 4)
        found = 0
        for _ in range(20):
            g = rng.choice(ball.elements)
            res = minimize_type(g, qp, rp, fab_rel_a, SearchBudget(4, 4))
            if res.rep is not None and g != fab.identity():
                assert check_alternation(res.rep, *oracles)
                found += 1
        assert found > 0


class TestNodeProducts:
    def test_single_segment_vacuous(self, fab, fab_rel_a):
        line = BrokenLine.from_nodes(fab_rel_a, [fab.identity(), w("a a", fab)])
        assert node_products(line) == ()

    def test_full_cancellation(self, fab, fab_rel_a):
        line = BrokenLine.from_nodes(
            fab_rel_a, [fab.identity(), w("a a", fab), fab.identity()]
        )
        assert node_products(line) == (1,)  # (1 + 1 - 0) / 2

    def test_tree_no_cancellation(self, fab, fab_rel_a):
        line = BrokenLine.from_nodes(
            fab_rel_a, [fab.identity(), w("a a", fab), w("a a b b", fab)]
        )
        assert node_products(line) == (0,)


def test_empirical_constant_estimates(fab, fab_rel_a, qprp):
    """Measure the corpus bounds the theory only asserts to exist: the max
    node Gromov product over minimal representatives (a C0 estimate) and the
    max X-distance from a connected component's end to its segment's end
    across adjacent segments (a C1 estimate).  Both must be finite; the
    values are reported, not assumed."""
    from relhyp.components import find_components

    qp, rp = qprp
    rng = random.Random(71)
    ball = build_ball(fab, 4)
    c0_estimate = 0
    c1_estimate = 0
    reps = 0
    for _ in range(40):
        g = rng.choice(ball.elements)
        res = minimize_type(g, qp, rp, fab_rel_a, SearchBudget(4, 4))
        if res.rep is None:
            continue
        reps += 1
        c0_estimate = max([c0_estimate, *node_products(res.rep.line)])
        segs = res.rep.line.segments
        for s1, s2 in zip(segs, segs[1:]):
            for c in find_components(s1):
                for d in find_components(s2):
                    if connected(c, d):
                        c1_estimate = max(
                            c1_estimate, fab_rel_a.x_dist(c.h_plus, s1.end)
                        )
    assert reps > 0
    assert c0_estimate < math.inf and c1_estimate < math.inf
    print(
        "[empirical] C0 estimate (max node product over %d minimal reps): %s; "
        "C1 estimate (component end to node): %s" % (reps, c0_estimate, c1_estimate)
    )
