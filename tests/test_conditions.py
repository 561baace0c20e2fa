import math

import pytest

from relhyp import FreeGroup, PeripheralSpec, RelHyp, SubgroupSpec, word_to_elem
from relhyp.cayley import build_ball, relative_view
from relhyp.conditions import (
    ConditionContext,
    ConditionReport,
    EnumeratedSet,
    check_condition,
    minx,
    preccurlyeq,
    quasiconvexity_epsilon,
)
from relhyp.separability import membership_oracle

w = word_to_elem


def make_ctx(fab, fab_rel_a, k=2, B=2, C=2, A=2, radius=6, with_p=True):
    gen_q = w("a", fab)
    gen_r = w("b", fab)
    return ConditionContext(
        view=fab_rel_a,
        Q=SubgroupSpec((gen_q,), role="Q"),
        R=SubgroupSpec((gen_r,), role="R"),
        Qp=SubgroupSpec((fab.pow(gen_q, k),), role="Q'"),
        Rp=SubgroupSpec((fab.pow(gen_r, k),), role="R'"),
        P_list=(SubgroupSpec((gen_q,), role="P0"),) if with_p else (),
        B=B,
        C=C,
        A=A,
        radius=radius,
        P_abelian=(True,) if with_p else (),
    )


class TestMinx:
    def test_empty_set(self, fab):
        es = EnumeratedSet(frozenset(), 4, "empty fixture", exact=True)
        assert minx(es, fab) == math.inf

    def test_contains_identity(self, fab):
        es = EnumeratedSet(
            frozenset({fab.identity(), w("a", fab), w("a b", fab)}), 4, "x", True
        )
        assert minx(es, fab) == 0

    def test_normal_form_lengths(self, fab):
        es = EnumeratedSet(frozenset({w("a a a", fab), w("b b a", fab)}), 4, "x", True)
        assert minx(es, fab) == 3


class TestQuasiconvexity:
    def test_peripheral_subgroup(self, fab, fab_rel_a):
        eps, caveat = quasiconvexity_epsilon(
            SubgroupSpec((w("a", fab),)), fab_rel_a, 5
        )
        assert eps == 0 and "radius-5" in caveat

    def test_whole_group(self, fab, fab_rel_a):
        eps, _ = quasiconvexity_epsilon(
            SubgroupSpec((w("a", fab), w("b", fab))), fab_rel_a, 4
        )
        assert eps == 0

    def test_ab_cyclic(self, fab, fab_rel_a):
        eps, _ = quasiconvexity_epsilon(SubgroupSpec((w("a b", fab),)), fab_rel_a, 6)
        assert eps == 1


class TestPreccurlyeq:
    def test_reflexive(self, fab):
        U = SubgroupSpec((w("a", fab),))
        assert preccurlyeq(U, U, fab)

    def test_index_two(self, fab):
        assert preccurlyeq(
            SubgroupSpec((w("a", fab),)), SubgroupSpec((w("a a", fab),)), fab
        )

    def test_infinite_index(self, fab):
        assert not preccurlyeq(
            SubgroupSpec((w("a", fab),)), SubgroupSpec((w("b", fab),)), fab
        )

    def test_against_coset_counting_oracle(self, fab):
        # |U : U cap V| finite <=> the number of (U cap V)-cosets met inside
        # balls of U stabilises as the radius grows
        cases = [
            (("a",), ("a a a",), True),
            (("a", "b"), ("a a", "b b", "a b"), True),  # index-2 subgroup
            (("a",), ("b a b^-1",), False),
            (("a b",), ("a b a b a b",), True),
        ]
        for ug, vg, expected in cases:
            U = SubgroupSpec(tuple(w(x, fab) for x in ug))
            V = SubgroupSpec(tuple(w(x, fab) for x in vg))
            assert preccurlyeq(U, V, fab) == expected
            in_u = membership_oracle(fab, U.gens)
            in_v = membership_oracle(fab, V.gens)
            counts = []
            for r in (4, 6, 8):
                reps = []
                for g in build_ball(fab, r).elements:
                    if not in_u(g):
                        continue
                    if any(
                        in_u(x) and in_v(x)
                        for x in [fab.mul(fab.inv(rep), g) for rep in reps]
                    ):
                        continue
                    reps.append(g)
                counts.append(len(reps))
            stabilised = counts[-1] == counts[-2]
            assert stabilised == expected


class TestConditions:
    def test_c1_holds_for_all_k(self, fab, fab_rel_a):
        for k in (1, 2, 3, 4):
            ctx = make_ctx(fab, fab_rel_a, k=k)
            assert check_condition("C1", ctx).verdict == "holds"

    def test_c1_fails_with_witness(self, fab, fab_rel_a):
        ctx = make_ctx(fab, fab_rel_a)
        ctx.Qp = SubgroupSpec((w("a", fab), w("b", fab)), role="Q'")  # join too big
        rep = check_condition("C1", ctx)
        assert rep.verdict == "fails" and rep.witness is not None

    def test_c4_follows_from_c1_abelian(self, fab, fab_rel_a):
        for k in (1, 2, 3):
            ctx = make_ctx(fab, fab_rel_a, k=k)
            assert check_condition("C1", ctx).ok
            assert check_condition("C4", ctx).verdict in ("holds", "vacuous")

    def test_c5_vacuous_abelian(self, fab, fab_rel_a):
        ctx = make_ctx(fab, fab_rel_a)
        assert check_condition("C5", ctx).verdict == "vacuous"

    def test_c2_frozen_vector(self, fab, fab_rel_a):
        # Q'=<a^4>, R'=<b^4>, radius 8: the enumeration oracle gives minx 4
        # (witness b^4; shorter elements of Q<Q',R'>Q already lie in Q)
        ctx = make_ctx(fab, fab_rel_a, k=4, B=3, radius=8)
        rep = check_condition("C2", ctx)
        assert rep.verdict == "holds-to-radius"
        assert rep.measured == 4

    def test_c2_fails_with_large_b(self, fab, fab_rel_a):
        ctx = make_ctx(fab, fab_rel_a, k=2, B=50, radius=6)
        rep = check_condition("C2", ctx)
        assert rep.verdict == "fails"
        assert fab.x_length(rep.witness) == 2

    def test_c2_implies_old_c2(self, fab, fab_rel_a):
        # minx((Q' u R') \ S) >= measured C2 bound, on the same enumeration
        for k in (2, 3):
            ctx = make_ctx(fab, fab_rel_a, k=k, radius=6)
            rep = check_condition("C2", ctx)
            in_q = membership_oracle(fab, ctx.Qp.gens)
            in_r = membership_oracle(fab, ctx.Rp.gens)
            in_s = lambda g: in_q(g) and in_r(g)
            vals = [
                fab.x_length(g)
                for g in ctx.ball_elements()
                if (in_q(g) or in_r(g)) and not in_s(g)
            ]
            assert min(vals) >= rep.measured

    def test_c2_monotone_in_k(self, fab, fab_rel_a):
        # at fixed B, growing k never turns holds into fails
        verdicts = []
        for k in (1, 2, 3, 4):
            ctx = make_ctx(fab, fab_rel_a, k=k, B=2, radius=7)
            verdicts.append(check_condition("C2", ctx).ok)
        for earlier, later in zip(verdicts, verdicts[1:]):
            assert later or not earlier

    def test_c3_holds(self, fab, fab_rel_a):
        ctx = make_ctx(fab, fab_rel_a, k=2, C=2, radius=6)
        rep = check_condition("C3", ctx)
        assert rep.ok

    def test_c2m_reduces_to_c2_part(self, fab, fab_rel_a):
        ctx = make_ctx(fab, fab_rel_a, k=2, B=2, radius=6)
        rep = check_condition("C2-m", ctx)
        assert rep.ok
        ctx_t = make_ctx(fab, fab_rel_a, k=2, B=2, radius=6)
        ctx_t.T_list = (SubgroupSpec((w("a b", fab),), role="T1"),)
        rep2 = check_condition("C2-m", ctx_t)
        assert rep2.verdict in ("holds-to-radius", "fails")

    def test_c5m_vacuous_without_p(self, fab, fab_rel_a):
        ctx = make_ctx(fab, fab_rel_a, with_p=False)
        assert check_condition("C5-m", ctx).verdict == "vacuous"

    def test_c5_nonabelian_p_runs_coset_loop(self, fab, fab_rel_a):
        # P = the whole group exercises the non-vacuous branch: restrictions
        # are the subgroups themselves and q ranges over ball coset reps
        ctx = make_ctx(fab, fab_rel_a, k=2, C=1, radius=4)
        ctx.P_list = (SubgroupSpec((w("a", fab), w("b", fab)), role="P"),)
        ctx.P_abelian = (False,)
        rep = check_condition("C5", ctx)
        assert rep.verdict in ("holds-to-radius", "fails")
        assert any("coset representatives" in c for c in rep.caveats) or rep.verdict == "fails"

    def test_c5m_with_u_list(self, fab, fab_rel_a):
        ctx = make_ctx(fab, fab_rel_a, k=2, C=1, radius=4)
        ctx.P_list = (SubgroupSpec((w("a", fab), w("b", fab)), role="P"),)
        ctx.P_abelian = (False,)
        ctx.T_list = (SubgroupSpec((w("a b", fab),), role="T1"),)
        ctx.U_list = (SubgroupSpec((w("a b", fab),), role="U1"),)
        rep = check_condition("C5-m", ctx)
        assert rep.verdict in ("holds-to-radius", "fails")

    def test_p1_stability(self, fab, fab_rel_a):
        ctx = make_ctx(fab, fab_rel_a, k=2, radius=4)
        rep = check_condition("P1", ctx)
        assert rep.verdict in ("holds-to-radius", "fails")

    def test_p2_p3(self, fab, fab_rel_a):
        ctx = make_ctx(fab, fab_rel_a, k=2, A=2, radius=6)
        assert check_condition("P2", ctx).ok
        assert check_condition("P3", ctx).ok

    def test_failure_witness_is_absolute(self, fab, fab_rel_a):
        # a fails verdict at radius r persists at r' > r with the same witness length
        ctx6 = make_ctx(fab, fab_rel_a, k=2, B=50, radius=6)
        ctx8 = make_ctx(fab, fab_rel_a, k=2, B=50, radius=8)
        r6 = check_condition("C2", ctx6)
        r8 = check_condition("C2", ctx8)
        assert r6.verdict == r8.verdict == "fails"
        assert fab.x_length(r6.witness) == fab.x_length(r8.witness)


# Full reports of the minx-scan conditions on the fixtures above, pinned:
# the CLI emits neither ``params`` nor ``measured``, so the golden replay
# cannot see them.
_P_WHOLE = dict(P_list=(("a", "b"), "P"), P_abelian=(False,))
_T1 = dict(T_list=(("a b",), "T1"))
_U1 = dict(U_list=(("a b",), "U1"))
_RADIUS_CAVEAT = "pass is radius-stamped; a failure witness would be absolute"
_COSET_CAVEAT = "q ranges over coset representatives found in the ball"
PINNED_REPORTS = [
    ("C2", dict(k=4, B=3, radius=8), {},
     ("holds-to-radius", 8, None, 4, (("B", 3), ("side", "Q")), (_RADIUS_CAVEAT,))),
    ("C2", dict(k=2, B=50, radius=6), {},
     ("fails", 6, (2, 2), 2, (("B", 50), ("side", "Q")), ())),
    ("C3", dict(k=2, C=2, radius=6), {},
     ("holds-to-radius", 6, None, 2, (("C", 2), ("P", "P0"), ("half", "R'")),
      (_RADIUS_CAVEAT,))),
    ("C3", dict(k=2, C=50, radius=6), {},
     ("fails", 6, (2, 2), 2, (("C", 50), ("P", "P0"), ("half", "R'")), ())),
    ("C5", dict(), {},
     ("vacuous", 6, None, None, (("P", "P0"),),
      ("abelian peripheral: the two sides coincide",))),
    ("C5", dict(k=2, C=1, radius=4), _P_WHOLE,
     ("holds-to-radius", 4, None, 4, (("C", 1), ("P", "P"), ("q", "1")),
      (_COSET_CAVEAT, _RADIUS_CAVEAT))),
    ("C5", dict(k=2, C=50, radius=4), _P_WHOLE,
     ("fails", 4, (2, 2, 1, 1), 4, (("C", 50), ("P", "P"), ("q", "1")), (_COSET_CAVEAT,))),
    ("C2-m", dict(k=2, B=2, radius=6), {},
     ("holds-to-radius", 6, None, 2, (("B", 2), ("j", 0)), (_RADIUS_CAVEAT,))),
    ("C2-m", dict(k=2, B=2, radius=6), _T1,
     ("fails", 6, (1,), 1, (("B", 2), ("j", 1)), ())),
    ("C2-m", dict(k=2, B=50, radius=6), _T1,
     ("fails", 6, (1, 1), 2, (("B", 50), ("j", 0)), ())),
    ("C5-m", dict(with_p=False), {},
     ("vacuous", 6, None, None, (), ())),
    ("C5-m", dict(), {},
     ("holds-to-radius", 6, None, math.inf, (("C", 2), ("P", "P0"), ("j", 0), ("q", "1")),
      (_COSET_CAVEAT, _RADIUS_CAVEAT))),
    ("C5-m", dict(k=2, C=1, radius=4), {**_P_WHOLE, **_T1, **_U1},
     ("holds-to-radius", 4, None, 3, (("C", 1), ("P", "P"), ("j", 1), ("q", "1")),
      (_COSET_CAVEAT, _RADIUS_CAVEAT))),
    ("C5-m", dict(k=2, C=50, radius=4), {**_P_WHOLE, **_T1, **_U1},
     ("fails", 4, (2, 2, 1, 1), 4, (("C", 50), ("P", "P"), ("j", 0), ("q", "1")),
      (_COSET_CAVEAT,))),
]


@pytest.mark.parametrize("cond_id,kwargs,extra,expected", PINNED_REPORTS)
def test_pinned_report(fab, fab_rel_a, cond_id, kwargs, extra, expected):
    ctx = make_ctx(fab, fab_rel_a, **kwargs)
    for key, value in extra.items():
        if key.endswith("_list"):
            words, role = value
            value = (SubgroupSpec(tuple(w(x, fab) for x in words), role=role),)
        setattr(ctx, key, value)
    assert check_condition(cond_id, ctx) == ConditionReport(cond_id, *expected)
