import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relhyp import FreeGroup, PeripheralSpec, RelHyp, SubgroupSpec, word_to_elem
from relhyp import conditions
from relhyp.cayley import RelGraphView, build_ball, relative_view
from relhyp.conditions import (
    ConditionContext,
    ConditionReport,
    check_condition,
    minx,
    quasiconvexity_epsilon,
)
from relhyp.errors import BudgetExceededError, UnsupportedFamilyError
from relhyp.separability import (
    RationalSubset,
    basis,
    least_word,
    membership_oracle,
    pullback,
    subgroup_graph,
)
from relhyp.separability import rational

from conftest import (
    finite_index_in,
    least_hit,
    reduce_letters_naive,
    reference_coset_reps_in_ball,
    reference_minx_condition,
    reference_quasiconvexity_epsilon,
    signed_letters,
    subgroups_equal,
)

w = word_to_elem
# the fab fixture's group, for payloads spelled at module level
_F2 = FreeGroup(("a", "b"))


def make_ctx(fab, fab_rel_a, k=2, B=2, C=2, A=2, radius=6, with_p=True):
    gen_q = w("a", fab)
    gen_r = w("b", fab)
    return ConditionContext(
        view=fab_rel_a,
        Q=SubgroupSpec((gen_q,)),
        R=SubgroupSpec((gen_r,)),
        Qp=SubgroupSpec((fab.pow(gen_q, k),)),
        Rp=SubgroupSpec((fab.pow(gen_r, k),)),
        P_list=(SubgroupSpec((gen_q,)),) if with_p else (),
        B=B,
        C=C,
        A=A,
        radius=radius,
    )


class TestMinx:
    def test_empty_set(self, fab):
        assert minx(frozenset(), fab) == math.inf

    def test_contains_identity(self, fab):
        assert minx(frozenset({fab.identity(), w("a", fab), w("a b", fab)}), fab) == 0

    def test_normal_form_lengths(self, fab):
        assert minx(frozenset({w("a a a", fab), w("b b a", fab)}), fab) == 3


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

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_pair_scan(self, data):
        """One geodesic per point measures the epsilon of the scan over every
        pair, on random Q <= F2 or F3 under each peripheral shape a free base
        admits: none, the whole group, a set of cyclic generators."""
        rank = data.draw(st.sampled_from((2, 3)))
        F = FreeGroup(("a", "b", "c")[:rank])
        letter = st.sampled_from(signed_letters(rank))
        word = st.lists(letter, min_size=1, max_size=4).map(reduce_letters_naive)
        gens = data.draw(st.lists(word.filter(bool), min_size=1, max_size=2))
        shape = data.draw(st.sampled_from(("none", "whole-group", "cyclic-generator")))
        if shape == "none":
            peripherals = ()
        elif shape == "whole-group":
            peripherals = (PeripheralSpec(0, "whole-group"),)
        else:
            syms = data.draw(st.lists(st.sampled_from(F.symbols), min_size=1, unique=True))
            peripherals = tuple(
                PeripheralSpec(nu, "cyclic-generator", x) for nu, x in enumerate(syms)
            )
        view = relative_view(RelHyp(F, peripherals))
        radius = data.draw(st.integers(1, 4))
        Q = SubgroupSpec(tuple(gens))
        assert quasiconvexity_epsilon(Q, view, radius) == reference_quasiconvexity_epsilon(
            Q, view, radius
        )

    def test_non_free_base_unsupported(self, z2):
        # on Z^2, (1, 1) lies on the geodesic from (1, 0) to (0, 1) only
        with pytest.raises(UnsupportedFamilyError):
            quasiconvexity_epsilon(SubgroupSpec(((1, 0), (0, 1))), relative_view(z2), 2)

    def test_p1_one_geodesic_per_point(self, fab, fab_rel_a, monkeypatch):
        """P1 at radius r builds one geodesic per point of the join other than
        1, at radius r and at r + 2."""
        ctx = make_ctx(fab, fab_rel_a, k=2, radius=3)
        calls = []
        geodesic = RelGraphView.geodesic

        def counted(self, u, v):
            calls.append((u, v))
            return geodesic(self, u, v)

        monkeypatch.setattr(RelGraphView, "geodesic", counted)
        check_condition("P1", ctx)
        in_join = membership_oracle(fab, ctx.join_spec().gens)
        points = [sum(map(in_join, build_ball(fab, r).elements)) for r in (3, 5)]
        assert len(calls) == (points[0] - 1) + (points[1] - 1)


def _report(verdict, measured, tag):
    return ConditionReport(verdict, 4, tag, measured)


class TestLeast:
    """``_least``'s reduction rule, which no pinned report decides."""

    def test_first_failure_wins(self):
        reps = [
            _report("holds-to-radius", 1, 0),
            _report("fails", 5, 1),
            _report("fails", 2, 2),
        ]
        rest = iter(reps)
        assert conditions._least(rest) is reps[1]
        assert next(rest) is reps[2]  # nothing past the first failure is read

    def test_first_of_equal_passes_wins(self):
        reps = [
            _report("holds-to-radius", 5, 0),
            _report("holds-to-radius", 3, 1),
            _report("vacuous", 4, 2),
            _report("holds-to-radius", 3, 3),
        ]
        assert conditions._least(reps) is reps[1]

    def test_none_and_zero_count_as_inf(self):
        reps = [
            _report("holds-to-radius", None, 0),
            _report("holds-to-radius", 0, 1),
            _report("holds-to-radius", 9, 2),
        ]
        assert conditions._least(reps) is reps[2]
        reps = [
            _report("holds-to-radius", 0, 0),
            _report("holds-to-radius", None, 1),
            _report("holds-to-radius", math.inf, 2),
        ]
        assert conditions._least(reps) is reps[0]
        assert conditions._least(reps[1:]) is reps[1]

    def test_no_reports(self):
        assert conditions._least([]) is None


def preccurlyeq(U, V, G):
    """The finite-index preorder: is the intersection of U and V of finite
    index in U?"""
    return finite_index_in(subgroup_graph(U.gens, G), subgroup_graph(V.gens, G))


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
        ctx.Qp = SubgroupSpec((w("a", fab), w("b", fab)))  # join too big
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
                for g in build_ball(ctx.G, ctx.radius).elements
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
        ctx_t.T_list = (SubgroupSpec((w("a b", fab),)),)
        rep2 = check_condition("C2-m", ctx_t)
        assert rep2.verdict in ("holds-to-radius", "fails")

    def test_c5m_vacuous_without_p(self, fab, fab_rel_a):
        ctx = make_ctx(fab, fab_rel_a, with_p=False)
        assert check_condition("C5-m", ctx).verdict == "vacuous"

    def test_c5_nonabelian_p_runs_coset_loop(self, fab, fab_rel_a):
        # P = the whole group exercises the non-vacuous branch: restrictions
        # are the subgroups themselves and q ranges over ball coset reps
        ctx = make_ctx(fab, fab_rel_a, k=2, C=1, radius=4)
        ctx.P_list = (SubgroupSpec((w("a", fab), w("b", fab))),)
        rep = check_condition("C5", ctx)
        assert rep.verdict in ("holds-to-radius", "fails")
        assert any("coset representatives" in c for c in rep.caveats) or rep.verdict == "fails"

    def test_c5m_with_u_list(self, fab, fab_rel_a):
        ctx = make_ctx(fab, fab_rel_a, k=2, C=1, radius=4)
        ctx.P_list = (SubgroupSpec((w("a", fab), w("b", fab))),)
        ctx.T_list = (SubgroupSpec((w("a b", fab),)),)
        ctx.U_list = (SubgroupSpec((w("a b", fab),)),)
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
# the CLI does not emit ``measured``, so the golden replay cannot see it.
_P_WHOLE = dict(P_list=("a", "b"))
_T1 = dict(T_list=("a b",))
_U1 = dict(U_list=("a b",))
_RADIUS_CAVEAT = "pass is radius-stamped; a failure witness would be absolute"
_COSET_CAVEAT = "q ranges over coset representatives found in the ball"
PINNED_REPORTS = [
    ("C2", dict(k=4, B=3, radius=8), {},
     ("holds-to-radius", 8, None, 4, (_RADIUS_CAVEAT,))),
    ("C2", dict(k=2, B=50, radius=6), {},
     ("fails", 6, w("b b", _F2), 2, ())),
    ("C3", dict(k=2, C=2, radius=6), {},
     ("holds-to-radius", 6, None, 2, (_RADIUS_CAVEAT,))),
    ("C3", dict(k=2, C=50, radius=6), {},
     ("fails", 6, w("b b", _F2), 2, ())),
    ("C5", dict(), {},
     ("vacuous", 6, None, None, ("abelian peripheral: the two sides coincide",))),
    ("C5", dict(k=2, C=1, radius=4), _P_WHOLE,
     ("holds-to-radius", 4, None, 4, (_COSET_CAVEAT, _RADIUS_CAVEAT))),
    ("C5", dict(k=2, C=50, radius=4), _P_WHOLE,
     ("fails", 4, w("b b a a", _F2), 4, (_COSET_CAVEAT,))),
    ("C2-m", dict(k=2, B=2, radius=6), {},
     ("holds-to-radius", 6, None, 2, (_RADIUS_CAVEAT,))),
    ("C2-m", dict(k=2, B=2, radius=6), _T1,
     ("fails", 6, w("a", _F2), 1, ())),
    ("C2-m", dict(k=2, B=50, radius=6), _T1,
     ("fails", 6, w("a a", _F2), 2, ())),
    ("C5-m", dict(with_p=False), {},
     ("vacuous", 6, None, None, ())),
    ("C5-m", dict(), {},
     ("holds-to-radius", 6, None, math.inf, (_COSET_CAVEAT, _RADIUS_CAVEAT))),
    ("C5-m", dict(k=2, C=1, radius=4), {**_P_WHOLE, **_T1, **_U1},
     ("holds-to-radius", 4, None, 3, (_COSET_CAVEAT, _RADIUS_CAVEAT))),
    ("C5-m", dict(k=2, C=50, radius=4), {**_P_WHOLE, **_T1, **_U1},
     ("fails", 4, w("b b a a", _F2), 4, (_COSET_CAVEAT,))),
]


@pytest.mark.parametrize("cond_id,kwargs,extra,expected", PINNED_REPORTS)
def test_pinned_report(fab, fab_rel_a, cond_id, kwargs, extra, expected):
    ctx = make_ctx(fab, fab_rel_a, **kwargs)
    for key, value in extra.items():
        if key.endswith("_list"):
            value = (SubgroupSpec(tuple(w(x, fab) for x in value)),)
        setattr(ctx, key, value)
    assert check_condition(cond_id, ctx) == ConditionReport(*expected)


def test_c5m_tail_decides_the_report(fab, fab_rel_a):
    """A non-empty tail (j = 1, U1 restricted to P0) gives the failure; the
    empty tail alone passes, so a checker that scanned only j = 0 would
    report holds-to-radius."""
    S = lambda *words: SubgroupSpec(tuple(w(x, fab) for x in words))
    ctx = ConditionContext(
        view=fab_rel_a,
        Q=S("a"),
        R=S("b"),
        Qp=S("a a"),
        Rp=S("b a b^-1"),
        P_list=(S("a", "b a b^-1"),),
        T_list=(S("b"),),
        U_list=(S("a b a^-1 b^-1"),),
        B=2,
        C=3,
        A=2,
        radius=4,
    )
    rep = check_condition("C5-m", ctx)
    assert (rep.verdict, rep.witness) == ("fails", w("a", fab))
    ctx.U_list = ()
    assert check_condition("C5-m", ctx).verdict == "holds-to-radius"


_root_powers = st.tuples(
    st.lists(st.sampled_from(signed_letters(2)), min_size=1, max_size=3).map(
        reduce_letters_naive
    ),
    st.lists(
        st.one_of(
            st.integers(-3, 3),
            st.lists(st.sampled_from(signed_letters(2)), max_size=4).map(reduce_letters_naive),
        ),
        min_size=1,
        max_size=3,
    ),
)


@settings(max_examples=100, deadline=None)
@given(case=_root_powers)
def test_c5_abelian_rule_matches_commuting_generators(fab, fab_rel_a, case):
    """C5 takes P <= F2 as abelian when its folded graph has a basis of at
    most one element; that must hold exactly when P's generators commute
    pairwise.  A generator is a power of a shared root or a random word, so
    both answers occur."""
    root, picks = case
    gens = tuple(fab.pow(root, x) if isinstance(x, int) else tuple(x) for x in picks)
    commute = all(fab.mul(x, y) == fab.mul(y, x) for x in gens for y in gens)
    assert (len(basis(subgroup_graph(gens, fab), fab)) <= 1) == commute
    ctx = make_ctx(fab, fab_rel_a, radius=2)
    ctx.P_list = (SubgroupSpec(gens),)
    rep = check_condition("C5", ctx)
    assert (rep.caveats == ("abelian peripheral: the two sides coincide",)) == commute


# -- first hit against the full scan -------------------------------------------

_gens = st.lists(
    st.lists(st.sampled_from(signed_letters(2)), min_size=1, max_size=3)
    .map(reduce_letters_naive)
    .filter(bool),
    min_size=1,
    max_size=2,
).map(tuple)


def _specs(gens_list):
    return tuple(SubgroupSpec(gens) for gens in gens_list)


@settings(max_examples=60, deadline=None)
@given(
    q=_gens, r=_gens, qp=_gens, rp=_gens,
    p_list=st.lists(_gens, max_size=1),
    t_list=st.lists(_gens, max_size=1),
    u_list=st.lists(_gens, max_size=1),
    bounds=st.tuples(*[st.integers(0, 4)] * 3),
    radius=st.integers(3, 5),
)
def test_first_hit_reports_match_full_scan(
    fab_rel_a, q, r, qp, rp, p_list, t_list, u_list, bounds, radius
):
    B, C, A = bounds
    ctx = ConditionContext(
        view=fab_rel_a,
        Q=SubgroupSpec(q),
        R=SubgroupSpec(r),
        Qp=SubgroupSpec(qp),
        Rp=SubgroupSpec(rp),
        P_list=_specs(p_list),
        T_list=_specs(t_list),
        U_list=_specs(u_list),
        B=B,
        C=C,
        A=A,
        radius=radius,
    )
    for cond_id in ("C2", "C3", "C5", "C2-m", "C5-m", "P2", "P3"):
        got = check_condition(cond_id, ctx)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conditions, "_minx_condition", reference_minx_condition)
            assert got == check_condition(cond_id, ctx), cond_id


@settings(max_examples=40, deadline=None)
@given(q=_gens, r=_gens, qp=_gens, rp=_gens, p=_gens, radius=st.integers(3, 5))
# C4 fails on b^6 only, beyond the radius + 2 ball
@example(q=(w("a", _F2),), r=(w("a", _F2),), qp=(w("a", _F2),), rp=(w("b b", _F2),),
         p=(w("b b b", _F2),), radius=3)
def test_c1_c4_witness_is_the_least_disagreement(fab, fab_rel_a, q, r, qp, rp, p, radius):
    """C1 and C4 hold exactly when the subgroups they compare are equal by
    the ``subgroups_equal`` reference.  Otherwise they fail at the first
    unequal pair, with a disagreement that is the least at any length: the
    radius + 2 ball's least hit, or longer than that ball's radius when it
    has none, whatever the radius of the check."""
    ctx = ConditionContext(
        view=fab_rel_a,
        Q=SubgroupSpec(q),
        R=SubgroupSpec(r),
        Qp=SubgroupSpec(qp),
        Rp=SubgroupSpec(rp),
        P_list=(SubgroupSpec(p),),
        radius=radius,
    )
    ball = build_ball(fab, radius + 2).elements
    graph = lambda gens: subgroup_graph(gens, fab)
    in_q, in_r, in_qp, in_rp, in_p = (
        membership_oracle(fab, gens) for gens in (q, r, qp, rp, p)
    )

    def check(cond_id, pairs):
        # pairs: (graph, graph, "g is in exactly one"), in checker order
        rep = check_condition(cond_id, ctx)
        unequal = [differ for A, B, differ in pairs if not subgroups_equal(A, B, fab)]
        if not unequal:
            assert rep.verdict == "holds", cond_id
            return
        assert rep.verdict == "fails" and unequal[0](rep.witness), cond_id
        hit = least_hit(ball, unequal[0])[1]
        if hit is None:
            assert len(rep.witness) > radius + 2, cond_id
        else:
            assert rep.witness == hit, cond_id

    check("C1", [(
        pullback(graph(qp), graph(rp)), pullback(graph(q), graph(r)),
        lambda g: (in_qp(g) and in_rp(g)) != (in_q(g) and in_r(g)),
    )])
    P = ctx.P_list[0]
    qp_P, rp_P = ctx.restrict(ctx.Qp, P), ctx.restrict(ctx.Rp, P)
    join_P = graph(qp_P.gens + rp_P.gens)
    in_join = membership_oracle(fab, qp_P.gens + rp_P.gens)
    pairs = []
    for big, in_big, small in ((q, in_q, qp_P), (r, in_r, rp_P)):
        in_small = membership_oracle(fab, small.gens)
        pairs.append((
            pullback(pullback(graph(big), graph(p)), join_P), graph(small.gens),
            lambda g, in_big=in_big, in_small=in_small: (
                in_big(g) and in_p(g) and in_join(g)) != in_small(g),
        ))
    check("C4", pairs)


def test_c4_fails_beyond_the_radius(fab, fab_rel_a):
    """Q = R = Q' = <a>, R' = <b^2>, P0 = <b^3> at radius 3: R_P is trivial
    and R'_P = <b^6>, so C4 fails on b^6, which lies outside the radius-3
    ball; a search capped at the radius found no witness."""
    S = lambda word: SubgroupSpec((w(word, fab),))
    ctx = ConditionContext(
        view=fab_rel_a,
        Q=S("a"),
        R=S("a"),
        Qp=S("a"),
        Rp=S("b b"),
        P_list=(S("b b b"),),
        radius=3,
    )
    rep = check_condition("C4", ctx)
    assert (rep.verdict, rep.witness) == ("fails", w("b b b b b b", fab))


@settings(max_examples=60, deadline=None)
@given(big=_gens, small=_gens, radius=st.integers(0, 5))
def test_c5_coset_reps_match_the_ball_scan(fab, fab_rel_a, big, small, radius):
    """C5's representatives, read off big's closed walks, are those of the
    ball scan, in the same order, for a small subgroup of big (as C5 asks)
    and for any small one."""
    ctx = make_ctx(fab, fab_rel_a, radius=radius)
    big = SubgroupSpec(big)
    for small in (ctx.restrict(SubgroupSpec(small), big), SubgroupSpec(small)):
        assert conditions._coset_reps_in_ball(ctx, big, small) == (
            reference_coset_reps_in_ball(ctx, big, small)
        )


_words = st.lists(st.sampled_from(signed_letters(2)), max_size=4).map(reduce_letters_naive)
_subsets = st.tuples(_words, st.lists(_gens, max_size=3).map(tuple))


@settings(max_examples=150, deadline=None)
@given(
    inside=_subsets, outside=_subsets, same=st.booleans(),
    symmetric=st.booleans(), radius=st.integers(0, 5),
)
# <b^-1 a^-1 b> minus {1}: b^-1 and b^-1 a reach one state set, and only
# the word ending in a may go on with b, to the witness b^-1 a b
@example(inside=((), ((w("b^-1 a^-1 b", _F2),),)), outside=((), ()), same=False,
         symmetric=False, radius=4)
# a <b^-1 a b^-1> against {a}: they first differ on a b a^-1 b, beyond
# radius 3, and the unreduced a b b^-1 must not be read
@example(inside=(w("a", _F2), ((w("b^-1 a b^-1", _F2),),)), outside=(w("a", _F2), ()),
         same=False, symmetric=True, radius=3)
def test_least_word_is_the_first_hit_of_the_ball(
    fab, inside, outside, same, symmetric, radius
):
    # inside is g0 * F_1 ... F_s; same=True gives the empty difference
    inside = RationalSubset(fab, *inside)
    outside = inside if same else RationalSubset(fab, *outside)
    if symmetric:
        pred = lambda g: inside.contains(g) != outside.contains(g)
    else:
        pred = lambda g: inside.contains(g) and not outside.contains(g)
    expected = least_hit(build_ball(fab, radius).elements, pred)[1]
    got = least_word(fab, inside.nfa, outside.nfa, radius, symmetric=symmetric)
    assert got == expected
    if same:
        assert got is None


def test_least_word_budget(fab):
    # the words a^k b^j of <a><b> reach five product states: the start,
    # then one per last letter
    inside = RationalSubset(fab, (), ((w("a", fab),), (w("b", fab),)))
    outside = RationalSubset(fab, w("a b a", fab), ())
    assert least_word(fab, inside.nfa, outside.nfa, 3) == ()
    nothing = RationalSubset(fab, (), ())
    assert least_word(fab, nothing.nfa, nothing.nfa, 4) is None
    with pytest.raises(BudgetExceededError):
        least_word(fab, inside.nfa, nothing.nfa, 4, budget=0)
    with pytest.raises(BudgetExceededError):
        least_word(fab, inside.nfa, inside.nfa, 4, budget=4)
    assert least_word(fab, inside.nfa, inside.nfa, 4, budget=5) is None


def test_restrict_pulls_back_once_per_context(fab, fab_rel_a, monkeypatch):
    """C3, C5, C5-m and P2 ask again for S = Q cap R and for the restrictions
    to P; each of the five pairs is pulled back once per context."""
    calls = []
    pullback_ = conditions.pullback
    monkeypatch.setattr(
        conditions, "pullback", lambda A, B: calls.append(1) or pullback_(A, B)
    )
    for _ in range(2):
        ctx = make_ctx(fab, fab_rel_a, k=2, C=1, radius=4)
        ctx.P_list = (SubgroupSpec((w("a", fab), w("b", fab))),)
        for _ in range(2):
            for cond_id in ("C3", "C5", "C5-m", "P2"):
                check_condition(cond_id, ctx)
    assert len(calls) == 2 * 5


def test_restrict_keys_on_generators(fab, fab_rel_a, monkeypatch):
    """Q, R and Q' share the generator a, so their restrictions to P0 are
    one pullback: the ten conditions make C1's two (S = Q cap R and
    Q' cap R'), C4's two restrictions (a and b^2 to b^3) and C4's two
    left-hand sides, 6 in all, not one per context field that asks (8)."""
    calls = []
    pullback_ = conditions.pullback
    monkeypatch.setattr(
        conditions, "pullback", lambda A, B: calls.append(1) or pullback_(A, B)
    )
    a, b2, b3 = w("a", fab), w("b b", fab), w("b b b", fab)
    ctx = ConditionContext(
        view=fab_rel_a,
        Q=SubgroupSpec((a,)),
        R=SubgroupSpec((a,)),
        Qp=SubgroupSpec((a,)),
        Rp=SubgroupSpec((b2,)),
        P_list=(SubgroupSpec((b3,)),),
        radius=3,
    )
    for cond_id in conditions.CONDITION_IDS:
        check_condition(cond_id, ctx)
    assert len(calls) == 6


def test_checkers_build_no_ball(fab, fab_rel_a, monkeypatch):
    """All ten conditions run with every ``build_ball`` and
    ``membership_oracle`` binding under ``relhyp`` patched to raise, on a
    context where they pass and two where C1, C2, C4, C5 and C5-m fail; C5
    and C5-m meet a non-abelian peripheral and a tail."""

    def refuse(*args, **kwargs):
        raise AssertionError("a ball or a membership oracle was built")

    assert not any(hasattr(conditions, a) for a in ("build_ball", "membership_oracle"))
    for name, module in list(sys.modules.items()):
        if name == "relhyp" or name.startswith("relhyp."):
            for attr in ("build_ball", "membership_oracle"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    holds = make_ctx(fab, fab_rel_a, k=2, C=1, radius=4)
    fails = make_ctx(fab, fab_rel_a, k=2, B=50, C=50, A=50, radius=4)
    equal = make_ctx(fab, fab_rel_a, k=2, radius=4)
    equal.Rp = equal.Qp  # Q' cap R' = Q' is not S = 1: C1 and C4 fail
    contexts = (holds, fails, equal)
    for ctx in contexts:
        ctx.P_list += (SubgroupSpec((w("a", fab), w("b", fab))),)
        ctx.T_list = (SubgroupSpec((w("a b", fab),)),)
        ctx.U_list = (SubgroupSpec((w("a b", fab),)),)
    verdicts = {
        c: [check_condition(c, ctx).verdict for ctx in contexts]
        for c in conditions.CONDITION_IDS
    }
    for cond_id in ("C1", "C2", "C4", "C5", "C5-m"):
        assert "fails" in verdicts[cond_id], cond_id


# -- one saturated automaton per subset per context ----------------------------

_SWEEP = ("C1", "C2", "C3", "C4", "C5", "C2-m", "C5-m", "P2", "P3")
_NONABELIAN = ("C5", "C2-m", "C5-m")
_two_letters = (
    st.lists(st.sampled_from(signed_letters(2)), min_size=2, max_size=2)
    .map(reduce_letters_naive)
    .filter(lambda x: len(x) == 2)
)


def _nonabelian_ctx(fab, fab_rel_a, k, B, C, radius, t0, t1, u1):
    """The non-abelian peripheral P0 = <a, b a b^-1> with tails T0, T1 and
    U0 = <a>, U1 = <u1>, over the Q, R, Q', R' of ``make_ctx``."""
    ctx = make_ctx(fab, fab_rel_a, k=k, B=B, C=C, A=B, radius=radius)
    ctx.P_list = (SubgroupSpec((w("a", fab), w("b a b^-1", fab))),)
    ctx.T_list = (SubgroupSpec((t0,)), SubgroupSpec((t1,)))
    ctx.U_list = (SubgroupSpec((w("a", fab),)), SubgroupSpec((u1,)))
    return ctx


@st.composite
def _shared_case(draw):
    """A sweep-shaped context (k in 1..5, all but P1) or a non-abelian one
    (k in 2..3, C5, C2-m and C5-m), radius 4, as a builder of fresh copies."""
    B, C = draw(st.sampled_from((2, 3))), draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        k = draw(st.integers(1, 5))
        return _SWEEP, lambda fab, view: make_ctx(fab, view, k=k, B=B, C=C, A=B, radius=4)
    k = draw(st.integers(2, 3))
    t0, t1 = draw(_two_letters), draw(_two_letters)
    u1 = w(draw(st.sampled_from(("b a b^-1", "a b a^-1"))), _F2)
    return _NONABELIAN, lambda fab, view: _nonabelian_ctx(fab, view, k, B, C, 4, t0, t1, u1)


@settings(max_examples=40, deadline=None)
@given(case=_shared_case())
def test_shared_context_reports_match_fresh_contexts(fab, fab_rel_a, case):
    """Each condition reports the same on one context shared by all of them,
    where later checks read the automata that earlier ones saturated, as on
    a fresh context of its own."""
    cond_ids, make = case
    shared = make(fab, fab_rel_a)
    for cond_id in cond_ids:
        assert check_condition(cond_id, shared) == check_condition(
            cond_id, make(fab, fab_rel_a)
        ), cond_id


def test_nonabelian_saturates_each_subset_once(fab, fab_rel_a, monkeypatch):
    """C5, C2-m and C5-m on the non-abelian shape ask for some rational
    subsets more than once (C5 and C5-m at j = 0 share theirs), and each
    distinct (g0, factors) is chained and saturated once."""
    built, asked, saturated = [], [], []
    subset_ = conditions.RationalSubset
    saturate_ = rational.saturate
    minx_ = conditions._minx_condition

    def subset(G, g0, factors):
        built.append((g0, factors))
        return subset_(G, g0, factors)

    def minx_condition(ctx, inside, outside, *args, **kwargs):
        asked.extend([(inside.g0, inside.factors), (outside.g0, outside.factors)])
        return minx_(ctx, inside, outside, *args, **kwargs)

    monkeypatch.setattr(conditions, "RationalSubset", subset)
    monkeypatch.setattr(rational, "saturate", lambda nfa: saturated.append(1) or saturate_(nfa))
    monkeypatch.setattr(conditions, "_minx_condition", minx_condition)
    ctx = _nonabelian_ctx(
        fab, fab_rel_a, 2, 2, 2, 4, w("a b", fab), w("b^-1 a", fab), w("b a b^-1", fab)
    )
    for cond_id in _NONABELIAN:
        check_condition(cond_id, ctx)
    assert len(saturated) == len(built) == len(set(built)) == len(set(asked))
    assert len(asked) > len(set(asked))
