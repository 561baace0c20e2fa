"""minx, quasiconvexity estimates, and the metric condition checkers.

Conditions quantify over infinite sets, so the checkers are semi-decision
procedures: a failure comes with a concrete short witness and is final, a
pass is stamped with the enumeration radius.  Set memberships are exact
(saturated product automata over free ambient groups, family arithmetic for
peripheral cases); only the enumeration is truncated.

C2, C3, C5, C2-m and C5-m each check one minx bound per member of a family
(a side, a peripheral, a tail, a coset representative).  Their checkers
yield one report per member, and ``_least`` reduces them to one: the first
report that fails, in enumeration order.  If none fails, it is the report
with the least measured minx; a missing or zero value counts as +inf, and
the first of equal reports wins.  A family with no members is vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, Iterable, Iterator, Optional

from .cayley import RelGraphView, build_ball
from .errors import UnsupportedFamilyError
from .groups import Elem, FreeGroup, GroupSpec, SubgroupSpec
from .separability import (
    RationalSubset,
    basis,
    finite_index_in,
    membership_oracle,
    pullback,
    subgroup_graph,
    subgroups_equal,
)

CONDITION_IDS = ("C1", "C2", "C3", "C4", "C5", "C2-m", "C5-m", "P1", "P2", "P3")
_MINX_FAMILIES = ("C2", "C3", "C5", "C2-m", "C5-m")


@dataclass(frozen=True)
class EnumeratedSet:
    """Elements of a set materialized up to an X-length radius."""

    elements: frozenset
    radius: int
    provenance: str
    exact: bool = False


def minx(Y: EnumeratedSet, G: GroupSpec):
    """min |g|_X over the enumerated set; +inf when empty within the radius."""
    return min((G.x_length(g) for g in Y.elements), default=math.inf)


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    verdict: str  # "holds" | "holds-to-radius" | "fails" | "vacuous"
    radius: int
    witness: Optional[Elem] = None
    measured: object = None
    params: tuple = ()
    caveats: tuple = ()

    @property
    def ok(self) -> bool:
        return self.verdict in ("holds", "holds-to-radius", "vacuous")


@dataclass
class ConditionContext:
    """Everything a condition checker needs, bundled once.

    Subgroups are given by generators in the ambient group; products are
    decided by saturated automata, so the ambient base must be free for the
    product conditions.
    """

    view: RelGraphView
    Q: SubgroupSpec
    R: SubgroupSpec
    Qp: SubgroupSpec
    Rp: SubgroupSpec
    P_list: tuple[SubgroupSpec, ...] = ()
    T_list: tuple[SubgroupSpec, ...] = ()
    U_list: tuple[SubgroupSpec, ...] = ()
    B: int = 0
    C: int = 0
    A: int = 0
    radius: int = 6
    P_abelian: tuple[bool, ...] = ()

    def __post_init__(self):
        base = self.view.group.base
        if not isinstance(base, FreeGroup):
            raise UnsupportedFamilyError(
                "condition checking needs a free ambient base"
            )
        self.G = base
        self._ball = None

    def ball_elements(self):
        if self._ball is None:
            self._ball = build_ball(self.G, self.radius)
        return self._ball.elements

    # -- derived subgroups, all exact via folded automata --

    def graph(self, spec: SubgroupSpec):
        return subgroup_graph(spec.gens, self.G)

    def s_spec(self) -> SubgroupSpec:
        inter = pullback(self.graph(self.Q), self.graph(self.R))
        return SubgroupSpec(tuple(basis(inter, self.G)), role="S")

    def join_spec(self) -> SubgroupSpec:
        return SubgroupSpec(self.Qp.gens + self.Rp.gens, role="<Q',R'>")

    def restrict(self, spec: SubgroupSpec, P: SubgroupSpec, role: str) -> SubgroupSpec:
        inter = pullback(self.graph(spec), self.graph(P))
        return SubgroupSpec(tuple(basis(inter, self.G)), role=role)


def quasiconvexity_epsilon(
    Q: SubgroupSpec, view: RelGraphView, radius: int
) -> tuple[int, str]:
    """Largest d_X from a vertex of a canonical relative geodesic between
    ball elements of Q to the enumerated part of Q.  Radius-stamped."""
    G = view.group
    ball = build_ball(G.base, radius)
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


def preccurlyeq(U: SubgroupSpec, V: SubgroupSpec, G: FreeGroup) -> bool:
    """Is the intersection of U and V of finite index in U?"""
    return finite_index_in(subgroup_graph(U.gens, G), subgroup_graph(V.gens, G), G)


def _minx_condition(
    ctx: ConditionContext,
    cond_id: str,
    inside: RationalSubset,
    outside: Callable[[Elem], bool],
    threshold: int,
    params: tuple,
    caveats: tuple = (),
) -> ConditionReport:
    """Generic minx(inside \\ outside) >= threshold over the radius ball."""
    measured = math.inf
    witness = None
    for g in ctx.ball_elements():
        if inside.contains(g) and not outside(g):
            l = ctx.G.x_length(g)
            if l < measured:
                measured = l
                witness = g
    if measured < threshold:
        return ConditionReport(
            cond_id, "fails", ctx.radius, witness, measured, params, caveats
        )
    return ConditionReport(
        cond_id,
        "holds-to-radius",
        ctx.radius,
        None,
        measured,
        params,
        caveats + ("pass is radius-stamped; a failure witness would be absolute",),
    )


def _least(reports: Iterable[ConditionReport]) -> Optional[ConditionReport]:
    """The first report that fails, else the first with the least measured
    value (None when there are no reports)."""
    least = None
    for rep in reports:
        if not rep.ok:
            return rep
        if least is None or (rep.measured or math.inf) < (least.measured or math.inf):
            least = rep
    return least


def check_condition(cond_id: str, ctx: ConditionContext) -> ConditionReport:
    """Dispatch one metric condition or property check."""
    if cond_id not in CONDITION_IDS:
        raise ValueError("unknown condition %r" % cond_id)
    handler = {
        "C1": _check_c1,
        "C2": _check_c2,
        "C3": _check_c3,
        "C4": _check_c4,
        "C5": _check_c5,
        "C2-m": _check_c2m,
        "C5-m": _check_c5m,
        "P1": _check_p1,
        "P2": _check_p2,
        "P3": _check_p3,
    }[cond_id]
    if cond_id in _MINX_FAMILIES:
        return _least(handler(ctx)) or ConditionReport(cond_id, "vacuous", ctx.radius)
    return handler(ctx)


def _check_c1(ctx: ConditionContext) -> ConditionReport:
    s = ctx.s_spec()
    qp_rp = pullback(ctx.graph(ctx.Qp), ctx.graph(ctx.Rp))
    exact = subgroups_equal(qp_rp, ctx.graph(s), ctx.G)
    if exact:
        return ConditionReport(
            "C1", "holds", ctx.radius, None, None, (), ("exact via folded automata",)
        )
    # produce a short witness on either side of the failed inclusion
    in_qp_rp = membership_oracle(ctx.G, tuple(basis(qp_rp, ctx.G)))
    in_s = membership_oracle(ctx.G, s.gens)
    witness = None
    for g in ctx.ball_elements():
        if in_qp_rp(g) != in_s(g):
            witness = g
            break
    return ConditionReport("C1", "fails", ctx.radius, witness)


def _check_c2(ctx: ConditionContext) -> Iterator[ConditionReport]:
    join = ctx.join_spec()
    for side in (ctx.Q, ctx.R):
        yield _minx_condition(
            ctx,
            "C2",
            RationalSubset(ctx.G, (), (side.gens, join.gens, side.gens)),
            membership_oracle(ctx.G, side.gens),
            ctx.B,
            params=(("B", ctx.B), ("side", side.role or "?")),
        )


def _check_c3(ctx: ConditionContext) -> Iterator[ConditionReport]:
    if not ctx.P_list:
        return
    s = ctx.s_spec()
    for P in ctx.P_list:
        ps = RationalSubset(ctx.G, (), (P.gens, s.gens))
        for half in (ctx.Qp, ctx.Rp):
            yield _minx_condition(
                ctx,
                "C3",
                RationalSubset(ctx.G, (), (P.gens, half.gens)),
                ps.contains,
                ctx.C,
                params=(("C", ctx.C), ("P", P.role or "?"), ("half", half.role or "?")),
            )


def _check_c4(ctx: ConditionContext) -> ConditionReport:
    if not ctx.P_list:
        return ConditionReport("C4", "vacuous", ctx.radius)
    for P in ctx.P_list:
        qp_P = ctx.restrict(ctx.Qp, P, "Q'_P")
        rp_P = ctx.restrict(ctx.Rp, P, "R'_P")
        join_P = subgroup_graph(qp_P.gens + rp_P.gens, ctx.G)
        for big, small in ((ctx.Q, qp_P), (ctx.R, rp_P)):
            big_P = ctx.restrict(big, P, "%s_P" % (big.role or "?"))
            lhs = pullback(ctx.graph(big_P), join_P)
            if not subgroups_equal(lhs, ctx.graph(small), ctx.G):
                in_lhs = membership_oracle(ctx.G, tuple(basis(lhs, ctx.G)))
                in_small = membership_oracle(ctx.G, small.gens)
                witness = next(
                    (g for g in ctx.ball_elements() if in_lhs(g) != in_small(g)),
                    None,
                )
                return ConditionReport(
                    "C4", "fails", ctx.radius, witness, None,
                    (("P", P.role or "?"),),
                )
    return ConditionReport(
        "C4", "holds", ctx.radius, None, None, (), ("exact via folded automata",)
    )


def _coset_reps_in_ball(ctx: ConditionContext, big: SubgroupSpec, small: SubgroupSpec):
    """Representatives of small-cosets of big-elements found in the ball."""
    in_big = membership_oracle(ctx.G, big.gens)
    in_small = membership_oracle(ctx.G, small.gens)
    reps: list = []
    for g in ctx.ball_elements():
        if not in_big(g):
            continue
        if any(in_small(ctx.G.mul(ctx.G.inv(r), g)) for r in reps):
            continue
        reps.append(g)
    return reps


def _c5_reports(ctx: ConditionContext, cond_id: str, P: SubgroupSpec, tails):
    """The C5 minx reports at one peripheral P, lazily.

    ``tails`` holds (params, factors) pairs: the factors extend both
    products after R_P, and the params go between P and q in the report.
    """
    qp_P = ctx.restrict(ctx.Qp, P, "Q'_P")
    rp_P = ctx.restrict(ctx.Rp, P, "R'_P")
    q_P = ctx.restrict(ctx.Q, P, "Q_P")
    r_P = ctx.restrict(ctx.R, P, "R_P")
    join_gens = qp_P.gens + rp_P.gens
    reps = _coset_reps_in_ball(ctx, q_P, qp_P)
    for extra, tail in tails:
        for q in reps:
            yield _minx_condition(
                ctx,
                cond_id,
                RationalSubset(ctx.G, q, (join_gens, r_P.gens) + tail),
                RationalSubset(ctx.G, q, (qp_P.gens, r_P.gens) + tail).contains,
                ctx.C,
                params=(("C", ctx.C), ("P", P.role or "?")) + extra
                + (("q", ctx.G.elem_str(q)),),
                caveats=("q ranges over coset representatives found in the ball",),
            )


def _check_c5(ctx: ConditionContext) -> Iterator[ConditionReport]:
    abelian = ctx.P_abelian or (False,) * len(ctx.P_list)
    for P, is_ab in zip(ctx.P_list, abelian):
        if is_ab:
            yield ConditionReport(
                "C5", "vacuous", ctx.radius, None, None,
                (("P", P.role or "?"),),
                ("abelian peripheral: the two sides coincide",),
            )
        else:
            yield from _c5_reports(ctx, "C5", P, [((), ())])


def _check_c2m(ctx: ConditionContext) -> Iterator[ConditionReport]:
    join = ctx.join_spec()
    for j in range(len(ctx.T_list) + 1):
        tail = tuple(t.gens for t in ctx.T_list[:j])
        yield _minx_condition(
            ctx,
            "C2-m",
            RationalSubset(ctx.G, (), (ctx.R.gens, join.gens, ctx.R.gens) + tail),
            RationalSubset(ctx.G, (), (ctx.R.gens,) + tail).contains,
            ctx.B,
            params=(("B", ctx.B), ("j", j)),
        )


def _check_c5m(ctx: ConditionContext) -> Iterator[ConditionReport]:
    for P in ctx.P_list:
        u_P = [ctx.restrict(U, P, "U_P").gens for U in ctx.U_list]
        tails = (
            ((("j", j),), tail)
            for j in range(len(ctx.T_list) + 1)
            for tail in iproduct(u_P, repeat=j)
        )
        yield from _c5_reports(ctx, "C5-m", P, tails)


def _check_p1(ctx: ConditionContext) -> ConditionReport:
    join = ctx.join_spec()
    eps1, _ = quasiconvexity_epsilon(join, ctx.view, ctx.radius)
    eps2, _ = quasiconvexity_epsilon(join, ctx.view, ctx.radius + 2)
    stable = eps1 == eps2
    return ConditionReport(
        "P1",
        "holds-to-radius" if stable else "fails",
        ctx.radius,
        None,
        (eps1, eps2),
        (),
        ("stability compared between radius r and r+2",),
    )


def _check_p2(ctx: ConditionContext) -> ConditionReport:
    join = ctx.join_spec()
    s = ctx.s_spec()
    inside = RationalSubset(ctx.G, (), (join.gens,))
    in_s = membership_oracle(ctx.G, s.gens)
    return _minx_condition(ctx, "P2", inside, in_s, ctx.A, params=(("A", ctx.A),))


def _check_p3(ctx: ConditionContext) -> ConditionReport:
    join = ctx.join_spec()
    inside = RationalSubset(ctx.G, (), (ctx.Q.gens, join.gens, ctx.R.gens))
    outside = RationalSubset(ctx.G, (), (ctx.Q.gens, ctx.R.gens))
    return _minx_condition(
        ctx, "P3", inside, outside.contains, ctx.A, params=(("A", ctx.A),)
    )
