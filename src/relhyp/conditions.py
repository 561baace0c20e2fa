"""minx, quasiconvexity estimates, and the metric condition checkers.

Conditions quantify over infinite sets, so the checkers are semi-decision
procedures: a failure comes with a concrete short witness and is final, a
pass is stamped with the enumeration radius.  Memberships are exact: each
subgroup is read off its folded graph (C5's coset representatives and P1's
points are its closed walks up to the radius), each product off a saturated
automaton; no checker enumerates a ball.  Each rational subset is chained
and saturated once per context (``ConditionContext.subset``), so checks
that share a product, such as C2 and C2-m at j = 0, share its automaton.

Each minx bound is minx(inside \\ outside) for two rational subsets of the
free ambient.  It is read off a breadth-first search over the product of
their automata, capped at the radius (``rational.least_word``): the first
word found in inside and not in outside is the least element of the radius
ball in the difference, and the search visits each product state once
instead of each ball element.  C1 and C4 run the same search, uncapped,
over two folded graphs and accept the words in exactly one of them; the
product is finite, so it finds the least absolute witness or proves the
subgroups equal.

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
from typing import Iterable, Iterator, Optional

from .cayley import DEFAULT_VERTEX_BUDGET, RelGraphView
from .errors import UnsupportedFamilyError
from .groups import Elem, FreeGroup, GroupSpec, SubgroupSpec, per_instance
from .separability import (
    RationalSubset,
    StallingsGraph,
    basis,
    build_chain_nfa,
    least_word,
    pullback,
    subgroup_graph,
)

CONDITION_IDS = ("C1", "C2", "C3", "C4", "C5", "C2-m", "C5-m", "P1", "P2", "P3")
_MINX_FAMILIES = ("C2", "C3", "C5", "C2-m", "C5-m")


def minx(elements: Iterable[Elem], G: GroupSpec):
    """min |g|_X over ``elements``; +inf when there are none."""
    return min((G.x_length(g) for g in elements), default=math.inf)


@dataclass(frozen=True)
class ConditionReport:
    verdict: str  # "holds" | "holds-to-radius" | "fails" | "vacuous"
    radius: int
    witness: Optional[Elem] = None
    measured: object = None
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
    budget: Optional[int] = None  # caps walks and product states; None: DEFAULT_VERTEX_BUDGET

    def __post_init__(self):
        base = self.view.group.base
        if not isinstance(base, FreeGroup):
            raise UnsupportedFamilyError("condition checking needs a free ambient base")
        self.G = base
        self.budget = DEFAULT_VERTEX_BUDGET if self.budget is None else self.budget

    def disagreement(self, A: StallingsGraph, B: StallingsGraph) -> Optional[Elem]:
        """The shortlex-least element in exactly one of the subgroups of the
        folded graphs ``A`` and ``B``, at any length; None when they are equal."""
        return least_word(
            self.G, build_chain_nfa((), (A,)), build_chain_nfa((), (B,)),
            None, self.budget, symmetric=True,
        )

    # -- derived subgroups, all exact via folded automata --

    def s_spec(self) -> SubgroupSpec:
        return self.restrict(self.Q, self.R)

    def join_spec(self) -> SubgroupSpec:
        return SubgroupSpec(self.Qp.gens + self.Rp.gens)

    @per_instance
    def restrict(self, spec: SubgroupSpec, P: SubgroupSpec) -> SubgroupSpec:
        """spec ∩ P, pulled back once per pair of subgroups."""
        inter = pullback(subgroup_graph(spec.gens, self.G), subgroup_graph(P.gens, self.G))
        return SubgroupSpec(tuple(basis(inter, self.G)))

    @per_instance
    def subset(self, g0: Elem, factors: tuple) -> RationalSubset:
        """The rational subset g0 * F_1 ... F_s, saturated once per context."""
        return RationalSubset(self.G, g0, factors)


def quasiconvexity_epsilon(
    Q: SubgroupSpec, view: RelGraphView, radius: int, budget: Optional[int] = None
) -> tuple[int, str]:
    """Largest d_X from a vertex of a canonical relative geodesic between
    two points of P = Q ∩ B_r to P.  Radius-stamped; P is read off Q's
    folded graph, storing at most ``budget`` walks (None: no cap).

    The base of ``view`` must be free (else UnsupportedFamilyError); then
    one geodesic per point suffices, |P| - 1 in all, not one per pair.  The
    vertices of the canonical geodesics between all pairs of P are those of
    the geodesics from 1 to each u in P \\ {1}:

    Write u = c u' and v = c v' with c their longest common prefix.  The
    geodesic from u to v spells u'^-1 v' by maximal one-generator runs: one
    h edge per peripheral run, one x edge per letter of any other run (one h
    edge in all under a whole-group peripheral, a letter per edge with no
    peripherals).  So its vertices are the c p with p a prefix of u' or of
    v', cut at a point not strictly inside a peripheral run.  Between two
    letters of u' (or at its end) that point cuts u the same way, so c p is
    a vertex of the geodesic from 1 to u.  The one point left is c itself.
    The last letter of c cannot begin both u' and v', so c is strictly
    inside a peripheral run of at most one of u and v, and is a vertex of
    the geodesic from 1 to the other.  Conversely each geodesic from 1 is a
    pair of P, as 1 lies in P.

    Off free bases this fails: on Z^2 the vertex (1, 1) lies on the
    geodesic from (1, 0) to (0, 1) but on no geodesic from 0.
    """
    G = view.group.base
    if not isinstance(G, FreeGroup):
        raise UnsupportedFamilyError("quasiconvexity_epsilon needs a free base")
    pts = subgroup_graph(Q.gens, G).closed_words(G, radius, budget)
    e = G.identity()
    need = set()
    for u in pts:
        if u != e:
            need.update(view.geodesic(e, u).vertices)
    eps = 0
    for v in need.difference(pts):  # a point of P is at distance 0
        eps = max(eps, min(view.x_dist(v, q) for q in pts))
    return eps, "measured on the radius-%d ball" % radius


def _minx_condition(
    ctx: ConditionContext,
    inside: RationalSubset,
    outside: RationalSubset,
    threshold: int,
    caveats: tuple = (),
) -> ConditionReport:
    """Generic minx(inside \\ outside) >= threshold over the radius ball.

    The witness is checked again by simulating both automata on it, so a
    search that disagreed with ``contains`` would fail loudly.
    """
    witness = least_word(ctx.G, inside.nfa, outside.nfa, ctx.radius, ctx.budget)
    if witness is not None and (
        not inside.contains(witness) or outside.contains(witness)
    ):
        raise AssertionError("search and simulation disagree on %r" % (witness,))
    measured = math.inf if witness is None else ctx.G.x_length(witness)
    if measured < threshold:
        return ConditionReport("fails", ctx.radius, witness, measured, caveats)
    return ConditionReport(
        "holds-to-radius",
        ctx.radius,
        None,
        measured,
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
        return _least(handler(ctx)) or ConditionReport("vacuous", ctx.radius)
    return handler(ctx)


def _check_c1(ctx: ConditionContext) -> ConditionReport:
    s_graph = subgroup_graph(ctx.s_spec().gens, ctx.G)
    qp_rp = pullback(
        subgroup_graph(ctx.Qp.gens, ctx.G), subgroup_graph(ctx.Rp.gens, ctx.G)
    )
    witness = ctx.disagreement(qp_rp, s_graph)
    if witness is None:
        return ConditionReport(
            "holds", ctx.radius, None, None, ("exact via folded automata",)
        )
    return ConditionReport("fails", ctx.radius, witness)


def _c2_reports(ctx: ConditionContext, side: SubgroupSpec, tails):
    """The C2 minx reports on one side, lazily; each tail of factors extends
    both products after the side."""
    join_gens = ctx.join_spec().gens
    for tail in tails:
        yield _minx_condition(
            ctx,
            ctx.subset((), (side.gens, join_gens, side.gens) + tail),
            ctx.subset((), (side.gens,) + tail),
            ctx.B,
        )


def _check_c2(ctx: ConditionContext) -> Iterator[ConditionReport]:
    for side in (ctx.Q, ctx.R):
        yield from _c2_reports(ctx, side, [()])


def _check_c3(ctx: ConditionContext) -> Iterator[ConditionReport]:
    if not ctx.P_list:
        return
    s = ctx.s_spec()
    for P in ctx.P_list:
        ps = ctx.subset((), (P.gens, s.gens))
        for half in (ctx.Qp, ctx.Rp):
            yield _minx_condition(ctx, ctx.subset((), (P.gens, half.gens)), ps, ctx.C)


def _check_c4(ctx: ConditionContext) -> ConditionReport:
    if not ctx.P_list:
        return ConditionReport("vacuous", ctx.radius)
    for P in ctx.P_list:
        qp_P = ctx.restrict(ctx.Qp, P)
        rp_P = ctx.restrict(ctx.Rp, P)
        join_P = subgroup_graph(qp_P.gens + rp_P.gens, ctx.G)
        for big, small in ((ctx.Q, qp_P), (ctx.R, rp_P)):
            lhs = pullback(subgroup_graph(ctx.restrict(big, P).gens, ctx.G), join_P)
            witness = ctx.disagreement(lhs, subgroup_graph(small.gens, ctx.G))
            if witness is not None:
                return ConditionReport("fails", ctx.radius, witness)
    return ConditionReport(
        "holds", ctx.radius, None, None, ("exact via folded automata",)
    )


def _coset_reps_in_ball(ctx: ConditionContext, big: SubgroupSpec, small: SubgroupSpec):
    """The first element of each small-coset among big's closed walks up to
    the radius, in ball order."""
    G = ctx.G
    small_graph = subgroup_graph(small.gens, G)
    reps: list = []
    for g in subgroup_graph(big.gens, G).closed_words(G, ctx.radius, ctx.budget):
        if not any(small_graph.accepts(G.mul(G.inv(r), g)) for r in reps):
            reps.append(g)
    return reps


def _c5_reports(ctx: ConditionContext, P: SubgroupSpec, tails):
    """The C5 minx reports at one peripheral P, lazily; each tail of factors
    extends both products after R_P."""
    qp_P = ctx.restrict(ctx.Qp, P)
    rp_P = ctx.restrict(ctx.Rp, P)
    q_P = ctx.restrict(ctx.Q, P)
    r_P = ctx.restrict(ctx.R, P)
    join_gens = qp_P.gens + rp_P.gens
    reps = _coset_reps_in_ball(ctx, q_P, qp_P)
    for tail in tails:
        for q in reps:
            yield _minx_condition(
                ctx,
                ctx.subset(q, (join_gens, r_P.gens) + tail),
                ctx.subset(q, (qp_P.gens, r_P.gens) + tail),
                ctx.C,
                caveats=("q ranges over coset representatives found in the ball",),
            )


def _check_c5(ctx: ConditionContext) -> Iterator[ConditionReport]:
    for P in ctx.P_list:
        # a subgroup of a free group is abelian exactly when it is cyclic
        if len(basis(subgroup_graph(P.gens, ctx.G), ctx.G)) <= 1:
            yield ConditionReport(
                "vacuous", ctx.radius, None, None,
                ("abelian peripheral: the two sides coincide",),
            )
        else:
            yield from _c5_reports(ctx, P, [()])


def _check_c2m(ctx: ConditionContext) -> Iterator[ConditionReport]:
    tails = (tuple(t.gens for t in ctx.T_list[:j]) for j in range(len(ctx.T_list) + 1))
    yield from _c2_reports(ctx, ctx.R, tails)


def _check_c5m(ctx: ConditionContext) -> Iterator[ConditionReport]:
    for P in ctx.P_list:
        u_P = [ctx.restrict(U, P).gens for U in ctx.U_list]
        tails = (
            tail for j in range(len(ctx.T_list) + 1) for tail in iproduct(u_P, repeat=j)
        )
        yield from _c5_reports(ctx, P, tails)


def _check_p1(ctx: ConditionContext) -> ConditionReport:
    join = ctx.join_spec()
    eps1, _ = quasiconvexity_epsilon(join, ctx.view, ctx.radius, ctx.budget)
    eps2, _ = quasiconvexity_epsilon(join, ctx.view, ctx.radius + 2, ctx.budget)
    stable = eps1 == eps2
    return ConditionReport(
        "holds-to-radius" if stable else "fails",
        ctx.radius,
        None,
        (eps1, eps2),
        ("stability compared between radius r and r+2",),
    )


def _check_p2(ctx: ConditionContext) -> ConditionReport:
    join = ctx.join_spec()
    s = ctx.s_spec()
    inside = ctx.subset((), (join.gens,))
    outside = ctx.subset((), (s.gens,))
    return _minx_condition(ctx, inside, outside, ctx.A)


def _check_p3(ctx: ConditionContext) -> ConditionReport:
    join = ctx.join_spec()
    inside = ctx.subset((), (ctx.Q.gens, join.gens, ctx.R.gens))
    outside = ctx.subset((), (ctx.Q.gens, ctx.R.gens))
    return _minx_condition(ctx, inside, outside, ctx.A)
