"""Path representatives: factorizations of an element through Q' and R',
realized as broken lines, ordered by lexicographic type.

The type of a representative is the triple (segment count, total length,
total X-length of all peripheral components); minimization is a
budget-bounded exhaustive search whose output is exact within the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .cayley import BrokenLine, RelGraphView, build_ball, trivial_path
from .components import find_components
from .errors import BudgetExceededError
from .groups import Elem
from .separability import membership_oracle


class RepType(NamedTuple):
    """Lexicographically ordered type triple."""

    n: int
    length: int
    comp_x_length: int


@dataclass(frozen=True)
class PathRep:
    """A broken line whose segments factor an element, one Q' or R' role per
    segment."""

    line: BrokenLine
    roles: tuple[str, ...]

    def __post_init__(self):
        if len(self.roles) != len(self.line.segments):
            raise ValueError("one role per segment")
        if not set(self.roles) <= {"Q'", "R'"}:
            raise ValueError("every role is Q' or R'")


def type_of(rep: PathRep) -> RepType:
    comp_total = 0
    for seg in rep.line.segments:
        for c in find_components(seg):
            comp_total += c.x_length
    return RepType(len(rep.roles), rep.line.length(), comp_total)


@dataclass(frozen=True)
class SearchBudget:
    max_factors: int = 6
    max_len: int = 8

    def describe(self) -> str:
        return "factors <= %d, factor X-length <= %d" % (self.max_factors, self.max_len)


@dataclass(frozen=True)
class MinimizeResult:
    rep: Optional[PathRep]
    rep_type: Optional[RepType]
    caveat: str


def minimize_type(
    g: Elem,
    qp: tuple[Elem, ...],
    rp: tuple[Elem, ...],
    view: RelGraphView,
    budget: SearchBudget = SearchBudget(),
    node_budget: Optional[int] = None,
) -> MinimizeResult:
    """Exhaustive minimal-type search over factorizations g = y_1 ... y_n
    with every y_i in Q' or R' (given by their generator tuples ``qp`` and
    ``rp``), within the budget.

    The identity is represented by a single trivial segment of type (1,0,0).
    Output is labelled minimal up to the budget, never globally.  The pool
    of factors is the ball of radius ``budget.max_len`` filtered once per
    subgroup by the family's membership oracle, less the identity.  The
    candidate ball stores at most ``node_budget`` vertices and the search
    visits at most ``node_budget`` nodes (None: build_ball's default for the
    ball, no cap on the search); BudgetExceededError is raised past either.
    """
    G = view.group.base
    e = G.identity()
    caveat = "minimal up to budget (%s)" % budget.describe()
    if g == e:
        line = BrokenLine((trivial_path(view, e),))
        rep = PathRep(line, ("Q'",))
        return MinimizeResult(rep, RepType(1, 0, 0), caveat)

    ball = build_ball(G, budget.max_len, node_budget).elements
    pool = []
    for gens, role in ((qp, "Q'"), (rp, "R'")):
        cands = filter(membership_oracle(G, gens), ball)
        pool += [(y, role) for y in sorted(cands, key=G.sort_key) if y != e]

    best: Optional[tuple[RepType, tuple]] = None
    nodes = 0

    def consider(seq):
        nonlocal best
        nodes = [e]
        for y, _ in seq:
            nodes.append(G.mul(nodes[-1], y))
        line = BrokenLine.from_nodes(view, nodes)
        rep = PathRep(line, tuple(role for _, role in seq))
        t = type_of(rep)
        if best is None or t < best[0]:
            best = (t, rep)

    def dfs(prefix, value, remaining):
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceededError(
                "type search exceeded the %d-node budget" % node_budget
            )
        if value == g and prefix:
            consider(prefix)
        if not remaining:
            return
        gap = G.x_dist(value, g)
        if gap > remaining * budget.max_len:
            return
        if best is not None and len(prefix) + 1 > best[0].n:
            # a longer factorization can never beat the current best type
            return
        for y, role in pool:
            prefix.append((y, role))
            dfs(prefix, G.mul(value, y), remaining - 1)
            prefix.pop()

    dfs([], e, budget.max_factors)
    if best is None:
        return MinimizeResult(None, None, "not found within budget (%s)" % budget.describe())
    return MinimizeResult(best[1], best[0], caveat)
