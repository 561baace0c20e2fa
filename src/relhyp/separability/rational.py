"""Rational subsets of free groups: product automata and reduction closure.

A subset of the form g * F_1 ... F_s is recognised by chaining subgroup
automata behind a line for g and then saturating with epsilon moves: whenever
the automaton can read a letter and immediately unread it, the two endpoint
states are epsilon-connected.  After saturation the automaton accepts every
reduced word of the subset, so membership of an element is a single
simulation of its normal form, and a least element of a Boolean
combination of two subsets is a breadth-first search over their product
(``least_word``, which takes any two automata that step, such as a subset's
automaton and a finite quotient's permutation images).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import BudgetExceededError
from ..groups import Elem, FreeGroup
from .stallings import StallingsGraph, subgroup_graph


@dataclass
class NFA:
    n: int
    trans: list  # list of dict letter -> set of states
    initial: frozenset
    finals: frozenset
    eps: list  # list of sets, closed reachability (reflexive)

    def start(self) -> frozenset:
        return frozenset().union(*(self.eps[q] for q in self.initial))

    def step(self, cur, x) -> frozenset:
        nxt: set = set()
        for q in cur:
            for m in self.trans[q].get(x, ()):
                nxt |= self.eps[m]
        return frozenset(nxt)

    def accepts(self, cur) -> bool:
        return not self.finals.isdisjoint(cur)


def build_chain_nfa(g0: Elem, graphs: Sequence[StallingsGraph]) -> NFA:
    """NFA for the unreduced language of g0 * H_1 ... H_s: a line of states
    spelling g0 from state 0 (one state when g0 is empty), then each graph,
    its basepoint joined to the previous end by an epsilon move."""
    trans: list = [{x: {i + 1}} for i, x in enumerate(g0)] + [{}]
    eps = [{i} for i in range(len(trans))]
    end = len(g0)
    for H in graphs:
        offset = len(trans)
        eps[end].add(offset + H.basepoint)
        end = offset + H.basepoint
        trans += ({x: {offset + w} for x, w in out.items()} for out in H.out)
        eps += ({offset + v} for v in range(len(H)))
    nfa = NFA(len(trans), trans, frozenset([0]), frozenset([end]), eps)
    _close_eps(nfa)
    return nfa


def _close_eps(nfa: NFA) -> None:
    changed = True
    while changed:
        changed = False
        for v in range(nfa.n):
            add = set()
            for w in nfa.eps[v]:
                add |= nfa.eps[w]
            if not add <= nfa.eps[v]:
                nfa.eps[v] |= add
                changed = True


def saturate(nfa: NFA) -> NFA:
    """Close the automaton under free reduction (iterated epsilon insertion)."""
    changed = True
    while changed:
        changed = False
        for q in range(nfa.n):
            for x, mids in list(nfa.trans[q].items()):
                reach = set()
                for m in mids:
                    reach |= nfa.eps[m]
                for r in reach:
                    for s in nfa.trans[r].get(-x, ()):
                        if s not in nfa.eps[q]:
                            nfa.eps[q].add(s)
                            changed = True
        if changed:
            _close_eps(nfa)
    return nfa


def least_word(
    G: FreeGroup,
    inside,
    outside,
    radius: Optional[int] = None,
    budget: Optional[int] = None,
    symmetric: bool = False,
) -> Optional[Elem]:
    """The shortlex-least reduced word of length at most ``radius`` (None:
    any length) that ``inside`` accepts and ``outside`` rejects
    (``symmetric``: that exactly one of them accepts), or None.  Shortlex is
    by length, then letter by letter in ``G.letters()`` order.

    Both are automata that step: ``start()`` is the empty word's state,
    ``step(state, x)`` the state after the letter x, and ``accepts(state)``
    whether a word ending there is accepted.  States are hashable, and an
    empty one accepts no extension.  An ``NFA`` steps by subset construction,
    a quotient's images (``quotients._ImageAction``) by permutation.

    Breadth-first search over product states (last letter, inside state,
    outside state), each step computed once per search; the last letter
    keeps every word reduced.  Letters are expanded in ``G.letters()`` order
    and a state is kept only when first found, so the words reach the
    states in shortlex order.  A word whose state was found before by a word
    u is dropped: every extension of it is accepted exactly when the same
    extension of u is, and that one comes first.  A word no extension of
    which can be accepted (an empty inside state, or both empty when
    ``symmetric``) is dropped too.  So the first accepted word found is the
    least.  ``build_ball``'s level order on a free group is this shortlex
    order, so the word is also the first accepted element of the radius
    ball.  The search keeps its own level loop, not ``groups.bfs``, because
    it stops at the first hit.

    At most ``budget`` product states are stored (None: no cap); the search
    raises BudgetExceededError past it.  With the depth cap they are never
    more than the radius ball's elements.  Without it the search stops when
    the frontier empties, as there are finitely many states: None is exact.
    """
    limit = sys.maxsize if budget is None else budget
    if limit < 1:
        raise BudgetExceededError("search exceeded the %d-state budget" % limit)
    letters = [x for (x,) in G.letters()]
    moves_in: dict = {}
    moves_out: dict = {}

    def move(aut, moves, cur, x):
        key = (cur, x)
        nxt = moves.get(key)
        if nxt is None:
            nxt = moves[key] = aut.step(cur, x)
        return nxt

    def hit(a, b) -> bool:
        a, b = inside.accepts(a), outside.accepts(b)
        return a != b if symmetric else a and not b

    a0, b0 = inside.start(), outside.start()
    if hit(a0, b0):
        return ()
    seen = {(0, a0, b0)}
    frontier = [((), 0, a0, b0)]
    depth = 0
    while frontier and (radius is None or depth < radius):
        depth += 1
        nxt = []
        for word, last, a, b in frontier:
            for x in letters:
                if x == -last:
                    continue
                a2 = move(inside, moves_in, a, x)
                b2 = move(outside, moves_out, b, x)
                if not a2 and (not symmetric or not b2):
                    continue
                key = (x, a2, b2)
                if key in seen:
                    continue
                if len(seen) >= limit:
                    raise BudgetExceededError(
                        "search exceeded the %d-state budget" % limit
                    )
                seen.add(key)
                w = word + (x,)
                if hit(a2, b2):
                    return w
                nxt.append((w, x, a2, b2))
        frontier = nxt
    return None


@dataclass
class RationalSubset:
    """The subset g0 * F_1 ... F_s of a free group, with its saturated automaton.

    After saturation the automaton accepts exactly the reduced words of the
    subset, so ``contains`` is exact.
    """

    group: FreeGroup
    g0: Elem
    factors: tuple[tuple[Elem, ...], ...]
    graphs: tuple[StallingsGraph, ...] = field(init=False)
    nfa: NFA = field(init=False, repr=False)

    def __post_init__(self):
        self.graphs = tuple(subgroup_graph(gens, self.group) for gens in self.factors)
        self.nfa = saturate(build_chain_nfa(self.g0, self.graphs))

    def contains(self, g: Elem) -> bool:
        cur = self.nfa.start()
        for x in g:
            cur = self.nfa.step(cur, x)
            if not cur:
                return False
        return self.nfa.accepts(cur)

    def symbolic(self) -> str:
        parts = []
        if self.g0:
            parts.append(self.group.elem_str(self.g0))
        for gens in self.factors:
            parts.append(
                "<" + ", ".join(self.group.elem_str(w) for w in gens) + ">"
            )
        return " . ".join(parts) if parts else "{1}"


def product_member(g: Elem, factors: Sequence, G: FreeGroup) -> bool:
    """Is g in the product H_1 H_2 ... H_s (as a group product, with
    cancellation)?  ``factors`` are generator tuples."""
    return RationalSubset(G, (), factors).contains(g)
