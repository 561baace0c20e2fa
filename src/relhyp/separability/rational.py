"""Rational subsets of free groups: product automata and reduction closure.

A subset of the form g * F_1 ... F_s is recognised by chaining subgroup
automata behind a line for g and then saturating with epsilon moves: whenever
the automaton can read a letter and immediately unread it, the two endpoint
states are epsilon-connected.  After saturation the automaton accepts every
reduced word of the subset, so membership of an element is a single
simulation of its normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..groups import Elem, FreeGroup
from .stallings import StallingsGraph, subgroup_graph


@dataclass
class _NFA:
    n: int
    trans: list  # list of dict letter -> set of states
    initial: frozenset
    finals: frozenset
    eps: list  # list of sets, closed reachability (reflexive)


def _nfa_for_graph(H: StallingsGraph, offset: int) -> tuple:
    trans = []
    for v in range(len(H)):
        d: dict = {}
        for x, w in H.out[v].items():
            d.setdefault(x, set()).add(w + offset)
        trans.append(d)
    return trans, offset + H.basepoint, offset + H.basepoint


def _nfa_for_word(word: Elem, offset: int) -> tuple:
    trans = [{} for _ in range(len(word) + 1)]
    for i, x in enumerate(word):
        trans[i].setdefault(x, set()).add(offset + i + 1)
    return trans, offset, offset + len(word)


def build_chain_nfa(g0: Elem, graphs: Sequence[StallingsGraph]) -> _NFA:
    """NFA for the unreduced language of g0 * H_1 ... H_s."""
    trans: list = []
    eps_pairs = []
    prev_final = None
    initial = None
    pieces = []
    if g0:
        pieces.append(("w", g0))
    for H in graphs:
        pieces.append(("g", H))
    if not pieces:
        pieces.append(("w", ()))
    for kind, data in pieces:
        offset = len(trans)
        if kind == "w":
            t, ini, fin = _nfa_for_word(data, offset)
        else:
            t, ini, fin = _nfa_for_graph(data, offset)
        trans.extend(t)
        if initial is None:
            initial = ini
        if prev_final is not None:
            eps_pairs.append((prev_final, ini))
        prev_final = fin
    n = len(trans)
    eps = [set([i]) for i in range(n)]
    for a, b in eps_pairs:
        eps[a].add(b)
    nfa = _NFA(n, trans, frozenset([initial]), frozenset([prev_final]), eps)
    _close_eps(nfa)
    return nfa


def _close_eps(nfa: _NFA) -> None:
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


def saturate(nfa: _NFA) -> _NFA:
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


def accepts_reduced(nfa: _NFA, word: Elem) -> bool:
    cur = set()
    for q in nfa.initial:
        cur |= nfa.eps[q]
    for x in word:
        nxt = set()
        for q in cur:
            for m in nfa.trans[q].get(x, ()):
                nxt |= nfa.eps[m]
        cur = nxt
        if not cur:
            return False
    return bool(cur & set(nfa.finals))


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
    _nfa: _NFA = field(init=False, repr=False)

    def __post_init__(self):
        self.graphs = tuple(subgroup_graph(gens, self.group) for gens in self.factors)
        self._nfa = saturate(build_chain_nfa(self.g0, self.graphs))

    def contains(self, g: Elem) -> bool:
        return accepts_reduced(self._nfa, g)

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
