"""Whitelisted group families with exact arithmetic on unique normal forms.

Every supported family carries a terminating normal form, so equality of
elements is equality of payloads:

* free group: reduced word, a tuple of signed codes ``letter(i)`` (0-based i)
  and their negations (inverses); codes start at 2, as hash(-1) == hash(-2)
  would give words that differ only by a^-1 <-> b^-1 one hash;
* free abelian group: exponent vector, a tuple of ints; vectors keep that
  collision, in classes of at most 4 on the radius-40 ball of Z^2;
* finite group: index into the multiplication table;
* free product: alternating tuple of ``(factor_index, payload)`` syllables;
* amalgamated product: left-greedy reduced syllable form, built in one
  left-to-right pass (see ``Amalgam._normalize``).

Products of syllable forms (free group, free product, amalgam) take their
left operand as a normal form and merge syllables only where the operands
meet; the free group and the free product take the right one as a normal
form too.  So ``validate_elem`` accepts only its family's normal forms.

Payloads are plain immutable Python values; the ``GroupSpec`` supplies the
operations.  All operations are pure.  A ``RelHyp`` is not a sixth family: it
is a base group plus its peripheral subgroups, and arithmetic belongs to its
``.base``.
"""

from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetExceededError, FamilyMismatchError, UnsupportedFamilyError

Elem = object  # family-specific payload; see module docstring


def per_instance(fn):
    """Memoise ``fn(self, *args)`` in the instance's own ``__dict__``.

    Frozen dataclasses allow writing ``__dict__`` directly.  Unlike
    ``lru_cache`` on a method, a call never hashes or compares the instance
    (a whole multiplication table, say), and the memo dies with it.
    """
    key = "_memo_" + fn.__name__

    @functools.wraps(fn)
    def wrapper(self, *args):
        memo = self.__dict__.get(key)
        if memo is None:
            memo = self.__dict__[key] = {}
        try:
            return memo[args]
        except KeyError:
            value = memo[args] = fn(self, *args)
            return value

    return wrapper


def bfs(start, letters, mul, radius=None, budget=None):
    """Breadth-first closure of ``start`` under right multiplication by ``letters``.

    Returns ``dist`` in discovery order: ``dist[w]`` is the least number of
    letters taking ``start`` to ``w``.  ``radius`` caps the depth (None:
    until nothing new appears); BudgetExceededError is raised as soon as
    more than ``budget`` elements are stored.
    """
    limit = sys.maxsize if budget is None else budget
    if limit < 1:
        raise BudgetExceededError("search exceeded the %d-element budget" % limit)
    dist = {start: 0}
    setdefault = dist.setdefault
    n = 1
    frontier = [start]
    d = 0
    while frontier and (radius is None or d < radius):
        d += 1
        nxt = []
        for v in frontier:
            for g in letters:
                w = mul(v, g)
                setdefault(w, d)
                if len(dist) > n:
                    n += 1
                    if n > limit:
                        raise BudgetExceededError(
                            "search exceeded the %d-element budget" % limit
                        )
                    nxt.append(w)
        frontier = nxt
    return dist


def bfs_tree(dist, letters, mul):
    """The breadth-first tree behind ``dist``, as ``bfs`` with the same
    ``letters`` and ``mul`` discovered it.

    ``parent[w]`` is the ``(v, g)`` with ``w == mul(v, g)`` that first reached
    ``w`` (``None`` at the start), in discovery order.  One pass over ``dist``
    in its order: when ``v`` is read, every vertex up to ``v``'s level has
    its parent already, so a ``w`` without one lies a level further down,
    and the first ``(v, g)`` to reach it is the one the search met first.
    """
    parent = {next(iter(dist)): None}
    for v in dist:
        for g in letters:
            w = mul(v, g)
            if w in dist and w not in parent:
                parent[w] = (v, g)
    return parent


def common_prefix(u, v) -> int:
    """Length of the longest common prefix of two sequences."""
    n = min(len(u), len(v))
    i = 0
    while i < n and u[i] == v[i]:
        i += 1
    return i


class GroupSpec:
    """Base class for group families.  Subclasses implement the arithmetic."""

    def identity(self) -> Elem:
        raise NotImplementedError

    def mul(self, a: Elem, b: Elem) -> Elem:
        raise NotImplementedError

    def inv(self, a: Elem) -> Elem:
        raise NotImplementedError

    def x_length(self, a: Elem) -> int:
        """Word length of ``a`` over the family's standard generating set."""
        raise NotImplementedError

    def x_dist(self, a: Elem, b: Elem) -> int:
        """Word distance |a^-1 b| over the standard generating set."""
        return self.x_length(self.mul(self.inv(a), b))

    def sort_key(self, a: Elem):
        """Total order on elements, used for canonical choices."""
        raise NotImplementedError

    def generator_elems(self) -> list[tuple[str, Elem]]:
        """Standard generators as (symbol, element) pairs, inverses excluded."""
        raise NotImplementedError

    def letters(self) -> list[Elem]:
        """The word metric's letters: generators by index, then their inverses."""
        gens = [g for _, g in self.generator_elems()]
        return gens + [self.inv(g) for g in gens]

    def geodesic_word(self, a: Elem) -> list[Elem]:
        """A canonical geodesic word for ``a`` over ``letters()``: its
        letters multiply to ``a``, and there are ``x_length(a)`` of them."""
        raise NotImplementedError

    def elem_str(self, a: Elem) -> str:
        """Render an element as a word string (parseable by word_to_elem)."""
        raise NotImplementedError

    def spot_check(self) -> None:
        """Validate the family invariants; raises ValueError on defects."""

    def pow(self, a: Elem, n: int) -> Elem:
        """a^n by repeated squaring: O(log |n|) products."""
        out = self.identity()
        base = a if n >= 0 else self.inv(a)
        n = abs(n)
        while n:
            if n & 1:
                out = self.mul(out, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return out


def letter(i: int) -> int:
    """The free-group code of generator ``i`` (0-based); ``-letter(i)`` is its inverse."""
    return i + 2


def _reduce_free(letters: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class FreeGroup(GroupSpec):
    """Free group on named generators; elements are reduced words."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("generator symbols must be distinct")

    @property
    def rank(self) -> int:
        return len(self.symbols)

    def identity(self):
        return ()

    def mul(self, a, b):
        if not a:
            return b
        if not b:
            return a
        if a[-1] != -b[0]:
            return a + b
        i = len(a) - 1
        j = 1
        nb = len(b)
        while i > 0 and j < nb and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def inv(self, a):
        return tuple(-x for x in reversed(a))

    def x_length(self, a):
        return len(a)

    def x_dist(self, a, b):
        # a^-1 b cancels exactly the common prefix of the two reduced words
        return len(a) + len(b) - 2 * common_prefix(a, b)

    def sort_key(self, a):
        return (len(a), a)

    def generator_elems(self):
        return [(s, (letter(i),)) for i, s in enumerate(self.symbols)]

    def geodesic_word(self, a):
        return [(x,) for x in a]

    def elem_str(self, a):
        if not a:
            return "1"
        parts = []
        for x in a:
            s = self.symbols[abs(x) - letter(0)]
            parts.append(s if x > 0 else s + "^-1")
        return " ".join(parts)


@dataclass(frozen=True)
class FreeAbelian(GroupSpec):
    """Free abelian group; elements are exponent vectors, length is L1."""

    symbols: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.symbols)

    def identity(self):
        return (0,) * len(self.symbols)

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def x_length(self, a):
        return sum(abs(x) for x in a)

    def x_dist(self, a, b):
        return sum(abs(y - x) for x, y in zip(a, b))

    def sort_key(self, a):
        return (self.x_length(a), a)

    def generator_elems(self):
        unit = [0] * len(self.symbols)
        out = []
        for i, s in enumerate(self.symbols):
            v = list(unit)
            v[i] = 1
            out.append((s, tuple(v)))
        return out

    @per_instance
    def _steps(self):  # (unit step, its inverse) per generator, by index
        return tuple((u, self.inv(u)) for _, u in self.generator_elems())

    def geodesic_word(self, a):
        """The positive unit steps by index, then the negative ones."""
        steps = self._steps()
        pos = [u for (u, _), e in zip(steps, a) for _ in range(e)]
        neg = [u for (_, u), e in zip(steps, a) for _ in range(-e)]
        return pos + neg

    def elem_str(self, a):
        parts = []
        for i, e in enumerate(a):
            s = self.symbols[i]
            parts.extend([s] * e if e > 0 else [s + "^-1"] * (-e))
        return " ".join(parts) if parts else "1"


@dataclass(frozen=True)
class FiniteGroup(GroupSpec):
    """Finite group given by its multiplication table.

    ``table[i][j]`` is the index of the product of elements ``i`` and ``j``.
    ``gens`` lists the designated generator indices; they default to every
    non-identity element, which makes the word metric 0/1-valued.
    """

    table: tuple[tuple[int, ...], ...]
    identity_index: int = 0
    names: Optional[tuple[str, ...]] = None
    gens: Optional[tuple[int, ...]] = None

    @property
    def order(self) -> int:
        return len(self.table)

    def identity(self):
        return self.identity_index

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inverses()[a]

    @per_instance
    def _inverses(self):
        e = self.identity_index
        inv = []
        for i, row in enumerate(self.table):
            if e not in row:
                raise ValueError("element %d has no inverse" % i)
            inv.append(row.index(e))
        return tuple(inv)

    @per_instance
    def _bfs_tree(self):
        """``(dist, parent)`` of the one breadth-first search over ``letters()``."""
        letters = self.letters()
        dist = bfs(self.identity_index, letters, self.mul)
        if len(dist) != self.order:
            raise ValueError("designated generators do not generate the group")
        return dist, bfs_tree(dist, letters, self.mul)

    def x_length(self, a):
        return self._bfs_tree()[0][a]

    def geodesic_word(self, a):
        """The letters on the walk from the identity to ``a`` in the BFS tree."""
        parent = self._bfs_tree()[1]
        out = []
        while parent[a] is not None:
            a, g = parent[a]
            out.append(g)
        out.reverse()
        return out

    def sort_key(self, a):
        return a

    def generator_elems(self):
        gens = self.gens
        if gens is None:
            gens = [i for i in range(self.order) if i != self.identity_index]
        return [(self.names[g] if self.names else "e%d" % g, g) for g in gens]

    def elem_str(self, a):
        if self.names:
            return self.names[a]
        return "e%d" % a

    def all_elements(self):
        return range(self.order)

    def spot_check(self):
        n = self.order
        e = self.identity_index
        for i in range(n):
            if self.table[e][i] != i or self.table[i][e] != i:
                raise ValueError("identity law fails at %d" % i)
        self._inverses()
        # Full associativity check for small tables, a strided sample otherwise.
        if n <= 16:
            triples = itertools.product(range(n), repeat=3)
        else:
            triples = ((i, (i * 7 + j) % n, (j * 5 + 3) % n) for i in range(n) for j in range(8))
        for i, j, k in triples:
            if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                raise ValueError("associativity fails at (%d,%d,%d)" % (i, j, k))


def cyclic_group(n: int, symbol: str = "g") -> FiniteGroup:
    """Z/n with one designated generator named ``symbol`` (none for Z/1)."""
    if n < 1:
        raise ValueError("a cyclic group needs order >= 1, not %d" % n)
    row = tuple(range(n))
    table = tuple(row[i:] + row[:i] for i in range(n))
    names = tuple("1" if i == 0 else (symbol if i == 1 else "%s%d" % (symbol, i)) for i in range(n))
    return FiniteGroup(table=table, identity_index=0, names=names, gens=(1,) if n > 1 else ())


@dataclass(frozen=True)
class FreeProduct(GroupSpec):
    """Free product of whitelisted factors; elements are alternating syllables."""

    factors: tuple[GroupSpec, ...]

    def __post_init__(self):
        syms = [s for f in self.factors for s, _ in f.generator_elems()]
        if len(set(syms)) != len(syms):
            raise ValueError("factor generator symbols must be globally distinct")

    def identity(self):
        return ()

    def mul(self, a, b):
        i = len(a)
        j = 0
        nb = len(b)
        while i > 0 and j < nb and a[i - 1][0] == b[j][0]:
            idx = b[j][0]
            fac = self.factors[idx]
            x = fac.mul(a[i - 1][1], b[j][1])
            if x != fac.identity():
                return a[:i - 1] + ((idx, x),) + b[j + 1:]
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def inv(self, a):
        return tuple((idx, self.factors[idx].inv(x)) for idx, x in reversed(a))

    def x_length(self, a):
        return sum(self.factors[idx].x_length(x) for idx, x in a)

    def sort_key(self, a):
        return (
            self.x_length(a),
            len(a),
            tuple((idx, self.factors[idx].sort_key(x)) for idx, x in a),
        )

    def generator_elems(self):
        out = []
        for idx, fac in enumerate(self.factors):
            for sym, g in fac.generator_elems():
                # a finite factor may designate its identity, a syllable no normal form has
                out.append((sym, ((idx, g),) if g != fac.identity() else ()))
        return out

    def elem_str(self, a):
        if not a:
            return "1"
        return " ".join(self.factors[idx].elem_str(x) for idx, x in a)

    def geodesic_word(self, a):
        """Each syllable's factor word, its letters embedded."""
        return [((i, l),) for i, x in a for l in self.factors[i].geodesic_word(x)]


@dataclass(frozen=True)
class Amalgam(GroupSpec):
    """Amalgamated product of two factors over an explicitly listed edge subgroup.

    ``edge`` lists every pair ``(d_left, d_right)`` of identified elements, so
    the edge subgroup D is finite and the pairing is the graph of the
    isomorphism.  Elements are stored in left-greedy reduced form: alternating
    syllables, none in D, with every syllable except the last a canonical
    representative of its left D-coset (least under the factor's sort key).
    An element of D itself is stored as a single left-factor syllable.
    """

    left: GroupSpec
    right: GroupSpec
    edge: tuple[tuple[Elem, Elem], ...]

    def __post_init__(self):
        syms = [s for s, _ in self.left.generator_elems()]
        syms += [s for s, _ in self.right.generator_elems()]
        if len(set(syms)) != len(syms):
            raise ValueError("factor generator symbols must be distinct")

    @property
    def _sides(self):
        return (self.left, self.right)

    @per_instance
    def _edge_maps(self):
        to_right = dict(self.edge)
        to_left = {r: l for l, r in self.edge}
        if len(to_right) != len(self.edge) or len(to_left) != len(self.edge):
            raise ValueError("edge pairing is not a bijection")
        return to_right, to_left

    @per_instance
    def d_sets(self):
        to_right, to_left = self._edge_maps()
        return frozenset(to_right), frozenset(to_left)

    def cross(self, side: int, d: Elem) -> Elem:
        """Carry a D-element from one factor to the other through the pairing."""
        to_right, to_left = self._edge_maps()
        return to_right[d] if side == 0 else to_left[d]

    def in_d(self, side: int, x: Elem) -> bool:
        return x in self.d_sets()[side]

    def _coset_rep(self, side: int, x: Elem):
        """Canonical representative of the left coset xD plus its D-remainder."""
        fac = self._sides[side]
        rep = min((fac.mul(x, d) for d in self.d_sets()[side]), key=fac.sort_key)
        return rep, fac.mul(fac.inv(rep), x)

    # Memoised over a finite factor only, whose order bounds the memo; over an
    # infinite one each new syllable would add an entry for the group's life.
    _finite_coset_rep = per_instance(_coset_rep)

    def spot_check(self):
        to_right, _ = self._edge_maps()
        dl = sorted(to_right, key=self.left.sort_key)
        if self.left.identity() not in to_right:
            raise ValueError("edge subgroup must contain the identity")
        if to_right[self.left.identity()] != self.right.identity():
            raise ValueError("edge pairing must send identity to identity")
        for a, b in itertools.product(dl, repeat=2):
            p = self.left.mul(a, b)
            if p not in to_right:
                raise ValueError("edge pairs are not closed under multiplication")
            if to_right[p] != self.right.mul(to_right[a], to_right[b]):
                raise ValueError("edge pairing is not a homomorphism")

    def identity(self):
        return ()

    def _normalize(self, sylls, out=()) -> tuple:
        """The normal form of ``out`` times the syllables ``sylls``.

        ``out`` must be a normal form; ``sylls`` are (side, factor element)
        pairs, any of them trivial or in D.  One push from left to right
        keeps ``out`` a normal form: its top is the last syllable, and
        everything below it is a canonical coset representative.

        * A syllable from the top's factor merges with the top; a merge that
          lands in D crosses over and merges with the syllable below.
        * A syllable in D joins the top.
        * A lone D element at the bottom is absorbed into the next syllable.
        * Any other syllable first turns the top into its canonical left-coset
          representative and absorbs the remainder.
        """
        sides = self._sides
        d_sets = self.d_sets()
        cross = self._edge_maps()  # cross[s][d]: d of side s, read on the other side
        out = list(out)
        for s, y in sylls:
            if out:
                t, x = out[-1]
                if t != s:
                    if y in d_sets[s]:
                        s, y = t, cross[s][y]
                    elif x in d_sets[t]:
                        out[-1] = (s, sides[s].mul(cross[t][x], y))
                        continue
                    elif len(d_sets[t]) == 1:  # trivial D: x is its own representative
                        out.append((s, y))
                        continue
                    else:
                        if isinstance(sides[t], FiniteGroup):
                            rep, rem = self._finite_coset_rep(t, x)
                        else:
                            rep, rem = self._coset_rep(t, x)
                        out[-1] = (t, rep)
                        out.append((s, sides[s].mul(cross[t][rem], y)))
                        continue
                out.pop()
                y = sides[s].mul(x, y)
            if y not in d_sets[s]:
                out.append((s, y))
            elif out:
                t, x = out[-1]
                out[-1] = (t, sides[t].mul(x, cross[s][y]))
            elif y != sides[s].identity():
                out.append((0, y if s == 0 else cross[1][y]))
        return tuple(out)

    def mul(self, a, b):
        return self._normalize(b, a)

    def pow(self, a, n):
        """A one-syllable element's power is taken in its factor and
        normalized once; any other falls back to repeated squaring."""
        if len(a) != 1:
            return super().pow(a, n)
        ((side, x),) = a
        return self._normalize(((side, self._sides[side].pow(x, n)),))

    def inv(self, a):
        return self._normalize((side, self._sides[side].inv(x)) for side, x in reversed(a))

    def x_length(self, a):
        # Generating set: all nontrivial factor elements, so the length of a
        # reduced form is its syllable count.
        return len(a)

    def sort_key(self, a):
        return (
            len(a),
            tuple((side, self._sides[side].sort_key(x)) for side, x in a),
        )

    def generator_elems(self):
        out = []
        for side, fac in enumerate(self._sides):
            for sym, g in fac.generator_elems():
                out.append((sym, self.embed(side, g)))
        return out

    def elem_str(self, a):
        if not a:
            return "1"
        return " ".join(self._sides[side].elem_str(x) for side, x in a)

    def embed(self, side: int, x) -> Elem:
        return self._normalize(((side, x),))

    def letters(self):
        """Every nontrivial factor element (requires finite factors)."""
        out = []
        for side, fac in enumerate(self._sides):
            if not isinstance(fac, FiniteGroup):
                raise UnsupportedFamilyError("factor enumeration needs finite factors")
            for x in fac.all_elements():
                if x != fac.identity():
                    out.append(self.embed(side, x))
        return out

    def geodesic_word(self, a):
        """Each syllable, embedded: one letter per syllable."""
        return [self.embed(side, x) for side, x in a]


@dataclass(frozen=True)
class PeripheralSpec:
    """One peripheral subgroup of a relatively hyperbolic structure.

    ``kind`` is ``"free-factor"`` (arg: factor index of a FreeProduct base),
    ``"cyclic-generator"`` (arg: a basis generator symbol of a free base) or
    ``"whole-group"`` (no arg).
    """

    nu: int
    kind: str
    arg: object = None


@dataclass(frozen=True)
class RelHyp:
    """A whitelisted base group together with its peripheral subgroups.

    This is data, not a group family: all arithmetic belongs to ``base``, and
    the peripheral structure feeds the relative metric (see
    cayley.RelGraphView).
    """

    base: GroupSpec
    peripherals: tuple[PeripheralSpec, ...] = ()

    def __post_init__(self):
        for p in self.peripherals:
            if p.kind == "free-factor":
                if not isinstance(self.base, FreeProduct) or not (
                    0 <= p.arg < len(self.base.factors)
                ):
                    raise ValueError("free-factor peripheral needs a valid FreeProduct factor")
            elif p.kind == "cyclic-generator":
                if not isinstance(self.base, FreeGroup) or p.arg not in self.base.symbols:
                    raise ValueError("cyclic-generator peripheral needs a free base symbol")
            elif p.kind == "whole-group":
                if len(self.peripherals) != 1:
                    raise ValueError("whole-group peripheral must be the only one")
            else:
                raise ValueError("unknown peripheral kind %r" % p.kind)
        if len({p.nu for p in self.peripherals}) != len(self.peripherals):
            raise ValueError("peripheral indices must be distinct")

    def peripheral(self, nu: int) -> PeripheralSpec:
        for p in self.peripherals:
            if p.nu == nu:
                return p
        raise KeyError(nu)

    def peripheral_contains(self, nu: int, g: Elem) -> bool:
        """Is g an element of H_nu (identity included)?"""
        p = self.peripheral(nu)
        if p.kind == "whole-group":
            return True
        if p.kind == "cyclic-generator":
            i = letter(self.base.symbols.index(p.arg))
            return g.count(i) + g.count(-i) == len(g)  # letters a^{+-1} only
        # free-factor
        if g == self.base.identity():
            return True
        return len(g) == 1 and g[0][0] == p.arg


@dataclass(frozen=True)
class SubgroupSpec:
    """A finitely generated subgroup, given by generators."""

    gens: tuple[Elem, ...]


# Functional wrappers over the family methods --------------------------------


def validate_elem(a: Elem, G: GroupSpec) -> None:
    """Structural check that a payload belongs to the family of ``G``.

    Raises FamilyMismatchError otherwise, and when ``G`` is none of the five
    families (a RelHyp: pass its ``.base``).  The GroupSpec methods skip this
    check; these wrappers are the validating entry points.
    """
    if isinstance(G, FreeGroup):
        ok = isinstance(a, tuple) and all(
            isinstance(x, int) and letter(0) <= abs(x) < letter(G.rank) for x in a
        ) and a == _reduce_free(a)
    elif isinstance(G, FreeAbelian):
        ok = isinstance(a, tuple) and len(a) == G.rank and all(
            isinstance(x, int) for x in a
        )
    elif isinstance(G, FiniteGroup):
        ok = isinstance(a, int) and 0 <= a < G.order
    elif isinstance(G, FreeProduct):
        ok = isinstance(a, tuple) and all(
            isinstance(s, tuple) and len(s) == 2 and 0 <= s[0] < len(G.factors)
            for s in a
        )
        if ok:
            for idx, x in a:
                validate_elem(x, G.factors[idx])
            ok = all(x != G.factors[idx].identity() for idx, x in a) and all(
                p[0] != q[0] for p, q in zip(a, a[1:])
            )
    elif isinstance(G, Amalgam):
        ok = isinstance(a, tuple) and all(
            isinstance(s, tuple) and len(s) == 2 and s[0] in (0, 1) for s in a
        )
        if ok:
            for side, x in a:
                validate_elem(x, G._sides[side])
            ok = a == G._normalize(a)
    else:
        ok = False
    if not ok:
        raise FamilyMismatchError(
            "payload %r does not belong to %s" % (a, type(G).__name__)
        )


def mul(a: Elem, b: Elem, G: GroupSpec) -> Elem:
    validate_elem(a, G)
    validate_elem(b, G)
    return G.mul(a, b)


def inv(a: Elem, G: GroupSpec) -> Elem:
    validate_elem(a, G)
    return G.inv(a)


def word_to_elem(word: str, G: GroupSpec) -> Elem:
    """Parse a whitespace-separated word over the generators of ``G``.

    A letter is a generator symbol, optionally suffixed by ``^<int>`` (the
    configuration format uses ``^-1``).  The token ``1`` and the empty word
    are the identity.  Each distinct token is parsed and raised once.
    """
    lookup = dict(G.generator_elems())
    letters = {}
    out = G.identity()
    for token in word.split():
        g = letters.get(token)
        if g is None:
            if token == "1":
                continue
            sym, hat, exp = token.partition("^")
            try:
                n = int(exp) if hat else 1
            except ValueError:
                raise FamilyMismatchError("bad exponent in letter %r" % token)
            if sym not in lookup:
                raise FamilyMismatchError("unknown letter %r" % sym)
            g = letters[token] = G.pow(lookup[sym], n)
        out = G.mul(out, g)
    return out


def syllables(g: Elem, G: GroupSpec) -> list[tuple[int, Elem]]:
    """Alternating (factor index, factor element) decomposition of ``g``.

    Only free products and amalgams have syllables.  In the amalgam case no
    syllable lies in the edge subgroup unless ``g`` itself does, in which case
    the list is a single left-factor syllable.
    """
    if isinstance(g, tuple) and isinstance(G, (FreeProduct, Amalgam)):
        return list(g)
    raise FamilyMismatchError("syllables need a free product or amalgam")

