"""Whitelisted group families with exact arithmetic on unique normal forms.

Every supported family carries a terminating normal form, so equality of
elements is equality of payloads:

* free group: reduced word, a tuple of nonzero signed letter indices
  (``+i``/``-i`` for the i-th generator and its inverse, 1-based);
* free abelian group: exponent vector, a tuple of ints;
* finite group: index into the multiplication table;
* free product: alternating tuple of ``(factor_index, payload)`` syllables;
* amalgamated product: left-greedy reduced syllable form (see ``Amalgam``).

Payloads are plain immutable Python values; the ``GroupSpec`` supplies the
operations.  All operations are pure.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import FamilyMismatchError, UnsupportedFamilyError

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

    def sort_key(self, a: Elem):
        """Total order on elements, used for canonical choices."""
        raise NotImplementedError

    def generator_elems(self) -> list[tuple[str, Elem]]:
        """Standard generators as (symbol, element) pairs, inverses excluded."""
        raise NotImplementedError

    def generator_letters(self) -> list[tuple[str, Elem]]:
        """Generators and their inverses, ``^-1``-suffixed symbols included."""
        out = []
        for sym, g in self.generator_elems():
            out.append((sym, g))
            out.append((sym + "^-1", self.inv(g)))
        return out

    def elem_str(self, a: Elem) -> str:
        """Render an element as a word string (parseable by word_to_elem)."""
        raise NotImplementedError

    def spot_check(self) -> None:
        """Validate the family invariants; raises ValueError on defects."""

    def pow(self, a: Elem, n: int) -> Elem:
        out = self.identity()
        base = a if n >= 0 else self.inv(a)
        for _ in range(abs(n)):
            out = self.mul(out, base)
        return out


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
        i = len(a)
        j = 0
        nb = len(b)
        while i > 0 and j < nb and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def inv(self, a):
        return tuple(-x for x in reversed(a))

    def x_length(self, a):
        return len(a)

    def sort_key(self, a):
        return (len(a), a)

    def generator_elems(self):
        return [(s, (i + 1,)) for i, s in enumerate(self.symbols)]

    def elem_str(self, a):
        if not a:
            return "1"
        parts = []
        for x in a:
            s = self.symbols[abs(x) - 1]
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
        n = self.order
        e = self.identity_index
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if self.table[i][j] == e:
                    inv[i] = j
                    break
            if inv[i] is None:
                raise ValueError("element %d has no inverse" % i)
        return tuple(inv)

    def _gen_indices(self):
        if self.gens is not None:
            return self.gens
        return tuple(i for i in range(self.order) if i != self.identity_index)

    @per_instance
    def _dist_table(self):
        # BFS from identity over designated generators and their inverses.
        moves = set(self._gen_indices()) | {self.inv(g) for g in self._gen_indices()}
        dist = {self.identity_index: 0}
        queue = deque([self.identity_index])
        while queue:
            v = queue.popleft()
            for g in moves:
                w = self.table[v][g]
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if len(dist) != self.order:
            raise ValueError("designated generators do not generate the group")
        return dist

    def x_length(self, a):
        return self._dist_table()[a]

    def sort_key(self, a):
        return a

    def generator_elems(self):
        out = []
        for g in self._gen_indices():
            name = self.names[g] if self.names else "e%d" % g
            out.append((name, g))
        return out

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
    """Z/n with one designated generator named ``symbol``."""
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    names = tuple("1" if i == 0 else (symbol if i == 1 else "%s%d" % (symbol, i)) for i in range(n))
    return FiniteGroup(table=table, identity_index=0, names=names, gens=(1,))


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

    def _push(self, out: list, idx: int, x) -> None:
        fac = self.factors[idx]
        if x == fac.identity():
            return
        if out and out[-1][0] == idx:
            _, prev = out.pop()
            self._push(out, idx, fac.mul(prev, x))
        else:
            out.append((idx, x))

    def mul(self, a, b):
        out = list(a)
        for idx, x in b:
            self._push(out, idx, x)
        return tuple(out)

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
                out.append((sym, ((idx, g),)))
        return out

    def elem_str(self, a):
        if not a:
            return "1"
        return " ".join(self.factors[idx].elem_str(x) for idx, x in a)

    def embed(self, idx: int, x) -> Elem:
        """The factor element ``x`` as an element of the product."""
        if x == self.factors[idx].identity():
            return ()
        return ((idx, x),)


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

    @per_instance
    def _coset_rep(self, side: int, x: Elem):
        """Canonical representative of the left coset xD plus its D-remainder."""
        fac = self._sides[side]
        d_side = sorted(self.d_sets()[side], key=fac.sort_key)
        rep = min((fac.mul(x, d) for d in d_side), key=fac.sort_key)
        rem = fac.mul(fac.inv(rep), x)
        return rep, rem

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

    def _reduce(self, sylls) -> tuple:
        """Merge to an alternating form with no interior D-syllables.

        Invariant: apart from a lone first syllable, nothing on ``out`` lies
        in D, so D-crossing only ever happens at the top.
        """
        out: list = []
        for side, x in sylls:
            stack = [(side, x)]
            while stack:
                s, y = stack.pop()
                fac = self._sides[s]
                if y == fac.identity():
                    continue
                if out and out[-1][0] == s:
                    _, py = out.pop()
                    stack.append((s, fac.mul(py, y)))
                elif out and self.in_d(out[-1][0], out[-1][1]):
                    ps, py = out.pop()
                    stack.append((s, y))
                    stack.append((1 - ps, self.cross(ps, py)))
                elif out and self.in_d(s, y):
                    stack.append((1 - s, self.cross(s, y)))
                else:
                    out.append((s, y))
        return tuple(out)

    def _normalize(self, sylls) -> tuple:
        red = self._reduce(sylls)
        if not red:
            return ()
        if len(red) == 1:
            side, x = red[0]
            if self.in_d(side, x) and side == 1:
                return ((0, self.cross(1, x)),)
            return (red[0],)
        out = []
        carry = None  # D-remainder, as an element of the previous side
        prev_side = None
        for i, (side, x) in enumerate(red):
            if carry is not None:
                x = self._sides[side].mul(self.cross(prev_side, carry), x)
            if i < len(red) - 1:
                rep, carry = self._coset_rep(side, x)
                out.append((side, rep))
                prev_side = side
            else:
                out.append((side, x))
        return tuple(out)

    def mul(self, a, b):
        return self._normalize(a + b)

    def inv(self, a):
        return self._normalize(
            tuple((side, self._sides[side].inv(x)) for side, x in reversed(a))
        )

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

    def nontrivial_factor_elems(self) -> list[Elem]:
        """All nontrivial factor elements (requires finite factors)."""
        out = []
        for side, fac in enumerate(self._sides):
            if not isinstance(fac, FiniteGroup):
                raise UnsupportedFamilyError("factor enumeration needs finite factors")
            for x in fac.all_elements():
                if x != fac.identity():
                    out.append(self.embed(side, x))
        return out


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
class RelHyp(GroupSpec):
    """A whitelisted base group together with its peripheral subgroups.

    Element arithmetic is the base group's; the peripheral structure feeds the
    relative metric (see cayley.RelGraphView).
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

    def identity(self):
        return self.base.identity()

    def mul(self, a, b):
        return self.base.mul(a, b)

    def inv(self, a):
        return self.base.inv(a)

    def x_length(self, a):
        return self.base.x_length(a)

    def sort_key(self, a):
        return self.base.sort_key(a)

    def generator_elems(self):
        return self.base.generator_elems()

    def elem_str(self, a):
        return self.base.elem_str(a)

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
            i = self.base.symbols.index(p.arg) + 1
            return all(abs(x) == i for x in g)
        # free-factor
        if g == self.base.identity():
            return True
        return len(g) == 1 and g[0][0] == p.arg

    def peripheral_ball(self, nu: int, radius: int) -> list[Elem]:
        """Nontrivial elements of H_nu with x-length at most ``radius``."""
        p = self.peripheral(nu)
        if p.kind == "cyclic-generator":
            i = self.base.symbols.index(p.arg) + 1
            out = []
            for k in range(1, radius + 1):
                out.append((i,) * k)
                out.append((-i,) * k)
            return out
        if p.kind == "free-factor":
            fac = self.base.factors[p.arg]
            seen = {fac.identity()}
            frontier = [fac.identity()]
            letters = [g for _, g in fac.generator_elems()]
            letters += [fac.inv(g) for g in letters]
            for _ in range(radius):
                nxt = []
                for v in frontier:
                    for g in letters:
                        w = fac.mul(v, g)
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
            seen.discard(fac.identity())
            return [self.base.embed(p.arg, x) for x in seen]
        raise UnsupportedFamilyError("peripheral ball for %r" % p.kind)


@dataclass(frozen=True)
class SubgroupSpec:
    """A finitely generated subgroup, given by generators, with a role tag."""

    gens: tuple[Elem, ...]
    role: Optional[str] = None


# Functional wrappers over the family methods --------------------------------


def validate_elem(a: Elem, G: GroupSpec) -> None:
    """Structural check that a payload belongs to the family of ``G``.

    Raises FamilyMismatchError otherwise.  The GroupSpec methods skip this
    check; these wrappers are the validating entry points.
    """
    if isinstance(G, RelHyp):
        return validate_elem(a, G.base)
    ok = True
    if isinstance(G, FreeGroup):
        ok = isinstance(a, tuple) and all(
            isinstance(x, int) and 1 <= abs(x) <= G.rank for x in a
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
            ok = all(p[0] != q[0] for p, q in zip(a, a[1:]))
    elif isinstance(G, Amalgam):
        ok = isinstance(a, tuple) and all(
            isinstance(s, tuple) and len(s) == 2 and s[0] in (0, 1) for s in a
        )
        if ok:
            for side, x in a:
                validate_elem(x, G._sides[side])
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
    configuration format uses ``^-1``).  The empty word is the identity.
    """
    lookup = {}
    for sym, g in G.generator_elems():
        lookup[sym] = g
    out = G.identity()
    for token in word.split():
        if token == "1":
            continue
        if "^" in token:
            sym, _, exp = token.partition("^")
            try:
                n = int(exp)
            except ValueError:
                raise FamilyMismatchError("bad exponent in letter %r" % token)
        else:
            sym, n = token, 1
        if sym not in lookup:
            raise FamilyMismatchError("unknown letter %r" % sym)
        out = G.mul(out, G.pow(lookup[sym], n))
    return out


def syllables(g: Elem, G: GroupSpec) -> list[tuple[int, Elem]]:
    """Alternating (factor index, factor element) decomposition of ``g``.

    Only free products and amalgams have syllables.  In the amalgam case no
    syllable lies in the edge subgroup unless ``g`` itself does, in which case
    the list is a single left-factor syllable.
    """
    if isinstance(g, tuple) and isinstance(G, (FreeProduct, Amalgam)):
        return list(g)
    if isinstance(G, RelHyp):
        return syllables(g, G.base)
    raise FamilyMismatchError("syllables need a free product or amalgam")

