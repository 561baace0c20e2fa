"""Exact membership oracles for finitely generated subgroups, by family."""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import UnsupportedFamilyError
from ..groups import (
    Elem,
    FiniteGroup,
    FreeAbelian,
    FreeGroup,
    GroupSpec,
    bfs,
)
from .stallings import subgroup_graph


def _row_lattice_basis(rows: Sequence[Sequence[int]], cols: int):
    """Echelon basis of the integer row lattice (pivot column, row) pairs."""
    work = [list(r) for r in rows if any(r)]
    basis = []
    for col in range(cols):
        while True:
            nz = [r for r in work if r[col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            r0 = nz[0]
            for r in nz[1:]:
                q = r[col] // r0[col]
                for i in range(cols):
                    r[i] -= q * r0[i]
            work = [r for r in work if any(r)]
        nz = [r for r in work if r[col] != 0]
        if nz:
            r0 = nz[0]
            basis.append((col, r0))
            work = [r for r in work if r is not r0]
    return basis


def _lattice_member(gens: Sequence[tuple], cols: int) -> Callable[[tuple], bool]:
    """Membership in the lattice spanned by ``gens``, against an echelon basis
    built once: reduce v at each pivot; v is in the lattice exactly when every
    pivot divides and nothing is left."""
    basis = _row_lattice_basis(tuple(gens), cols)

    def contains(v) -> bool:
        w = list(v)
        for col, row in basis:
            if w[col] % row[col] != 0:
                return False
            q = w[col] // row[col]
            for i in range(cols):
                w[i] -= q * row[i]
        return not any(w)

    return contains


def membership_oracle(G: GroupSpec, gens: Sequence[Elem]) -> Callable[[Elem], bool]:
    """A callable deciding membership in the subgroup generated by ``gens``."""
    if isinstance(G, FreeGroup):
        return subgroup_graph(gens, G).accepts
    if isinstance(G, FreeAbelian):
        return _lattice_member(gens, G.rank)
    if isinstance(G, FiniteGroup):
        closure = bfs(G.identity(), list(gens) + [G.inv(g) for g in gens], G.mul)
        return lambda g: g in closure
    raise UnsupportedFamilyError(
        "no membership oracle for %s subgroups" % type(G).__name__
    )
