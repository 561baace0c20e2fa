"""Separability machinery for amalgamated products over a finite edge subgroup.

The double-coset membership criterion works on reduced syllable forms: forms
of length three or more never lie in a product B*C of the factors, a length-2
form lies in it only when its syllables come in factor order, and the short
forms reduce to finite computations in the factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import DIncompatibleError, FamilyMismatchError
from ..groups import Amalgam, Elem, FiniteGroup
from .quotients import FiniteQuotient, perm_mul


def amalgam_reduce(word: Sequence[tuple[int, Elem]], A: Amalgam) -> Elem:
    """Reduced form of a product of factor elements, given as (side, element).

    The form is the element's tuple of (side, element) syllables.  They
    alternate factors and, for forms of length at least one that are not
    edge elements, none lies in the edge subgroup.
    """
    return A._normalize(tuple(word))


def _factor_payload(A: Amalgam, g: Elem, side: int) -> Optional[Elem]:
    """The element of the given factor equal to ``g``, or None.

    Edge elements are stored on the left, so reading them on the right side
    goes through the pairing.
    """
    if g == A.identity():
        return A._sides[side].identity()
    if len(g) != 1:
        return None
    s, x = g[0]
    if s == side:
        return x
    if A.in_d(s, x):
        return A.cross(s, x)
    return None


def _d_products(A: Amalgam, side: int, elems: Sequence[Elem]) -> frozenset:
    """The finite set U*D inside the given factor."""
    fac = A._sides[side]
    d = A.d_sets()[side]
    out = set()
    for u in elems:
        for dd in d:
            out.add(fac.mul(u, dd))
    return frozenset(out)


def amalgam_product_member(
    g: Elem,
    kind: str,
    A: Amalgam,
    U: Sequence[Elem] = (),
    V: Sequence[Elem] = (),
) -> bool:
    """Membership of ``g`` in UC, BV, BC, UD or DV (U in B, V in C finite).

    U and V are amalgam elements lying in the respective factor.
    """
    if kind not in ("UC", "BV", "BC", "UD", "DV"):
        raise ValueError("unknown product kind %r" % kind)
    u_pay = [_require_factor(A, u, 0) for u in U]
    v_pay = [_require_factor(A, v, 1) for v in V]

    if kind == "UD":
        pay = _factor_payload(A, g, 0)
        return pay is not None and pay in _d_products(A, 0, u_pay)
    if kind == "DV":
        pay = _factor_payload(A, g, 1)
        if pay is None:
            return False
        fac = A._sides[1]
        dv = {fac.mul(dd, v) for dd in A.d_sets()[1] for v in v_pay}
        return pay in dv

    k = len(g)
    if k >= 3:
        return False
    if kind == "BC":
        if k <= 1:
            return True
        (s1, _), (s2, _) = g
        return (s1, s2) == (0, 1)
    if kind == "UC":
        ud = _d_products(A, 0, u_pay)
        if k == 2:
            (s1, x1), (s2, _) = g
            if (s1, s2) != (0, 1):
                return False
            return any(A._sides[0].mul(x1, dd) in ud for dd in A.d_sets()[0])
        if k == 1:
            s1, x1 = g[0]
            if s1 == 0:
                return any(A._sides[0].mul(x1, dd) in ud for dd in A.d_sets()[0])
            # g in C \ D: need some u in U with u in D
            return any(A.in_d(0, u) for u in u_pay)
        return any(A.in_d(0, u) for u in u_pay)
    # BV: mirror of UC
    fac_c = A._sides[1]
    dv = {fac_c.mul(dd, v) for dd in A.d_sets()[1] for v in v_pay}
    if k == 2:
        (s1, _), (s2, x2) = g
        if (s1, s2) != (0, 1):
            return False
        return any(fac_c.mul(dd, x2) in dv for dd in A.d_sets()[1])
    if k == 1:
        s1, x1 = g[0]
        if s1 == 1:
            return any(fac_c.mul(dd, x1) in dv for dd in A.d_sets()[1])
        if A.in_d(0, x1):
            # g lies in D: absorb it into the D part of DV
            x_c = A.cross(0, x1)
            return any(fac_c.mul(dd, x_c) in dv for dd in A.d_sets()[1])
        return False
    return any(A.in_d(1, v) for v in v_pay)


def _require_factor(A: Amalgam, g: Elem, side: int) -> Elem:
    pay = _factor_payload(A, g, side)
    if pay is None:
        raise FamilyMismatchError("element is not in the required factor")
    return pay


@dataclass(frozen=True)
class InducedQuotient:
    """The map onto the amalgam of the factor images, with finite factors."""

    source: Amalgam
    image: Amalgam
    phi_left: FiniteQuotient
    phi_right: FiniteQuotient

    def apply(self, g: Elem) -> Elem:
        phis = (self.phi_left, self.phi_right)
        return self.image._normalize((side, _perm_index(phis[side], x)) for side, x in g)


def _perm_index(phi: FiniteQuotient, x: Elem) -> int:
    # image elements are reindexed into the image FiniteGroup's table
    return phi._image_index_map()[phi.image_of(x)]


def induced_quotient(
    phi_left: FiniteQuotient, phi_right: FiniteQuotient, A: Amalgam
) -> InducedQuotient:
    """The natural map from A onto image(B) *_{image(D)} image(C).

    Raises DIncompatibleError unless the two quotients agree on the edge
    pairing (the identification of images must be a well-defined bijection).
    """
    pairs = set()
    for dl, dr in A.edge:
        pairs.add((phi_left.image_of(dl), phi_right.image_of(dr)))
    left_of = {}
    right_of = {}
    for l, r in pairs:
        if left_of.setdefault(l, r) != r or right_of.setdefault(r, l) != l:
            raise DIncompatibleError("factor quotients disagree on the edge subgroup")

    img_left = _image_group(phi_left, "L")
    img_right = _image_group(phi_right, "R")
    edge_pairs = tuple(
        sorted(
            (
                (phi_left._image_index_map()[l], phi_right._image_index_map()[r])
                for l, r in pairs
            )
        )
    )
    image = Amalgam(left=img_left, right=img_right, edge=edge_pairs)
    image.spot_check()
    return InducedQuotient(A, image, phi_left, phi_right)


def _image_group(phi: FiniteQuotient, prefix: str) -> FiniteGroup:
    index = phi._image_index_map()
    elems = list(index)
    table = tuple(
        tuple(index[perm_mul(a, b)] for b in elems) for a in elems
    )
    e = index[tuple(range(phi.degree))]
    names = tuple("%s%d" % (prefix.lower(), i) for i in range(len(elems)))
    return FiniteGroup(table=table, identity_index=e, names=names)
