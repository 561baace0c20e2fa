"""Profinite-topology engine: folded subgroup graphs, rational-subset
membership, finite-quotient separation, and the amalgam double-coset criterion.
"""

from .amalgams import (
    AmalgamNF,
    InducedQuotient,
    amalgam_product_member,
    amalgam_reduce,
    induced_quotient,
)
from .membership import membership_oracle
from .quotients import (
    FiniteQuotient,
    MinxHarnessResult,
    combine_quotients,
    find_separating_quotient,
    image_of_rational_subset,
    minx_quotient_harness,
    perm_identity,
    perm_inv,
    perm_mul,
    subgroup_closure,
    verify_separation,
)
from .rational import RationalSubset, build_chain_nfa, least_word, product_member
from .stallings import (
    StallingsGraph,
    basis,
    pullback,
    subgroup_graph,
)

__all__ = [
    "AmalgamNF",
    "FiniteQuotient",
    "InducedQuotient",
    "MinxHarnessResult",
    "RationalSubset",
    "StallingsGraph",
    "amalgam_product_member",
    "amalgam_reduce",
    "basis",
    "build_chain_nfa",
    "combine_quotients",
    "find_separating_quotient",
    "image_of_rational_subset",
    "induced_quotient",
    "least_word",
    "membership_oracle",
    "minx_quotient_harness",
    "perm_identity",
    "perm_inv",
    "perm_mul",
    "product_member",
    "pullback",
    "subgroup_closure",
    "subgroup_graph",
    "verify_separation",
]
