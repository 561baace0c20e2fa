"""Exact combinatorics of relative Cayley metrics, shortcutting, metric
conditions, and profinite separability for whitelisted group families.
"""

from .cayley import (
    Ball,
    BrokenLine,
    EdgePath,
    RelGraphView,
    build_ball,
    relative_view,
    trivial_path,
    word_metric_view,
)
from .errors import (
    BudgetExceededError,
    DIncompatibleError,
    FamilyMismatchError,
    RelhypError,
    SchemaError,
    UnsupportedFamilyError,
)
from .groups import (
    Amalgam,
    Elem,
    FiniteGroup,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    GroupSpec,
    PeripheralSpec,
    RelHyp,
    cyclic_group,
    inv,
    mul,
    syllables,
    word_to_elem,
)

__version__ = "0.1.0"
