"""Shared exception types."""


class RelhypError(Exception):
    """Base class for all library errors."""


class FamilyMismatchError(RelhypError):
    """Operands belong to different groups or an operation got the wrong family."""


class UnsupportedFamilyError(RelhypError):
    """The requested computation is not available for this group family."""


class BudgetExceededError(RelhypError):
    """An enumeration grew past its configured resource budget."""


class SchemaError(RelhypError):
    """A run configuration violates the expected schema."""


class InTargetError(ValueError):
    """The element to separate lies in the target subset: no quotient separates it."""


class DIncompatibleError(RelhypError):
    """A pair of factor quotients disagrees on the edge subgroup of an amalgam."""
