"""Exception types shared across the package, and the one rule for counts."""

import numbers


class NotHermitian(ValueError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class NotPSD(ValueError):
    """Matrix expected to be positive semidefinite is not."""


class DimMismatch(ValueError):
    """Operand dimensions are incompatible."""


class DimOutOfRange(ValueError):
    """Dimensions outside the regime an exact method supports."""


class IndexOutOfRange(IndexError):
    """Subset indices outside the declared factor dimension."""


class DomainError(ValueError):
    """Scalar parameter outside its admissible domain."""


class ModeMismatch(ValueError):
    """Gaussian channels with different mode counts."""


class LinearityViolation(ValueError):
    """Callable promised to be linear failed the linearity spot-check."""


class PreconditionFailed(ValueError):
    """A documented operation precondition does not hold."""


def is_count(value, minimum: int) -> bool:
    """True iff value is an integer of any integral type, not a bool, and >= minimum.

    The package checks the dimensions, mode counts, search budgets and levels
    its callers pass with this; each caller raises its own typed error when
    it is False.
    """
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= minimum
