"""Exception taxonomy shared by all coxforge modules.

Every error raised on bad user input derives from :class:`CoxforgeError`
(itself a ``ValueError``), so callers can catch one type at API or CLI
boundaries.  Internal invariant violations use plain ``AssertionError``.
A number a caller passes where an integer is expected meets one of the two
integer rules of :mod:`coxforge.intlattice` (values and indices), so a bad
one raises :class:`InvalidArgumentError`, never a ``TypeError``.
"""

__all__ = [
    "CoxforgeError",
    "FormatError",
    "InvalidArgumentError",
    "MustStandardizeFirstError",
    "NotQuasiProjectiveError",
    "OutsideSupportError",
    "RankError",
    "SolveNotFoundError",
    "UnsupportedFeatureError",
]


class CoxforgeError(ValueError):
    """Base class for all input-level errors raised by coxforge."""


class InvalidArgumentError(CoxforgeError):
    """An argument fails a documented precondition."""


class RankError(CoxforgeError):
    """A matrix does not have the required rank."""


class MustStandardizeFirstError(CoxforgeError):
    """Operation requires a standard matrix; call standardize first."""


class UnsupportedFeatureError(CoxforgeError):
    """Input is valid mathematics but outside this library's scope."""


class NotQuasiProjectiveError(CoxforgeError):
    """Weight columns span the whole plane; no chamber decomposition."""


class OutsideSupportError(CoxforgeError):
    """A vector does not lie in the support of the fan."""


class SolveNotFoundError(CoxforgeError):
    """A bounded search finished without a solution."""


class FormatError(CoxforgeError):
    """A text input (matrix / presentation / fan file) failed to parse."""
