"""Exception types shared across the package.

The CLI exits with the `exit_code` of the type it catches, so library code
should raise the most specific type that applies rather than bare ValueError.
"""


class KernelSpectraError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ConfigError(KernelSpectraError):
    """Invalid user-supplied configuration (bad parameter, unknown key, ...)."""


class SizeCapError(KernelSpectraError):
    """A requested computation exceeds a hard size cap."""

    exit_code = 3


class QuadratureError(KernelSpectraError):
    """Gauss-Hermite rule construction failed its self-checks."""


class DomainError(KernelSpectraError):
    """An argument lies outside the mathematical domain of an operation."""


class ConsistencyError(KernelSpectraError):
    """An internal invariant that should hold by theory failed numerically."""


class VerificationError(KernelSpectraError):
    """A machine verification (lemma census, oracle comparison) reported a
    mismatch."""

    exit_code = 4
