"""Exception hierarchy for the toolkit.

Every error raised by lrcompress derives from :class:`ToolkitError`, so
callers (including the CLI) can catch numerical failures without also
swallowing programming errors.
"""


class ToolkitError(Exception):
    """Base class for all lrcompress errors."""


class DimensionMismatch(ToolkitError):
    """Operand shapes are incompatible."""


class ConvergenceFailure(ToolkitError):
    """An underlying iterative routine failed to converge."""


class NotSymmetric(ToolkitError):
    """Matrix expected to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(ToolkitError):
    """Cholesky failed even after the whole jitter ladder."""


class RankDeficient(ToolkitError):
    """Pivoted elimination stalled before the requested number of pivots."""


class IllConditioned(ToolkitError):
    """Gauge-fixing block too ill-conditioned to invert safely."""


class NonFiniteGradient(ToolkitError):
    """A gradient component came out NaN or infinite."""


class InfeasibleBudget(ToolkitError):
    """No rank assignment inside the box satisfies the parameter budget."""


class SearchSpaceTooLarge(ToolkitError):
    """Brute-force grid exceeds the enumeration guard."""


class PackageFormatError(ToolkitError):
    """A matrix file, index file or package manifest failed validation."""
