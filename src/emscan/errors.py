"""Exception types raised by the registration library."""

__all__ = ["DegenerateGeometry", "DegenerateRow", "EmptyInput", "NoCorrespondences",
           "NoInliers", "NonPositiveRadius", "ScanMatchError"]


class ScanMatchError(Exception):
    """Base class for every library-specific error."""


class NonPositiveRadius(ScanMatchError, ValueError):
    """The search window must be strictly positive."""


class EmptyInput(ScanMatchError, ValueError):
    """A scan or model point set is empty, so registration is impossible."""


class NoCorrespondences(ScanMatchError):
    """No gated scan-model pairs exist, or every responsibility is zero."""


class DegenerateGeometry(ScanMatchError):
    """The fit cannot determine a pose: the total correspondence weight is
    too small, or the weighted moments of the pairs overflow."""


class NoInliers(ScanMatchError):
    """Every scan point is an outlier; the residual covariance is undefined."""


class DegenerateRow(ScanMatchError):
    """A responsibility row cannot be normalized: the log-likelihood is not finite."""
