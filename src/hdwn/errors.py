"""Exception types shared across the package."""


class HdwnError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(HdwnError, ValueError):
    """Numeric input is malformed: non-finite, wrong shape, or out of range."""


class InsufficientSampleError(HdwnError, ValueError):
    """An estimator needs more observations than were provided."""


class InvalidLagError(HdwnError, ValueError):
    """The requested lag window cannot be formed from the sample."""


class DegenerateDataError(HdwnError, ValueError):
    """The data admit no standardization: zero variance, a zero trace estimate, or overflow."""


class NotPositiveDefiniteError(HdwnError, ValueError):
    """A covariance matrix has no Cholesky factor."""


class InvalidSpecError(HdwnError, ValueError):
    """A generator or experiment specification is internally inconsistent."""


class ExplosiveModelError(HdwnError, ValueError):
    """An autoregressive coefficient matrix is not stationary."""


class UndefinedMomentError(HdwnError, ValueError):
    """A requested moment does not exist for the given parameters."""


class McRunError(HdwnError, RuntimeError):
    """A Monte Carlo run exceeded its per-test error budget."""


class ConfigError(HdwnError, ValueError):
    """A config file or CSV input could not be parsed."""


# every error type above, each named once
__all__ = sorted(name for name, value in globals().items()
                 if isinstance(value, type) and issubclass(value, HdwnError))
