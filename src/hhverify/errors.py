"""Exception types shared across the package."""


class HHVerifyError(Exception):
    """Base class for all package errors."""


class FunctionDomainError(HHVerifyError, ValueError):
    """A function was requested or evaluated outside its valid domain."""


class InvalidToleranceError(HHVerifyError, ValueError):
    """Quadrature tolerance must be a positive finite number."""


class NonFiniteIntegrandError(HHVerifyError, ArithmeticError):
    """The integrand returned inf or nan at an interior sample point."""


class QuadratureNonConvergenceError(HHVerifyError, ArithmeticError):
    """Adaptive quadrature stopped short of its tolerance, so its value is not trusted."""


class DegenerateIntervalError(HHVerifyError, ValueError):
    """An operation that divides by (b - a) received a = b."""


class MomentParameterError(HHVerifyError, ValueError):
    """Moment parameters violate the closed-form preconditions."""


class NonIntegrableSingularityError(HHVerifyError, ValueError):
    """The weight vanishes where the kernel does not, so the integral diverges."""


class HolderExponentError(HHVerifyError, ValueError):
    """q is too close to 1 for the conjugate-exponent closed form."""


class WrongBranchError(HHVerifyError, ValueError):
    """Bound case evaluated with parameters belonging to a different branch."""


class PresetMismatchError(HHVerifyError, ValueError):
    """Supplied parameters contradict a preset's pinned values."""


class ConfigError(HHVerifyError, ValueError):
    """Suite configuration failed validation; message carries the field path."""
