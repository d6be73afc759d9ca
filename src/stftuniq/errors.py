"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter lies outside its documented domain."""


class QuadratureConvergenceError(RuntimeError):
    """Node doubling failed to stabilize a quadrature result."""


class InsufficientDataError(ValueError):
    """Too few usable samples or coefficients for the requested estimate."""


class EvaluationOverflowError(OverflowError):
    """A magnitude exponent left the representable floating-point range."""


class ZeroAtOriginError(ValueError):
    """Circle-mean formulas need a nonzero value at the center."""


class ZeroNormError(ValueError):
    """Phase alignment is undefined against a zero-norm signal."""
