"""Exception types shared across the package, and where its warnings point."""

import sys


def _caller_stacklevel() -> int:
    """stacklevel at which a warning names the first frame outside the module that warns.

    Call it inside the warnings.warn call. The frames skipped are those run in
    that module's globals: its own functions, and the __init__ that dataclasses
    generates for a class defined there.
    """
    frame, level = sys._getframe(1), 1
    module = frame.f_globals.get("__name__")
    while frame is not None and frame.f_globals.get("__name__") == module:
        frame, level = frame.f_back, level + 1
    return level


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
