"""Exception types shared across the package, and where its warnings point."""

import sys


_PACKAGE = __name__.rpartition(".")[0]


def _caller_stacklevel() -> int:
    """stacklevel at which a warning names the first frame outside this package.

    Call it inside the warnings.warn call. The frames skipped are those run in
    the globals of a package module: its functions, the __init__ that
    dataclasses generates for a class defined there, and the package's calls
    into one another, so a warning raised two calls deep still names the
    caller's line.
    """
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == _PACKAGE:
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


class ZeroNormError(ValueError):
    """Phase alignment is undefined against a zero-norm signal."""
