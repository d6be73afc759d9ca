"""Exception types shared across the package, the one check per kind of parameter, and where warnings point.

A real is a finite numbers.Real other than a bool, so numpy scalars pass and
numeric strings do not; a count is a numbers.Integral other than a bool; an
array of reals has an integer or float dtype, so complex, text, object and
bool arrays raise. Each check returns the value as the package holds it.
"""

import math
import numbers
import sys

import numpy as np


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


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParameterError(msg)


def _real(value, what: str, low: float = -math.inf, high: float = math.inf, closed: bool = False) -> float:
    """value as a float, if it is a real in (low, high), or in [low, high] when closed."""
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int past the float range
        x = math.nan
    if not (math.isfinite(x) and (low <= x <= high if closed else low < x < high)):
        ge, le = (">=", "<=") if closed else (">", "<")
        where = (f" {ge} {low:g}" if low > -math.inf else "") + (f" and {le} {high:g}" if high < math.inf else "")
        raise InvalidParameterError(f"{what} must be a finite real{where}, got {value!r}")
    return x


def _count(value, what: str, low: int) -> int:
    """value as an int, if it is a count of at least low."""
    _require(isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low,
             f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def _real_array(values, what: str) -> np.ndarray:
    """values as a float array, the caller's own if it is one; finiteness is the caller's to check."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise InvalidParameterError(f"{what} must be real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)
