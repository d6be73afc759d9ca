"""Exception types shared across the package, the one check per kind of parameter, and where warnings point.

A real (complex) is a finite numbers.Real (Complex) other than a bool, so numpy
scalars pass and numeric strings do not; a count is a numbers.Integral other than
a bool. An array of reals (complexes) has an integer or float (or complex) dtype,
so text, object and bool arrays and ragged lists raise. Each check returns the
value as the package holds it.
"""

import cmath
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


def _complex(value, what: str) -> complex:
    """value as a complex, if it is a finite complex number."""
    try:
        z = complex(value) if isinstance(value, numbers.Complex) and not isinstance(value, bool) else cmath.nan
    except OverflowError:  # an int past the float range
        z = cmath.nan
    _require(cmath.isfinite(z), f"{what} must be finite and complex, got {value!r}")
    return z


def _count(value, what: str, low: int) -> int:
    """value as an int, if it is a count of at least low."""
    _require(isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low,
             f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def _array(values, what: str, dtype: type = float) -> np.ndarray:
    """values as a float (or complex) array, the caller's own if it is one; finiteness is the caller's to check."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nested list
        raise InvalidParameterError(f"{what} must form a rectangular array") from None
    kinds, noun = ("iuf", "real numbers") if dtype is float else ("iufc", "numbers")
    _require(arr.dtype.kind in kinds, f"{what} must be {noun}, got dtype {arr.dtype}")
    return arr.astype(dtype, copy=False)
