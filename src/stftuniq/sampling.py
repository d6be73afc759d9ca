"""Sampling sets on power-law trajectories and the density thresholds around them.

The admissible step sizes, the four-quadrant point sets they generate, and
the uniqueness / non-uniqueness density thresholds for real zero sequences,
plus a finite-sequence density surrogate and a classifier built on it.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InsufficientDataError, InvalidParameterError

_SET_HEADER = "n,sign_x,sign_omega,x,omega"
_QUADRANT_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


class Verdict(Enum):
    UNIQUE = "Unique"
    NOT_UNIQUE = "NotUnique"
    INDETERMINATE = "Indeterminate"


class TauBounds(NamedTuple):
    tau1_max: float
    tau2_max: float


def _check_window_params(m: float, a: float) -> None:
    if not (isinstance(m, (int, float)) and math.isfinite(m) and m > 1):
        raise InvalidParameterError(f"decay exponent m must be a finite real > 1, got {m!r}")
    if not (isinstance(a, (int, float)) and math.isfinite(a) and a > 0):
        raise InvalidParameterError(f"decay rate a must be a finite positive real, got {a!r}")
    if a <= 1:
        warnings.warn(
            f"decay rate a = {a} is at or below 1; the step bounds are formal there",
            UserWarning,
            stacklevel=3,
        )


def max_tau_bounds(m: float, a: float) -> TauBounds:
    """Largest admissible step scales for the two power-law trajectories.

    For a window with Fourier decay exp(-a |xi|^m) the time-side steps
    tau1 n^{(m-1)/m} work for every tau1 below
    (2 / ((2 pi)^{m/(m-1)} (m a)^{-1/(m-1)} e))^{(m-1)/m}, and the
    frequency-side steps tau2 n^{1/m} for every tau2 below (2/(a m e))^{1/m}.
    tau1_max is assembled in the log domain since its inner exponent m/(m-1)
    blows up as m -> 1.
    """
    _check_window_params(m, a)
    rho = m / (m - 1.0)
    log_tau1 = (math.log(2.0) - rho * math.log(2.0 * math.pi)
                + math.log(m * a) / (m - 1.0) - 1.0) / rho
    tau2 = (2.0 / (a * m * math.e)) ** (1.0 / m)
    return TauBounds(math.exp(log_tau1), tau2)


@dataclass(frozen=True)
class SamplingSet:
    """Ordered four-quadrant sampling set with its construction parameters.

    Points are (sign_x tau1 n^{(m-1)/m}, sign_omega tau2 n^{1/m}) for
    n = 1..count, quadrant-major within each n in the order
    (+,+), (+,-), (-,+), (-,-); the optional origin row comes first with
    n = 0.
    """

    m: float
    tau1: float
    tau2: float
    count: int
    includes_origin: bool
    n_index: np.ndarray
    sign_x: np.ndarray
    sign_omega: np.ndarray
    x: np.ndarray
    omega: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("n_index", int), ("sign_x", int), ("sign_omega", int),
                            ("x", float), ("omega", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        expected = 4 * self.count + (1 if self.includes_origin else 0)
        for name in ("n_index", "sign_x", "sign_omega", "x", "omega"):
            if getattr(self, name).shape != (expected,):
                raise InvalidParameterError(f"column {name} must have {expected} rows")

    def __len__(self) -> int:
        return int(self.n_index.size)

    @property
    def points(self) -> np.ndarray:
        """(len, 2) array of (x, omega) rows in set order."""
        return np.stack([self.x, self.omega], axis=1)

    def to_csv(self, dest=None, extra_meta: dict | None = None):
        """Serialize as commented-header CSV; returns the text when dest is None.

        Construction parameters ride along as `# key=value` comment lines so
        the set round-trips without sidecar files; extra_meta entries are
        merged in (sorted by key, floats at full precision).
        """
        meta = {
            "m": self.m,
            "tau1": self.tau1,
            "tau2": self.tau2,
            "count": self.count,
            "includes_origin": self.includes_origin,
        }
        rows = (f"{n},{sx},{sw},{x:.17g},{om:.17g}"
                for n, sx, sw, x, om in zip(self.n_index, self.sign_x, self.sign_omega, self.x, self.omega))
        return _write_csv(dest, {**meta, **(extra_meta or {})}, _SET_HEADER, rows)

    @classmethod
    def from_csv(cls, src) -> "SamplingSet":
        """Rebuild a set from to_csv output (path, file object, or text)."""
        meta, rows = _read_csv(src, _SET_HEADER, "sampling-set")
        for key in ("m", "tau1", "tau2", "count", "includes_origin"):
            if key not in meta:
                raise InvalidParameterError(f"sampling-set CSV lacks the {key} metadata comment")
        n_index, sign_x, sign_omega = ([int(r[i]) for r in rows] for i in range(3))
        x, omega = ([float(r[i]) for r in rows] for i in (3, 4))
        return cls(
            m=float(meta["m"]),
            tau1=float(meta["tau1"]),
            tau2=float(meta["tau2"]),
            count=int(meta["count"]),
            includes_origin=meta["includes_origin"] == "True",
            n_index=n_index,
            sign_x=sign_x,
            sign_omega=sign_omega,
            x=x,
            omega=omega,
        )


def _write_csv(dest, meta: dict, header: str, rows):
    """CSV with one `# key=value` comment per meta entry (sorted), the header, then rows.

    Returns the text when dest is None; otherwise writes it to dest, a path
    or a file object, and returns None.
    """
    text = "\n".join([f"# {k}={meta[k]!r}" for k in sorted(meta)] + [header, *rows]) + "\n"
    if dest is None:
        return text
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        dest.write(text)
    return None


def _read_csv(src, header: str, what: str) -> tuple[dict[str, str], list[list[str]]]:
    """Metadata comments and comma-split data rows of _write_csv output.

    src is a path, a file object, or the CSV text itself (a str holding a
    newline). Every data row must have as many fields as the header.
    """
    if hasattr(src, "read"):
        lines = src.read().splitlines()
    elif isinstance(src, str) and "\n" in src:
        lines = src.splitlines()
    else:
        with open(src, "r", encoding="utf-8") as fp:
            lines = fp.read().splitlines()
    width = header.count(",") + 1
    meta: dict[str, str] = {}
    rows = []
    for raw in lines:
        line = raw.strip()
        if not line or line == header:
            continue
        if line.startswith("#"):
            key, eq, val = line[1:].strip().partition("=")
            if eq:
                meta[key.strip()] = val.strip()
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise InvalidParameterError(f"malformed {what} row: {line!r}")
        rows.append(parts)
    if not rows:
        raise InvalidParameterError(f"{what} CSV has no data rows")
    return meta, rows


def generate_sampling_set(m: float, tau1: float, tau2: float, count: int,
                          include_origin: bool = False, a: float | None = None) -> SamplingSet:
    """Build the four-quadrant set (+-tau1 n^{(m-1)/m}, +-tau2 n^{1/m}), n = 1..count.

    When the window decay rate a is supplied, the steps are validated strictly
    against max_tau_bounds and rejected at or above them; without it the set
    is built as asked but flagged as unvalidated.
    """
    if not (isinstance(count, (int, np.integer)) and count >= 1):
        raise InvalidParameterError(f"count must be an integer >= 1, got {count!r}")
    if not (tau1 > 0 and math.isfinite(tau1)):
        raise InvalidParameterError(f"tau1 must be a finite positive real, got {tau1}")
    if not (tau2 > 0 and math.isfinite(tau2)):
        raise InvalidParameterError(f"tau2 must be a finite positive real, got {tau2}")
    if a is not None:
        bounds = max_tau_bounds(m, a)
        if tau1 >= bounds.tau1_max:
            raise InvalidParameterError(
                f"tau1 = {tau1} is not strictly below the admissible bound {bounds.tau1_max}")
        if tau2 >= bounds.tau2_max:
            raise InvalidParameterError(
                f"tau2 = {tau2} is not strictly below the admissible bound {bounds.tau2_max}")
    else:
        if not (isinstance(m, (int, float)) and math.isfinite(m) and m > 1):
            raise InvalidParameterError(f"decay exponent m must be a finite real > 1, got {m!r}")
        warnings.warn("no decay rate supplied; step scales were not validated against the bounds",
                      UserWarning)
    n = np.arange(1, count + 1, dtype=float)
    xmag = tau1 * n ** ((m - 1.0) / m)
    wmag = tau2 * n ** (1.0 / m)
    n_col = np.repeat(np.arange(1, count + 1), 4)
    sx = np.tile([q[0] for q in _QUADRANT_SIGNS], count)
    sw = np.tile([q[1] for q in _QUADRANT_SIGNS], count)
    x = sx * np.repeat(xmag, 4)
    omega = sw * np.repeat(wmag, 4)
    if include_origin:
        n_col = np.concatenate([[0], n_col])
        sx = np.concatenate([[1], sx])
        sw = np.concatenate([[1], sw])
        x = np.concatenate([[0.0], x])
        omega = np.concatenate([[0.0], omega])
    return SamplingSet(m=float(m), tau1=float(tau1), tau2=float(tau2), count=int(count),
                       includes_origin=bool(include_origin), n_index=n_col,
                       sign_x=sx, sign_omega=sw, x=x, omega=omega)


def _check_threshold_params(rho: float, b: float) -> None:
    if not (isinstance(rho, (int, float)) and math.isfinite(rho) and rho > 1):
        raise InvalidParameterError(f"order rho must be a finite real > 1, got {rho!r}")
    if not (isinstance(b, (int, float)) and math.isfinite(b) and b > 0):
        raise InvalidParameterError(f"type b must be a finite positive real, got {b!r}")


def uniqueness_threshold(rho: float, b: float) -> float:
    """Density bound below which zero sets of order-rho type-b functions cannot reach.

    A real sequence with lambda_k >= delta k^{1/rho} for
    delta > (2/(b rho e))^{1/rho} outgrows what such a function can vanish on
    without vanishing identically.
    """
    _check_threshold_params(rho, b)
    return (2.0 / (b * rho * math.e)) ** (1.0 / rho)


def nonuniqueness_threshold(rho: float, b: float) -> float:
    """Density bound above which an order-rho type-b function can vanish on the sequence.

    C = (pi / (b |sin(pi rho / 2)|))^{1/rho}, degenerating to (pi/b)^{1/rho}
    when rho/2 is an integer and the sine factor would vanish.
    """
    _check_threshold_params(rho, b)
    half = rho / 2.0
    if abs(half - round(half)) < 1e-12:
        return (math.pi / b) ** (1.0 / rho)
    return (math.pi / (b * abs(math.sin(math.pi * half)))) ** (1.0 / rho)


def check_increasing(values: np.ndarray, what: str) -> None:
    """Raise unless a nonempty 1-d array starts positive and rises strictly; NaN fails."""
    if not values[0] > 0:
        raise InvalidParameterError(f"{what} must be positive")
    if not np.all(values[1:] > values[:-1]):
        raise InvalidParameterError(f"{what} must be strictly increasing")


# Squares of floats in [2^-511, 2^511) cannot round together. Take floats a < b
# there and write a = m 2^e with 1 <= m < 2. Then b >= a + 2^(e-52), so
# b^2 - a^2 > 2a 2^(e-52) = m 2^(2e-51); a^2 is normal and b^2 finite. Let h be
# the float spacing in the binade of a^2. Rounding moves a^2 by at most h/2, and
# the gap above fl(a^2) is h, or 2h where a^2 rounds up to a power of two, so
# fl(b^2) > fl(a^2) once b^2 - a^2 exceeds h, or 1.5h in the second case. If
# m^2 < 2, h = 2^(2e-52) and the margin is 2m h >= 2h. If m^2 >= 2,
# h = 2^(2e-51) and the margin is m h >= sqrt(2) h, while a^2 rounds up to
# 2^(2e+2) only for m > 1.99. So squares can merge only below 2^-511 (subnormal
# or zero squares) and from 2^511 up (squares that overflow).
_SQUARES_SAFE = (2.0**-511, 2.0**511)


def check_squares_increasing(values: np.ndarray, what: str) -> None:
    """Raise as check_increasing(values * values, what) would, without forming the squares.

    values must already have passed check_increasing. By the lemma above only
    the entries below 2^-511 and those from 2^511 up can square onto a
    neighbour's square, so only those ends are squared, each with its boundary
    neighbour; a sequence inside [2^-511, 2^511) costs two binary searches.
    """
    lo, hi = np.searchsorted(values, _SQUARES_SAFE)
    if lo:
        end = values[:lo + 1]
        check_increasing(end * end, what)
    if hi < values.size:
        end = values[max(hi - 1, 0):]
        check_increasing(end * end, what)


def tail_ratios(lam: np.ndarray, rho: float) -> np.ndarray:
    """lambda_k / k^{1/rho} over the tail half k > K/2, the only ratios any check reads."""
    start = lam.size // 2
    tail = np.arange(start + 1, lam.size + 1, dtype=float)
    tail **= 1.0 / rho
    np.divide(lam[start:], tail, out=tail)
    return tail


def tail_density(tail: np.ndarray) -> float:
    """Density surrogate from the tail ratios, warning when they are still rising."""
    if tail[-1] > 1.25 * tail[0] and bool(np.all(tail[1:] >= tail[:-1])):
        warnings.warn("normalized ratios keep increasing; the density surrogate may be diverging",
                      RuntimeWarning)
    return float(np.min(tail))


def density_index(lambdas, rho: float) -> float:
    """Finite surrogate for liminf lambda_k / k^{1/rho}.

    Takes the minimum of the normalized ratios over the tail half of the
    sequence, where the transient from small k has died out. A tail that is
    still rising by more than 25% end to end suggests the true liminf is
    infinite (super-power-law growth); that is reported as a warning, not an
    error, since a large finite surrogate is still usable.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 16:
        raise InsufficientDataError(f"need at least 16 sequence terms, got {lam.size if lam.ndim == 1 else lam.shape}")
    check_increasing(lam, "sequence entries")
    if not (isinstance(rho, (int, float)) and math.isfinite(rho) and rho > 1):
        raise InvalidParameterError(f"order rho must be a finite real > 1, got {rho!r}")
    return tail_density(tail_ratios(lam, rho))


@dataclass(frozen=True)
class ThresholdReport:
    """Density of a sequence against the two separation thresholds."""

    rho: float
    b: float
    uniq_threshold: float
    nonuniq_threshold: float
    density: float
    verdict: Verdict

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho,
            "b": self.b,
            "uniq_threshold": self.uniq_threshold,
            "nonuniq_threshold": self.nonuniq_threshold,
            "density": self.density,
            "verdict": self.verdict.value,
        }


def classify_sequence(lambdas, rho: float, b: float) -> ThresholdReport:
    """Place a sequence's density surrogate against both thresholds.

    Unique when the density falls strictly below the uniqueness threshold,
    NotUnique when it strictly exceeds the non-uniqueness threshold, and
    Indeterminate in the closed gap between them, where neither side's
    argument applies.
    """
    uniq = uniqueness_threshold(rho, b)
    nonuniq = nonuniqueness_threshold(rho, b)
    density = density_index(lambdas, rho)
    if density < uniq:
        verdict = Verdict.UNIQUE
    elif density > nonuniq:
        verdict = Verdict.NOT_UNIQUE
    else:
        verdict = Verdict.INDETERMINATE
    return ThresholdReport(rho=float(rho), b=float(b), uniq_threshold=uniq,
                           nonuniq_threshold=nonuniq, density=density, verdict=verdict)
