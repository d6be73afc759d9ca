"""Sampling sets on power-law trajectories and the density thresholds around them.

The admissible step sizes, the four-quadrant point sets they generate, and
the uniqueness / non-uniqueness density thresholds for real zero sequences,
plus a finite-sequence density surrogate and a classifier built on it.
Both step sizes are uniqueness thresholds: at the predicted growth of the
window's entire continuation, carried as a log type, and at (m, a).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (InsufficientDataError, InvalidParameterError, _caller_stacklevel, _count, _real,
                     _real_array, _require)

_SET_HEADER = "n,sign_x,sign_omega,x,omega"
_QUADRANT_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
# Entries per slice of the O(K) passes here and in entire: 256 KB of floats stays in L2
_CHUNK = 1 << 15
# The tail ratios as the checks read them: extremes, end values, and whether they never fall
TailSummary = NamedTuple("TailSummary", [("low", float), ("high", float), ("first", float),
                                         ("last", float), ("rising", bool)])


class Verdict(Enum):
    UNIQUE = "Unique"
    NOT_UNIQUE = "NotUnique"
    INDETERMINATE = "Indeterminate"


class TauBounds(NamedTuple):
    tau1_max: float
    tau2_max: float


def _check_threshold_params(rho: float, b: float) -> tuple[float, float]:
    return _real(rho, "order rho", 1.0), _real(b, "type b", 0.0)


def _check_window_params(m: float, a: float) -> tuple[float, float]:
    m, a = _real(m, "decay exponent m", 1.0), _real(a, "decay rate a", 0.0)
    if a <= 1:
        warnings.warn(f"decay rate a = {a} is at or below 1; the step bounds are formal there",
                      UserWarning, stacklevel=_caller_stacklevel())
    return m, a


def _log_growth(m: float, a: float) -> tuple[float, float]:
    """Order rho = m/(m-1) and log type of the window's entire continuation.

    The type, ((m-1)/m) (2 pi)^rho (a m)^{-1/(m-1)}, leaves the float range as m -> 1; its log does not.
    """
    rho = m / (m - 1.0)
    return rho, math.log((m - 1.0) / m) + rho * math.log(2.0 * math.pi) - math.log(a * m) / (m - 1.0)


def _threshold(rho: float, b: float) -> float:
    return (2.0 / (b * rho * math.e)) ** (1.0 / rho)


def _log_threshold(rho: float, log_b: float) -> float:
    """log of the uniqueness threshold at order rho and type e^{log_b}, which scales as b^{-1/rho}."""
    return math.log(_threshold(rho, 1.0)) - log_b / rho


def max_tau_bounds(m: float, a: float) -> TauBounds:
    """Largest admissible step scales for the two power-law trajectories.

    Both are uniqueness thresholds. The time-side steps tau1 n^{(m-1)/m} work
    for every tau1 below the threshold at the predicted growth of the
    window's entire continuation (order m/(m-1), type as in _log_growth), and
    the frequency-side steps tau2 n^{1/m} for every tau2 below the threshold
    at order m and type a, (2/(a m e))^{1/m}. tau1_max goes through the log
    type, which stays a float as m -> 1 where the type does not.
    """
    m, a = _check_window_params(m, a)
    return TauBounds(math.exp(_log_threshold(*_log_growth(m, a))), _threshold(m, a))


@dataclass(frozen=True)
class SamplingSet:
    """Ordered four-quadrant sampling set, given by its five construction parameters.

    Points are (sign_x tau1 n^{(m-1)/m}, sign_omega tau2 n^{1/m}) for
    n = 1..count, quadrant-major within each n in the order
    (+,+), (+,-), (-,+), (-,-); the optional origin row comes first with
    n = 0. The columns are computed from the parameters, so they cannot
    disagree with them, and two sets are equal when their parameters are.
    """

    m: float
    tau1: float
    tau2: float
    count: int
    includes_origin: bool = False
    n_index: np.ndarray = field(init=False, compare=False, repr=False)
    sign_x: np.ndarray = field(init=False, compare=False, repr=False)
    sign_omega: np.ndarray = field(init=False, compare=False, repr=False)
    x: np.ndarray = field(init=False, compare=False, repr=False)
    omega: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        count = _count(self.count, "count", 1)
        tau1, tau2 = _real(self.tau1, "tau1", 0.0), _real(self.tau2, "tau2", 0.0)
        m = _real(self.m, "decay exponent m", 1.0)
        n = np.arange(1, count + 1, dtype=float)
        xmag = tau1 * n ** ((m - 1.0) / m)
        wmag = tau2 * n ** (1.0 / m)
        sx = np.tile([q[0] for q in _QUADRANT_SIGNS], count)
        sw = np.tile([q[1] for q in _QUADRANT_SIGNS], count)
        cols = [np.repeat(np.arange(1, count + 1), 4), sx, sw,
                sx * np.repeat(xmag, 4), sw * np.repeat(wmag, 4)]
        if self.includes_origin:
            cols = [np.concatenate([[first], col]) for first, col in zip((0, 1, 1, 0.0, 0.0), cols)]
        params = (m, tau1, tau2, count, bool(self.includes_origin))
        for f, value in zip(fields(self), (*params, *cols)):
            object.__setattr__(self, f.name, value)

    def __len__(self) -> int:
        return int(self.n_index.size)

    @property
    def points(self) -> np.ndarray:
        """(len, 2) array of (x, omega) rows in set order."""
        return np.stack([self.x, self.omega], axis=1)

    def to_csv(self, extra_meta: dict | None = None) -> str:
        """The set as CSV text: `# key=value` comments (sorted by key), the header, then the rows.

        The five construction parameters ride along as comments so the set
        round-trips without sidecar files; extra_meta entries join them
        (floats at full precision) but never replace one.
        """
        meta = {**(extra_meta or {}), **{f.name: getattr(self, f.name) for f in fields(self) if f.init}}
        rows = (f"{n},{sx},{sw},{x:.17g},{om:.17g}"
                for n, sx, sw, x, om in zip(self.n_index, self.sign_x, self.sign_omega, self.x, self.omega))
        return "\n".join([f"# {k}={meta[k]!r}" for k in sorted(meta)] + [_SET_HEADER, *rows]) + "\n"

    @classmethod
    def from_csv(cls, src) -> "SamplingSet":
        """The set that to_csv output names; rows that differ from it raise.

        src is a path, a file object, or the CSV text itself (a str holding a newline).
        """
        meta, rows = _read_csv(src)
        for key in ("m", "tau1", "tau2", "count", "includes_origin"):
            _require(key in meta, f"sampling-set CSV lacks the {key} metadata comment")
        lam = cls(*(_number(meta[key]) for key in ("m", "tau1", "tau2", "count")),
                  meta["includes_origin"] == "True")
        want = np.stack([lam.n_index, lam.sign_x, lam.sign_omega, lam.x, lam.omega], axis=1)
        _require(np.array_equal(np.array(rows), want),
                 "sampling-set CSV rows differ from the set its metadata describes")
        return lam


def _number(text: str):
    """text as the int or float it spells, or else as itself, which every check of a number rejects."""
    try:
        return int(text) if text.lstrip("+-").isdigit() else float(text)
    except ValueError:
        return text


def _read_csv(src) -> tuple[dict[str, str], list[np.ndarray]]:
    """Metadata comments and data rows of SamplingSet.to_csv output, each row checked for width and read as reals."""
    if hasattr(src, "read"):
        lines = src.read().splitlines()
    elif isinstance(src, str) and "\n" in src:
        lines = src.splitlines()
    else:
        with open(src, "r", encoding="utf-8") as fp:
            lines = fp.read().splitlines()
    width = _SET_HEADER.count(",") + 1
    meta: dict[str, str] = {}
    rows = []
    for raw in lines:
        line = raw.strip()
        if not line or line == _SET_HEADER:
            continue
        if line.startswith("#"):
            key, eq, val = line[1:].strip().partition("=")
            if eq:
                meta[key.strip()] = val.strip()
            continue
        parts = line.split(",")
        _require(len(parts) == width, f"malformed sampling-set row: {line!r}")
        rows.append(_real_array([_number(p) for p in parts], f"sampling-set row {line!r}"))
    _require(bool(rows), "sampling-set CSV has no data rows")
    return meta, rows


def generate_sampling_set(m: float, tau1: float, tau2: float, count: int,
                          include_origin: bool = False, a: float | None = None) -> SamplingSet:
    """Build the four-quadrant set (+-tau1 n^{(m-1)/m}, +-tau2 n^{1/m}), n = 1..count.

    When the window decay rate a is supplied, the steps are validated strictly
    against max_tau_bounds and rejected at or above them; without it the set
    is built as asked but flagged as unvalidated.
    """
    lam = SamplingSet(m, tau1, tau2, count, include_origin)
    if a is None:
        warnings.warn("no decay rate supplied; step scales were not validated against the bounds",
                      UserWarning, stacklevel=_caller_stacklevel())
    else:
        bounds = max_tau_bounds(lam.m, a)
        for name, tau, bound in (("tau1", lam.tau1, bounds.tau1_max), ("tau2", lam.tau2, bounds.tau2_max)):
            _require(tau < bound, f"{name} = {tau} is not strictly below the admissible bound {bound}")
    return lam


def uniqueness_threshold(rho: float, b: float) -> float:
    """Density bound below which a sequence is too dense for an order-rho type-b zero set.

    delta = (2/(b rho e))^{1/rho}. By Jensen's formula such a function,
    unless it vanishes identically, has at most about 2 (r / delta)^rho zeros
    in |z| <= r (zero_count_bound). The points +-lambda_k with
    liminf lambda_k / k^{1/rho} below delta put more than that in |z| <= r
    along a sequence of radii, so a function of that growth that vanishes on
    them vanishes identically: uniqueness needs the density below delta.
    """
    return _threshold(*_check_threshold_params(rho, b))


def nonuniqueness_threshold(rho: float, b: float) -> float:
    """Density bound above which an order-rho type-b function can vanish on the sequence.

    C = (pi / (b |sin(pi rho / 2)|))^{1/rho}, degenerating to (pi/b)^{1/rho}
    when rho/2 is an integer and the sine factor would vanish.
    """
    rho, b = _check_threshold_params(rho, b)
    half = rho / 2.0
    if abs(half - round(half)) < 1e-12:
        return (math.pi / b) ** (1.0 / rho)
    return (math.pi / (b * abs(math.sin(math.pi * half)))) ** (1.0 / rho)


def _check_slice(values: np.ndarray, k: int, n: int, what: str) -> None:
    """Raise unless values[k:k + n] rises strictly from values[k - 1] (from 0 at k = 0), ending finite; NaN fails."""
    if k == 0 and not values[0] > 0:
        raise InvalidParameterError(f"{what} must be positive")
    part = values[max(k - 1, 0):k + n]
    if not np.all(part[1:] > part[:-1]):
        raise InvalidParameterError(f"{what} must be strictly increasing")
    if k + n == values.size and not values[-1] < math.inf:
        raise InvalidParameterError(f"{what} must be finite")


def check_increasing(values: np.ndarray, what: str) -> None:
    """Raise unless a 1-d array starts positive, rises strictly and ends finite; NaN fails."""
    for k in range(0, values.size, _CHUNK):
        _check_slice(values, k, min(_CHUNK, values.size - k), what)


def tail_ratios(lam: np.ndarray, rho: float) -> TailSummary:
    """Summary of lambda_k / k^{1/rho} over the tail half k > K/2, the only ratios any check reads.

    Formed and reduced one slice at a time, so no K/2 array is ever built.
    """
    start = lam.size // 2
    low, high, rising, last = math.inf, -math.inf, True, -math.inf
    for k in range(start, lam.size, _CHUNK):
        r = np.arange(k + 1, min(k + _CHUNK, lam.size) + 1, dtype=float)
        r **= 1.0 / rho
        np.divide(lam[k:k + r.size], r, out=r)
        first = r[0] if k == start else first
        low, high = min(low, float(r.min())), max(high, float(r.max()))
        rising, last = rising and last <= r[0] and bool(np.all(r[1:] >= r[:-1])), r[-1]
    return TailSummary(low, high, float(first), float(last), rising)


def tail_density(tail: TailSummary) -> float:
    """Density surrogate from the tail summary, warning when the ratios are still rising."""
    if tail.last > 1.25 * tail.first and tail.rising:
        warnings.warn("normalized ratios keep increasing; the density surrogate may be diverging",
                      RuntimeWarning, stacklevel=_caller_stacklevel())
    return tail.low


def density_index(lambdas, rho: float) -> float:
    """Finite surrogate for liminf lambda_k / k^{1/rho}.

    Takes the minimum of the normalized ratios over the tail half of the
    sequence, where the transient from small k has died out. A tail that is
    still rising by more than 25% end to end suggests the true liminf is
    infinite (super-power-law growth); that is reported as a warning, not an
    error, since a large finite surrogate is still usable.
    """
    lam = _real_array(lambdas, "sequence entries")
    if lam.ndim != 1 or lam.size < 16:
        raise InsufficientDataError(f"need at least 16 sequence terms, got {lam.size if lam.ndim == 1 else lam.shape}")
    rho = _real(rho, "order rho", 1.0)
    check_increasing(lam, "sequence entries")
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
