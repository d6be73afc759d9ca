"""Window models whose Fourier transforms decay like exp(-a |xi|^m), m > 1.

The model is specified on the Fourier side, where the decay is explicit; the
time-domain window comes out of a truncated inverse transform (or a closed
form when the decay is quadratic). Verification helpers check claimed decay
envelopes and scan ambiguity-function slices for zeros.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    decay_truncation_radius,
    line_nodes,
    panel_nodes,
    refine,
)

_DEFAULT_SCAN_GRID = (-5.0, 5.0, 1001)


class WindowFamily(Enum):
    GENERALIZED_GAUSSIAN_FOURIER = "generalized_gaussian_fourier"
    MODULATED_GENERALIZED_GAUSSIAN = "modulated_generalized_gaussian"


@dataclass(frozen=True)
class WindowModel:
    """A window given by its Fourier transform C exp(-a |xi - xi0|^m).

    The plain family has xi0 = None (centered at zero); the modulated family
    shifts the same profile to xi0, which shows up in time as the modulation
    factor exp(2 pi i xi0 t). a > 0 and m > 1 keep the transform entire-ready;
    a <= 1 is accepted but flagged, since the sampling bounds downstream are
    only meaningful for a > 1.
    """

    family: WindowFamily
    a: float
    m: float
    amplitude: float = 1.0
    modulation: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, WindowFamily):
            raise InvalidParameterError(f"unknown window family: {self.family!r}")
        for name in ("a", "m", "amplitude"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise InvalidParameterError(f"window parameter {name} must be a finite real, got {v!r}")
        if self.a <= 0:
            raise InvalidParameterError(f"decay rate a must be positive, got {self.a}")
        if self.m <= 1:
            raise InvalidParameterError(f"decay exponent m must exceed 1, got {self.m}")
        if self.amplitude <= 0:
            raise InvalidParameterError(f"amplitude must be positive, got {self.amplitude}")
        if self.family is WindowFamily.MODULATED_GENERALIZED_GAUSSIAN:
            if self.modulation is None or not math.isfinite(self.modulation):
                raise InvalidParameterError("modulated family needs a finite modulation frequency")
        elif self.modulation is not None:
            raise InvalidParameterError("plain family does not take a modulation frequency")
        if self.a <= 1:
            warnings.warn(
                f"decay rate a = {self.a} is at or below 1; the window is accepted but the "
                "sampling-step bounds assume a > 1",
                UserWarning,
                stacklevel=3,
            )

    @property
    def center(self) -> float:
        return self.modulation or 0.0

    def fourier_eval(self, xi):
        """C exp(-a |xi - xi0|^m) on an array (or scalar) of real frequencies."""
        shifted = np.abs(np.asarray(xi, dtype=float) - self.center)
        return self.amplitude * np.exp(-self.a * shifted**self.m)


def make_generalized_gaussian(a: float, m: float, amplitude: float = 1.0) -> WindowModel:
    """Window with Fourier transform C exp(-a |xi|^m)."""
    return WindowModel(WindowFamily.GENERALIZED_GAUSSIAN_FOURIER, float(a), float(m), float(amplitude))


def make_modulated_generalized_gaussian(a: float, m: float, xi0: float,
                                        amplitude: float = 1.0) -> WindowModel:
    """Window with Fourier transform C exp(-a |xi - xi0|^m), modulated to frequency xi0."""
    return WindowModel(WindowFamily.MODULATED_GENERALIZED_GAUSSIAN, float(a), float(m),
                       float(amplitude), modulation=float(xi0))


def time_window_closed_form(window: WindowModel):
    """Analytic time-domain formula, available for quadratic decay (m == 2).

    Returns a callable accepting complex arrays, or None when no closed form
    exists. For ghat = C e^{-a xi^2} the transform is
    C sqrt(pi/a) e^{-pi^2 t^2 / a}, times the modulation phase.
    """
    if window.m != 2.0:
        return None
    a, amp, xi0 = window.a, window.amplitude, window.center
    front = amp * math.sqrt(math.pi / a)
    rate = math.pi * math.pi / a

    def closed(t):
        t = np.asarray(t, dtype=complex)
        out = front * np.exp(-rate * t * t)
        if xi0:
            out = out * np.exp((2j * math.pi * xi0) * t)
        return out

    return closed


def _auto_time_radius(window: WindowModel, im_max: float = 0.0) -> float:
    log_scale = math.log(max(window.amplitude, 1.0))
    base = decay_truncation_radius(window.a, window.m, log_scale=log_scale,
                                   linear=2.0 * math.pi * im_max)
    return base + abs(window.center)


def time_window_values(window: WindowModel, ts, quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """Inverse transform g(t) = int ghat(xi) e^{2 pi i xi t} dxi on an array of times.

    Times may be complex; the truncation radius accounts for the resulting
    exponential growth factor. All entries share one node grid. As in every
    quadrature of the package, the nodes double, at most the configured number
    of times (worst case quad.nodes * 2**doublings per half), until two
    successive levels agree to quad.tol against the finer level's largest
    |g(t)|, since pointwise relative error in the far tail is not meaningful.
    """
    ts = np.asarray(ts, dtype=complex)
    flat = ts.ravel()
    im_max = float(np.max(np.abs(flat.imag))) if flat.size else 0.0
    radius = quad.radius if quad.radius is not None else _auto_time_radius(window, im_max)

    def level(nodes: int):
        xi, wt = line_nodes(radius, nodes)
        gv = window.fourier_eval(xi) * wt
        out = np.empty(flat.shape, dtype=complex)
        step = max(1, (1 << 22) // max(xi.size, 1))
        for k in range(0, flat.size, step):
            block = flat[k:k + step]
            out[k:k + step] = np.exp((2j * math.pi) * block[:, None] * xi[None, :]) @ gv
        return out, float(np.max(np.abs(out), initial=0.0))

    return refine(level, quad, "time-window quadrature").reshape(ts.shape)


@dataclass(frozen=True)
class DecayReport:
    """Outcome of checking samples against a claimed decay envelope."""

    passes: bool
    worst_ratio: float
    worst_location: float


def verify_decay(samples, a: float, m: float, amplitude: float = 1.0,
                 grid=None, tol: float = 1e-9) -> DecayReport:
    """Check |ghat(xi)| <= C exp(-a |xi|^m) on a grid.

    samples is either an evaluator xi -> ghat(xi) or an (n, 2) array of
    (xi, value) pairs, in which case its first column is the grid. The worst
    ratio |value| / envelope is compared in the log domain so badly violating
    windows report a finite location instead of overflowing.
    """
    if not (a > 0) or not (m > 1) or not (amplitude > 0):
        raise InvalidParameterError("envelope needs a > 0, m > 1, amplitude > 0")
    if callable(samples):
        if grid is None:
            lo, hi, n = _DEFAULT_SCAN_GRID
            grid = np.linspace(lo, hi, n)
        else:
            grid = np.asarray(grid, dtype=float)
        vals = np.asarray(samples(grid), dtype=complex)
    else:
        pairs = np.asarray(samples)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
            raise InvalidParameterError("sample array must have shape (n, 2) with n >= 1")
        grid = pairs[:, 0].real.astype(float)
        vals = pairs[:, 1].astype(complex)
    if vals.shape != grid.shape:
        raise InvalidParameterError("evaluator output shape does not match the grid")

    with np.errstate(divide="ignore"):
        log_ratio = np.log(np.abs(vals)) + a * np.abs(grid) ** m - math.log(amplitude)
    worst = int(np.argmax(log_ratio))
    with np.errstate(over="ignore"):
        worst_ratio = float(np.exp(log_ratio[worst]))
    passes = bool(log_ratio[worst] <= math.log1p(tol))
    return DecayReport(passes=passes, worst_ratio=worst_ratio, worst_location=float(grid[worst]))


@dataclass(frozen=True)
class AmbiguityScanReport:
    """Magnitudes of one frequency slice of a window's ambiguity function."""

    omega: float
    grid: np.ndarray
    magnitudes: np.ndarray
    min_magnitude: float
    near_zero_fraction: float


def window_ambiguity_scan(window: WindowModel, omega: float, grid=None,
                          quad: QuadratureConfig = DEFAULT_QUADRATURE,
                          near_zero_tol: float = 1e-10) -> AmbiguityScanReport:
    """Scan xi -> |int e^{2 pi i omega eta} ghat(-eta) conj(ghat(xi - eta)) d eta|.

    A window whose scan stays away from zero on every slice of interest is
    safe for phase retrieval from the ambiguity side; the report flags the
    fraction of grid points within near_zero_tol of the slice's maximum
    magnitude scale (all of them when the whole slice is zero, as it is far
    out in xi, where the two factors underflow against each other). Each grid
    column integrates over three panels of quad.nodes points, split where the
    |.|^m kinks of the two factors sit; a window with even integer m has no
    kinks, so all columns share one rule on the whole line. The nodes double
    until the slice changes by at most quad.tol of its scale.
    """
    if not isinstance(window, WindowModel):
        raise InvalidParameterError("window must be a WindowModel")
    if grid is None:
        lo, hi, n = _DEFAULT_SCAN_GRID
        grid = np.linspace(lo, hi, n)
    else:
        grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InvalidParameterError("scan grid must be nonempty")
    fhat = window.fourier_eval
    radius = _auto_time_radius(window) + float(np.max(np.abs(grid)))
    center = window.center
    # ghat(-eta) has its kink at eta = -center, ghat(xi - eta) at eta = xi - center
    kinks = np.sort(np.stack([np.full(grid.size, -center), grid - center], axis=1), axis=1)
    edges = np.concatenate([np.full((grid.size, 1), -radius), kinks,
                            np.full((grid.size, 1), radius)], axis=1)

    # ghat is real, so the conjugate in the integrand is dropped
    def level(nodes: int):
        out = np.empty(grid.size, dtype=complex)
        if window.m % 2 == 0:
            eta, wt = line_nodes(radius, nodes)
            base = fhat(-eta) * np.exp((2j * math.pi * omega) * eta) * wt
            step = max(1, (1 << 22) // eta.size)
            for k in range(0, grid.size, step):
                out[k:k + step] = base @ fhat(grid[k:k + step] - eta[:, None])
            return out, float(np.max(np.abs(out)))
        step = max(1, (1 << 20) // (3 * nodes))
        for k in range(0, grid.size, step):
            eta, wt = panel_nodes(edges[k:k + step], nodes)
            vals = fhat(-eta) * fhat(grid[k:k + step, None] - eta)
            if omega:
                vals = vals * np.exp((2j * math.pi * omega) * eta)
            out[k:k + step] = np.einsum("ij,ij->i", vals, wt)
        return out, float(np.max(np.abs(out)))

    mags = np.abs(refine(level, quad, "ambiguity scan"))
    return AmbiguityScanReport(
        omega=float(omega),
        grid=grid,
        magnitudes=mags,
        min_magnitude=float(np.min(mags)),
        near_zero_fraction=float(np.mean(mags <= near_zero_tol * np.max(mags))),
    )
