"""Window models whose Fourier transforms decay like exp(-a |xi - xi0|^m), m > 1.

The model is specified on the Fourier side, where the decay is explicit. The
time-domain window has a closed form when the decay is quadratic; otherwise
it is a truncated inverse transform. The centred profile C e^{-a |xi|^m} is
real and even, so that transform is a real cosine transform on the half
line, with the |xi|^m kink at its panel edge 0, and a window centred at
xi0 != 0 multiplies it by e^{2 pi i xi0 t}. Real times give real values for
a centred window; complex times or a modulation give complex values. An
ambiguity-function scan looks for zeros along one frequency slice.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

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


def _caller_stacklevel() -> int:
    """stacklevel at which a warning from WindowModel.__post_init__ names the caller's line.

    Frames above __post_init__: the dataclass __init__, then the caller, or a
    factory of this module and then the caller.
    """
    frame, level = sys._getframe(3), 3
    while frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class WindowModel:
    """A window given by its Fourier transform C exp(-a |xi - xi0|^m).

    center is xi0: the plain window has xi0 = 0, and a modulated one shifts
    the same profile to xi0, which shows up in time as the modulation factor
    exp(2 pi i xi0 t). a > 0 and m > 1 keep the transform entire-ready;
    a <= 1 is accepted but flagged, since the sampling bounds downstream are
    only meaningful for a > 1.
    """

    a: float
    m: float
    amplitude: float = 1.0
    center: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "m", "amplitude", "center"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise InvalidParameterError(f"window parameter {name} must be a finite real, got {v!r}")
        if self.a <= 0:
            raise InvalidParameterError(f"decay rate a must be positive, got {self.a}")
        if self.m <= 1:
            raise InvalidParameterError(f"decay exponent m must exceed 1, got {self.m}")
        if self.amplitude <= 0:
            raise InvalidParameterError(f"amplitude must be positive, got {self.amplitude}")
        if self.a <= 1:
            warnings.warn(
                f"decay rate a = {self.a} is at or below 1; the window is accepted but the "
                "sampling-step bounds assume a > 1",
                UserWarning,
                stacklevel=_caller_stacklevel(),
            )

    def fourier_eval(self, xi):
        """C exp(-a |xi - xi0|^m) on an array (or scalar) of real frequencies."""
        shifted = np.abs(np.asarray(xi, dtype=float) - self.center)
        return self.amplitude * np.exp(-self.a * shifted**self.m)


def make_generalized_gaussian(a: float, m: float, amplitude: float = 1.0) -> WindowModel:
    """Window with Fourier transform C exp(-a |xi|^m)."""
    return WindowModel(float(a), float(m), float(amplitude))


def make_modulated_generalized_gaussian(a: float, m: float, xi0: float,
                                        amplitude: float = 1.0) -> WindowModel:
    """Window with Fourier transform C exp(-a |xi - xi0|^m), modulated to frequency xi0."""
    return WindowModel(float(a), float(m), float(amplitude), float(xi0))


def _time_array(ts) -> np.ndarray:
    """Times as a float array, or a complex one when complex times are given."""
    ts = np.asarray(ts)
    return ts.astype(complex if np.iscomplexobj(ts) else float, copy=False)


def time_window_closed_form(window: WindowModel):
    """Analytic time-domain formula, available for quadratic decay (m == 2).

    Returns a callable on arrays of times, or None when no closed form exists.
    For ghat = C e^{-a xi^2} the transform is C sqrt(pi/a) e^{-pi^2 t^2 / a},
    times the modulation factor e^{2 pi i xi0 t}. The dtype rule is that of
    time_window_values: real times give real values for a centred window,
    complex times or a modulated window give complex values.
    """
    if window.m != 2.0:
        return None
    a, amp, xi0 = window.a, window.amplitude, window.center
    front = amp * math.sqrt(math.pi / a)
    rate = math.pi * math.pi / a

    def closed(t):
        t = _time_array(t)
        out = front * np.exp(-rate * t * t)
        if xi0:
            out = out * np.exp((2j * math.pi * xi0) * t)
        return out

    return closed


def _auto_time_radius(window: WindowModel, im_max: float = 0.0) -> float:
    """Truncation radius of the centred profile C e^{-a |xi|^m} for times up to im_max off the axis."""
    log_scale = math.log(max(window.amplitude, 1.0))
    return decay_truncation_radius(window.a, window.m, log_scale=log_scale,
                                   linear=2.0 * math.pi * im_max)


def time_window_values(window: WindowModel, ts, quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """Inverse transform g(t) = int ghat(xi) e^{2 pi i xi t} dxi on an array of times.

    The centred profile p(xi) = C e^{-a |xi|^m} is real and even, so its
    transform is the cosine transform g0(t) = 2 int_0^R p(xi) cos(2 pi xi t) dxi
    on the half line, and the modulated family is g(t) = e^{2 pi i xi0 t} g0(t).
    The |xi|^m kink sits at the panel edge 0 for both families. A given
    quad.radius is the half-width R of the profile around xi0. Real times
    give real values for the plain family; complex times (the radius then
    accounts for the exponential growth of the cosine) or a modulated window
    give complex values. All entries share one node grid. As in every
    quadrature of the package, the nodes double, at most the configured number
    of times (worst case quad.nodes * 2**doublings points), until two
    successive levels agree to quad.tol against the finer level's largest
    |g(t)|, since pointwise relative error in the far tail is not meaningful.
    """
    ts = _time_array(ts)
    flat = ts.ravel()
    im_max = float(np.max(np.abs(flat.imag), initial=0.0)) if np.iscomplexobj(flat) else 0.0
    radius = quad.radius if quad.radius is not None else _auto_time_radius(window, im_max)
    arg = (2.0 * math.pi) * flat
    phase = np.exp((2j * math.pi * window.center) * flat) if window.center else None
    dtype = flat.dtype if phase is None else complex

    def level(nodes: int):
        xi, wt = panel_nodes(np.array([0.0, radius]), nodes)
        pw = (2.0 * window.amplitude) * np.exp(-window.a * xi**window.m) * wt
        out = np.empty(flat.shape, dtype)
        # blocks of 2^16 entries (512 KB) stay in cache between the cosine and the product
        step = max(1, (1 << 16) // nodes)
        for k in range(0, flat.size, step):
            block = arg[k:k + step, None] * xi
            out[k:k + step] = np.cos(block, out=block) @ pw
        if phase is not None:
            out *= phase
        return out, float(np.max(np.abs(out), initial=0.0))

    return refine(level, quad, "time-window quadrature").reshape(ts.shape)


@dataclass(frozen=True)
class AmbiguityScanReport:
    """Magnitudes of one frequency slice of a window's ambiguity function."""

    omega: float
    grid: np.ndarray
    magnitudes: np.ndarray
    min_magnitude: float
    near_zero_fraction: float


def window_ambiguity_scan(window: WindowModel, omega: float, grid=None,
                          quad: QuadratureConfig = DEFAULT_QUADRATURE) -> AmbiguityScanReport:
    """Scan xi -> |int e^{2 pi i omega eta} ghat(-eta) conj(ghat(xi - eta)) d eta|.

    A window whose scan stays away from zero on every slice of interest is
    safe for phase retrieval from the ambiguity side; the report flags the
    fraction of grid points within 1e-10 of the slice's maximum
    magnitude scale (all of them when the whole slice is zero, as it is far
    out in xi, where the two factors underflow against each other). Each grid
    column integrates over three panels of quad.nodes points, split where the
    |.|^m kinks of the two factors sit; a window with even integer m has no
    kinks, so all columns share one rule on the whole line. The nodes double
    until the slice changes by at most quad.tol of its scale.
    """
    if not isinstance(window, WindowModel):
        raise InvalidParameterError("window must be a WindowModel")
    grid = np.linspace(-5.0, 5.0, 1001) if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InvalidParameterError("scan grid must be nonempty")
    fhat = window.fourier_eval
    radius = _auto_time_radius(window) + abs(window.center) + float(np.max(np.abs(grid)))
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
        near_zero_fraction=float(np.mean(mags <= 1e-10 * np.max(mags))),
    )
