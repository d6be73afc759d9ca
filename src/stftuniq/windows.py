"""Window models whose Fourier transforms decay like exp(-a |xi - xi0|^m), m > 1.

The model is specified on the Fourier side, where the decay is explicit. The
time-domain window has a closed form when the decay is quadratic; otherwise
it is a truncated inverse transform. The centred profile C e^{-a |xi|^m} is
real and even, so that transform is a real cosine transform on the half
line, with the |xi|^m kink at its panel edge 0, where the panel is graded,
and a window centred at xi0 != 0 multiplies it by e^{2 pi i xi0 t}. Real
times give real values for a centred window; complex times or a modulation
give complex values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    decay_truncation_radius,
    graded_nodes,
    refine,
)
from .sampling import _check_window_params


@dataclass(frozen=True)
class WindowModel:
    """A window given by its Fourier transform C exp(-a |xi - xi0|^m).

    center is xi0: the plain window has xi0 = 0, and a modulated one shifts
    the same profile to xi0, which shows up in time as the modulation factor
    exp(2 pi i xi0 t). a > 0 and m > 1 keep the transform entire-ready;
    a <= 1 is accepted with the same warning as the step bounds, which are
    formal there.
    """

    a: float
    m: float
    amplitude: float = 1.0
    center: float = 0.0

    def __post_init__(self) -> None:
        for name in ("amplitude", "center"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise InvalidParameterError(f"window parameter {name} must be a finite real, got {v!r}")
        if self.amplitude <= 0:
            raise InvalidParameterError(f"amplitude must be positive, got {self.amplitude}")
        _check_window_params(self.m, self.a)

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


def time_window_values(window: WindowModel, ts, quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """Inverse transform g(t) = int ghat(xi) e^{2 pi i xi t} dxi on an array of times.

    The centred profile p(xi) = C e^{-a |xi|^m} is real and even, so its
    transform is the cosine transform g0(t) = 2 int_0^R p(xi) cos(2 pi xi t) dxi
    on the half line, and the modulated family is g(t) = e^{2 pi i xi0 t} g0(t).
    The |xi|^m kink sits at the panel edge 0 for both families, and the panel
    is graded toward it (for every m: at even m, where there is no kink, the
    graded and plain rules agree to 3e-15 from 256 nodes). A given
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
    radius = quad.radius
    if radius is None:
        # the centred profile's truncation radius, for times up to im_max off the axis
        im_max = float(np.max(np.abs(flat.imag), initial=0.0)) if np.iscomplexobj(flat) else 0.0
        radius = decay_truncation_radius(window.a, window.m, log_scale=math.log(max(window.amplitude, 1.0)),
                                         linear=2.0 * math.pi * im_max)
    arg = (2.0 * math.pi) * flat
    phase = np.exp((2j * math.pi * window.center) * flat) if window.center else None
    dtype = flat.dtype if phase is None else complex

    def level(nodes: int):
        xi, wt = graded_nodes(0.0, radius, nodes)
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
