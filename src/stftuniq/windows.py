"""Window models whose Fourier transforms decay like exp(-a |xi|^m), m > 1.

The model is specified on the Fourier side, where the decay is explicit. The
time-domain window has a closed form when the decay is quadratic; otherwise
it is a truncated inverse transform. The profile e^{-a |xi|^m} is real and
even, so that transform is a real cosine transform on the half line, with
the |xi|^m kink at its panel edge 0, where the panel is graded. Real times
give real values; complex times give complex values.

The profile has no centre and no constant factor. Shifting it to eta makes
the window M_eta g = e^{2 pi i eta t} g, and V_{M_eta g} f(x, omega) =
e^{2 pi i eta x} V_g f(x, omega + eta) (Groechenig, Foundations of
Time-Frequency Analysis, 2001, sec. 3.1), so the shift only moves the
sampling set in omega; a constant factor scales every magnitude alike.
Neither changes a step bound, a growth order or type, or a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """A window given by its Fourier transform exp(-a |xi|^m).

    a > 0 and m > 1 keep the transform entire-ready; a <= 1 is accepted with
    the same warning as the step bounds, which are formal there.
    """

    a: float
    m: float

    def __post_init__(self) -> None:
        _check_window_params(self.m, self.a)

    def fourier_eval(self, xi):
        """exp(-a |xi|^m) on an array (or scalar) of real frequencies."""
        return np.exp(-self.a * np.abs(np.asarray(xi, dtype=float)) ** self.m)


def make_generalized_gaussian(a: float, m: float) -> WindowModel:
    """Window with Fourier transform exp(-a |xi|^m)."""
    return WindowModel(float(a), float(m))


def _time_array(ts) -> np.ndarray:
    """Times as a float array, or a complex one when complex times are given."""
    ts = np.asarray(ts)
    return ts.astype(complex if np.iscomplexobj(ts) else float, copy=False)


def time_window_closed_form(window: WindowModel):
    """Analytic time-domain formula, available for quadratic decay (m == 2).

    Returns a callable on arrays of times, or None when no closed form exists.
    For ghat = e^{-a xi^2} the transform is sqrt(pi/a) e^{-pi^2 t^2 / a}. As
    in time_window_values, real times give real values and complex times
    complex values.
    """
    if window.m != 2.0:
        return None
    front = math.sqrt(math.pi / window.a)
    rate = math.pi * math.pi / window.a

    def closed(t):
        t = _time_array(t)
        # far times overflow rate * t^2 to inf, and e^-inf = 0 is exact
        with np.errstate(over="ignore"):
            return front * np.exp(-rate * t * t)

    return closed


def time_window_values(window: WindowModel, ts, quad: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """Inverse transform g(t) = int ghat(xi) e^{2 pi i xi t} dxi on an array of times.

    The profile p(xi) = e^{-a |xi|^m} is real and even, so its transform is
    the cosine transform g(t) = 2 int_0^R p(xi) cos(2 pi xi t) dxi on the
    half line. The |xi|^m kink sits at the panel edge 0, and the panel is
    graded toward it (for every m: at even m, where there is no kink, the
    graded and plain rules agree to 3e-15 from 256 nodes). The half-width R
    is the profile's own truncation radius, widened for complex times to
    cover the e^{2 pi |Im t| xi} growth of the cosine. Real times give real
    values; complex times give complex values. All entries share one node
    grid. As in every quadrature of the package, the nodes double (worst
    case quad.nodes * 16 points) until two successive levels agree to
    quad.tol against the finer level's largest |g(t)|, since pointwise
    relative error in the far tail is not meaningful.
    """
    ts = _time_array(ts)
    flat = ts.ravel()
    im_max = float(np.max(np.abs(flat.imag), initial=0.0)) if np.iscomplexobj(flat) else 0.0
    radius = decay_truncation_radius(window.a, window.m, linear=2.0 * math.pi * im_max)
    arg = (2.0 * math.pi) * flat

    def level(nodes: int):
        xi, wt = graded_nodes(0.0, radius, nodes)
        pw = 2.0 * np.exp(-window.a * xi**window.m) * wt
        out = np.empty(flat.shape, flat.dtype)
        # blocks of 2^16 entries (512 KB) stay in cache between the cosine and the product
        step = max(1, (1 << 16) // nodes)
        for k in range(0, flat.size, step):
            block = arg[k:k + step, None] * xi
            out[k:k + step] = np.cos(block, out=block) @ pw
        return out, float(np.max(np.abs(out), initial=0.0))

    return refine(level, quad, "time-window quadrature").reshape(ts.shape)
