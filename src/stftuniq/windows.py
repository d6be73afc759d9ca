"""Window models whose Fourier transforms decay like exp(-a |xi|^m), m > 1.

The model is specified on the Fourier side, where the decay is explicit. The
time-domain window has a closed form when the decay is quadratic; otherwise
it is a truncated inverse transform. The profile e^{-a |xi|^m} is real and
even, so that transform is a real cosine transform on the half line, with
the |xi|^m kink at its panel edge 0, where the panel is graded. Times are
real and finite, and so are the values. The window at many shifts x_d is
two matrix products per refine level: cos(theta t) and sin(theta t), with
theta = 2 pi xi, are tabled once over the times and weighted by the
per-shift coefficients p cos(theta x_d) and p sin(theta x_d). An exactly
mirrored set of times (t and -t, as line_nodes gives) tables its
non-negative half only, since g(-t - x) takes the same tables with the sine
term negated.

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

from .errors import _array, _require
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
        for name, value in zip(("m", "a"), _check_window_params(self.m, self.a)):
            object.__setattr__(self, name, value)

    def fourier_eval(self, xi):
        """exp(-a |xi|^m) on an array (or scalar) of real frequencies."""
        return np.exp(-self.a * np.abs(_array(xi, "frequencies")) ** self.m)


def make_generalized_gaussian(a: float, m: float) -> WindowModel:
    """Window with Fourier transform exp(-a |xi|^m)."""
    return WindowModel(a, m)


def time_window_closed_form(window: WindowModel):
    """Analytic time-domain formula, available for quadratic decay (m == 2).

    Returns a callable on arrays of times, or None when no closed form exists.
    For ghat = e^{-a xi^2} the transform is sqrt(pi/a) e^{-pi^2 t^2 / a} at
    real times t.
    """
    if window.m != 2.0:
        return None
    front = math.sqrt(math.pi / window.a)
    rate = math.pi * math.pi / window.a

    def closed(t):
        t = _array(t, "times")
        # far times overflow rate * t^2 to inf, and e^-inf = 0 is exact
        with np.errstate(over="ignore"):
            return front * np.exp(-rate * t * t)

    return closed


def time_window_values(window: WindowModel, ts, quad: QuadratureConfig = DEFAULT_QUADRATURE,
                       shifts=0.0) -> np.ndarray:
    """Inverse transform g(t) = int ghat(xi) e^{2 pi i xi t} dxi at real times, or g(t - x) at shifts.

    The profile p(xi) = e^{-a |xi|^m} is real and even, so its transform is
    the cosine transform g(t) = 2 int_0^R p(xi) cos(2 pi xi t) dxi on the
    half line. The |xi|^m kink sits at the panel edge 0, and the panel is
    graded toward it (for every m: at even m, where there is no kink, the
    graded and plain rules agree to 3e-15 from 256 nodes). The half-width R
    is the profile's own truncation radius. Times and shifts are real and
    finite, and so are the values. All entries share one node grid. As in
    every quadrature of the package, the nodes double (worst case
    quad.nodes * 16 points) until two successive levels agree to quad.tol
    against the finer level's profile mass sum(w p) = g(0), the largest |g|
    at any time. Pointwise relative error in the far tail is not
    meaningful, and the angles' rounding floor scales with that mass, so
    times that all lie far from 0 are checked against it too.

    With shifts, the result is g(ts[:, None] - shifts), of shape
    ts.shape + shifts.shape, from the angle sum
    cos theta (t - x) = cos theta t cos theta x + sin theta t sin theta x:
    each level tables cos and sin of theta t once and takes two products
    with the coefficients w p cos(theta x) and w p sin(theta x), one column
    per shift. When ts is exactly mirrored (ts.ravel() equals its negated
    reverse) only its non-negative half is tabled, and the negative half
    takes the same tables with the sine term negated. So a level costs
    |t| |xi| trigonometric values for mirrored times and 2 |t| |xi| for
    others, plus 2 |shifts| |xi|, where one cosine per shift and time pair
    would cost |shifts| |t| |xi|. The default shift is the scalar 0, which
    gives g(ts) in the shape of ts. The coefficients are built in blocks of
    2^20 entries, and the tables in blocks of 2^16 entries within each
    coefficient block, so shifts that span several coefficient blocks (more
    than 2^20 / |xi| of them) table the times once per block.
    """
    ts = _array(ts, "times")
    xs = _array(shifts, "shifts")
    _require(bool(np.isfinite(ts).all()), "times must be finite")
    _require(bool(np.isfinite(xs).all()), "shifts must be finite")
    t = ts.ravel()
    x = xs.ravel()
    neg = t.size // 2 if np.array_equal(t, -t[::-1]) else 0
    # pos[lead:] are the negated negative times, in reverse order
    pos = t[neg:]
    lead = pos.size - neg
    radius = decay_truncation_radius(window.a, window.m)

    def level(nodes: int):
        xi, wt = graded_nodes(0.0, radius, nodes)
        theta = (2.0 * math.pi) * xi
        pw = 2.0 * np.exp(-window.a * xi**window.m) * wt
        out = np.empty((t.size, x.size))
        # the rows of pos; the cosine terms first, the sine terms added last
        top = out[neg:]
        sin_part = np.empty(top.shape)
        # tables of 2^16 entries (512 KB) stay in cache between the trig values and the products
        step = max(1, (1 << 16) // nodes)
        # coefficient blocks of 2^20 entries bound the memory of many shifts at a fine level
        cols = max(1, (1 << 20) // nodes)
        for j in range(0, x.size, cols):
            ang = theta[:, None] * x[j:j + cols]
            even = pw[:, None] * np.cos(ang)
            odd = pw[:, None] * np.sin(ang)
            for k in range(0, pos.size, step):
                block = pos[k:k + step, None] * theta
                top[k:k + step, j:j + cols] = np.cos(block) @ even
                sin_part[k:k + step, j:j + cols] = np.sin(block, out=block) @ odd
        # at -t the cosine terms repeat and the sine terms change sign
        out[:neg] = top[lead:][::-1] - sin_part[lead:][::-1]
        top += sin_part
        return out, float(np.sum(pw))

    return refine(level, quad, "time-window quadrature").reshape(ts.shape + xs.shape)
