"""Reference values computed apart from the program's own quadrature.

Each function here is a closed form or an adaptive scipy integral written
from the mathematics, not from stftuniq's code paths, so the benchmark can
check the program's outputs against something it did not produce.

Conventions follow stftuniq: V_g f(x, w) = int f(t) conj(g(t - x)) e^{-2 pi i w t} dt,
and the window g has Fourier transform exp(-a |xi|^m).
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import loggamma, zeta


def step_bounds(m: float, a: float) -> tuple[float, float]:
    """The paper's largest admissible step scales (tau1_max, tau2_max)."""
    rho = m / (m - 1.0)
    tau1 = (2.0 / ((2.0 * math.pi) ** rho * (m * a) ** (-1.0 / (m - 1.0)) * math.e)) ** (1.0 / rho)
    tau2 = (2.0 / (a * m * math.e)) ** (1.0 / m)
    return tau1, tau2


def quadrant_points(m: float, tau1: float, tau2: float, count: int) -> np.ndarray:
    """(x, w) = (+-tau1 n^{(m-1)/m}, +-tau2 n^{1/m}) for n = 1..count, all four sign pairs."""
    rows = []
    for n in range(1, count + 1):
        x = tau1 * n ** ((m - 1.0) / m)
        w = tau2 * n ** (1.0 / m)
        rows.extend([(x, w), (x, -w), (-x, w), (-x, -w)])
    return np.array(rows)


def gaussian_stft(components, a: float, points) -> np.ndarray:
    """Closed-form STFT of sum_j A_j exp(-pi ((t - c_j)/s_j)^2) against the m = 2 window.

    With ghat = exp(-a xi^2) the window is sqrt(pi/a) exp(-(pi^2/a) t^2), so
    each term of the integrand is a Gaussian in t times a linear phase:
    int exp(-P t^2 + 2 B t) dt = sqrt(pi/P) exp(B^2/P).
    components holds (A, c, s) triples.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x, w = pts[:, 0], pts[:, 1]
    front = math.sqrt(math.pi / a)
    q = math.pi * math.pi / a
    out = np.zeros(x.size, dtype=complex)
    for amp, c, s in components:
        p = math.pi / (s * s)
        big_p = p + q
        b = p * c + q * x - 1j * math.pi * w
        out += amp * front * math.sqrt(math.pi / big_p) * np.exp(b * b / big_p - p * c * c - q * x * x)
    return out


def gaussian_fhat(amp: complex, center: float, width: float):
    """Fourier transform of amp exp(-pi ((t - center)/width)^2)."""
    def fhat(xi: float) -> complex:
        return amp * width * cmath.exp(-math.pi * (width * xi) ** 2 - 2j * math.pi * xi * center)
    return fhat


def chirp_fhat(amp: complex, center: float, width: float, f0: float, rate: float):
    """Fourier transform of amp exp(-pi tau^2/width^2 + 2 pi i (f0 tau + rate tau^2 / 2)), tau = t - center."""
    alpha = 1.0 / (width * width) - 1j * rate
    root = cmath.sqrt(alpha)

    def fhat(xi: float) -> complex:
        return amp / root * cmath.exp(-math.pi * (xi - f0) ** 2 / alpha - 2j * math.pi * xi * center)
    return fhat


def fourier_side_stft(fhat, a: float, m: float, x: float, w: float) -> complex:
    """V_g f(x, w) = int fhat(w + eta) exp(-a |eta|^m) e^{2 pi i eta x} d eta by adaptive quadrature.

    This is the fundamental identity of time-frequency analysis with
    eta = xi - w. The |eta|^m kink sits at eta = 0, so each half-line is
    integrated on its own out to where exp(-a eta^m) falls below e^-45.
    """
    reach = (45.0 / a) ** (1.0 / m)

    def part(lo: float, hi: float, take) -> float:
        # quad warns of roundoff when a part is far below the requested
        # 1e-13 relative; the m = 2 test bounds the result's real error
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(lambda eta: take(fhat(w + eta) * math.exp(-a * abs(eta) ** m)
                                           * cmath.exp(2j * math.pi * eta * x)),
                          lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)
        return val

    total = 0j
    for lo, hi in ((-reach, 0.0), (0.0, reach)):
        total += complex(part(lo, hi, lambda v: v.real), part(lo, hi, lambda v: v.imag))
    return total


def counterexample_log_modulus(z, c: float, terms: int) -> np.ndarray:
    """log|F(z)| for F(z) = prod_{k<=K} (1 - u/k) e^{u/k}, u = z^2/c^2, in closed form.

    The infinite genus-one product over the integers is e^{gamma u} / Gamma(1 - u);
    the truncation at K removes the tail sum_{k>K} [log(1 - u/k) + u/k]
    = -sum_{j>=2} u^j zeta(j, K + 1) / j, which converges fast for |u| << K.
    """
    u = np.asarray(z, dtype=complex) ** 2 / (c * c)
    total = np.euler_gamma * u - loggamma(1.0 - u)
    upow = u.copy()
    for j in range(2, 64):
        upow = upow * u
        term = upow * (zeta(j, terms + 1.0) / j)
        total = total + term
        if float(np.max(np.abs(term))) < 1e-18 * max(1.0, float(np.max(np.abs(total)))):
            break
    return total.real


def counterexample_log_modulus_direct(z, c: float, terms: int) -> np.ndarray:
    """The same log|F(z)| summed factor by factor; only for small K."""
    u = np.asarray(z, dtype=complex) ** 2 / (c * c)
    k = np.arange(1, terms + 1, dtype=float)
    ratio = u[..., None] / k
    return np.sum(np.log(np.abs(1.0 - ratio)) + ratio.real, axis=-1)


def growth_fit(log_max, radii, rho: float) -> float:
    """Slope of the least-squares line log_max = coeff * r^rho + const."""
    r = np.asarray(radii, dtype=float)
    basis = np.stack([r ** rho, np.ones_like(r)], axis=1)
    beta, *_ = np.linalg.lstsq(basis, np.asarray(log_max, dtype=float), rcond=None)
    return float(beta[0])


def phase_distance(alpha: float, beta: float) -> float:
    """Distance between two angles on the circle, in radians."""
    d = (alpha - beta) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)
