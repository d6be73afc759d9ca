"""Tests of the benchmark's references against each other and direct integrals."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

import reference as ref

# quad flags roundoff on parts far below 1e-13 relative; the tolerances below bound the error
pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")


def _direct(fn, lo, hi):
    re, _ = quad(lambda t: fn(t).real, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)
    im, _ = quad(lambda t: fn(t).imag, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)
    return complex(re, im)


def test_gaussian_stft_matches_time_side_integral():
    comps = [(0.8 * cmath.exp(0.3j), 0.4, 0.9), (1.2 * cmath.exp(-2.0j), -1.1, 1.3)]
    a = math.pi
    pts = np.array([[0.0, 0.0], [0.7, -0.4], [-1.3, 1.1]])

    def integrand(t, x, w):
        f = sum(amp * math.exp(-math.pi * ((t - c) / s) ** 2) for amp, c, s in comps)
        g = math.sqrt(math.pi / a) * math.exp(-math.pi ** 2 * (t - x) ** 2 / a)
        return f * g * cmath.exp(-2j * math.pi * w * t)

    want = [_direct(lambda t: integrand(t, x, w), -12.0, 12.0) for x, w in pts]
    np.testing.assert_allclose(ref.gaussian_stft(comps, a, pts), want, rtol=0, atol=1e-13)


def test_fourier_side_reference_equals_gaussian_closed_form_at_m2():
    amp, center, width = 1.1 * cmath.exp(0.7j), -0.3, 0.8
    a = math.pi
    pts = ref.quadrant_points(2.0, 0.3, 0.3, 3)
    got = [ref.fourier_side_stft(ref.gaussian_fhat(amp, center, width), a, 2.0, x, w) for x, w in pts]
    want = ref.gaussian_stft([(amp, center, width)], a, pts)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * float(np.max(np.abs(want))))


def test_chirp_fhat_matches_direct_transform():
    amp, center, width, f0, rate = 0.9 * cmath.exp(1.3j), 0.2, 1.1, 0.4, -0.7
    fhat = ref.chirp_fhat(amp, center, width, f0, rate)

    def chirp(t):
        tau = t - center
        return amp * cmath.exp(-math.pi * tau * tau / width ** 2
                               + 2j * math.pi * (f0 * tau + 0.5 * rate * tau * tau))

    for xi in (-0.8, 0.0, 0.35, 1.2):
        want = _direct(lambda t: chirp(t) * cmath.exp(-2j * math.pi * xi * t), -10.0, 10.0)
        assert abs(fhat(xi) - want) < 1e-13


def test_gamma_closed_form_equals_direct_product_at_small_k():
    z = np.array([2.0 * cmath.exp(0.4j), 3.5 * cmath.exp(1.9j), 1.0 + 0.25j, 4.0j])
    for c, terms in ((1.6, 40), (1.9, 300)):
        np.testing.assert_allclose(ref.counterexample_log_modulus(z, c, terms),
                                   ref.counterexample_log_modulus_direct(z, c, terms),
                                   rtol=0, atol=1e-12)


def test_growth_fit_recovers_a_planted_slope():
    radii = (4.0, 8.0, 16.0)
    assert abs(ref.growth_fit([1.75 * r * r - 3.0 for r in radii], radii, 2.0) - 1.75) < 1e-12


def test_phase_distance_wraps():
    assert ref.phase_distance(0.1, 2.0 * math.pi - 0.1) < 0.2 + 1e-15
    assert abs(ref.phase_distance(math.pi, 0.0) - math.pi) < 1e-15
