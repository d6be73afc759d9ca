"""Hypothesis properties of the transform and the set file over m in (1, 16].

Each spectrogram runs on the 16-point set at 0.9 of the step bounds, where
one costs 25-45 ms away from m = 2, so the transform properties draw few
examples; derandomize fixes them from run to run.
"""

import cmath
import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stftuniq import (
    SamplingSet,
    chirp_signal,
    gaussian_signal,
    generate_sampling_set,
    make_generalized_gaussian,
    max_tau_bounds,
    spectrogram_on_set,
)

EXPONENTS = st.floats(min_value=1.0, max_value=16.0, exclude_min=True)
# rounding moves these magnitudes by at most about 5e-15 of their maximum; quadrature noise would reach 1e-10
GAP = 1e-12
TRANSFORM = settings(max_examples=12, derandomize=True, deadline=None)


@st.composite
def windowed_sets(draw):
    """(window, 16-point set at 0.9 of its step bounds) for m in (1, 16] and a in [1.5, 4]."""
    m, a = draw(EXPONENTS), draw(st.floats(1.5, 4.0))
    bounds = max_tau_bounds(m, a)
    return make_generalized_gaussian(a, m), generate_sampling_set(m, 0.9 * bounds.tau1_max,
                                                                  0.9 * bounds.tau2_max, 4, a=a)


@st.composite
def gaussian_atoms(draw):
    """A Gaussian atom of width [0.5, 2], centre [-2, 2], amplitude [0.5, 2] e^{i theta}, f0 and rate [-1, 1]."""
    amp = draw(st.floats(0.5, 2.0)) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    return chirp_signal(draw(st.floats(0.5, 2.0)), draw(st.floats(-2.0, 2.0)), amp,
                        draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))


def _magnitudes(sig, window, points):
    return spectrogram_on_set(sig, window, points).magnitudes


@TRANSFORM
@given(windowed_sets(), gaussian_atoms(), st.floats(0.0, 2.0 * math.pi))
def test_global_phase_leaves_the_spectrogram(ws, atom, theta):
    window, points = ws
    turned = dataclasses.replace(atom, amplitude=atom.amplitude * cmath.exp(1j * theta))
    want = _magnitudes(atom, window, points)
    assert np.max(np.abs(_magnitudes(turned, window, points) - want)) <= GAP * np.max(want)


@TRANSFORM
@given(windowed_sets(), gaussian_atoms(), st.floats(-50.0, 50.0))
def test_shifting_the_centre_shifts_the_spectrogram(ws, atom, y):
    # |V f(. - y)|(x + y, omega) = |V f|(x, omega)
    window, points = ws
    moved = dataclasses.replace(atom, center=atom.center + y)
    want = _magnitudes(atom, window, points)
    got = _magnitudes(moved, window, points.points + [y, 0.0])
    assert np.max(np.abs(got - want)) <= GAP * np.max(want)


@TRANSFORM
@given(windowed_sets(), st.floats(0.5, 2.0), st.floats(-2.0, 2.0), st.floats(-3.0, 3.0))
def test_start_frequency_modulates_the_gaussian(ws, width, center, eta):
    # the atom at f0 = eta is e^{2 pi i eta (t - c)} times the Gaussian, so |V| moves by eta in omega
    window, points = ws
    want = _magnitudes(gaussian_signal(width, center), window, points)
    got = _magnitudes(chirp_signal(width, center, start_frequency=eta), window, points.points + [0.0, eta])
    assert np.max(np.abs(got - want)) <= GAP * np.max(want)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(EXPONENTS, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 50), st.booleans())
def test_csv_round_trip_is_bit_exact(m, tau1, tau2, count, origin):
    s = SamplingSet(m, tau1, tau2, count, origin)
    back = SamplingSet.from_csv(s.to_csv())
    assert back == s
    for col in ("n_index", "sign_x", "sign_omega", "x", "omega"):
        assert np.array_equal(getattr(back, col), getattr(s, col))
