"""Window models: spectral profiles and time-side values."""

import math

import numpy as np
import pytest

from stftuniq import (
    InvalidParameterError,
    QuadratureConfig,
    WindowModel,
    gaussian_signal,
    make_generalized_gaussian,
    generate_sampling_set,
    max_tau_bounds,
    moment_integral,
    stft_eval,
)
import stftuniq.windows as windows
from stftuniq.quadrature import decay_truncation_radius, graded_nodes, line_nodes, panel_nodes, refine
from stftuniq.windows import time_window_closed_form, time_window_values


def test_constructor_validation():
    for a, m in ((0.0, 2.0), (-1.0, 2.0), (2.0, 1.0), (2.0, 0.5), (math.nan, 2.0), (2.0, math.inf)):
        with pytest.raises(InvalidParameterError):
            make_generalized_gaussian(a, m)
        with pytest.raises(InvalidParameterError):
            WindowModel(a=a, m=m)


def test_slow_decay_rate_warns():
    with pytest.warns(UserWarning):
        make_generalized_gaussian(1.0, 1.5)
    with pytest.warns(UserWarning):
        make_generalized_gaussian(0.3, 2.0)


def test_slow_decay_warning_names_the_caller():
    for make in (lambda: WindowModel(0.5, 2.0), lambda: make_generalized_gaussian(0.5, 2.0),
                 lambda: max_tau_bounds(2.0, 0.5),
                 lambda: generate_sampling_set(2.0, 0.1, 0.1, 3, a=0.5)):
        with pytest.warns(UserWarning, match="at or below 1") as record:
            make()
        assert record[0].filename == __file__


def test_fourier_profile():
    w = make_generalized_gaussian(2.0, 3.0)
    assert w.fourier_eval(0.0) == 1.0
    xs = np.linspace(0.1, 4.0, 17)
    left, right = w.fourier_eval(-xs), w.fourier_eval(xs)
    assert np.array_equal(left, right)
    want = np.exp(-2.0 * xs**3)
    assert np.max(np.abs(right - want)) < 1e-15


def test_time_side_gaussian_closed_form():
    w = make_generalized_gaussian(math.pi, 2.0)
    ts = np.linspace(-3.0, 3.0, 25)
    vals = time_window_values(w, ts)
    want = np.exp(-math.pi * ts**2)
    assert np.max(np.abs(vals - want)) / want.max() < 1e-8
    assert np.max(np.abs(vals.imag)) < 1e-12


def test_time_side_closed_form_agrees_with_quadrature():
    # force the quadrature path by building a window the closed form also covers
    for w in (make_generalized_gaussian(2.0, 2.0), make_generalized_gaussian(1.5, 2.0)):
        ts = np.linspace(-2.0, 2.0, 9)
        closed = time_window_closed_form(w)
        assert closed is not None
        direct = np.array([closed(t) for t in ts])
        quad = time_window_values(w, ts)
        assert np.max(np.abs(direct - quad)) / np.max(np.abs(direct)) < 1e-9
    # no closed form outside m = 2
    assert time_window_closed_form(make_generalized_gaussian(2.0, 3.0)) is None


def test_time_side_radius_invariance():
    # the derived truncation radius loses nothing a profile out to twice that radius keeps
    w = make_generalized_gaussian(2.0, 1.5)
    ts = np.array([0.0, 0.8, 1.6])
    v1 = time_window_values(w, ts)
    v2 = _full_line(w, ts, 2.0 * decay_truncation_radius(2.0, 1.5), 2048).real
    assert np.max(np.abs(v1 - v2)) / np.max(np.abs(v1)) < 1e-10


# ------------------------------------------------ the cosine-transform path

@pytest.mark.parametrize("m", [1.1, 1.2, 1.5, 2.0, 3.0, 4.0])
def test_graded_window_against_a_fine_plain_rule(m):
    ts = np.linspace(-8.0, 8.0, 33)
    got = time_window_values(make_generalized_gaussian(2.0, m), ts)
    # 32 plain pieces of 2048 nodes, 65536 in all, the kink on the first piece's edge
    xi, wt = panel_nodes(decay_truncation_radius(2.0, m) * np.linspace(0.0, 1.0, 33), 2048)
    want = np.cos((2.0 * math.pi) * ts[:, None] * xi) @ (2.0 * np.exp(-2.0 * xi**m) * wt)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _full_line(window, ts, radius, nodes):
    """g(t) as the complex exponential sum over both halves of [-R, R], each graded toward 0."""
    left, right = graded_nodes(0.0, -radius, nodes), graded_nodes(0.0, radius, nodes)
    xi, wt = np.concatenate([left[0], right[0]]), np.concatenate([left[1], right[1]])
    return np.exp((2j * math.pi) * ts[:, None] * xi[None, :]) @ (window.fourier_eval(xi) * wt)


def test_time_side_dtype_follows_the_times():
    plain = make_generalized_gaussian(2.0, 1.5)
    ts = np.linspace(-2.0, 2.0, 5)
    assert time_window_values(plain, ts).dtype == np.float64
    assert time_window_values(plain, np.arange(-2, 3)).dtype == np.float64
    closed = time_window_closed_form(make_generalized_gaussian(2.0, 2.0))
    assert closed(ts).dtype == np.float64
    assert closed(np.arange(-2, 3)).dtype == np.float64


@pytest.mark.parametrize("m", [1.2, 1.5, 3.0])
@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_cosine_transform_matches_the_full_line_sum(m, offset, monkeypatch):
    window = make_generalized_gaussian(2.0, m)
    # the offset moves the times off the grid that is symmetric about 0
    ts = np.linspace(-3.0, 3.0, 13) + offset
    # at tol 1e-3 the first doubling already converges, and returns the level at 2 * 256 nodes
    levels = []
    monkeypatch.setattr(windows, "refine",
                        lambda level, quad, what: refine(lambda n: levels.append(n) or level(n), quad, what))
    got = time_window_values(window, ts, QuadratureConfig(nodes=256, tol=1e-3))
    assert levels == [256, 512]
    want = _full_line(window, ts, decay_truncation_radius(2.0, m), 512)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [1.2, 1.5, 3.0])
def test_time_side_plain_window_is_even(m):
    w = make_generalized_gaussian(2.0, m)
    ts = np.linspace(0.0, 4.0, 41)
    ts = np.concatenate([ts, -ts])
    vals = time_window_values(w, ts)
    assert np.max(np.abs(vals[:41] - vals[41:])) <= 4 * np.finfo(float).eps * np.max(np.abs(vals))


# ------------------------------------------------ one trig table for every shift

_SHIFTS = np.array([-2.6, -0.7, 0.0, 0.45, 1.9, 3.3])


@pytest.mark.parametrize("m", [1.2, 1.5, 3.0])
@pytest.mark.parametrize("times, shifts", [
    (line_nodes(4.0, 64)[0], _SHIFTS),
    (np.linspace(-4.0, 4.0, 81), _SHIFTS),
    (np.linspace(-3.7, 4.1, 90), _SHIFTS),
    # more than 2^20 / 512 shifts: the 512-node level builds its coefficients in two blocks
    (line_nodes(2.0, 4)[0], np.linspace(-3.3, 3.3, 2100)),
], ids=["mirrored-even", "mirrored-odd", "unmirrored", "many-shifts"])
def test_shifted_window_matches_the_outer_difference(m, times, shifts):
    w = make_generalized_gaussian(2.0, m)
    got = time_window_values(w, times, shifts=shifts)
    want = time_window_values(w, times[:, None] - shifts)
    assert got.shape == want.shape == (times.size, shifts.size)
    # the angle sum cos a cos b + sin a sin b rounds a few eps more than cos(a - b) at the peak:
    # 5-12 eps of max|g| here, 1.5-3 eps for the outer difference, both against long double
    assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps * np.max(np.abs(want))


def test_shifted_window_keeps_the_shapes():
    w = make_generalized_gaussian(2.0, 1.5)
    ts = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    assert time_window_values(w, ts, shifts=np.zeros((4, 1))).shape == (2, 3, 4, 1)
    assert time_window_values(w, ts, shifts=0.25).shape == (2, 3)
    assert time_window_values(w, np.zeros(0), shifts=_SHIFTS).shape == (0, _SHIFTS.size)


@pytest.mark.parametrize("bad, match", [
    (dict(ts=[np.inf]), "times must be finite"),
    (dict(ts=[0.3, np.nan]), "times must be finite"),
    (dict(ts=[0.3], shifts=[-np.inf]), "shifts must be finite"),
    (dict(ts=[0.3], shifts=np.array([0.3 + 1j])), "shifts must be real"),
    (dict(ts=[0.3], shifts=[0.3 + 1j]), "shifts must be real"),
])
def test_time_window_rejects_non_finite_and_complex_input(bad, match):
    # an infinite time used to run four doublings of NaN before a convergence error
    with pytest.raises(InvalidParameterError, match=match):
        time_window_values(make_generalized_gaussian(2.0, 1.5), **bad)


# ------------------------------------------------ far times against the window's tail

def _tail_term(a, m, t, k):
    """k-th term of g(t) ~ -2 sum_k (-a)^k Gamma(km + 1) sin(pi km / 2) / (k! (2 pi |t|)^(km + 1)).

    Each |xi|^(km) of the profile's power series transforms termwise
    (Erdelyi, Asymptotic Expansions, 1956, ch. 2); even integer km gives an
    exact 0, where the sine would only round near it.
    """
    if (k * m) % 2 == 0:
        return 0.0
    return (-2.0 * (-a) ** k * math.gamma(k * m + 1) * math.sin(math.pi * k * m / 2)
            / (math.factorial(k) * (2 * math.pi * abs(t)) ** (k * m + 1)))


def _tail_series(a, m, t, terms=3):
    """The tail series to `terms` terms, and the first nonzero term it omits."""
    k = terms + 1
    while _tail_term(a, m, t, k) == 0.0:
        k += 1
    return sum(_tail_term(a, m, t, j) for j in range(1, terms + 1)), abs(_tail_term(a, m, t, k))


@pytest.mark.parametrize("m", [1.2, 1.5, 3.0])
@pytest.mark.parametrize("t", [5.0, 10.0, 20.0])
def test_far_time_alone_matches_the_tail_series(m, t):
    # a time requested alone is checked against the mass g(0): its own tail value lies below the
    # angles' rounding floor at m = 3, t = 20, where no level could pass a check against it
    a = 2.0
    got = float(time_window_values(make_generalized_gaussian(a, m), [t])[0])
    want, omitted = _tail_series(a, m, t)
    # the series misses by 0.97-1.07 times its first omitted term; where that term is below
    # rounding (m = 3 from t = 10), the angle sum's floor of a few eps g(0) is what remains
    floor = 8 * np.finfo(float).eps * moment_integral(0, a, m)
    assert abs(got - want) <= 1.5 * omitted + floor, (got, want, omitted)


def test_far_signal_stft_matches_the_window_tail():
    # |V_g f(x, w)| ~ |g(c - x)| |fhat(w)| for a signal far from x; a unit Gaussian at c = 30 has
    # |fhat(0.5)| = e^(-pi/4), and the next order in its width is about
    # (m + 1)(m + 2) / (4 pi (c - x)^2) = 7.9e-4 relative
    a, m, c, x, w = 2.0, 1.5, 30.0, 0.3, 0.5
    got = abs(stft_eval(gaussian_signal(1.0, c), make_generalized_gaussian(a, m), x, w))
    want = abs(_tail_series(a, m, c - x)[0]) * math.exp(-math.pi * w * w)
    assert abs(got - want) <= 1e-3 * want
