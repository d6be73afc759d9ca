"""Window models: spectral profiles, time-side values, decay and zero checks."""

import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from stftuniq import (
    InvalidParameterError,
    QuadratureConfig,
    QuadratureConvergenceError,
    WindowModel,
    make_generalized_gaussian,
    make_modulated_generalized_gaussian,
    verify_decay,
    window_ambiguity_scan,
)
from stftuniq.windows import WindowFamily, time_window_closed_form, time_window_values


def test_constructor_validation():
    for a, m, amp in (
        (0.0, 2.0, 1.0),
        (-1.0, 2.0, 1.0),
        (2.0, 1.0, 1.0),
        (2.0, 0.5, 1.0),
        (2.0, 2.0, 0.0),
        (2.0, 2.0, -3.0),
    ):
        with pytest.raises(InvalidParameterError):
            make_generalized_gaussian(a, m, amplitude=amp)
    # family and modulation must agree
    with pytest.raises(InvalidParameterError):
        WindowModel(WindowFamily.MODULATED_GENERALIZED_GAUSSIAN, a=2.0, m=2.0)
    with pytest.raises(InvalidParameterError):
        WindowModel(WindowFamily.GENERALIZED_GAUSSIAN_FOURIER, a=2.0, m=2.0, modulation=1.0)


def test_slow_decay_rate_warns():
    with pytest.warns(UserWarning):
        make_generalized_gaussian(1.0, 1.5)
    with pytest.warns(UserWarning):
        make_generalized_gaussian(0.3, 2.0)


def test_fourier_profile():
    w = make_generalized_gaussian(2.0, 3.0, amplitude=2.5)
    assert w.fourier_eval(0.0) == 2.5
    xs = np.linspace(0.1, 4.0, 17)
    left, right = w.fourier_eval(-xs), w.fourier_eval(xs)
    assert np.array_equal(left, right)
    want = 2.5 * np.exp(-2.0 * xs**3)
    assert np.max(np.abs(right - want)) < 1e-15


def test_modulated_profile_recenters():
    w = make_modulated_generalized_gaussian(2.0, 2.0, 1.5, amplitude=0.7)
    assert w.center == 1.5
    assert w.fourier_eval(1.5) == 0.7
    hi = w.fourier_eval(1.5 + 0.4)
    lo = w.fourier_eval(1.5 - 0.4)
    assert abs(hi - lo) < 1e-15 * abs(hi)


def test_time_side_gaussian_closed_form():
    w = make_generalized_gaussian(math.pi, 2.0)
    ts = np.linspace(-3.0, 3.0, 25)
    vals = time_window_values(w, ts)
    want = np.exp(-math.pi * ts**2)
    assert np.max(np.abs(vals - want)) / want.max() < 1e-8
    assert np.max(np.abs(vals.imag)) < 1e-12


def test_time_side_closed_form_agrees_with_quadrature():
    # force the quadrature path by building a window the closed form also covers
    w = make_modulated_generalized_gaussian(2.0, 2.0, 1.5)
    ts = np.linspace(-2.0, 2.0, 9)
    closed = time_window_closed_form(w)
    assert closed is not None
    direct = np.array([closed(t) for t in ts])
    quad = time_window_values(w, ts)
    assert np.max(np.abs(direct - quad)) / np.max(np.abs(direct)) < 1e-9
    # no closed form outside m = 2
    assert time_window_closed_form(make_generalized_gaussian(2.0, 3.0)) is None


def test_time_side_complex_argument():
    w = make_generalized_gaussian(math.pi, 2.0)
    val = time_window_values(w, np.array([1j]))[0]
    want = math.exp(math.pi)
    assert abs(val - want) / want < 1e-8


def test_time_side_radius_invariance():
    w = make_generalized_gaussian(2.0, 1.5)
    ts = np.array([0.0, 0.8, 1.6])
    v1 = time_window_values(w, ts, QuadratureConfig(radius=10.0))
    v2 = time_window_values(w, ts, QuadratureConfig(radius=20.0))
    assert np.max(np.abs(v1 - v2)) / np.max(np.abs(v1)) < 1e-10


def test_modulation_is_a_time_phase():
    base = make_generalized_gaussian(2.0, 2.0)
    mod = make_modulated_generalized_gaussian(2.0, 2.0, 1.5)
    ts = np.linspace(-2.0, 2.0, 11)
    vb = time_window_values(base, ts)
    vm = time_window_values(mod, ts)
    want = vb * np.exp(2j * math.pi * 1.5 * ts)
    assert np.max(np.abs(vm - want)) / np.max(np.abs(vb)) < 1e-9


def test_verify_decay_own_parameters():
    w = make_generalized_gaussian(1.3, 3.0, amplitude=0.7)
    report = verify_decay(w.fourier_eval, 1.3, 3.0, amplitude=0.7)
    assert report.passes
    assert report.worst_ratio <= 1.0 + 1e-12


def test_verify_decay_flags_violation():
    # e^{-xi^2} decays far too slowly for the (a=1, m=3) envelope
    report = verify_decay(lambda xi: np.exp(-np.asarray(xi, dtype=float) ** 2),
                          1.0, 3.0)
    assert not report.passes
    assert abs(report.worst_location) == 5.0
    # ratio at the worst point is e^{125 - 25} = e^{100}
    assert math.isclose(report.worst_ratio, math.exp(100.0), rel_tol=1e-9)


def test_verify_decay_array_samples():
    xs = np.linspace(-4.0, 4.0, 201)
    pairs = np.column_stack([xs, np.exp(-2.0 * np.abs(xs) ** 1.5)])
    report = verify_decay(pairs, 2.0, 1.5)
    assert report.passes
    with pytest.raises(InvalidParameterError):
        verify_decay(np.zeros((5, 3)), 2.0, 1.5)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_ambiguity_scan_gaussian_zero_free():
    w = make_generalized_gaussian(1.0, 2.0)
    scan = window_ambiguity_scan(w, 0.0)
    assert scan.grid.size == 1001
    mid = scan.grid.size // 2
    assert scan.grid[mid] == 0.0
    want = math.sqrt(math.pi / 2.0)
    assert abs(scan.magnitudes[mid] - want) / want < 1e-10
    assert scan.near_zero_fraction == 0.0
    assert scan.min_magnitude > 0.0
    # real even window: the slice magnitude is even too
    sym = np.abs(scan.magnitudes - scan.magnitudes[::-1])
    assert sym.max() < 1e-12 * scan.magnitudes.max()


def test_ambiguity_scan_zero_window():
    # far out in xi the two factors underflow against each other: the slice is exactly 0
    scan = window_ambiguity_scan(make_generalized_gaussian(math.pi, 2.0), 0.5,
                                 grid=np.linspace(50.0, 60.0, 11))
    assert scan.min_magnitude == 0.0
    assert scan.near_zero_fraction == 1.0


def test_ambiguity_scan_honours_max_doublings():
    # the |eta|^1.5 kinks sit on panel edges, so each doubling gains about 2^-5
    w = make_generalized_gaussian(2.0, 1.5)
    grid = np.linspace(-3.0, 3.0, 13)
    with pytest.raises(QuadratureConvergenceError, match="after 3 node doublings"):
        window_ambiguity_scan(w, 0.0, grid, QuadratureConfig(nodes=64, max_doublings=3))
    scan = window_ambiguity_scan(w, 0.0, grid, QuadratureConfig(nodes=64, max_doublings=4))
    assert scan.min_magnitude > 0.0


@pytest.mark.parametrize("m", [1.5, 2.0])
def test_ambiguity_scan_modulated_window_against_quad(m):
    # m = 2 takes the shared-rule path, m = 1.5 the kink panels
    xi0, omega = 0.7, 0.3
    w = make_modulated_generalized_gaussian(2.0, m, xi0)
    grid = np.array([-1.9, 0.0, 0.45, 2.6])
    scan = window_ambiguity_scan(w, omega, grid)

    def integrand(eta, xi):
        return (w.fourier_eval(-eta) * w.fourier_eval(xi - eta)
                * complex(math.cos(2 * math.pi * omega * eta), math.sin(2 * math.pi * omega * eta)))

    for xi, got in zip(grid, scan.magnitudes):
        # split where the two factors have their |.|^m kinks
        edges = sorted((-30.0, -xi0, xi - xi0, 30.0))
        total = sum(complex(scipy_quad(lambda e: integrand(e, xi).real, lo, hi, epsabs=1e-14, limit=200)[0],
                            scipy_quad(lambda e: integrand(e, xi).imag, lo, hi, epsabs=1e-14, limit=200)[0])
                    for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo)
        assert abs(got - abs(total)) < 1e-9 * scan.magnitudes.max()
