"""Window models: spectral profiles, time-side values and ambiguity scans."""

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
    window_ambiguity_scan,
)
from stftuniq.quadrature import line_nodes
from stftuniq.windows import time_window_closed_form, time_window_values


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
    for xi0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError):
            make_modulated_generalized_gaussian(2.0, 2.0, xi0)
        with pytest.raises(InvalidParameterError):
            WindowModel(a=2.0, m=2.0, center=xi0)


def test_modulation_at_zero_is_the_plain_window():
    assert make_modulated_generalized_gaussian(2.0, 1.5, 0.0) == make_generalized_gaussian(2.0, 1.5)
    scaled = make_generalized_gaussian(1.3, 3.0, amplitude=0.7)
    assert make_modulated_generalized_gaussian(1.3, 3.0, 0.0, amplitude=0.7) == scaled


def test_slow_decay_rate_warns():
    with pytest.warns(UserWarning):
        make_generalized_gaussian(1.0, 1.5)
    with pytest.warns(UserWarning):
        make_generalized_gaussian(0.3, 2.0)


def test_slow_decay_warning_names_the_caller():
    for make in (lambda: WindowModel(0.5, 2.0), lambda: make_generalized_gaussian(0.5, 2.0),
                 lambda: make_modulated_generalized_gaussian(0.5, 2.0, 0.3)):
        with pytest.warns(UserWarning, match="at or below 1") as record:
            make()
        assert record[0].filename == __file__


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
    for w in (make_modulated_generalized_gaussian(2.0, 2.0, 1.5), make_generalized_gaussian(1.5, 2.0)):
        for ts in (np.linspace(-2.0, 2.0, 9), np.linspace(-2.0, 2.0, 9) + 0.4j):
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


# ------------------------------------------------ the cosine-transform path

def _full_line(window, ts, radius, nodes):
    """g(t) as the complex exponential sum over both halves of [xi0 - R, xi0 + R], split at xi0."""
    eta, wt = line_nodes(radius, nodes)
    xi = window.center + eta
    return np.exp((2j * math.pi) * ts[:, None] * xi[None, :]) @ (window.fourier_eval(xi) * wt)


def test_time_side_dtype_follows_the_times():
    plain, mod = make_generalized_gaussian(2.0, 1.5), make_modulated_generalized_gaussian(2.0, 1.5, 0.7)
    ts = np.linspace(-2.0, 2.0, 5)
    assert time_window_values(plain, ts).dtype == np.float64
    assert time_window_values(plain, np.arange(-2, 3)).dtype == np.float64
    assert time_window_values(plain, ts + 0.25j).dtype == np.complex128
    assert time_window_values(plain, ts.astype(complex)).dtype == np.complex128
    assert time_window_values(mod, ts).dtype == np.complex128
    closed, closed_mod = (time_window_closed_form(make_generalized_gaussian(2.0, 2.0)),
                          time_window_closed_form(make_modulated_generalized_gaussian(2.0, 2.0, 0.7)))
    assert closed(ts).dtype == np.float64
    assert closed(ts + 0.25j).dtype == np.complex128
    assert closed_mod(ts).dtype == np.complex128


@pytest.mark.parametrize("m", [1.2, 1.5, 3.0])
@pytest.mark.parametrize("xi0", [None, 0.7])
@pytest.mark.parametrize("im", [0.0, 0.3])
def test_cosine_transform_matches_the_full_line_sum(m, xi0, im):
    window = (make_generalized_gaussian(2.0, m) if xi0 is None
              else make_modulated_generalized_gaussian(2.0, m, xi0))
    ts = np.linspace(-3.0, 3.0, 13) + 1j * im * np.linspace(-1.0, 1.0, 13)
    if not im:
        ts = ts.real
    # a tolerance no change exceeds returns the level at 2 * 256 nodes after one doubling
    got = time_window_values(window, ts, QuadratureConfig(radius=12.0, nodes=256, tol=0.5, max_doublings=1))
    want = _full_line(window, ts, 12.0, 512)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [1.2, 1.5, 3.0])
def test_time_side_plain_window_is_even(m):
    w = make_generalized_gaussian(2.0, m)
    ts = np.linspace(0.0, 4.0, 41)
    ts = np.concatenate([ts, -ts])
    vals = time_window_values(w, ts)
    assert np.max(np.abs(vals[:41] - vals[41:])) <= 4 * np.finfo(float).eps * np.max(np.abs(vals))
