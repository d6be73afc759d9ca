import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from stftuniq import (
    InvalidParameterError,
    QuadratureConfig,
    QuadratureConvergenceError,
    chirp_signal,
    make_generalized_gaussian,
    moyal_energy_check,
    stft_eval,
    time_window_values,
)
from stftuniq import quadrature
from stftuniq.quadrature import _legendre_rule, decay_truncation_radius, line_nodes, refine


def test_gaussian_integral_is_one():
    t, wt = line_nodes(6.0, 2048)
    assert abs(np.sum(wt * np.exp(-math.pi * t * t)) - 1.0) < 1e-12


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_kinked_decay_second_moment(m):
    # integrand has a |x|^m kink at 0; the rule splits there, so the kink
    # never sits inside a panel
    radius = decay_truncation_radius(1.0, m)
    t, wt = line_nodes(radius, 2048)
    val = np.sum(wt * np.abs(t) ** 2 * np.exp(-np.abs(t) ** m))
    want = 2.0 * math.exp(gammaln(3.0 / m)) / m
    assert abs(val - want) / want < 5e-12


def test_line_nodes_split_at_origin():
    pts, wts = line_nodes(3.0, 256)
    assert pts.size == 512 and wts.size == 512
    assert np.all(np.abs(pts) < 3.0)
    assert np.all(wts > 0)
    # weights integrate the constant exactly over [-R, R]
    assert abs(wts.sum() - 6.0) < 1e-12
    odd = np.sum(wts * pts**3)
    assert abs(odd) < 1e-13
    # an exact mirror, so the window's trig table covers only the non-negative half
    np.testing.assert_array_equal(pts, -pts[::-1])
    np.testing.assert_array_equal(wts, wts[::-1])


@pytest.mark.parametrize("n", [64, 65])
def test_legendre_rule_symmetric_and_exact(n):
    x, w = _legendre_rule(n)
    assert x.size == w.size == n
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2.0) < 1e-14
    # exact up to degree 2n - 1; x^(2n-2) is the highest even power
    want = 2.0 / (2 * n - 1)
    assert abs(math.fsum(w * x ** (2 * n - 2)) - want) / want < 1e-13


def _mp_legendre(n, x):
    p0, p1 = mpmath.mpf(1), x
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, n * (p0 - x * p1) / (1 - x * x)


@pytest.mark.parametrize("n", [256, 512, 2048, 4096])
def test_legendre_rule_against_mpmath(n):
    x, w = _legendre_rule(n)
    with mpmath.workdps(32):
        # the four outermost nodes, where the weights are hardest, and one interior node
        for i in (n - 1, n - 2, n - 3, n - 4, 3 * n // 5):
            xi = mpmath.mpf(float(x[i]))
            p, dp = _mp_legendre(n, xi)
            root = xi - p / dp  # one Newton step from a double-precision node gives 32 digits
            _, dp = _mp_legendre(n, root)
            weight = 2 / ((1 - root * root) * dp * dp)
            assert abs(float(xi - root)) <= 1e-15
            assert abs(float((w[i] - weight) / weight)) <= 1e-9


def test_bessel_zero_table():
    with mpmath.workdps(30):
        want = [float(mpmath.besseljzero(0, k)) for k in range(1, 31)]
    assert np.max(np.abs(quadrature._BESSEL_J0_ZEROS - want) / want) <= 1e-15


@pytest.mark.parametrize("n", [2048, 4096])
def test_legendre_rule_needs_one_newton_pass(n, monkeypatch):
    # the Tricomi and Frenzen-Wong guesses are within 1e-15, so one pass confirms every node
    calls = []
    values = quadrature._legendre_values

    def counting(n, x):
        calls.append(x.size)
        return values(n, x)

    monkeypatch.setattr(quadrature, "_legendre_values", counting)
    x = quadrature._legendre_rule.__wrapped__(n)[0]
    assert calls == [n // 2]
    np.testing.assert_array_equal(x, _legendre_rule(n)[0])


def test_import_loads_no_scipy():
    code = "import sys, stftuniq, stftuniq.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_config_validation():
    for bad in (
        dict(nodes=32),
        dict(tol=0.0),
        dict(tol=-1e-3),
    ):
        with pytest.raises(InvalidParameterError):
            QuadratureConfig(**bad)
    # every truncation radius is derived from the integrand, so none can be set
    with pytest.raises(TypeError):
        QuadratureConfig(radius=1.0)


def test_nonconvergence_raises():
    cfg = QuadratureConfig(nodes=64, tol=1e-14)

    def level(nodes):
        t, wt = line_nodes(1.0, nodes)
        val = np.sum(wt * np.cos(5e4 * t))
        return val, max(abs(val), 1e-3)

    with pytest.raises(QuadratureConvergenceError, match="after 4 node doublings"):
        refine(level, cfg, "integral")


_CHIRP = chirp_signal(chirp_rate=60.0)
_GAUSS = make_generalized_gaussian(math.pi, 2.0)
_GRID = np.linspace(-2.0, 2.0, 5)


# each site needs five doublings from 64 nodes, one more than the cap, so it
# raises there and takes all four from 128; the m = 2 window has a closed
# form, so the only quadrature being refined is the site's own
@pytest.mark.parametrize("site", [
    lambda q: stft_eval(_CHIRP, _GAUSS, 0.0, 0.0, q),
    lambda q: moyal_energy_check(_CHIRP, _GAUSS, _GRID, _GRID, q),
    lambda q: time_window_values(make_generalized_gaussian(2.0, 1.5), 16.0 * _GRID, q),
], ids=["stft_eval", "moyal_energy_check", "time_window_values"])
def test_every_site_honours_max_doublings(site):
    with pytest.raises(QuadratureConvergenceError, match="after 4 node doublings"):
        site(QuadratureConfig(nodes=64))
    got = site(QuadratureConfig(nodes=128))
    # the value is the finer of the last two levels, as a single doubling from there gives
    want = site(QuadratureConfig(nodes=1024))
    np.testing.assert_array_equal(got, want)


def test_truncation_radius_covers_the_tail():
    for a, m in ((2.0, 1.5), (0.3, 1.1), (5.0, 3.0), (1e-3, 2.0), (100.0, 2.0)):
        r = decay_truncation_radius(a, m)
        assert a * r**m >= 45.0
        # within one 30% widening of the smallest radius at or above 1
        assert r <= 1.3 * max(1.0, (45.0 / a) ** (1.0 / m))
