"""Growth analysis: moments, Taylor data, order/type fits, products, counting."""

import cmath
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import gammaln

import stftuniq.entire as entire
import stftuniq.sampling as sampling
from stftuniq import (
    CounterexampleProduct,
    EvaluationOverflowError,
    InsufficientDataError,
    InvalidParameterError,
    QuadratureConfig,
    TaylorSeries,
    build_counterexample_product,
    classify_sequence,
    counterexample_eval,
    counterexample_growth_coefficient,
    counterexample_log_magnitudes,
    density_index,
    estimate_growth,
    make_generalized_gaussian,
    moment_integral,
    predicted_growth,
    taylor_coefficients,
    uniqueness_threshold,
    zero_count_bound,
)
from stftuniq.entire import canonical_product_eval, canonical_product_log_magnitudes

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


# ---------------------------------------------------------------- moments

def test_moment_closed_values():
    assert math.isclose(moment_integral(0, 1.0, 2.0), math.sqrt(math.pi), rel_tol=1e-14)
    assert math.isclose(moment_integral(0, math.pi, 2.0), 1.0, rel_tol=1e-14)
    assert math.isclose(moment_integral(2, 1.0, 2.0), math.sqrt(math.pi) / 2.0, rel_tol=1e-14)


@pytest.mark.parametrize("a,m", [(1.0, 2.0), (2.0, 1.5)])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
def test_moment_against_adaptive_quadrature(n, a, m):
    closed = moment_integral(n, a, m)
    ref, _ = scipy_quad(lambda x: x**n * math.exp(-a * x**m), 0.0, math.inf,
                        epsabs=0.0, epsrel=1e-12, limit=200)
    assert abs(closed - 2.0 * ref) / closed < 1e-9


def test_moment_validation_and_overflow():
    for args in ((-1, 1.0, 2.0), (1.5, 1.0, 2.0), (2, 0.0, 2.0), (2, 1.0, 0.5)):
        with pytest.raises(InvalidParameterError):
            moment_integral(*args)
    with pytest.raises(EvaluationOverflowError):
        moment_integral(300000, 0.5, 1.5)


# ----------------------------------------------------------- Taylor data

def test_taylor_gaussian_window_leading_coefficients():
    series = taylor_coefficients(make_generalized_gaussian(1.0, 2.0), 40)
    assert series.truncation == 40
    assert len(series.log_magnitudes) == 41
    c = np.exp(series.log_magnitudes)
    assert abs(c[0] - math.sqrt(math.pi)) < 1e-12
    assert c[1] == 0.0
    want_c2 = math.pi**2 * math.sqrt(math.pi)
    assert abs(c[2] - want_c2) / want_c2 < 1e-9
    # even real profile: every odd coefficient is pinned, not just small
    assert all(series.log_magnitudes[n] == -math.inf for n in range(1, 41, 2))


def test_taylor_coefficient_envelope():
    # |c_n| <= (2 pi)^n / n! * M_n with M_n the absolute moment
    series = taylor_coefficients(make_generalized_gaussian(1.0, 2.0), 40)
    for n, log_cn in enumerate(series.log_magnitudes):
        if log_cn == -math.inf:
            continue
        log_bound = (n * math.log(2.0 * math.pi) - gammaln(n + 1)
                     + math.log(moment_integral(n, 1.0, 2.0)))
        assert log_cn <= log_bound + 1e-10


def _mp_taylor(a, m, n):
    """c_n by 20-digit quadrature of the n-th moment, split at the |.|^m kink."""
    with mpmath.workdps(20):
        moment = mpmath.quad(lambda x: x**n * mpmath.exp(-a * abs(x) ** m), [-mpmath.inf, 0, mpmath.inf])
        return complex((2j * mpmath.pi) ** n / mpmath.factorial(n) * moment)


@pytest.mark.parametrize("a,m", [(2.0, 1.5), (2.0, 3.0), (1.5, 1.2), (3.0, 4.0)])
def test_taylor_coefficients_against_mpmath(a, m):
    got = np.exp(taylor_coefficients(make_generalized_gaussian(a, m), 12).log_magnitudes)
    for n in range(13):
        if n % 2:
            assert got[n] == 0.0
            continue
        want = abs(_mp_taylor(a, m, n))
        assert abs(got[n] - want) <= 1e-12 * want, (n, got[n], want)


def test_taylor_large_n_stays_in_range():
    # at N = 300 the moments themselves overflow, the coefficients do not
    series = taylor_coefficients(make_generalized_gaussian(2.0, 1.5), 300)
    est = estimate_growth(series, 3.0)
    assert abs(est.order - 3.00005) < 1e-5
    assert abs(est.type - 9.18697) < 1e-5
    # at m = 3 the tail coefficients fall below the smallest normal float; their
    # logs stay finite, so the series is not read as a polynomial of order 0
    series = taylor_coefficients(make_generalized_gaussian(2.0, 3.0), 1000)
    assert series.log_magnitudes[1000] < math.log(np.finfo(float).tiny)
    pred = predicted_growth(3.0, 2.0)
    est = estimate_growth(series, pred.order)
    assert abs(est.order - pred.order) / pred.order < 2e-6
    assert abs(est.log_type - pred.log_type) < 1e-6
    assert math.isclose(est.type, math.exp(est.log_type), rel_tol=1e-13)
    with pytest.raises(InvalidParameterError):
        taylor_coefficients(make_generalized_gaussian(2.0, 1.5).fourier_eval, 20)


def test_series_validation():
    assert TaylorSeries(np.zeros(3)).truncation == 2
    assert TaylorSeries(np.array([0.0, -math.inf, -1.0])).truncation == 2
    with pytest.raises(InvalidParameterError):
        TaylorSeries(np.zeros((3, 3)))
    with pytest.raises(InvalidParameterError):
        TaylorSeries(np.zeros(2))
    with pytest.raises(InvalidParameterError):
        TaylorSeries(np.array([0.0, np.nan, -1.0]))
    with pytest.raises(InvalidParameterError):
        TaylorSeries(np.array([0.0, math.inf, -1.0]))


# ------------------------------------------------------- order and type

def _exp_series(n_terms):
    """log|c_n| = -log n! for exp(z), of order 1 and type 1."""
    return TaylorSeries(-gammaln(np.arange(n_terms + 1) + 1.0))


def _polynomial_series(coeffs, n_terms):
    logs = np.full(n_terms + 1, -math.inf)
    for n, c in coeffs.items():
        logs[n] = math.log(abs(c))
    return TaylorSeries(logs)


def test_estimate_order_exponential():
    est = estimate_growth(_exp_series(60), 1.0)
    assert abs(est.order - 1.0) < 0.03
    assert len(est.n_used) >= 10


def test_estimate_order_even_lacunary():
    # sum z^{2k} / k! = exp(z^2), order 2
    logs = np.full(81, -math.inf)
    logs[0::2] = -gammaln(np.arange(41) + 1.0)
    est = estimate_growth(TaylorSeries(logs), 2.0)
    assert abs(est.order - 2.0) < 0.05


@pytest.mark.parametrize("m,a", [(1.5, 1.0), (2.0, 1.0), (3.0, 2.0)])
def test_estimate_order_window_transforms(m, a):
    series = taylor_coefficients(make_generalized_gaussian(a, m), 80)
    want = m / (m - 1.0)
    est = estimate_growth(series, want)
    assert abs(est.order - want) / want < 0.03


def test_estimate_order_polynomial_is_zero():
    est = estimate_growth(_polynomial_series({0: 1.0, 3: -2.0}, 40), 1.0)
    assert est.order == 0.0


def test_estimate_order_needs_data():
    series = _polynomial_series({n: 1e-3 for n in range(0, 41, 5)}, 40)
    with pytest.raises(InsufficientDataError):
        estimate_growth(series, 1.0)


def test_estimate_type_exponential():
    est = estimate_growth(_exp_series(60), 1.0)
    assert abs(est.type - 1.0) < 0.05


@pytest.mark.parametrize("m,a", [(1.5, 1.0), (2.0, 1.0), (3.0, 2.0)])
def test_estimate_type_window_transforms(m, a):
    series = taylor_coefficients(make_generalized_gaussian(a, m), 80)
    pred = predicted_growth(m, a)
    est = estimate_growth(series, pred.order)
    assert abs(est.type - pred.type) / pred.type < 0.05


def test_estimate_type_polynomial_is_zero():
    assert estimate_growth(_polynomial_series({0: 1.0}, 40), 1.0).type == 0.0


def test_predicted_growth_values():
    g = predicted_growth(2.0, math.pi)
    assert math.isclose(g.order, 2.0, rel_tol=1e-14)
    assert math.isclose(g.type, math.pi, rel_tol=1e-14)
    assert math.isclose(g.log_type, math.log(g.type), rel_tol=1e-15)
    g = predicted_growth(2.0, 1.0)
    assert math.isclose(g.type, math.pi**2, rel_tol=1e-14)
    g = predicted_growth(1.5, 1.0)
    assert math.isclose(g.order, 3.0, rel_tol=1e-14)
    assert math.isclose(g.type, 36.748179769244224, rel_tol=1e-12)
    for m, a in ((1.0, 1.0), (0.8, 1.0), (2.0, 0.0)):
        with pytest.raises(InvalidParameterError):
            predicted_growth(m, a)
    # near m = 1 the type is past the float range and only its log is carried
    g = predicted_growth(1.001, 2.0)
    assert math.isclose(g.order, 1001.0, rel_tol=1e-12)
    assert g.type is None
    assert math.isclose(g.log_type, 1138.6595078035366, rel_tol=1e-13)
    # a caller that reads the type as a float gets a typed error, not a number
    with pytest.raises(InvalidParameterError):
        uniqueness_threshold(g.order, g.type)


# ------------------------------------------------------------ zero counts

def test_zero_count_bound():
    assert zero_count_bound(1.0, 2.0, 4.0, math.pi, 2.0) == 20
    assert zero_count_bound(3.0, 2.0, 1.0, 0.0, 2.0) == 0
    counts = [zero_count_bound(r, 2.0, 1.0, 1.0, 1.0) for r in (1.0, 2.0, 4.0)]
    assert counts == sorted(counts)
    for args in ((0.0, 2.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0, 1.0),
                 (1.0, 2.0, 0.0, 1.0, 1.0), (1.0, 2.0, 1.0, -1.0, 1.0),
                 (1.0, 2.0, 1.0, 1.0, 0.0),
                 (math.inf, 2.0, 1.0, 1.0, 1.0), (1.0, math.inf, 1.0, 1.0, 1.0),
                 (1.0, 2.0, math.inf, 1.0, 1.0), (1.0, 2.0, 1.0, math.inf, 1.0),
                 (1.0, 2.0, 1.0, 1.0, math.inf)):
        with pytest.raises(InvalidParameterError):
            zero_count_bound(*args)


# ------------------------------------------------------ canonical products

def _weierstrass_factor(u, p):
    """Elementary factor G(u; p) = (1 - u) exp(sum_{j<=p} u^j / j), apart from the evaluator."""
    u = np.asarray(u, dtype=complex)
    return (1.0 - u) * np.exp(sum(u**j / j for j in range(1, p + 1)))


def test_weierstrass_factor_values():
    assert _weierstrass_factor(0.0, 3) == 1.0
    assert _weierstrass_factor(1.0, 2) == 0.0
    want = 0.5 * math.exp(0.5)
    assert math.isclose(_weierstrass_factor(0.5, 1).real, want, rel_tol=1e-15)


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("radius", [0.3, 0.5])
def test_weierstrass_log_bound(p, radius):
    # |log G(u; p)| <= |u|^{p+1} / (1 - |u|) on |u| <= 1/2
    for angle in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
        u = radius * cmath.exp(1j * angle)
        g = complex(_weierstrass_factor(u, p))
        bound = radius ** (p + 1) / (1.0 - radius)
        assert abs(cmath.log(g)) <= bound + 1e-13


# The product tests below take the zeros zeta_k of a genus-p product V(w) as lambda_k = sqrt(zeta_k)
# and a point w as z = sqrt(w), with a rho of genus floor(rho/2) = p: F(z) = V(z^2).

def _rho_of_genus(genus):
    return 2.0 * genus + 1.5


def test_product_matches_sinh():
    zeros = np.arange(1, 201, dtype=float) ** 2
    prod = CounterexampleProduct(np.sqrt(zeros), _rho_of_genus(0))
    val = canonical_product_eval(prod, cmath.sqrt(-1.0))
    want = math.sinh(math.pi) / math.pi
    assert abs(val - want) / want < 0.01
    assert abs(val.imag) == 0.0


def test_product_exact_zeros_and_origin():
    zeros = np.arange(1, 101, dtype=float) ** 2
    prod = CounterexampleProduct(np.sqrt(zeros), _rho_of_genus(0))
    assert canonical_product_eval(prod, math.sqrt(zeros[7])) == 0.0
    assert canonical_product_eval(prod, 0.0) == 1.0
    logs = canonical_product_log_magnitudes(prod, np.sqrt([zeros[7], 4.5]))
    assert logs[0] == -math.inf and math.isfinite(logs[1])


def _direct_log(zeros, genus, w):
    """Complex log of the product as an fsum of factor logs, apart from the evaluator."""
    u = w / zeros
    terms = np.log(1.0 - u) + sum(u**j / j for j in range(1, genus + 1))
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _near_mp_log(zeros, genus, w, q):
    """Complex log of prod_k G((w / zeta_k)^q; p) with the near factors, |w| / zeta_k >= 1/2.2, at 30 digits.

    Those factors are formed from the exact inputs, so no rounding of u = (w / zeta_k)^q is
    raised to the power p; _direct_log takes the others.
    """
    near = np.abs(w) / zeros >= 1.0 / 2.2
    far = zeros[~near]
    rest = _direct_log(far, genus, w) if q == 1 else _direct_log(far * far, genus, w * w)
    with mpmath.workdps(30):
        # coefficients 1/p, ..., 1/2, 1, 0 of sum_{j=1..p} u^j / j, highest degree first
        coeffs = [mpmath.mpf(1) / j for j in range(genus, 0, -1)] + [0]
        total = mpmath.mpc(rest)
        for zeta in zeros[near]:
            u = (mpmath.mpc(w) / zeta) ** q
            total += mpmath.log(1 - u) + mpmath.polyval(coeffs, u)
    return complex(total)


def test_product_banded_matches_direct():
    zeros = np.arange(1, 100001, dtype=float) ** 2
    prod = CounterexampleProduct(np.sqrt(zeros), _rho_of_genus(0))
    banded = canonical_product_log_magnitudes(prod, np.sqrt(np.array([-1.0 + 0j])))[0]
    assert abs(banded - _direct_log(zeros, 0, -1.0).real) < 1e-10


@pytest.mark.parametrize("call, name", [
    (lambda: QuadratureConfig(nodes=256.0), "nodes"),
    (lambda: QuadratureConfig(nodes=300.5), "nodes"),
    (lambda: taylor_coefficients(make_generalized_gaussian(2, 1.5), 80.5), "n_terms"),
    (lambda: counterexample_growth_coefficient(2 * np.sqrt(np.arange(1.0, 50.0)), 2.0, (1.0, 2.0),
                                               n_theta=16.5), "n_theta"),
], ids=["nodes-whole", "nodes-half", "n_terms", "growth-n_theta"])
def test_integer_parameters_reject_floats(call, name):
    # a float count either failed later with an untyped TypeError or, as n_theta, spaced
    # its angles at 2 pi / n_theta without closing the circle
    with pytest.raises(InvalidParameterError, match=name):
        call()


def test_product_overflow_guard():
    zeros = 0.01 * np.arange(1, 2001, dtype=float)
    prod = CounterexampleProduct(np.sqrt(zeros), _rho_of_genus(1))
    with pytest.raises(EvaluationOverflowError):
        canonical_product_eval(prod, math.sqrt(1e4))


def test_product_validation():
    # the type checks the shape and rho when built, and the order of the sequence when evaluated
    for lam in (np.sqrt([1.0, 1.0, 2.0]), np.array([-1.0, math.sqrt(2.0)])):
        prod = CounterexampleProduct(lam, _rho_of_genus(0))
        with pytest.raises(InvalidParameterError):
            canonical_product_eval(prod, math.sqrt(0.5))
        with pytest.raises(InvalidParameterError):
            canonical_product_log_magnitudes(prod, np.sqrt([0.5, 0.25]))
    with pytest.raises(InvalidParameterError):
        CounterexampleProduct(np.array([]), _rho_of_genus(0))
    with pytest.raises(InvalidParameterError):
        CounterexampleProduct(np.sqrt([1.0, 2.0]), _rho_of_genus(-1))
    prod = CounterexampleProduct(np.sqrt([1.0, 2.0]), _rho_of_genus(1))
    for bad in (math.nan, complex(0.5, math.inf), complex(math.nan, 0.0)):
        with pytest.raises(InvalidParameterError, match="points must be finite"):
            canonical_product_eval(prod, cmath.sqrt(bad))
        with pytest.raises(InvalidParameterError, match="points must be finite"):
            canonical_product_log_magnitudes(prod, np.array([math.sqrt(0.5), cmath.sqrt(bad)]))
        with pytest.raises(InvalidParameterError, match="points must be finite"):
            counterexample_eval(prod.lambdas, 2.0, bad)


@pytest.mark.parametrize("call", [
    lambda lam: counterexample_eval(lam, 2.0, 0.5),
    lambda lam: counterexample_eval(lam, 2.0, 0.0),
    lambda lam: counterexample_log_magnitudes(lam, 2.0, [0.5, 50.0]),
    lambda lam: counterexample_growth_coefficient(lam, 2.0, (1.0, 2.0)),
    lambda lam: canonical_product_eval(CounterexampleProduct(lam, 2.0), 0.5),
    lambda lam: canonical_product_log_magnitudes(CounterexampleProduct(lam, 2.0), [0.5, 50.0]),
    lambda lam: density_index(lam, 2.0),
    lambda lam: classify_sequence(lam, 2.0, 3.0),
], ids=["eval", "eval-at-0", "log-magnitudes", "growth", "product-eval", "product-log-magnitudes",
        "density", "classify"])
def test_sequence_must_end_finite(call):
    # strict increase let a last entry of +inf through: F(0.5) read 0.96 and the density 4.47
    lam = np.arange(1.0, 40.0)
    lam[-1] = math.inf
    with pytest.raises(InvalidParameterError, match="sequence entries must be finite"):
        call(lam)


# --------------------------------------------------------- counterexamples

def test_counterexample_vanishes_exactly():
    lam = 1.1 * np.arange(1, 2001, dtype=float) ** (1.0 / 3.0)
    assert counterexample_eval(lam, 3.0, lam[0]) == 0.0
    assert counterexample_eval(lam, 3.0, -lam[56]) == 0.0
    off = counterexample_eval(lam, 3.0, 0.5 * (lam[0] + lam[1]))
    assert off != 0.0


def test_counterexample_log_magnitudes_match_direct():
    lam = 1.1 * np.arange(1, 20001, dtype=float) ** (1.0 / 3.0)
    zs = np.array([0.7 + 0.2j, -2.3 + 1.1j, 3.9, 2.5j])
    logs = counterexample_log_magnitudes(lam, 3.0, zs)
    for z, lv in zip(zs, logs):
        assert abs(lv - _direct_log(lam * lam, 1, z * z).real) < 1e-10


def test_counterexample_growth_stays_below_envelope():
    # zeros 10% sparser than the non-uniqueness threshold demands
    lam = 1.1 * np.arange(1, 1000001, dtype=float) ** (1.0 / 3.0)
    coeff, samples = counterexample_growth_coefficient(lam, 3.0, (2.0, 3.0, 4.0),
                                                       n_theta=32)
    assert 0.0 < coeff < math.pi
    assert len(samples) == 3
    assert all(math.isfinite(v) for _, v in samples)


def test_counterexample_genus_and_validation():
    lam = np.arange(1, 101, dtype=float) ** 0.5
    assert build_counterexample_product(lam, 2.0).genus == 1
    assert build_counterexample_product(lam, 3.9).genus == 1
    assert build_counterexample_product(lam, 4.0).genus == 2
    assert build_counterexample_product(lam, 2.0).power == 2
    with pytest.raises(InvalidParameterError):
        build_counterexample_product(lam, 1.0)
    with pytest.raises(InvalidParameterError):
        counterexample_eval(np.array([2.0, 1.0, 3.0]), 2.0, 0.5)
    # one radius, however often repeated, cannot fix the two unknowns of the fit
    with pytest.raises(InvalidParameterError, match="two distinct radii"):
        counterexample_growth_coefficient(lam, 2.0, (4.0, 4.0), n_theta=16)


def test_counterexample_density_warning():
    # too sparse to clear the non-uniqueness threshold for (rho=2, b=pi)
    lam = 0.5 * np.arange(1, 101, dtype=float) ** 0.5
    with pytest.warns(RuntimeWarning) as record:
        counterexample_growth_coefficient(lam, 2.0, (2.0, 4.0), n_theta=16, b=math.pi)
    # lambda_K = 5 at 100 terms, so the radius 4 also passes 2.5
    assert [str(r.message).split(";")[0] for r in record] == [
        "sequence density does not clear the non-uniqueness threshold",
        "fit radius 4 passes half the last sequence term 5"]
    assert [r.filename for r in record] == [__file__] * 2


def test_counterexample_irregular_sequence_warning():
    lam = np.arange(1, 65, dtype=float)
    with pytest.warns(RuntimeWarning, match="power law") as record:
        counterexample_growth_coefficient(lam, 3.0, (2.0, 3.0), n_theta=16)
    # with b the tail density is read too, and its ratios still rise at rho = 2
    with pytest.warns(RuntimeWarning) as density_record:
        counterexample_growth_coefficient(lam, 2.0, (2.0, 3.0), n_theta=16, b=math.pi)
    assert "keep increasing" in str(density_record[0].message)
    assert [r.filename for r in [*record, *density_record]] == [__file__] * 3


def test_counterexample_radii_past_the_sequence_warn():
    # lambda_K = 11 at 1000 terms: the radius 16 passes 5.5, and the fit reads 1.67 against 2.36
    lam = 1.1 * np.arange(1, 1001, dtype=float) ** (1.0 / 3.0)
    with pytest.warns(RuntimeWarning, match="fit radius 16 passes half the last sequence term 11") as record:
        counterexample_growth_coefficient(lam, 3.0)
    assert record[-1].filename == __file__
    # at 100000 terms lambda_K = 51 and the same radii stay inside
    lam = 1.1 * np.arange(1, 100001, dtype=float) ** (1.0 / 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counterexample_growth_coefficient(lam, 3.0, b=math.pi)


@pytest.mark.parametrize("bad", [[1.0, -2.0, 3.0], [1.0, 2.0, math.nan, 4.0], [1.0, 3.0, 2.0],
                                 [math.nan, 1.0, 2.0], [0.0, 1.0, 2.0]])
def test_counterexample_rejects_bad_sequences(bad):
    lam = np.array(bad)
    for call in (lambda: canonical_product_eval(build_counterexample_product(lam, 2.0), 0.0),
                 lambda: counterexample_eval(lam, 2.0, 0.5),
                 lambda: counterexample_log_magnitudes(lam, 2.0, np.array([0.5j])),
                 lambda: counterexample_growth_coefficient(lam, 2.0, (1.0, 2.0), n_theta=16),
                 lambda: canonical_product_log_magnitudes(CounterexampleProduct(lam, 1.5), [0.5, 1.0j]),
                 lambda: density_index(np.concatenate([lam, np.arange(10.0, 26.0)]), 2.0)):
        with pytest.raises(InvalidParameterError):
            call()


def test_counterexample_rejects_squares_that_round_together():
    cases = (
        # distinct entries whose squares land on the same subnormal float
        [1e-160, 1.0001e-160, 1.0],
        # a first square that underflows to zero
        [1e-170, 1.0, 2.0],
        # two squares that overflow to inf
        [1.0, 1e155, 2e155],
    )
    for bad in cases:
        lam = np.array(bad)
        # the calls read F in z, where the zeros +-lambda_k are all distinct
        zs = np.array([lam[0], -lam[1], lam[2], -lam[2]])
        for z in zs:
            assert counterexample_eval(lam, 2.0, z) == 0.0
        # a point on a zero skips the sums, where the factors of the tiny zeros would overflow
        assert np.all(counterexample_log_magnitudes(lam, 2.0, zs) == -math.inf)
    lam = np.array([1.0, 1e155, 2e155])
    assert np.all(counterexample_log_magnitudes(lam, 2.0, np.array([1.0, -1.0])) == -math.inf)
    assert math.isfinite(counterexample_eval(lam, 2.0, 0.5).real)
    assert np.all(np.isfinite(counterexample_log_magnitudes(lam, 2.0, np.array([0.5j, 0.5, 3.0 + 1.0j]))))
    with pytest.warns(RuntimeWarning, match="not close to a power law"):
        coeff, samples = counterexample_growth_coefficient(lam, 2.0, (1.0, 2.0), n_theta=16)
    assert math.isfinite(coeff) and all(math.isfinite(v) for _, v in samples)
    # with a zero at 1e-160, |F(0.5)| = |(1 - u) e^u| at u = 2.5e319 is past the float range
    for bad in cases[:2]:
        lam = np.array(bad)
        for call in (lambda: counterexample_eval(lam, 2.0, 0.5),
                     lambda: counterexample_log_magnitudes(lam, 2.0, np.array([0.5, 0.5j])),
                     lambda: counterexample_growth_coefficient(lam, 2.0, (0.5, 1.0), n_theta=16)):
            with pytest.raises(EvaluationOverflowError):
                call()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=5e-324, max_value=1e308), min_size=1, max_size=30, unique=True),
       st.integers(0, 29), st.sampled_from([2.0, 3.0, 4.5]))
def test_counterexample_vanishes_at_every_zero(entries, pick, rho):
    # the whole float range, so neighbouring squares may round together or overflow
    lam = np.sort(np.array(entries))
    x = float(lam[pick % lam.size])
    for z in (x, -x, complex(x), complex(-x, 0.0)):
        assert counterexample_eval(lam, rho, z) == 0.0


def test_counterexample_calls_equal_the_built_product(monkeypatch):
    monkeypatch.setattr(entire, "_CHUNK", 1000)
    lam = 1.5 * np.sqrt(np.arange(1, 30001, dtype=float))
    product = build_counterexample_product(lam, 2.0)
    zs = np.array([[4.0 * cmath.exp(0.3j), -7.0 + 1.0j], [2.5j, 60.0 + 0.5j]])
    got = counterexample_log_magnitudes(lam, 2.0, zs)
    assert np.array_equal(got, canonical_product_log_magnitudes(product, zs))
    want = np.array([_near_mp_log(lam, 1, z, 2).real for z in zs.ravel()]).reshape(zs.shape)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    for z in (3.0 + 1.0j, -2.0j, 0.5 * (lam[9] + lam[10]), 9.0 * cmath.exp(2.0j)):
        want = cmath.exp(_near_mp_log(lam, 1, z, 2))
        assert counterexample_eval(lam, 2.0, z) == canonical_product_eval(product, z)
        assert abs(counterexample_eval(lam, 2.0, z) - want) <= 1e-13 * abs(want)
    assert counterexample_eval(lam, 2.0, 0.0) == canonical_product_eval(product, 0.0) == 1.0
    for z in (12.0, complex(lam[0]), complex(-lam[2999])):
        assert counterexample_eval(lam, 2.0, z) == canonical_product_eval(product, z) == 0.0
    # a zero at 1e155, whose square leaves the float range, has a factor of 1 to rounding here
    lam = np.array([1.0, 1e155])
    got = counterexample_log_magnitudes(lam, 3.0, zs)
    want = np.array([_direct_log(lam[:1], 1, z * z).real for z in zs.ravel()]).reshape(zs.shape)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_traced_counterexample_calls_reach_the_product_names():
    # the benchmark's tracer rebinds these three names in every stftuniq module; a child
    # process keeps its wrappers out of the other tests
    root = Path(__file__).resolve().parents[1]
    code = (
        "import json, math\n"
        "import numpy as np\n"
        "import spans, stftuniq\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "lam = 1.5 * np.sqrt(np.arange(1, 2001, dtype=float))\n"
        "stftuniq.counterexample_growth_coefficient(lam, 2.0, (2.0, 4.0), n_theta=16, b=math.pi)\n"
        "stftuniq.counterexample_log_magnitudes(lam, 2.0, [1.0j, 3.0])\n"
        "stftuniq.counterexample_eval(lam, 2.0, lam[3])\n"
        "print(json.dumps(tracer.totals()[2]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(root / d) for d in ("src", "perfbench")))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"entire.build_counterexample_product": 3,
                                       "entire.canonical_product_log_magnitudes": 2,
                                       "entire.canonical_product_eval": 1}


def test_counterexample_calls_make_no_copy_of_the_sequence():
    lam = 1.5 * np.sqrt(np.arange(1, 10**6 + 1, dtype=float))
    ring = np.exp(1j * (np.arange(64) + 0.5) * (2.0 * math.pi / 64))
    calls = (lambda: counterexample_eval(lam, 2.0, lam[700000]),
             lambda: counterexample_eval(lam, 2.0, 10.0 + 1.0j),
             lambda: counterexample_log_magnitudes(lam, 2.0, 5.0 * ring),
             # the near band holds most of the sequence here
             lambda: counterexample_log_magnitudes(lam, 2.0, 800.0 * ring[::16]),
             lambda: counterexample_growth_coefficient(lam, 2.0, (4.0, 8.0, 16.0), b=math.pi))
    for call in calls:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < lam.nbytes


def test_counterexample_fit_and_density_stay_below_an_eighth_of_the_sequence():
    # the first calls load modules lazily (numpy.ma), which would count towards the peak
    small = 1.5 * np.sqrt(np.arange(1, 1001, dtype=float))
    counterexample_growth_coefficient(small, 2.0, b=math.pi)
    density_index(small, 2.0)
    lam = 1.5 * np.sqrt(np.arange(1, 10**6 + 1, dtype=float))
    for call in (lambda: counterexample_growth_coefficient(lam, 2.0, (4.0, 8.0, 16.0), b=math.pi),
                 lambda: density_index(lam, 2.0)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # slices of the validation, the tail and the far band, never a K-sized temporary
        assert peak < lam.nbytes / 8


def test_scalar_arguments_fail_before_the_sequence_pass(monkeypatch):
    lam = 1.5 * np.sqrt(np.arange(1, 1001, dtype=float))
    checked = []
    monkeypatch.setattr(entire, "check_increasing", lambda values, what: checked.append(what))
    monkeypatch.setattr(sampling, "check_increasing", lambda values, what: checked.append(what))
    for call in (lambda: counterexample_eval(lam, 1.0, 1.0j),
                 lambda: counterexample_log_magnitudes(lam, math.nan, [1.0j]),
                 lambda: counterexample_growth_coefficient(lam, 0.5, (1.0, 2.0)),
                 lambda: counterexample_growth_coefficient(lam, 2.0, (1.0, 2.0), b=-1.0),
                 lambda: build_counterexample_product(lam, math.inf),
                 lambda: density_index(lam, 1.0)):
        with pytest.raises(InvalidParameterError):
            call()
    assert checked == []


def test_counterexample_validates_each_sequence_once(monkeypatch, slice_checks):
    lam = 1.5 * np.sqrt(np.arange(1, 5001, dtype=float))
    tails = []
    tail = entire.tail_ratios

    def counting_tail(values, rho):
        tails.append(values)
        return tail(values, rho)

    seen = slice_checks.seen
    monkeypatch.setattr(entire, "tail_ratios", counting_tail)
    calls = (lambda: counterexample_eval(lam, 2.0, lam[17]),
             lambda: counterexample_eval(lam, 2.0, 0.0),
             lambda: counterexample_eval(lam, 2.0, 3.0 - 1.0j),
             lambda: counterexample_log_magnitudes(lam, 2.0, np.array([1.0 + 1.0j, -lam[3]])),
             lambda: counterexample_growth_coefficient(lam, 2.0, (2.0, 4.0), n_theta=16, b=math.pi))
    for call in calls:
        seen.clear()
        tails.clear()
        call()
        # one sweep over the sequence, and none over its squares
        assert slice_checks.sweeps_over(lam) == 1
        assert all(np.shares_memory(values, lam) for values, _, _ in seen)
        assert len(tails) <= 1
    # building the product holds the sequence as given and makes no sweep of its own
    seen.clear()
    product = build_counterexample_product(lam, 2.0)
    assert product.lambdas is lam and seen == []


@pytest.mark.parametrize("place", ["near", "near edge", "band 0", "band 1", "band 2", "band 3",
                                   "slice edge", "last slice"])
def test_one_disorder_anywhere_fails_every_call_before_any_warning(monkeypatch, slice_checks, place):
    monkeypatch.setattr(entire, "_CHUNK", 64)
    monkeypatch.setattr(sampling, "_CHUNK", 64)
    vmax = 4.0
    lam = 0.5 * np.sqrt(np.arange(1, 80001 + 37, dtype=float))
    # the far zeros start at the ratio edge 2.2; "band b" places a disorder in the b-th of four
    # ratio spans that together run from there to the last term
    ratios = (entire._FAR_EDGE, 8.0, 64.0, 1024.0)
    edges = [int(np.searchsorted(lam, math.sqrt(e) * vmax, "right")) for e in ratios] + [lam.size]
    # every span holds several slices
    assert 0 < edges[0] and all(hi - lo > 3 * 64 for lo, hi in zip(edges, edges[1:]))
    counterexample_log_magnitudes(lam, 2.0, [vmax * 1j])
    slices = [(k, n) for values, k, n in slice_checks.seen if values is lam]
    # the far slices shorten where they need more than four powers, and the last is partial
    assert min(n for _, n in slices) < 64
    last_k, last_n = slices[-1]
    assert last_k + last_n == lam.size and last_n < slices[-2][1]
    where = {"near": edges[0] // 2, "near edge": edges[0], "slice edge": slices[len(slices) // 2][0],
             "last slice": last_k + last_n // 2,
             **{f"band {b}": (edges[b] + edges[b + 1]) // 2 for b in range(4)}}[place]
    bad = lam.copy()
    bad[where - 1], bad[where] = bad[where], bad[where - 1]
    ring = vmax * np.exp(1j * (np.arange(8) + 0.5) * (math.pi / 4))
    for call in (lambda: counterexample_eval(bad, 2.0, vmax * cmath.exp(0.3j)),
                 lambda: counterexample_log_magnitudes(bad, 2.0, ring),
                 lambda: counterexample_growth_coefficient(bad, 2.0, (vmax / 2, vmax), n_theta=16,
                                                           b=math.pi)):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(InvalidParameterError, match="strictly increasing"):
                call()
        assert record == []


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("genus", [0, 1, 2, 7, 60, 130])
def test_shortened_slices_match_direct(monkeypatch, slice_checks, genus, q):
    monkeypatch.setattr(entire, "_CHUNK", 1000)
    lam = 2.0 * np.arange(1, 12001, dtype=float) ** 0.75
    vs = np.array([20.0 * np.exp(0.4j), -13.0 + 2.0j, 7.5j, 0.3 - 0.1j])
    seen = slice_checks.seen
    got = entire._log_product(lam, genus, vs, q)
    # a slice keeps its powers in 2000 floats, so one that needs more than two rows is
    # shorter than 1000 even where the zeros go on
    assert any(n < 1000 and k + n < lam.size for values, k, n in seen if values is lam)
    for v, g in zip(vs, got):
        # at genus 130 a float sum of u^j / j is itself off by up to 3.8e-14
        want = _near_mp_log(lam, genus, v, q)
        assert abs(g - want) <= 2e-14 * max(abs(want), 1.0), (v, g, want)


def test_genus_above_the_slice_size_ends(monkeypatch, slice_checks):
    monkeypatch.setattr(entire, "_CHUNK", 64)
    lam = np.arange(5.0, 2005.0)
    # the top power 301 > 4 _CHUNK: a slice still holds three rows, u^150, u^151 and u
    got = entire._log_product(lam, 300, np.array([3.0 + 1.0j, -4.0]), 1)
    far = [(k, n) for values, k, n in slice_checks.seen if values is lam]
    assert far[0][0] == int(np.searchsorted(lam, entire._FAR_EDGE * 4.0, "right"))
    assert all(n == 2 * 64 // 3 or k + n == lam.size for k, n in far)
    assert slice_checks.sweeps_over(lam) == 1
    for v, g in zip((3.0 + 1.0j, -4.0), got):
        want = _direct_log(lam, 300, v)
        assert abs(g - want) <= 2e-14 * max(abs(want), 1.0), (v, g, want)
    with pytest.raises(EvaluationOverflowError):
        counterexample_log_magnitudes(np.arange(1.0, 51.0), 2 * 300 + 1, [16.0j])


def test_growth_batched_radii_match_one_radius_per_call():
    lam = 1.5 * np.sqrt(np.arange(1, 200001, dtype=float))
    radii = (2.0, 3.0, 5.0, 8.0)
    coeff, samples = counterexample_growth_coefficient(lam, 2.0, radii, n_theta=32, b=math.pi)
    ring = np.exp(1j * np.arange(32) * (2.0 * math.pi / 32))
    log_max = [float(np.max(counterexample_log_magnitudes(lam, 2.0, r * ring))) for r in radii]
    basis = np.stack([np.array(radii) ** 2, np.ones(len(radii))], axis=1)
    want = float(np.linalg.lstsq(basis, np.array(log_max), rcond=None)[0][0])
    assert abs(coeff - want) <= 1e-12 * abs(want)
    for (_, v), w in zip(samples, log_max):
        assert abs(v - w) <= 1e-12 * max(abs(w), 1.0)


@pytest.mark.parametrize("chunk", [None, 1000])
def test_product_chunked_bands_match_direct(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(entire, "_CHUNK", chunk)
    size = entire._CHUNK
    # every band, the last most of all, holds a length that is no multiple of the slice size
    zeros = np.arange(1, 2 * size + 12346, dtype=float) ** 1.5
    prod = CounterexampleProduct(np.sqrt(zeros), _rho_of_genus(1))
    ws = np.array([30.0 + 4.0j, -55.0, 2.0j, 100.0 * np.exp(0.7j)])
    got = canonical_product_log_magnitudes(prod, np.sqrt(ws))
    for w, g in zip(ws, got):
        assert abs(g - _direct_log(zeros, 1, w).real) < 1e-10


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("genus", [0, 1, 2])
def test_capped_far_band_matches_direct(monkeypatch, genus, q):
    monkeypatch.setattr(entire, "_CHUNK", 1000)
    lam = 2.0 * np.arange(1, 12001, dtype=float) ** 0.75
    vs = np.array([20.0 * np.exp(0.4j), -13.0 + 2.0j, 7.5j, 0.3 - 0.1j])
    vmax = float(np.abs(vs).max())
    far = lam[np.searchsorted(lam, 2.2 ** (1.0 / q) * vmax, "right"):]
    # the far band spans several slices, each with its own power count
    assert far.size >= 3 * 1000
    caps = {math.ceil(43.0 / (q * math.log(far[k] / vmax))) for k in range(0, far.size, 1000)}
    assert len(caps) >= 3 and max(caps) <= entire._TERMS_CAP
    got = entire._log_product(lam, genus, vs, q)
    for v, g in zip(vs, got):
        want = _direct_log(lam, genus, v) if q == 1 else _direct_log(lam * lam, genus, v * v)
        # e^-25 in place of e^-43 in the caps moves the q = 1 cases past this bound
        assert abs(g - want) <= 2e-14 * max(abs(want), 1.0), (v, g, want)


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_product_eval_matches_direct_with_phase(genus):
    zeros = 10.0 + np.arange(1, 3001, dtype=float) ** 2
    prod = CounterexampleProduct(np.sqrt(zeros), _rho_of_genus(genus))
    near = [zeros[4] * (1.0 + 1e-7) + 1e-6j, zeros[12] - 0.01j, 0.5 * (zeros[9] + zeros[10])]
    far = [-250.0 + 30.0j, 150.0j, 0.05 - 0.02j, 250.0 * np.exp(2.5j)]
    for w in near + far:
        z = cmath.sqrt(w)
        # the factor arguments (z / lambda_k)^2 as the product forms them: a near point's
        # factor 1 - u would take the rounding of z^2 against w up by 1 / |1 - u|
        want = np.prod(_weierstrass_factor((z / prod.lambdas) ** 2, genus))
        got = canonical_product_eval(prod, z)
        assert abs(got - want) <= 1e-10 * abs(want), (w, got, want)


def test_product_far_out_stays_finite():
    # |z|^(2j) and lambda_k^(-2j) each leave the float range here; their ratio does not
    zeros = np.arange(1, 20001, dtype=float) ** 2 * 1e6
    prod = CounterexampleProduct(np.sqrt(zeros), _rho_of_genus(0))
    w = -3.0e6
    want = _direct_log(zeros, 0, w).real
    z = cmath.sqrt(w)
    assert abs(math.log(abs(canonical_product_eval(prod, z))) - want) < 1e-10
    assert abs(canonical_product_log_magnitudes(prod, np.array([z]))[0] - want) < 1e-10
