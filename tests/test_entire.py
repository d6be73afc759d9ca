"""Growth analysis: moments, Taylor data, order/type fits, products, counting."""

import cmath
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import gammaln

import stftuniq.entire as entire
import stftuniq.sampling as sampling
from stftuniq import (
    CanonicalProduct,
    EvaluationOverflowError,
    InsufficientDataError,
    InvalidParameterError,
    TaylorSeries,
    ZeroAtOriginError,
    build_counterexample_product,
    counterexample_eval,
    counterexample_growth_coefficient,
    counterexample_log_magnitudes,
    density_index,
    estimate_order,
    estimate_type,
    jensen_integral,
    make_generalized_gaussian,
    make_modulated_generalized_gaussian,
    moment_integral,
    predicted_growth,
    taylor_coefficients,
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
    assert len(series.coefficients) == 41
    c = series.coefficients
    assert abs(c[0] - math.sqrt(math.pi)) < 1e-12
    assert c[1] == 0.0
    want_c2 = -math.pi**2 * math.sqrt(math.pi)
    assert abs(c[2] - want_c2) / abs(want_c2) < 1e-9
    # even real profile: every odd coefficient is pinned, not just small
    assert all(c[n] == 0.0 for n in range(1, 41, 2))


def test_taylor_modulated_window_breaks_symmetry():
    series = taylor_coefficients(make_modulated_generalized_gaussian(1.5, 2.0, 0.8), 12)
    odd = np.abs(np.asarray(series.coefficients)[1::2])
    assert odd.max() > 1e-3


def test_taylor_coefficient_envelope():
    # |c_n| <= (2 pi)^n / n! * M_n with M_n the absolute moment
    series = taylor_coefficients(make_generalized_gaussian(1.0, 2.0), 40)
    for n, cn in enumerate(series.coefficients):
        if cn == 0.0:
            continue
        log_bound = (n * math.log(2.0 * math.pi) - gammaln(n + 1)
                     + math.log(moment_integral(n, 1.0, 2.0)))
        assert math.log(abs(cn)) <= log_bound + 1e-10


def _mp_taylor(a, m, xi0, n):
    """c_n by 20-digit quadrature of the n-th moment, split at the |.|^m kink."""
    with mpmath.workdps(20):
        moment = mpmath.quad(lambda x: x**n * mpmath.exp(-a * abs(x - xi0) ** m),
                             [-mpmath.inf, xi0, mpmath.inf])
        return complex((2j * mpmath.pi) ** n / mpmath.factorial(n) * moment)


@pytest.mark.parametrize("a,m,xi0", [(2.0, 1.5, 0.0), (2.0, 3.0, 0.0), (1.5, 1.5, 0.8), (1.5, 1.5, -0.6)])
def test_taylor_coefficients_against_mpmath(a, m, xi0):
    window = (make_modulated_generalized_gaussian(a, m, xi0) if xi0
              else make_generalized_gaussian(a, m))
    got = taylor_coefficients(window, 12).coefficients
    for n in range(13):
        if xi0 == 0.0 and n % 2:
            assert got[n] == 0.0
            continue
        want = _mp_taylor(a, m, xi0, n)
        assert abs(got[n] - want) <= 1e-12 * abs(want), (n, got[n], want)


def test_taylor_large_n_stays_in_range():
    # at N = 300 the moments themselves overflow, the coefficients do not
    series = taylor_coefficients(make_generalized_gaussian(2.0, 1.5), 300)
    assert abs(estimate_order(series).order - 3.00005) < 1e-5
    assert abs(estimate_type(series, 3.0).type - 9.18697) < 1e-5
    # at m = 3 the tail coefficients fall below the smallest normal float; read
    # as zeros they would make the series a polynomial of order 0
    with pytest.raises(EvaluationOverflowError, match="normal floats"):
        taylor_coefficients(make_generalized_gaussian(2.0, 3.0), 1000)
    with pytest.raises(InvalidParameterError):
        taylor_coefficients(make_generalized_gaussian(2.0, 1.5).fourier_eval, 20)


def test_series_validation():
    assert TaylorSeries(np.ones(3)).truncation == 2
    with pytest.raises(InvalidParameterError):
        TaylorSeries(np.ones((3, 3)))
    with pytest.raises(InvalidParameterError):
        TaylorSeries(np.ones(2))
    with pytest.raises(InvalidParameterError):
        TaylorSeries(np.array([1.0, np.nan, 0.5]))


# ------------------------------------------------------- order and type

def test_estimate_order_exponential():
    c = np.array([1.0 / math.factorial(n) for n in range(61)])
    est = estimate_order(TaylorSeries(c))
    assert abs(est.order - 1.0) < 0.03
    assert len(est.n_used) >= 10


def test_estimate_order_even_lacunary():
    # sum z^{2k} / k! = exp(z^2), order 2
    c = np.zeros(81)
    c[0::2] = [1.0 / math.factorial(k) for k in range(41)]
    est = estimate_order(TaylorSeries(c))
    assert abs(est.order - 2.0) < 0.05


@pytest.mark.parametrize("m,a", [(1.5, 1.0), (2.0, 1.0), (3.0, 2.0)])
def test_estimate_order_window_transforms(m, a):
    series = taylor_coefficients(make_generalized_gaussian(a, m), 80)
    want = m / (m - 1.0)
    est = estimate_order(series)
    assert abs(est.order - want) / want < 0.03


def test_estimate_order_polynomial_is_zero():
    c = np.zeros(41)
    c[0], c[3] = 1.0, -2.0
    est = estimate_order(TaylorSeries(c))
    assert est.order == 0.0


def test_estimate_order_needs_data():
    c = np.zeros(41)
    c[[0, 5, 10, 15, 20, 25, 30, 35, 40]] = 1e-3
    with pytest.raises(InsufficientDataError):
        estimate_order(TaylorSeries(c))


def test_estimate_type_exponential():
    c = np.array([1.0 / math.factorial(n) for n in range(61)])
    est = estimate_type(TaylorSeries(c), 1.0)
    assert abs(est.type - 1.0) < 0.05


@pytest.mark.parametrize("m,a", [(1.5, 1.0), (2.0, 1.0), (3.0, 2.0)])
def test_estimate_type_window_transforms(m, a):
    series = taylor_coefficients(make_generalized_gaussian(a, m), 80)
    pred = predicted_growth(m, a)
    est = estimate_type(series, pred.order)
    assert abs(est.type - pred.type) / pred.type < 0.05


def test_estimate_type_polynomial_is_zero():
    c = np.zeros(41)
    c[0] = 1.0
    assert estimate_type(TaylorSeries(c), 1.0).type == 0.0


def test_predicted_growth_values():
    g = predicted_growth(2.0, math.pi)
    assert math.isclose(g.order, 2.0, rel_tol=1e-14)
    assert math.isclose(g.type, math.pi, rel_tol=1e-14)
    g = predicted_growth(2.0, 1.0)
    assert math.isclose(g.type, math.pi**2, rel_tol=1e-14)
    g = predicted_growth(1.5, 1.0)
    assert math.isclose(g.order, 3.0, rel_tol=1e-14)
    assert math.isclose(g.type, 36.748179769244224, rel_tol=1e-12)
    for m, a in ((1.0, 1.0), (0.8, 1.0), (2.0, 0.0)):
        with pytest.raises(InvalidParameterError):
            predicted_growth(m, a)


# ------------------------------------------------- Jensen and zero counts

def test_jensen_reference_values():
    assert jensen_integral(lambda z: np.ones_like(z), 5.0) == 0.0
    val = jensen_integral(lambda z: 1.0 - z * z, 2.0, n_theta=4096)
    assert abs(val - 2.0 * math.log(2.0)) < 1e-10
    # e^z has mean log-modulus equal to log|f(0)| on every circle
    assert abs(jensen_integral(np.exp, 3.0, n_theta=256)) < 1e-14


def test_jensen_monotone_in_radius():
    vals = [jensen_integral(np.cos, r, n_theta=2048) for r in (1.0, 2.0, 4.0, 8.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(v >= -1e-12 for v in vals)


def test_jensen_guards():
    with pytest.raises(ZeroAtOriginError):
        jensen_integral(lambda z: z, 1.0)
    with pytest.raises(InvalidParameterError):
        jensen_integral(np.exp, 0.0)
    with pytest.raises(InvalidParameterError):
        jensen_integral(np.exp, 1.0, n_theta=32)
    with pytest.warns(RuntimeWarning):
        val = jensen_integral(lambda z: 1.0 - z, 1.0)
    assert val == -math.inf


def test_zero_count_bound():
    assert zero_count_bound(1.0, 2.0, 4.0, math.pi, 2.0) == 20
    assert zero_count_bound(3.0, 2.0, 1.0, 0.0, 2.0) == 0
    counts = [zero_count_bound(r, 2.0, 1.0, 1.0, 1.0) for r in (1.0, 2.0, 4.0)]
    assert counts == sorted(counts)
    for args in ((0.0, 2.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0, 1.0),
                 (1.0, 2.0, 0.0, 1.0, 1.0), (1.0, 2.0, 1.0, -1.0, 1.0),
                 (1.0, 2.0, 1.0, 1.0, 0.0)):
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


def test_product_matches_sinh():
    zeros = np.arange(1, 201, dtype=float) ** 2
    prod = CanonicalProduct(zeros=zeros, genus=0)
    val = canonical_product_eval(prod, -1.0)
    want = math.sinh(math.pi) / math.pi
    assert abs(val - want) / want < 0.01
    assert abs(val.imag) == 0.0


def test_product_exact_zeros_and_origin():
    zeros = np.arange(1, 101, dtype=float) ** 2
    prod = CanonicalProduct(zeros=zeros, genus=0)
    assert canonical_product_eval(prod, zeros[7]) == 0.0
    assert canonical_product_eval(prod, 0.0) == 1.0
    logs = canonical_product_log_magnitudes(prod, np.array([zeros[7], 4.5]))
    assert logs[0] == -math.inf and math.isfinite(logs[1])


def _direct_log(zeros, genus, w):
    """Complex log of the product as an fsum of factor logs, apart from the evaluator."""
    u = w / zeros
    terms = np.log(1.0 - u) + sum(u**j / j for j in range(1, genus + 1))
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def test_product_banded_matches_direct():
    zeros = np.arange(1, 100001, dtype=float) ** 2
    prod = CanonicalProduct(zeros=zeros, genus=0)
    banded = canonical_product_log_magnitudes(prod, np.array([-1.0]))[0]
    assert abs(banded - _direct_log(zeros, 0, -1.0).real) < 1e-10


def test_product_overflow_guard():
    zeros = 0.01 * np.arange(1, 2001, dtype=float)
    prod = CanonicalProduct(zeros=zeros, genus=1)
    with pytest.raises(EvaluationOverflowError):
        canonical_product_eval(prod, 1e4)


def test_product_validation():
    with pytest.raises(InvalidParameterError):
        CanonicalProduct(zeros=np.array([1.0, 1.0, 2.0]), genus=0)
    with pytest.raises(InvalidParameterError):
        CanonicalProduct(zeros=np.array([-1.0, 2.0]), genus=0)
    with pytest.raises(InvalidParameterError):
        CanonicalProduct(zeros=np.array([]), genus=0)
    with pytest.raises(InvalidParameterError):
        CanonicalProduct(zeros=np.array([1.0, 2.0]), genus=-1)


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
    with pytest.raises(InvalidParameterError):
        build_counterexample_product(lam, 1.0)
    with pytest.raises(InvalidParameterError):
        build_counterexample_product(np.array([2.0, 1.0, 3.0]), 2.0)


def test_counterexample_density_warning():
    # too sparse to clear the non-uniqueness threshold for (rho=2, b=pi)
    lam = 0.5 * np.arange(1, 101, dtype=float) ** 0.5
    with pytest.warns(RuntimeWarning, match="non-uniqueness threshold"):
        counterexample_growth_coefficient(lam, 2.0, (2.0, 4.0), n_theta=16, b=math.pi)


def test_counterexample_irregular_sequence_warning():
    lam = np.arange(1, 65, dtype=float)
    with pytest.warns(RuntimeWarning):
        counterexample_growth_coefficient(lam, 3.0, (2.0, 3.0), n_theta=16)


@pytest.mark.parametrize("bad", [[1.0, -2.0, 3.0], [1.0, 2.0, math.nan, 4.0], [1.0, 3.0, 2.0],
                                 [math.nan, 1.0, 2.0], [0.0, 1.0, 2.0]])
def test_counterexample_rejects_bad_sequences(bad):
    lam = np.array(bad)
    for call in (lambda: build_counterexample_product(lam, 2.0),
                 lambda: counterexample_eval(lam, 2.0, 0.5),
                 lambda: counterexample_log_magnitudes(lam, 2.0, np.array([0.5j])),
                 lambda: counterexample_growth_coefficient(lam, 2.0, (1.0, 2.0), n_theta=16),
                 lambda: CanonicalProduct(zeros=lam, genus=0),
                 lambda: density_index(np.concatenate([lam, np.arange(10.0, 26.0)]), 2.0)):
        with pytest.raises(InvalidParameterError):
            call()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_counterexample_rejects_squares_that_round_together():
    cases = (
        # distinct entries whose squares land on the same subnormal float
        ([1e-160, 1.0001e-160, 1.0], "zeros must be strictly increasing"),
        # a first square that underflows to zero
        ([1e-170, 1.0, 2.0], "zeros must be positive"),
        # two squares that overflow to inf
        ([1.0, 1e155, 2e155], "zeros must be strictly increasing"),
    )
    for bad, message in cases:
        lam = np.array(bad)
        with pytest.raises(InvalidParameterError, match=message):
            CanonicalProduct(zeros=lam * lam, genus=1)
        for call in (lambda: build_counterexample_product(lam, 2.0),
                     lambda: counterexample_eval(lam, 2.0, 0.5),
                     lambda: counterexample_log_magnitudes(lam, 2.0, np.array([0.5j])),
                     lambda: counterexample_growth_coefficient(lam, 2.0, (1.0, 2.0), n_theta=16)):
            with pytest.raises(InvalidParameterError, match=message):
                call()


def _squares_check_outcome(check, values):
    try:
        check(values, "zeros")
    except InvalidParameterError as exc:
        return str(exc)
    return None


_positive_floats = st.floats(min_value=5e-324, allow_nan=False, allow_infinity=True)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.lists(_positive_floats, min_size=1, max_size=12, unique=True),
       st.lists(st.integers(0, 3), min_size=1, max_size=12))
def test_square_check_matches_the_full_check(entries, steps):
    # clusters of neighbouring floats, so that squares at both ends do merge
    values = sorted(entries)
    for v, n in zip(list(values), steps):
        for _ in range(n):
            v = math.nextafter(v, math.inf)
            values.append(v)
    lam = np.unique(np.array(values))
    assert (_squares_check_outcome(sampling.check_squares_increasing, lam)
            == _squares_check_outcome(sampling.check_increasing, lam * lam))


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=2.0**-511, max_value=math.sqrt(sys.float_info.max), exclude_max=True))
def test_squares_of_neighbouring_normal_floats_stay_apart(a):
    b = math.nextafter(a, math.inf)
    assume(math.isfinite(b * b))
    assert a * a < b * b


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=40, unique=True),
       st.integers(0, 39), st.sampled_from([-1, 0, 1]), st.sampled_from(["left", "right"]))
def test_square_cut_matches_a_search_on_the_squares(entries, pick, shift, side):
    lam = np.sort(np.array(entries))
    t = float(lam[pick % lam.size]) ** 2
    t = math.nextafter(t, shift * math.inf) if shift else t
    assert entire._cut(lam, t, side, True) == int(np.searchsorted(lam * lam, t, side))
    for t in (-1.0, 0.0, math.inf, math.nan):
        assert entire._cut(lam, t, side, True) == int(np.searchsorted(lam * lam, t, side))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_counterexample_calls_equal_the_built_product(monkeypatch):
    monkeypatch.setattr(entire, "_CHUNK", 1000)
    lam = 1.5 * np.sqrt(np.arange(1, 30001, dtype=float))
    product = build_counterexample_product(lam, 2.0)
    zs = np.array([[4.0 * cmath.exp(0.3j), -7.0 + 1.0j], [2.5j, 60.0 + 0.5j]])
    assert np.array_equal(counterexample_log_magnitudes(lam, 2.0, zs),
                          canonical_product_log_magnitudes(product, zs * zs))
    for z in (0.0, 3.0 + 1.0j, -2.0j, 12.0, complex(lam[0]), complex(-lam[2999]), 0.5 * (lam[9] + lam[10])):
        assert counterexample_eval(lam, 2.0, z) == canonical_product_eval(product, complex(z) ** 2)
    # one square beyond the float range is an infinitely far zero, for both
    lam = np.array([1.0, 1e155])
    product = build_counterexample_product(lam, 3.0)
    assert product.zeros[-1] == math.inf
    assert np.array_equal(counterexample_log_magnitudes(lam, 3.0, zs),
                          canonical_product_log_magnitudes(product, zs * zs))


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


def test_counterexample_validates_each_sequence_once(monkeypatch):
    lam = 1.5 * np.sqrt(np.arange(1, 5001, dtype=float))
    checked, tails = [], []
    check, tail = entire.check_increasing, entire.tail_ratios

    def counting_check(values, what):
        checked.append(values)
        check(values, what)

    def counting_tail(values, rho):
        tails.append(values)
        return tail(values, rho)

    monkeypatch.setattr(entire, "check_increasing", counting_check)
    monkeypatch.setattr(sampling, "check_increasing", counting_check)
    monkeypatch.setattr(entire, "tail_ratios", counting_tail)
    calls = (lambda: counterexample_eval(lam, 2.0, lam[17]),
             lambda: counterexample_log_magnitudes(lam, 2.0, np.array([1.0 + 1.0j])),
             lambda: counterexample_growth_coefficient(lam, 2.0, (2.0, 4.0), n_theta=16, b=math.pi))
    for call in calls:
        checked.clear()
        tails.clear()
        call()
        # one pass over the sequence; its squares are only formed slice by slice
        assert len(checked) == 1
        assert np.shares_memory(checked[0], lam)
        assert len(tails) <= 1
    # the built product checks the sequence and then all of its squares
    checked.clear()
    build_counterexample_product(lam, 2.0)
    assert len(checked) == 2
    assert np.shares_memory(checked[0], lam)
    assert np.array_equal(checked[1], lam * lam)
    checked.clear()
    CanonicalProduct(zeros=lam * lam, genus=1)
    assert len(checked) == 1


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
    prod = CanonicalProduct(zeros=zeros, genus=1)
    ws = np.array([30.0 + 4.0j, -55.0, 2.0j, 100.0 * np.exp(0.7j)])
    got = canonical_product_log_magnitudes(prod, ws)
    for w, g in zip(ws, got):
        assert abs(g - _direct_log(zeros, 1, w).real) < 1e-10


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_product_eval_matches_direct_with_phase(genus):
    zeros = 10.0 + np.arange(1, 3001, dtype=float) ** 2
    prod = CanonicalProduct(zeros=zeros, genus=genus)
    near = [zeros[4] * (1.0 + 1e-7) + 1e-6j, zeros[12] - 0.01j, 0.5 * (zeros[9] + zeros[10])]
    far = [-250.0 + 30.0j, 150.0j, 0.05 - 0.02j, 250.0 * np.exp(2.5j)]
    for w in near + far:
        want = np.prod(_weierstrass_factor(w / zeros, genus))
        got = canonical_product_eval(prod, w)
        assert abs(got - want) <= 1e-10 * abs(want), (w, got, want)


def test_product_far_out_stays_finite():
    # |w|^j and omega^-j each leave the float range here; their ratio does not
    zeros = np.arange(1, 20001, dtype=float) ** 2 * 1e6
    prod = CanonicalProduct(zeros=zeros, genus=0)
    w = -3.0e6
    want = _direct_log(zeros, 0, w).real
    assert abs(math.log(abs(canonical_product_eval(prod, w))) - want) < 1e-10
    assert abs(canonical_product_log_magnitudes(prod, np.array([w]))[0] - want) < 1e-10
