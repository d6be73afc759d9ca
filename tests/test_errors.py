"""One rule per kind of parameter, at every public entry that takes one.

A real is a finite real number other than a bool, a count is an integer
other than a bool, and an array of reals has an integer or float dtype. So
a bool, a numeric string, a complex number, NaN and inf raise
InvalidParameterError naming the parameter, and numpy scalars give what the
Python number gives. A complex parameter (an amplitude, a point z of a
product) is a finite complex number other than a bool, and an array of
complexes (grid samples, the points of a product) has an integer, float or
complex dtype. A ragged nested list is no array of either kind.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from stftuniq import (
    ClosedFormSignal,
    CounterexampleProduct,
    GridSignal,
    InvalidParameterError,
    QuadratureConfig,
    SamplingSet,
    SignalFamily,
    SpectrogramSamples,
    TaylorSeries,
    WindowModel,
    build_counterexample_product,
    canonical_product_eval,
    canonical_product_log_magnitudes,
    chirp_signal,
    classify_sequence,
    counterexample_eval,
    counterexample_growth_coefficient,
    counterexample_log_magnitudes,
    density_index,
    discriminate,
    estimate_growth,
    gaussian_signal,
    generate_sampling_set,
    grid_signal,
    hermite_signal,
    make_generalized_gaussian,
    max_tau_bounds,
    moment_integral,
    moyal_energy_check,
    nonuniqueness_threshold,
    predicted_growth,
    resample_bandlimited,
    spectrogram_on_set,
    stft_eval,
    taylor_coefficients,
    time_window_closed_form,
    time_window_values,
    uniqueness_threshold,
    zero_count_bound,
)
from stftuniq.cli import parse_sequence_expr
from stftuniq.quadrature import decay_truncation_radius

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

GAUSS = make_generalized_gaussian(3.0, 2.0)
OFF = make_generalized_gaussian(2.0, 1.5)
LAM = 1.5 * np.sqrt(np.arange(1.0, 40.0))
SERIES = taylor_coefficients(GAUSS, 40)
GRID = grid_signal(np.exp(-np.linspace(-4.0, 4.0, 33) ** 2), -4.0, 0.25)
POINT = [[0.25, 0.5]]

# (id, the name the message gives, the call with the parameter set to v, a valid v)
REALS = [
    ("WindowModel-a", "decay rate a", lambda v: WindowModel(v, 2.0), 3.0),
    ("WindowModel-m", "decay exponent m", lambda v: WindowModel(3.0, v), 2.0),
    ("make_generalized_gaussian-a", "decay rate a", lambda v: make_generalized_gaussian(v, 2.0), 3.0),
    ("make_generalized_gaussian-m", "decay exponent m", lambda v: make_generalized_gaussian(3.0, v), 1.5),
    # 2^-10, about 1e-3, is exact in float32, as the numpy-real comparison needs
    ("QuadratureConfig-tol", "quadrature tol", lambda v: QuadratureConfig(tol=v), 2.0**-10),
    ("decay_truncation_radius-a", "decay rate a", lambda v: decay_truncation_radius(v, 2.0), 3.0),
    ("decay_truncation_radius-m", "decay exponent m", lambda v: decay_truncation_radius(3.0, v), 1.0),
    ("max_tau_bounds-m", "decay exponent m", lambda v: max_tau_bounds(v, 3.0), 2.0),
    ("max_tau_bounds-a", "decay rate a", lambda v: max_tau_bounds(2.0, v), 3.0),
    ("SamplingSet-m", "decay exponent m", lambda v: SamplingSet(v, 0.25, 0.25, 3), 2.0),
    ("SamplingSet-tau1", "tau1", lambda v: SamplingSet(2.0, v, 0.25, 3), 0.25),
    ("SamplingSet-tau2", "tau2", lambda v: SamplingSet(2.0, 0.25, v, 3), 0.25),
    ("generate_sampling_set-m", "decay exponent m", lambda v: generate_sampling_set(v, 0.25, 0.25, 3, a=3.0), 2.0),
    ("generate_sampling_set-tau1", "tau1", lambda v: generate_sampling_set(2.0, v, 0.25, 3, a=3.0), 0.25),
    ("generate_sampling_set-tau2", "tau2", lambda v: generate_sampling_set(2.0, 0.25, v, 3, a=3.0), 0.25),
    ("generate_sampling_set-a", "decay rate a", lambda v: generate_sampling_set(2.0, 0.25, 0.25, 3, a=v), 3.0),
    ("uniqueness_threshold-rho", "order rho", lambda v: uniqueness_threshold(v, 3.0), 2.0),
    ("uniqueness_threshold-b", "type b", lambda v: uniqueness_threshold(2.0, v), 3.0),
    ("nonuniqueness_threshold-rho", "order rho", lambda v: nonuniqueness_threshold(v, 3.0), 3.0),
    ("nonuniqueness_threshold-b", "type b", lambda v: nonuniqueness_threshold(3.0, v), 3.0),
    ("density_index-rho", "order rho", lambda v: density_index(LAM, v), 2.0),
    ("classify_sequence-rho", "order rho", lambda v: classify_sequence(LAM, v, 3.0), 2.0),
    ("classify_sequence-b", "type b", lambda v: classify_sequence(LAM, 2.0, v), 3.0),
    ("moment_integral-a", "decay rate a", lambda v: moment_integral(4, v, 2.0), 3.0),
    ("moment_integral-m", "decay exponent m", lambda v: moment_integral(4, 3.0, v), 1.5),
    ("estimate_growth-rho", "order rho", lambda v: estimate_growth(SERIES, v), 2.0),
    ("predicted_growth-m", "decay exponent m", lambda v: predicted_growth(v, 3.0), 1.5),
    ("predicted_growth-a", "decay rate a", lambda v: predicted_growth(2.0, v), 3.0),
    ("zero_count_bound-r", "radius", lambda v: zero_count_bound(v, 2.0, 1.0, 1.0, 2.0), 4.0),
    ("zero_count_bound-s", "dilation s", lambda v: zero_count_bound(4.0, v, 1.0, 1.0, 2.0), 2.0),
    ("zero_count_bound-c_bound", "envelope constant", lambda v: zero_count_bound(4.0, 2.0, v, 1.0, 2.0), 1.0),
    ("zero_count_bound-b", "envelope coefficient", lambda v: zero_count_bound(4.0, 2.0, 1.0, v, 2.0), 1.0),
    ("zero_count_bound-rho", "envelope order", lambda v: zero_count_bound(4.0, 2.0, 1.0, 1.0, v), 2.0),
    ("CounterexampleProduct-rho", "order rho", lambda v: CounterexampleProduct(LAM, v), 3.0),
    ("build_counterexample_product-rho", "order rho", lambda v: build_counterexample_product(LAM, v), 3.0),
    ("counterexample_eval-rho", "order rho", lambda v: counterexample_eval(LAM, v, 0.5), 3.0),
    ("counterexample_log_magnitudes-rho", "order rho", lambda v: counterexample_log_magnitudes(LAM, v, [0.5]), 3.0),
    ("counterexample_growth_coefficient-rho", "order rho",
     lambda v: counterexample_growth_coefficient(LAM, v, (1.0, 2.0)), 2.0),
    ("counterexample_growth_coefficient-b", "type b",
     lambda v: counterexample_growth_coefficient(LAM, 2.0, (1.0, 2.0), b=v), 3.0),
    ("ClosedFormSignal-width", "width", lambda v: ClosedFormSignal(SignalFamily.GAUSSIAN, width=v), 2.0),
    ("ClosedFormSignal-center", "center", lambda v: ClosedFormSignal(SignalFamily.GAUSSIAN, center=v), 0.5),
    ("ClosedFormSignal-chirp_start", "chirp_start",
     lambda v: ClosedFormSignal(SignalFamily.GAUSSIAN, chirp_start=v), 0.5),
    ("ClosedFormSignal-chirp_rate", "chirp_rate",
     lambda v: ClosedFormSignal(SignalFamily.GAUSSIAN, chirp_rate=v), 0.5),
    ("gaussian_signal-width", "width", lambda v: gaussian_signal(width=v), 2.0),
    ("gaussian_signal-center", "center", lambda v: gaussian_signal(center=v), 0.5),
    ("hermite_signal-width", "width", lambda v: hermite_signal(2, width=v), 2.0),
    ("hermite_signal-center", "center", lambda v: hermite_signal(2, center=v), 0.5),
    ("chirp_signal-width", "width", lambda v: chirp_signal(width=v), 2.0),
    ("chirp_signal-center", "center", lambda v: chirp_signal(center=v), 0.5),
    ("chirp_signal-start_frequency", "chirp_start", lambda v: chirp_signal(start_frequency=v), 0.5),
    ("chirp_signal-chirp_rate", "chirp_rate", lambda v: chirp_signal(chirp_rate=v), 0.5),
    ("GridSignal-start", "grid start", lambda v: GridSignal(np.ones(4), v, 0.5), -1.0),
    ("GridSignal-step", "grid step", lambda v: GridSignal(np.ones(4), -1.0, v), 0.5),
    ("grid_signal-start", "grid start", lambda v: grid_signal(np.ones(4), v, 0.5), -1.0),
    ("grid_signal-step", "grid step", lambda v: grid_signal(np.ones(4), -1.0, v), 0.5),
    ("stft_eval-x", "x", lambda v: stft_eval(gaussian_signal(), GAUSS, v, 0.5), 0.25),
    ("stft_eval-omega", "omega", lambda v: stft_eval(gaussian_signal(), GAUSS, 0.25, v), 0.5),
    ("discriminate-tol", "tol", lambda v: discriminate(gaussian_signal(), gaussian_signal(), GAUSS, POINT, tol=v),
     0.5),
    ("discriminate-residual_tol", "residual_tol",
     lambda v: discriminate(gaussian_signal(), gaussian_signal(), GAUSS, POINT, residual_tol=v), 0.5),
]

COUNTS = [
    ("QuadratureConfig-nodes", "quadrature nodes", lambda v: QuadratureConfig(nodes=v), 128),
    ("SamplingSet-count", "count", lambda v: SamplingSet(2.0, 0.25, 0.25, v), 3),
    ("generate_sampling_set-count", "count", lambda v: generate_sampling_set(2.0, 0.25, 0.25, v, a=3.0), 3),
    ("moment_integral-n", "moment index", lambda v: moment_integral(v, 3.0, 2.0), 4),
    ("taylor_coefficients-n_terms", "n_terms", lambda v: taylor_coefficients(GAUSS, v), 40),
    ("counterexample_growth_coefficient-n_theta", "n_theta",
     lambda v: counterexample_growth_coefficient(LAM, 2.0, (1.0, 2.0), n_theta=v), 16),
    ("ClosedFormSignal-hermite_index", "hermite_index",
     lambda v: ClosedFormSignal(SignalFamily.HERMITE, hermite_index=v), 3),
    ("hermite_signal-index", "hermite_index", lambda v: hermite_signal(v), 3),
    ("parse_sequence_expr-count", "term count", lambda v: parse_sequence_expr("k", v), 20),
]

PRODUCT = CounterexampleProduct(LAM, 3.0)
COMPLEXES = [
    ("ClosedFormSignal-amplitude", "amplitude",
     lambda v: ClosedFormSignal(SignalFamily.GAUSSIAN, amplitude=v), 0.5 - 0.25j),
    ("gaussian_signal-amplitude", "amplitude", lambda v: gaussian_signal(amplitude=v), 0.5 - 0.25j),
    ("hermite_signal-amplitude", "amplitude", lambda v: hermite_signal(2, amplitude=v), 0.5 - 0.25j),
    ("chirp_signal-amplitude", "amplitude", lambda v: chirp_signal(amplitude=v), 0.5 - 0.25j),
    ("canonical_product_eval-z", "evaluation points", lambda v: canonical_product_eval(PRODUCT, v), 0.5 + 0.25j),
    ("counterexample_eval-z", "evaluation points", lambda v: counterexample_eval(LAM, 3.0, v), 0.5 + 0.25j),
]

# (id, the name the message gives, the call with the array set to v, a valid v, whether NaN raises)
ARRAYS = [
    ("fourier_eval-xi", "frequencies", lambda v: GAUSS.fourier_eval(v), [0.0, 0.5], False),
    ("time_window_closed_form-t", "times", lambda v: time_window_closed_form(GAUSS)(v), [0.0, 0.5], False),
    ("time_window_values-ts", "times", lambda v: time_window_values(OFF, v), [0.0, 0.5], True),
    ("time_window_values-shifts", "shifts", lambda v: time_window_values(OFF, [0.0], shifts=v), [0.0, 0.5], True),
    ("density_index-lambdas", "sequence entries", lambda v: density_index(v, 2.0), LAM, True),
    ("classify_sequence-lambdas", "sequence entries", lambda v: classify_sequence(v, 2.0, 3.0), LAM, True),
    ("TaylorSeries-log_magnitudes", "log magnitudes", lambda v: TaylorSeries(v), SERIES.log_magnitudes, True),
    ("CounterexampleProduct-lambdas", "sequence entries",
     lambda v: canonical_product_eval(CounterexampleProduct(v, 3.0), 0.5), LAM, True),
    ("counterexample_eval-lambdas", "sequence entries", lambda v: counterexample_eval(v, 3.0, 0.5), LAM, True),
    ("counterexample_log_magnitudes-lambdas", "sequence entries",
     lambda v: counterexample_log_magnitudes(v, 3.0, [0.5]), LAM, True),
    ("counterexample_growth_coefficient-lambdas", "sequence entries",
     lambda v: counterexample_growth_coefficient(v, 2.0, (1.0, 2.0)), LAM, True),
    ("counterexample_growth_coefficient-radii", "radii",
     lambda v: counterexample_growth_coefficient(LAM, 2.0, v), [1.0, 2.0], True),
    ("ClosedFormSignal.evaluate-t", "times", lambda v: gaussian_signal().evaluate(v), [0.0, 0.5], False),
    ("resample_bandlimited-new_times", "times", lambda v: resample_bandlimited(GRID, v), [0.0, 0.5], False),
    ("SpectrogramSamples-points", "points", lambda v: SpectrogramSamples(np.reshape(v, (-1, 2)), [1.0]),
     POINT, False),
    ("SpectrogramSamples-magnitudes", "magnitudes", lambda v: SpectrogramSamples(POINT, v), [1.0], False),
    ("spectrogram_on_set-points", "points", lambda v: spectrogram_on_set(gaussian_signal(), GAUSS, v), POINT, True),
    ("discriminate-points", "points",
     lambda v: discriminate(gaussian_signal(), gaussian_signal(), GAUSS, v), POINT, True),
    ("moyal_energy_check-x_grid", "x_grid",
     lambda v: moyal_energy_check(gaussian_signal(), GAUSS, v, np.linspace(-1.0, 1.0, 5)), np.linspace(-1.0, 1.0, 5),
     True),
    ("moyal_energy_check-omega_grid", "omega_grid",
     lambda v: moyal_energy_check(gaussian_signal(), GAUSS, np.linspace(-1.0, 1.0, 5), v), np.linspace(-1.0, 1.0, 5),
     True),
]


COMPLEX_ARRAYS = [
    ("GridSignal-values", "grid samples", lambda v: GridSignal(v, -1.0, 0.5), [1.0, 0.5j]),
    ("grid_signal-values", "grid samples", lambda v: grid_signal(v, -1.0, 0.5), [1.0, 0.5j]),
    ("canonical_product_log_magnitudes-zs", "evaluation points",
     lambda v: canonical_product_log_magnitudes(PRODUCT, v), [0.5, 0.25j]),
    ("counterexample_log_magnitudes-zs", "evaluation points",
     lambda v: counterexample_log_magnitudes(LAM, 3.0, v), [0.5, 0.25j]),
]


def _ids(table):
    return [row[0] for row in table]


def _same(got, want) -> bool:
    """Equal values of equal types, field by field through dataclasses and tuples, NaN equal to NaN."""
    if type(got) is not type(want):
        return False
    if dataclasses.is_dataclass(got):
        return all(_same(getattr(got, f.name), getattr(want, f.name)) for f in dataclasses.fields(got))
    if isinstance(got, tuple):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    if isinstance(got, (np.ndarray, float, complex)):
        return bool(np.array_equal(got, want, equal_nan=True))
    return got == want


@pytest.mark.parametrize("bad", [True, "2", 2 + 0j, math.nan, math.inf], ids=["bool", "str", "complex", "nan", "inf"])
@pytest.mark.parametrize("name, call, good", [row[1:] for row in REALS + COUNTS], ids=_ids(REALS + COUNTS))
def test_scalar_rule(name, call, good, bad):
    call(good)
    with pytest.raises(InvalidParameterError, match=f"^{name} must be "):
        call(bad)


@pytest.mark.parametrize("name, call, good", [row[1:] for row in COUNTS], ids=_ids(COUNTS))
def test_counts_reject_whole_floats(name, call, good):
    with pytest.raises(InvalidParameterError, match=f"^{name} must be an integer"):
        call(float(good))


@pytest.mark.parametrize("name, call, good", [row[1:] for row in REALS], ids=_ids(REALS))
def test_numpy_reals_give_the_python_result(name, call, good):
    assert _same(call(np.float32(good)), call(good))
    if float(good).is_integer():
        assert _same(call(np.int64(good)), call(float(good)))


@pytest.mark.parametrize("name, call, good", [row[1:] for row in COUNTS], ids=_ids(COUNTS))
def test_numpy_counts_give_the_python_result(name, call, good):
    assert _same(call(np.int64(good)), call(good))


@pytest.mark.parametrize("bad", [np.array([True, False]), np.array(["1", "2"]), np.array([1.0 + 0.5j, 2.0]),
                                 np.array([1.0, None])], ids=["bool", "str", "complex", "object"])
@pytest.mark.parametrize("name, call, good", [row[1:4] for row in ARRAYS], ids=_ids(ARRAYS))
def test_array_dtype_rule(name, call, good, bad):
    call(good)
    with pytest.raises(InvalidParameterError, match=f"{name} must be real numbers, got dtype {bad.dtype}"):
        call(bad)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name, call, good", [row[1:4] for row in ARRAYS if row[4]],
                         ids=_ids([row for row in ARRAYS if row[4]]))
def test_array_finiteness(name, call, good, value):
    bad = np.array(good, dtype=float)
    bad.flat[-1] = value
    with pytest.raises(InvalidParameterError, match=name):
        call(bad)


@pytest.mark.parametrize("call", [
    lambda rho: CounterexampleProduct(LAM, rho),
    lambda rho: counterexample_growth_coefficient(LAM, rho),
    lambda rho: density_index(LAM, rho),
    lambda rho: classify_sequence(LAM, rho, 3.0),
    lambda rho: uniqueness_threshold(rho, 3.0),
], ids=["CounterexampleProduct", "counterexample_growth_coefficient", "density_index", "classify_sequence",
        "uniqueness_threshold"])
def test_rho_has_one_message(call):
    for bad in (0.5, "3", math.nan):
        with pytest.raises(InvalidParameterError) as info:
            call(bad)
        assert str(info.value) == f"order rho must be a finite real > 1, got {bad!r}"


@pytest.mark.parametrize("bad", [True, "1", math.nan, complex(0.5, math.inf)], ids=["bool", "str", "nan", "inf"])
@pytest.mark.parametrize("name, call, good", [row[1:] for row in COMPLEXES], ids=_ids(COMPLEXES))
def test_complex_rule(name, call, good, bad):
    call(good)
    with pytest.raises(InvalidParameterError, match=f"^{name} must be finite and complex, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("name, call, good", [row[1:] for row in COMPLEXES], ids=_ids(COMPLEXES))
def test_numpy_complexes_give_the_python_result(name, call, good):
    assert _same(call(np.complex128(good)), call(good))
    assert _same(call(np.float64(good.real)), call(good.real))


@pytest.mark.parametrize("bad", [np.array([True, False]), np.array(["1", "2"]), np.array([1.0, None])],
                         ids=["bool", "str", "object"])
@pytest.mark.parametrize("name, call, good", [row[1:] for row in COMPLEX_ARRAYS], ids=_ids(COMPLEX_ARRAYS))
def test_complex_array_dtype_rule(name, call, good, bad):
    call(good)
    call(np.array(good).real)
    with pytest.raises(InvalidParameterError, match=f"^{name} must be numbers, got dtype {bad.dtype}"):
        call(bad)


@pytest.mark.parametrize("value", [math.nan, complex(0.0, math.inf)])
@pytest.mark.parametrize("name, call, good", [row[1:] for row in COMPLEX_ARRAYS], ids=_ids(COMPLEX_ARRAYS))
def test_complex_array_finiteness(name, call, good, value):
    bad = np.array(good, dtype=complex)
    bad[-1] = value
    with pytest.raises(InvalidParameterError, match=f"^{name} must be finite"):
        call(bad)


# SpectrogramSamples-points reshapes its array before the call
@pytest.mark.parametrize("name, call", [row[1:3] for row in ARRAYS + COMPLEX_ARRAYS
                                        if row[0] != "SpectrogramSamples-points"],
                         ids=_ids([row for row in ARRAYS + COMPLEX_ARRAYS if row[0] != "SpectrogramSamples-points"]))
def test_ragged_lists_are_no_array(name, call):
    with pytest.raises(InvalidParameterError, match=f"{name} must form a rectangular array"):
        call([[1.0, 2.0], [3.0]])
