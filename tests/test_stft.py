"""Transform evaluation, discrimination, phase alignment, and the extension."""

import cmath
import io
import math
import tracemalloc

import numpy as np
import pytest

from stftuniq import (
    DiscriminationVerdict,
    EvaluationOverflowError,
    InvalidParameterError,
    QuadratureConfig,
    QuadratureConvergenceError,
    SpectrogramSamples,
    ZeroNormError,
    chirp_signal,
    discriminate,
    extend_stft,
    gaussian_signal,
    generate_sampling_set,
    global_phase_residual,
    grid_signal,
    hermite_signal,
    make_generalized_gaussian,
    max_tau_bounds,
    moyal_energy_check,
    spectrogram_on_set,
    stft_eval,
    window_l2_norm,
)
import stftuniq.stft as stft
from stftuniq.stft import resample_bandlimited


@pytest.fixture(scope="module")
def gauss_window():
    return make_generalized_gaussian(math.pi, 2.0)


# ------------------------------------------------------------- signals

def test_signal_norms():
    assert gaussian_signal().norm() == 2.0**-0.25
    assert hermite_signal(3).norm() == 1.0
    assert chirp_signal(chirp_rate=4.0).norm() == gaussian_signal().norm()
    amp = 2.0 * cmath.exp(1j * 0.4)
    assert math.isclose(gaussian_signal(width=1.5, amplitude=amp).norm(),
                        2.0 * math.sqrt(1.5) * 2.0**-0.25, rel_tol=1e-14)


def test_grid_norm_matches_closed_form():
    ts = np.arange(-512, 513) / 64.0
    f = gaussian_signal(width=1.2, center=0.3)
    gf = grid_signal(f.evaluate(ts), -8.0, 1 / 64.0)
    assert abs(gf.norm() - f.norm()) / f.norm() < 1e-9


def test_hermite_orthonormality():
    ts = np.arange(-768, 769) / 64.0
    vals = [hermite_signal(k).evaluate(ts) for k in range(4)]
    for j in range(4):
        for k in range(4):
            inner = np.trapezoid(vals[j] * np.conj(vals[k]), dx=1 / 64.0)
            want = 1.0 if j == k else 0.0
            assert abs(inner - want) < 1e-10


def test_hermite_functions_match_closed_forms():
    width, center = 1.3, 0.4
    ts = np.linspace(-6.0, 7.0, 101)
    u = (ts - center) / width
    h0 = math.pi**-0.25 * np.exp(-0.5 * u * u) / math.sqrt(width)
    want = [h0, math.sqrt(2.0) * u * h0, (2 * u**2 - 1) / math.sqrt(2.0) * h0,
            (2 * u**3 - 3 * u) / math.sqrt(3.0) * h0]
    for k, w in enumerate(want):
        got = hermite_signal(k, width=width, center=center).evaluate(ts)
        np.testing.assert_allclose(got, w, rtol=1e-14, atol=1e-15)


def test_high_order_hermite_is_normalised_and_finite():
    ts = np.arange(-2560, 2561) / 64.0
    g = grid_signal(hermite_signal(150).evaluate(ts), float(ts[0]), 1 / 64.0)
    assert abs(g.norm() - 1.0) < 1e-12
    # far past the turning point H_150(u) alone overflows; the function is tiny, not NaN
    far = hermite_signal(150).evaluate(np.array([30.0, 60.0, 100.0]))
    assert np.all(np.isfinite(far)) and np.all(np.abs(far) < 1e-80)


def test_signal_validation():
    with pytest.raises(InvalidParameterError):
        gaussian_signal(width=0.0)
    with pytest.raises(InvalidParameterError):
        hermite_signal(-1)
    with pytest.raises(InvalidParameterError):
        grid_signal(np.array([1.0]), 0.0, 0.1)
    with pytest.raises(InvalidParameterError):
        grid_signal(np.ones(4), 0.0, -0.1)


def test_width_needs_a_finite_envelope_rate_and_support_radius():
    # the rate is pi/width^2 for the Gaussian families and 0.5/width^2 for Hermite;
    # at width 1e-154 the Hermite rate is finite but the radius is not
    for width in (1e-200, 1e-154, 1e200, math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="width must be"):
            gaussian_signal(width=width)
        with pytest.raises(InvalidParameterError, match="width must be"):
            hermite_signal(2, width=width)
    assert math.isfinite(hermite_signal(2, width=1e-150).support_radius())


@pytest.mark.parametrize("center", [1e6, 1e12, 1e17, 1e250])
def test_far_centred_signal_keeps_its_transform(center):
    # in centred time the window sits at x - c = 0 whatever c is, so |V| is the c = 0 value
    window = make_generalized_gaussian(3.0, 2.0)
    want = abs(stft_eval(gaussian_signal(1.0), window, 0.0, 0.7))
    got = abs(stft_eval(gaussian_signal(1.0, center), window, center, 0.7))
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.filterwarnings("error")
def test_window_far_from_the_signal_is_a_quiet_zero():
    # rate * t^2 overflows for t near 1e300; e^-inf = 0 is exact and must not warn
    assert stft_eval(gaussian_signal(1.0, 1e300), make_generalized_gaussian(3.0, 2.0), 0.3, 0.5) == 0


def test_far_centre_off_the_real_axis_overflows_with_a_typed_error():
    # |V| carries e^(-2 pi Im(z') c) = e^(400 pi) here, beyond the float range
    window = make_generalized_gaussian(3.0, 2.0)
    with pytest.raises(EvaluationOverflowError, match="leaves the float range"):
        extend_stft(gaussian_signal(1.0, 100.0), window, 100.2 + 0.1j, 0.5 - 2.0j)
    # at Im(z') = +2 the same factor underflows, and the value is a plain 0
    assert extend_stft(gaussian_signal(1.0, 100.0), window, 100.2 + 0.1j, 0.5 + 2.0j) == 0


def test_amplitude_must_be_finite_with_a_finite_peak():
    for amp in (math.nan, math.inf, complex(1.0, math.nan), complex(1.5e308, 1.5e308)):
        with pytest.raises(InvalidParameterError, match="amplitude must be finite"):
            gaussian_signal(amplitude=amp)
    # a Hermite signal peaks at most pi^{-1/4} / sqrt(width), 7.5e4 at width 1e-10
    with pytest.raises(InvalidParameterError, match="amplitude must be finite"):
        hermite_signal(0, width=1e-10, amplitude=1.7e308)
    assert hermite_signal(0, amplitude=1.7e308).amplitude == 1.7e308
    assert gaussian_signal(amplitude=1e308).amplitude == 1e308


def test_resample_bandlimited():
    ts = np.arange(-128, 129) / 16.0
    sig = grid_signal(np.exp(-math.pi * ts**2).astype(complex), -8.0, 1 / 16.0)
    new = np.linspace(-3.0, 3.0, 41)
    vals = resample_bandlimited(sig, new)
    assert np.max(np.abs(vals - np.exp(-math.pi * new**2))) < 1e-10


# ------------------------------------------------------------ transform

def test_gaussian_pair_reference_values(gauss_window):
    f = gaussian_signal()
    v0 = stft_eval(f, gauss_window, 0.0, 0.0)
    assert abs(v0 - 2.0**-0.5) < 1e-9
    v1 = stft_eval(f, gauss_window, 1.0, 0.0)
    assert abs(abs(v1) - 0.14699305810781044) / 0.14699305810781044 < 1e-9


def test_gaussian_pair_closed_form_grid(gauss_window):
    # |V(x, omega)| = 2^{-1/2} e^{-pi (x^2 + omega^2) / 2} for the matched pair
    f = gaussian_signal()
    xs = np.linspace(-1.5, 1.5, 7)
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    got = spectrogram_on_set(f, gauss_window, pts).magnitudes
    want = 2.0**-0.5 * np.exp(-0.5 * math.pi * (pts[:, 0] ** 2 + pts[:, 1] ** 2))
    assert np.max(np.abs(got - want) / want) < 1e-8


def test_grid_signal_path_matches_closed_form(gauss_window):
    ts = np.arange(-384, 385) / 64.0
    f = gaussian_signal()
    gf = grid_signal(f.evaluate(ts), -6.0, 1 / 64.0)
    for x, om in ((0.3, 0.4), (1.0, -0.2), (0.0, 0.0)):
        a = stft_eval(f, gauss_window, x, om)
        b = stft_eval(gf, gauss_window, x, om)
        assert abs(a - b) / abs(a) < 1e-8


def test_global_phase_invariance(gauss_window):
    f = gaussian_signal()
    rotated = gaussian_signal(amplitude=cmath.exp(1.3j))
    pts = np.array([[0.0, 0.0], [0.7, -0.4], [1.2, 0.9]])
    sa = spectrogram_on_set(f, gauss_window, pts).magnitudes
    sb = spectrogram_on_set(rotated, gauss_window, pts).magnitudes
    assert np.max(np.abs(sa - sb)) < 1e-12 * sa.max()


def test_shift_covariance(gauss_window):
    mu = 0.6
    f = gaussian_signal()
    shifted = gaussian_signal(center=mu)
    v_shift = stft_eval(shifted, gauss_window, 1.0, 0.8)
    v_base = stft_eval(f, gauss_window, 1.0 - mu, 0.8)
    # time shift: magnitude slides, phase picks up e^{-2 pi i omega mu}
    assert abs(abs(v_shift) - abs(v_base)) / abs(v_base) < 1e-9
    want = cmath.exp(-2j * math.pi * 0.8 * mu) * v_base
    assert abs(v_shift - want) / abs(v_base) < 1e-9


def test_window_l2_norm_closed_value(gauss_window):
    assert math.isclose(window_l2_norm(gauss_window), 2.0**-0.25, rel_tol=1e-13)


def test_quadrature_failure_propagates(gauss_window):
    # a violent chirp is unresolvable with 64 nodes and four doublings
    c = chirp_signal(chirp_rate=60.0)
    with pytest.raises(QuadratureConvergenceError):
        stft_eval(c, gauss_window, 0.0, 0.0, QuadratureConfig(nodes=64))


def _fourier_side_magnitude(fhat, a, m, x, w):
    """|int fhat(w + eta) e^{-a |eta|^m} e^{2 pi i eta x} d eta| by scipy, split at the kink eta = 0."""
    from scipy.integrate import quad as scipy_quad

    reach = (45.0 / a) ** (1.0 / m)

    def part(lo, hi, take):
        return scipy_quad(lambda eta: take(fhat(w + eta) * math.exp(-a * abs(eta) ** m)
                                           * cmath.exp(2j * math.pi * eta * x)),
                          lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]

    return abs(sum(complex(part(lo, hi, lambda v: v.real), part(lo, hi, lambda v: v.imag))
                   for lo, hi in ((-reach, 0.0), (0.0, reach))))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_modulated_window_at_non_even_m():
    # the window g0 modulated to xi0 gives |V_g f(x, w)| = |V_g0 f(x, w + xi0)|, so its
    # spectrogram is the plain m = 1.5 window's on the points shifted by xi0 in w, checked
    # here against the Fourier-side integral, whose |.|^m kink scipy splits at 0
    a, m, xi0 = 2.0, 1.5, 0.7
    width, center = 0.9, 0.3
    f = gaussian_signal(width, center)
    pts = np.array([[0.0, 0.0], [0.4, -0.5], [-0.8, 1.1], [1.3, 0.6]])
    quad = QuadratureConfig(nodes=256)
    got = spectrogram_on_set(f, make_generalized_gaussian(a, m), pts + [0.0, xi0], quad).magnitudes

    def fhat(xi):
        return width * cmath.exp(-math.pi * (width * xi) ** 2 - 2j * math.pi * xi * center)

    want = np.array([_fourier_side_magnitude(fhat, a, m, x, w + xi0) for x, w in pts])
    assert np.max(np.abs(got - want)) <= quad.tol * want.max()


def test_transform_is_taken_around_the_signal_centre(gauss_window):
    # a narrow bump far from 0: the panel sits on the bump, not on [-1000.2, 1000.2]
    far = spectrogram_on_set(gaussian_signal(width=0.01, center=1000.0), gauss_window, [[1000.0, 0.0]])
    near = spectrogram_on_set(gaussian_signal(width=0.01), gauss_window, [[0.0, 0.0]])
    assert abs(far.magnitudes[0] - near.magnitudes[0]) <= 1e-12
    # two Gaussians at rates pi/0.01^2 and pi: int e^{-pi (10^4 + 1) t^2} dt
    assert abs(near.magnitudes[0] - 1.0 / math.sqrt(10001.0)) <= 1e-12


def _traced(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transform_blocks_match_one_block(gauss_window, monkeypatch):
    f = chirp_signal(width=0.8, center=0.2, amplitude=1.0 + 0.5j, chirp_rate=0.3)
    bounds = max_tau_bounds(2.0, math.pi)
    four = generate_sampling_set(2.0, 0.9 * bounds.tau1_max, 0.9 * bounds.tau2_max, 300, a=math.pi).points
    grid = np.linspace(-3.0, 3.0, 49)
    product = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    for pts in (four, product):
        one, one_peak = _traced(lambda: spectrogram_on_set(f, gauss_window, pts).magnitudes)
        with monkeypatch.context() as patch:
            # 16 pairs a block at 1024 time nodes
            patch.setattr(stft, "_BLOCK", 1 << 14)
            blocked, blocked_peak = _traced(lambda: spectrogram_on_set(f, gauss_window, pts).magnitudes)
        assert np.max(np.abs(blocked - one)) <= 1e-15 * np.max(one)
        assert blocked_peak < one_peak / 2


# ------------------------------------------------------ spectrogram files

def test_spectrogram_csv_round_trip(gauss_window):
    f = gaussian_signal()
    pts = np.array([[0.0, 0.0], [0.5, -0.25], [1.0, 2.0]])
    samples = spectrogram_on_set(f, gauss_window, pts)
    assert samples.quad_config_id.startswith("gauss-legendre(")
    back = SpectrogramSamples.from_csv(samples.to_csv())
    assert np.array_equal(back.points, samples.points)
    assert np.array_equal(back.magnitudes, samples.magnitudes)
    assert back.quad_config_id == samples.quad_config_id
    with pytest.raises(InvalidParameterError):
        SpectrogramSamples.from_csv("x,omega,magnitude\n1.0,2.0\n")
    with pytest.raises(InvalidParameterError):
        SpectrogramSamples(points=np.zeros((2, 2)), magnitudes=np.zeros(3))


def test_spectrogram_csv_file_and_handle_round_trip(gauss_window, tmp_path):
    samples = spectrogram_on_set(gaussian_signal(), gauss_window, np.array([[0.0, 0.0], [0.5, -0.25]]))
    handle = io.StringIO()
    assert samples.to_csv(handle, extra_meta={"note": "x"}) is None
    handle.seek(0)
    back = SpectrogramSamples.from_csv(handle)
    assert np.array_equal(back.magnitudes, samples.magnitudes)
    assert back.quad_config_id == samples.quad_config_id
    path = tmp_path / "spec.csv"
    assert samples.to_csv(path) is None
    assert np.array_equal(SpectrogramSamples.from_csv(path).points, samples.points)


# ------------------------------------------------------- phase alignment

def test_phase_alignment_recovers_rotation():
    f = gaussian_signal()
    h = gaussian_signal(amplitude=cmath.exp(1j * math.pi / 3))
    alpha, residual = global_phase_residual(f, h)
    assert abs(alpha - (2.0 * math.pi - math.pi / 3)) < 1e-12
    assert residual < 1e-12


def test_phase_alignment_orthogonal_pair():
    # <f, h> = 0 pins alpha to 0 and the residual to sqrt(1 + ||h||^2/||f||^2)
    alpha, residual = global_phase_residual(gaussian_signal(), hermite_signal(1))
    assert alpha == 0.0
    want = math.sqrt(1.0 + math.sqrt(2.0))
    assert abs(residual - want) / want < 1e-9


@pytest.mark.parametrize("index", [1, 3, 5])
@pytest.mark.parametrize("amplitude", [1.0, -1j, 2.5, 0.3 + 0.4j])
def test_phase_alignment_rounding_level_inner_product(index, amplitude):
    # <f, h> is zero up to rounding; its angle is noise and must not become alpha
    alpha, residual = global_phase_residual(gaussian_signal(), hermite_signal(index, amplitude=amplitude))
    assert alpha == 0.0
    want = math.sqrt(1.0 + abs(amplitude) ** 2 * math.sqrt(2.0))
    assert abs(residual - want) / want < 1e-9


def test_phase_alignment_zero_norm():
    with pytest.raises(ZeroNormError):
        global_phase_residual(gaussian_signal(amplitude=0.0), gaussian_signal())
    with pytest.raises(ZeroNormError):
        global_phase_residual(gaussian_signal(), gaussian_signal(amplitude=0.0))


def test_phase_alignment_far_centre_needs_no_grid():
    far = gaussian_signal(center=1e5)
    alpha, residual = global_phase_residual(far, far)
    assert alpha == 0.0 and residual == 0.0


@pytest.mark.parametrize("width", [0.005, 0.01, 0.1, 1.0, 3.0])
def test_phase_alignment_residual_of_offset_gaussians(width):
    # equal widths w, centres d = 0.3 w apart: ||f - h||^2 / ||f||^2 = 2 - 2 e^{-pi d^2 / (2 w^2)}
    d = 0.3 * width
    alpha, residual = global_phase_residual(gaussian_signal(width), gaussian_signal(width, center=d))
    want = math.sqrt(2.0 - 2.0 * math.exp(-math.pi * d * d / (2.0 * width * width)))
    assert alpha == 0.0
    assert abs(residual - want) <= 1e-12 * want


@pytest.mark.parametrize("center", [4e4, 1e12, 1e300])
@pytest.mark.parametrize("phi", [0.4, 2.5, 5.9])
def test_phase_alignment_rotation_at_far_centres(center, phi):
    f = gaussian_signal(center=center, amplitude=0.8)
    h = gaussian_signal(center=center, amplitude=0.8 * cmath.exp(1j * phi))
    alpha, residual = global_phase_residual(f, h)
    assert abs(cmath.exp(1j * alpha) - cmath.exp(-1j * phi)) < 1e-12
    assert residual < 1e-12


def test_phase_alignment_disjoint_supports():
    # residual sqrt(1 + ||h||^2 / ||f||^2) from the exact norms, however far apart the centres
    alpha, residual = global_phase_residual(gaussian_signal(center=1e300), gaussian_signal(width=2.0))
    assert alpha == 0.0
    assert abs(residual - math.sqrt(3.0)) < 1e-15


def test_phase_alignment_that_cannot_converge_raises():
    # a chirp at rate 1000 oscillates faster than 4096 nodes per panel resolve
    with pytest.raises(QuadratureConvergenceError, match="phase alignment"):
        global_phase_residual(gaussian_signal(), chirp_signal(chirp_rate=1000.0))


def test_phase_alignment_takes_its_quadrature_settings():
    # from 64 nodes, a rate-30 chirp settles to 1e-3 but not to 1e-13 within four doublings
    f, h = gaussian_signal(), chirp_signal(chirp_rate=30.0)
    _, residual = global_phase_residual(f, h, QuadratureConfig(nodes=64, tol=1e-3))
    assert abs(residual - global_phase_residual(f, h)[1]) < 1e-3
    with pytest.raises(QuadratureConvergenceError, match="nodes 1024"):
        global_phase_residual(f, h, QuadratureConfig(nodes=64, tol=1e-13))


def test_phase_alignment_energy_overflow_is_typed():
    with pytest.raises(EvaluationOverflowError):
        global_phase_residual(gaussian_signal(amplitude=1e308), gaussian_signal())


# --------------------------------------------------------- discrimination

def _set16():
    from stftuniq import generate_sampling_set, max_tau_bounds
    bounds = max_tau_bounds(2.0, math.pi)
    return generate_sampling_set(2.0, 0.9 * bounds.tau1_max, 0.9 * bounds.tau2_max,
                                 16, a=math.pi)


def test_discriminate_equivalent_pair(gauss_window):
    f = gaussian_signal()
    h = gaussian_signal(amplitude=cmath.exp(0.7j))
    report = discriminate(f, h, gauss_window, _set16())
    assert report.verdict is DiscriminationVerdict.EQUIVALENT_UP_TO_PHASE
    assert report.spectrograms_match
    assert report.aligned_residual < 1e-9
    assert abs(report.alignment_phase - (2.0 * math.pi - 0.7)) < 1e-9
    d = report.to_json_dict()
    assert set(d) == {"max_dev", "match", "alpha", "residual", "verdict"}
    assert d["verdict"] == "EquivalentUpToPhase"


def test_discriminate_distinct_pair(gauss_window):
    report = discriminate(gaussian_signal(), gaussian_signal(center=0.7),
                          gauss_window, _set16())
    assert report.verdict is DiscriminationVerdict.DISTINCT
    assert not report.spectrograms_match


def test_discriminate_inconsistent_combination(gauss_window):
    # forcing the magnitude gate open while the signals stay misaligned
    # exercises the outside-the-guarantees verdict
    report = discriminate(gaussian_signal(), gaussian_signal(center=0.7),
                          gauss_window, _set16(), tol=1e6)
    assert report.verdict is DiscriminationVerdict.INCONSISTENT
    assert report.spectrograms_match and report.aligned_residual > 0.1


def test_discriminate_accepts_raw_points_and_validates(gauss_window):
    pts = np.array([[0.0, 0.0], [0.4, 0.2]])
    report = discriminate(gaussian_signal(), gaussian_signal(), gauss_window, pts)
    assert report.verdict is DiscriminationVerdict.EQUIVALENT_UP_TO_PHASE
    with pytest.raises(InvalidParameterError):
        discriminate(gaussian_signal(), gaussian_signal(), gauss_window, pts, tol=0.0)
    with pytest.raises(InvalidParameterError):
        discriminate(gaussian_signal(), gaussian_signal(), gauss_window, pts,
                     residual_tol=-1.0)


@pytest.mark.parametrize("pts, match", [
    (np.zeros((0, 2)), "at least one"),
    (np.array([[0.0, 0.0], [math.nan, 0.2]]), "finite"),
    (np.array([[0.0, math.inf]]), "finite"),
])
def test_points_must_be_nonempty_and_finite(gauss_window, pts, match):
    with pytest.raises(InvalidParameterError, match=match):
        discriminate(gaussian_signal(), gaussian_signal(), gauss_window, pts)
    with pytest.raises(InvalidParameterError, match=match):
        spectrogram_on_set(gaussian_signal(), gauss_window, pts)


# ------------------------------------------------------- energy identity

def test_moyal_ladder_converges(gauss_window):
    f = gaussian_signal()
    devs = []
    for h in (1.0, 0.5, 0.25):
        grid = np.arange(-4.0, 4.0 + h / 2, h)
        devs.append(moyal_energy_check(f, gauss_window, grid, grid))
    assert devs[1] < devs[0]
    assert devs[2] < 1e-9


@pytest.mark.parametrize("m", [2.0, 1.5])
def test_moyal_energy_matches_spectrogram_on_the_product_points(m):
    window = make_generalized_gaussian(math.pi, m)
    f = gaussian_signal(width=0.9, center=0.3)
    grid = np.linspace(-4.0, 4.0, 17)
    pts = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    mags = spectrogram_on_set(f, window, pts).magnitudes
    reference = (f.norm() * window_l2_norm(window)) ** 2
    energy = float(np.sum(mags**2)) * 0.5 * 0.5
    assert abs(moyal_energy_check(f, window, grid, grid) - abs(energy - reference) / reference) <= 1e-12


def test_moyal_requires_uniform_grids(gauss_window):
    bad = np.array([-1.0, 0.0, 0.5])
    good = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(InvalidParameterError):
        moyal_energy_check(gaussian_signal(), gauss_window, bad, good)
    with pytest.raises(InvalidParameterError):
        moyal_energy_check(gaussian_signal(), gauss_window, good, bad)


# --------------------------------------------------------------- extension

def test_extension_reduces_to_transform_on_real_arguments(gauss_window):
    f = gaussian_signal()
    for window in (gauss_window, make_generalized_gaussian(2.0, 1.5)):
        for x, om in ((0.7, -0.3), (1.2, 0.5), (0.0, 1.0)):
            ve = extend_stft(f, window, x, om)
            vs = stft_eval(f, window, x, -om)
            assert abs(ve - vs) / abs(vs) < 1e-10


def test_extension_growth_along_imaginary_time(gauss_window):
    # matched Gaussian pair: log |ext(iy, 0)| = pi y^2 / 2 - log(2)/2
    f = gaussian_signal()
    for y in (0.5, 1.0, 2.0):
        val = extend_stft(f, gauss_window, 1j * y, 0.0)
        want = 0.5 * math.pi * y * y - 0.5 * math.log(2.0)
        assert abs(math.log(abs(val)) - want) < 1e-8
        # and stays below the order-2 envelope
        assert math.log(abs(val)) <= math.pi * y * y


def test_extension_is_quadratic_in_imaginary_frequency(gauss_window):
    f = gaussian_signal()
    logs = [math.log(abs(extend_stft(f, gauss_window, 0.0, 1j * y)))
            for y in (0.0, 1.0, 2.0)]
    ratio = (logs[2] - logs[0]) / (logs[1] - logs[0])
    assert abs(ratio - 4.0) < 1e-6


def test_extension_grid_edge_warning(gauss_window):
    ts = np.arange(-64, 65) / 32.0
    gf = grid_signal(np.exp(-math.pi * ts**2), -2.0, 1 / 32.0)
    with pytest.warns(RuntimeWarning, match="grid edge") as record:
        extend_stft(gf, gauss_window, 0.0, 2j)
    assert record[0].filename == __file__


def test_extension_quadrature_failure(gauss_window):
    c = chirp_signal(chirp_rate=60.0)
    with pytest.raises(QuadratureConvergenceError):
        extend_stft(c, gauss_window, 0.3, 0.2, QuadratureConfig(nodes=64))
