"""Transform evaluation, discrimination and phase alignment."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from stftuniq import (
    ClosedFormSignal,
    DiscriminationVerdict,
    EvaluationOverflowError,
    InvalidParameterError,
    QuadratureConfig,
    QuadratureConvergenceError,
    SignalFamily,
    SpectrogramSamples,
    ZeroNormError,
    chirp_signal,
    discriminate,
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
    time_window_values,
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


def test_the_chirp_is_the_gaussian_atom():
    assert [family.value for family in SignalFamily] == ["gaussian", "hermite"]
    assert chirp_signal(1.5, 0.3, 0.5j) == gaussian_signal(1.5, 0.3, 0.5j)
    # f0 and rate enter the Gaussian atom's formula
    atom = ClosedFormSignal(SignalFamily.GAUSSIAN, chirp_start=1.0, chirp_rate=5.0)
    assert atom == chirp_signal(start_frequency=1.0, chirp_rate=5.0)
    s = np.linspace(-2.0, 2.0, 41)
    want = np.exp(-math.pi * s * s + 2j * math.pi * (s + 2.5 * s * s))
    np.testing.assert_allclose(atom.evaluate(s), want, rtol=1e-13, atol=1e-15)


def test_gaussian_values_are_the_real_envelope_bits():
    # at f0 = rate = 0 the phase factor is exactly 1
    s = np.linspace(-5.0, 5.0, 1001)
    u = s / 1.3
    want = (0.7 - 0.2j) * np.exp(-math.pi * u * u).astype(complex)
    assert np.array_equal(gaussian_signal(1.3, 0.0, 0.7 - 0.2j).evaluate(s), want)


@pytest.mark.parametrize("family, fields", [
    (SignalFamily.GAUSSIAN, dict(hermite_index=2)),
    (SignalFamily.HERMITE, dict(hermite_index=2, chirp_rate=5.0)),
    (SignalFamily.HERMITE, dict(chirp_start=1.0)),
], ids=["gaussian-index", "hermite-rate", "hermite-f0"])
def test_an_atom_rejects_a_field_its_formula_ignores(family, fields):
    with pytest.raises(InvalidParameterError, match=f"^a {family.value} atom takes no "):
        ClosedFormSignal(family, **fields)


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


def test_far_centre_phase_past_the_float_range_is_a_typed_error():
    # V carries e^(-2 pi i omega c), whose phase pi c overflows to -inf at c = 1.7e308: not a silent NaN
    window = make_generalized_gaussian(3.0, 2.0)
    with pytest.raises(EvaluationOverflowError, match="leaves the float range"):
        stft_eval(gaussian_signal(1.0, 1.7e308), window, 1.7e308, 0.5)


def test_amplitude_must_be_finite_with_a_finite_peak():
    for amp in (math.nan, math.inf, complex(1.0, math.nan), complex(1.5e308, 1.5e308)):
        with pytest.raises(InvalidParameterError, match="amplitude must be finite"):
            gaussian_signal(amplitude=amp)
    # a Hermite signal peaks at most pi^{-1/4} / sqrt(width), 7.5e4 at width 1e-10
    with pytest.raises(InvalidParameterError, match="amplitude must be finite"):
        hermite_signal(0, width=1e-10, amplitude=1.7e308)
    assert hermite_signal(0, amplitude=1.7e308).amplitude == 1.7e308
    assert gaussian_signal(amplitude=1e308).amplitude == 1e308


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, -math.inf), complex(math.nan, 1.0)])
def test_grid_samples_must_be_finite(bad):
    # a NaN sample used to build, and then surfaced as a far-centre phase overflow, a NaN
    # norm or an energy overflow in the phase alignment
    with pytest.raises(InvalidParameterError, match="grid samples must be finite"):
        grid_signal([0.0, bad, 1.0, 0.0], -1.5, 1.0)


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
    samples = spectrogram_on_set(f, gauss_window, pts)
    assert np.array_equal(samples.points, pts)
    want = 2.0**-0.5 * np.exp(-0.5 * math.pi * (pts[:, 0] ** 2 + pts[:, 1] ** 2))
    assert np.max(np.abs(samples.magnitudes - want) / want) < 1e-8
    with pytest.raises(InvalidParameterError, match="align"):
        SpectrogramSamples(points=np.zeros((2, 2)), magnitudes=np.zeros(3))


def test_grid_signal_path_matches_closed_form(gauss_window):
    ts = np.arange(-384, 385) / 64.0
    f = gaussian_signal()
    gf = grid_signal(f.evaluate(ts), -6.0, 1 / 64.0)
    for x, om in ((0.3, 0.4), (1.0, -0.2), (0.0, 0.0)):
        a = stft_eval(f, gauss_window, x, om)
        b = stft_eval(gf, gauss_window, x, om)
        assert abs(a - b) / abs(a) < 1e-8


def test_far_grid_signal_matches_the_grid_at_the_origin():
    # the same samples on a grid 1e5 away: a window or kernel angle taken at the raw times
    # t ~ 1e5 rounds to |2 pi xi t| eps, about 1e-10 of max|g| at m = 1.5; centred times do not
    window = make_generalized_gaussian(2.0, 1.5)
    s = np.arange(-96, 97) / 32.0
    vals = np.exp(-math.pi * s**2 + 1j * math.pi * 0.4 * s**2)
    # dyadic steps and offsets, so both grids centre their points exactly
    offsets = np.array([[-1.5, -0.5], [-0.25, 0.0], [0.0, 0.375], [0.75, 1.0], [2.0, -0.75]])
    near = spectrogram_on_set(grid_signal(vals, -3.0, 1 / 32.0), window, offsets).magnitudes
    far_pts = offsets + np.array([1e5, 0.0])
    far = spectrogram_on_set(grid_signal(vals, 1e5 - 3.0, 1 / 32.0), window, far_pts).magnitudes
    assert np.max(np.abs(far - near)) <= 1e-14 * np.max(near)


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


def test_transform_blocks_match_one_block(monkeypatch):
    _blocks_match_one_block(2.0, monkeypatch)


def test_transform_blocks_match_one_block_off_gaussian(monkeypatch):
    _blocks_match_one_block(1.5, monkeypatch)


def _blocks_match_one_block(m, monkeypatch):
    window = make_generalized_gaussian(math.pi, m)
    f = chirp_signal(width=0.8, center=0.2, amplitude=1.0 + 0.5j, chirp_rate=0.3)
    bounds = max_tau_bounds(m, math.pi)
    four = generate_sampling_set(m, 0.9 * bounds.tau1_max, 0.9 * bounds.tau2_max, 300, a=math.pi).points
    grid = np.linspace(-3.0, 3.0, 49)
    product = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    for pts in (four, product):
        one, one_peak = _traced(lambda: spectrogram_on_set(f, window, pts).magnitudes)
        with monkeypatch.context() as patch:
            # 16 pairs a block at 1024 time nodes
            patch.setattr(stft, "_BLOCK", 1 << 14)
            blocked, blocked_peak = _traced(lambda: spectrogram_on_set(f, window, pts).magnitudes)
        assert np.max(np.abs(blocked - one)) <= 1e-15 * np.max(one)
        # off m = 2 the window's trig tables take about 1 MB in any block, and the product
        # set's 49 shifts peak at 2.7 MB in one block, so only the four-quadrant set can halve
        if m == 2.0 or pts is four:
            assert blocked_peak < one_peak / 2


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


def _gaussian_pair_sums(af, sf, cf, ah, sh, ch):
    """||f||^2, ||h||^2 and <f, h> of A e^{-pi ((t - c) / s)^2} in closed form."""
    s2 = sf * sf + sh * sh
    inner = af * np.conj(ah) * sf * sh / math.sqrt(s2) * math.exp(-math.pi * (cf - ch) ** 2 / s2)
    return abs(af) ** 2 * sf / math.sqrt(2.0), abs(ah) ** 2 * sh / math.sqrt(2.0), inner


# f = e^{-pi t^2} and h = 0.8 e^{0.6 i} e^{-pi ((t - 0.4) / 1.5)^2}
_F, _H = (1.0, 1.0, 0.0), (0.8 * cmath.exp(0.6j), 1.5, 0.4)


def _check_alignment_against_closed_form(alpha, residual, step, delta=0.0, span=16.0):
    """alpha and the residual against the closed form, to the error bound of sums on a grid of this step.

    The trapezoid rule at step k on a Gaussian e^{-a t^2} errs by at most
    2 e^{-pi^2 / (a k^2)} of its integral (Poisson summation), with a = 2 pi / s^2
    for |f|^2 and pi (1 / s_f^2 + 1 / s_h^2) for f conj(h). delta bounds a pointwise
    error in h's samples on the grid, which moves <f, h> by delta int|f|, ||h||^2 by
    2 delta int|h| + delta^2 span, and ||f - e^{i alpha} h||^2 by both. The alignment
    maximizes Re e^{-i alpha} <f, h>, so alpha's error moves the residual only at
    second order; 1e-14 covers the rounding of a few hundred terms.
    """
    nf2, nh2, inner = _gaussian_pair_sums(*_F, *_H)
    (af, sf, _), (ah, sh, _) = _F, _H
    rel = lambda a: 2.0 * math.exp(-math.pi ** 2 / (a * step * step))
    d_inner = rel(math.pi * (1.0 / sf**2 + 1.0 / sh**2)) * abs(inner) + delta * abs(af) * sf
    d_nh2 = rel(2.0 * math.pi / sh**2) * nh2 + 2.0 * delta * abs(ah) * sh + delta * delta * span
    d_nf2 = rel(2.0 * math.pi / sf**2) * nf2
    res2 = nf2 + nh2 - 2.0 * abs(inner)
    want = math.sqrt(res2 / nf2)
    d_res = (d_nf2 + d_nh2 + 2.0 * d_inner + res2 / nf2 * d_nf2) / (2.0 * want * nf2)
    assert abs(cmath.phase(cmath.exp(1j * (alpha - cmath.phase(inner))))) <= d_inner / abs(inner) + 1e-14
    assert abs(residual - want) <= d_res + 1e-14


def _gauss_grid(params, start, step, stop):
    amp, width, center = params
    t = np.arange(start, stop + step / 2.0, step)
    return grid_signal(amp * np.exp(-math.pi * ((t - center) / width) ** 2), start, step)


@pytest.mark.parametrize("grid_side", ["f", "h"])
def test_phase_alignment_of_a_grid_and_a_closed_form_signal(grid_side):
    # the closed-form signal is evaluated on the other's grid; at step 0.25 the bound on
    # the |f|^2 sum is 2 e^{-pi / (2 * 0.0625)} = 2.4e-11 of ||f||^2
    f = _gauss_grid(_F, -8.0, 0.25, 8.0) if grid_side == "f" else gaussian_signal(_F[1], _F[2], _F[0])
    h = _gauss_grid(_H, -8.0, 0.25, 8.0) if grid_side == "h" else gaussian_signal(_H[1], _H[2], _H[0])
    alpha, residual = global_phase_residual(f, h)
    _check_alignment_against_closed_form(alpha, residual, 0.25)


def _grid_sum_error(a, step, stop):
    """Bound on the trapezoid sum of e^{-a t^2} at this step on [-stop, stop] against its integral.

    The sum over the whole line errs by 2 e^{-pi^2 / (a k^2)} of the integral (Poisson
    summation). The grid drops half of each edge term and every term past the edges, and
    those fall by at least r = e^{-2 a stop k} per step, so it drops at most
    k e (1 + r) / (1 - r), with e = e^{-a stop^2} the integrand at the edge.
    """
    r = math.exp(-2.0 * a * stop * step)
    poisson = 2.0 * math.exp(-math.pi**2 / (a * step * step)) * math.sqrt(math.pi / a)
    return poisson + step * math.exp(-a * stop * stop) * (1.0 + r) / (1.0 - r)


@pytest.mark.parametrize("grid_side", ["f", "h"])
def test_phase_alignment_takes_the_exact_norm_of_a_partner_past_the_grid(grid_side):
    # e^{-pi t^2} on [-2, 2] at step 1/4 against e^{-pi (t/3)^2}, which reaches |t| = 11; the
    # grid sum of f conj(h), still 8.7e-7 at t = +-2, bounds the error. Summed on the grid, the
    # residual lost the partner's energy past it: 1.1224 and 0.6543 for 1.1475 and 0.6625
    step, stop = 0.25, 2.0
    narrow, wide = (1.0, 1.0, 0.0), (1.0, 3.0, 0.0)
    grid = _gauss_grid(narrow, -stop, step, stop)
    f, h, pf, ph = ((grid, gaussian_signal(3.0), narrow, wide) if grid_side == "f"
                    else (gaussian_signal(3.0), grid, wide, narrow))
    alpha, residual = global_phase_residual(f, h)
    nf2, nh2, inner = _gaussian_pair_sums(*pf, *ph)
    d_inner = _grid_sum_error(math.pi * (1.0 + 1.0 / 9.0), step, stop)
    d_grid2 = _grid_sum_error(2.0 * math.pi, step, stop)
    d_nf2, d_nh2 = (d_grid2, 0.0) if grid_side == "f" else (0.0, d_grid2)
    res2 = nf2 + nh2 - 2.0 * abs(inner)
    want = math.sqrt(res2 / nf2)
    # each grid sum falls short of its integral, which only raises the residual here, and sqrt
    # is concave, so the first-order change bounds the residual's
    d_res = (d_nf2 * (1.0 + res2 / nf2) + d_nh2 + 2.0 * d_inner) / (2.0 * want * nf2)
    assert alpha == 0.0
    assert abs(residual - want) <= d_res + 1e-14


def test_phase_alignment_of_a_partner_past_the_grid_overflow_is_typed():
    # off the grid the partner's samples are 0, but its exact energy leaves the float range
    grid = _gauss_grid((1.0, 1.0, 0.0), -2.0, 0.25, 2.0)
    with pytest.raises(EvaluationOverflowError, match="signal energy leaves the float range"):
        global_phase_residual(grid, gaussian_signal(center=1000.0, amplitude=1e160))


def test_phase_alignment_of_two_grids_with_different_steps(monkeypatch):
    # h is resampled from its step-0.3 grid onto f's step-0.25 grid; sinc interpolation of
    # A e^{-pi (t / s)^2} sampled at step k errs pointwise by at most twice the spectrum's
    # mass beyond 1 / (2 k): 2 |A| erfc(sqrt(pi) s / (2 k)) = 5.9e-10 here
    f, h = _gauss_grid(_F, -8.0, 0.25, 8.0), _gauss_grid(_H, -10.0, 0.3, 10.0)
    delta = 2.0 * abs(_H[0]) * math.erfc(math.sqrt(math.pi) * _H[1] / (2.0 * 0.3))
    resampled = []
    monkeypatch.setattr(stft, "resample_bandlimited",
                        lambda sig, t: resampled.append(sig) or resample_bandlimited(sig, t))
    alpha, residual = global_phase_residual(f, h)
    assert len(resampled) == 1 and resampled[0] is h
    _check_alignment_against_closed_form(alpha, residual, 0.25, delta)


def test_phase_alignment_energy_overflow_is_typed():
    with pytest.raises(EvaluationOverflowError):
        global_phase_residual(gaussian_signal(amplitude=1e308), gaussian_signal())


def test_unresolvable_hermite_index_fails_before_any_level(gauss_window):
    # h_n changes sign n times; at 64 nodes the finest level puts at most 3 * 1024 nodes on a
    # signal's interval in the phase alignment and 2 * 1024 on the transform's line
    quad = QuadratureConfig(nodes=64)
    for index in (3 * 1024, 10**30):
        with pytest.raises(QuadratureConvergenceError,
                           match=f"phase alignment quadrature cannot resolve Hermite index {index} "
                                 f"with at most 3072 nodes"):
            discriminate(hermite_signal(index), gaussian_signal(), gauss_window, [[0.3, 0.2]], quad=quad)
    for index in (2 * 1024, 10**30):
        with pytest.raises(QuadratureConvergenceError, match=f"transform quadrature cannot resolve Hermite index "
                                                             f"{index} with at most 2048 nodes"):
            stft_eval(hermite_signal(index), gauss_window, 0.3, 0.2, quad)
    # one index below each bound runs every level, and refine finds that they do not agree
    with pytest.raises(QuadratureConvergenceError, match="phase alignment quadrature did not stabilize"):
        discriminate(hermite_signal(3 * 1024 - 1), gaussian_signal(), gauss_window, [[0.3, 0.2]], quad=quad)
    with pytest.raises(QuadratureConvergenceError, match="transform quadrature did not stabilize"):
        stft_eval(hermite_signal(2 * 1024 - 1), gauss_window, 0.3, 0.2, quad)
    # a grid signal bounds a closed-form partner by its own sample count
    with pytest.raises(QuadratureConvergenceError, match="phase alignment cannot resolve Hermite index 33 "):
        global_phase_residual(grid_signal(np.ones(33), -4.0, 0.25), hermite_signal(33))


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


@pytest.mark.parametrize("m", [1.5, 2.0])
@pytest.mark.parametrize("x, omega", [(math.nan, 0.5), (0.3, math.inf), (math.inf, 0.5)])
def test_stft_eval_rejects_non_finite_coordinates(m, x, omega):
    # at m = 1.5 a NaN shift used to fail quadrature after four doublings; at m = 2 x = inf returned 0j
    with pytest.raises(InvalidParameterError, match="finite"):
        stft_eval(gaussian_signal(), make_generalized_gaussian(2.0, m), x, omega)


def test_complex_points_and_times_are_rejected():
    # a float conversion would drop a complex array's imaginary part with only numpy's
    # ComplexWarning, and fail on a Python complex in a list with an untyped TypeError
    window = make_generalized_gaussian(2.0, 1.5)
    for pts in (np.array([[0.3 + 1j, 0.5]]), [[0.3 + 1j, 0.5]]):
        with pytest.raises(InvalidParameterError, match="real"):
            spectrogram_on_set(gaussian_signal(), window, pts)
    for ts in (np.array([0.3 + 2j]), [0.3 + 2j]):
        with pytest.raises(InvalidParameterError, match="real"):
            time_window_values(window, ts)


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


def test_grid_edge_warning_names_the_caller(gauss_window):
    # the grid ends at t = 2, where the window centred at x = 1.8 still meets e^(-4 pi) of the signal
    ts = np.arange(-64, 65) / 32.0
    gf = grid_signal(np.exp(-math.pi * ts**2), -2.0, 1 / 32.0)
    with pytest.warns(RuntimeWarning, match="grid edge") as record:
        stft_eval(gf, gauss_window, 1.8, 0.5)
    assert record[0].filename == __file__
