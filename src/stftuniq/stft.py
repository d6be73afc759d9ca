"""Short-time Fourier transforms against decaying windows.

Convention: V_g f(x, omega) = int f(t) conj(g(t - x)) e^{-2 pi i omega t} dt.
Signals are either closed-form models (Gaussian bumps, Hermite functions,
linear chirps) integrated by node-doubling quadrature, or samples on a
uniform grid integrated by the trapezoid rule. On top of the transform sit
spectrogram sampling, phase-aware discrimination, an energy identity check,
an iterative magnitude-only reconstruction, and the entire extension of the
transform to complex arguments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, ZeroNormError
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, line_nodes, refine
from .sampling import SamplingSet, _read_csv, _write_csv
from .entire import moment_integral
from .windows import WindowModel, time_window_closed_form, time_window_values

_TAIL_LOG = 43.0
_SPECTROGRAM_HEADER = "x,omega,magnitude"


class SignalFamily(Enum):
    GAUSSIAN = "gaussian"
    HERMITE = "hermite"
    LINEAR_CHIRP = "linear_chirp"


@dataclass(frozen=True)
class ClosedFormSignal:
    """Analytic signal model evaluated on demand.

    Gaussian: A exp(-pi ((t - c)/s)^2). Hermite: A times the L2-normalized
    Hermite function of the given index, dilated to width s. Chirp: the
    Gaussian envelope with instantaneous frequency f0 + rate * (t - c).
    """

    family: SignalFamily
    width: float = 1.0
    center: float = 0.0
    amplitude: complex = 1.0 + 0.0j
    hermite_index: int = 0
    chirp_start: float = 0.0
    chirp_rate: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.family, SignalFamily):
            raise InvalidParameterError(f"unknown signal family: {self.family!r}")
        if not (self.width > 0 and math.isfinite(self.width)):
            raise InvalidParameterError(f"width must be a finite positive real, got {self.width}")
        if not math.isfinite(self.center):
            raise InvalidParameterError("center must be finite")
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if not (isinstance(self.hermite_index, (int, np.integer)) and self.hermite_index >= 0):
            raise InvalidParameterError(f"hermite_index must be an integer >= 0, got {self.hermite_index!r}")

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        u = (t - self.center) / self.width
        if self.family is SignalFamily.GAUSSIAN:
            return self.amplitude * np.exp(-math.pi * u * u).astype(complex)
        if self.family is SignalFamily.HERMITE:
            # normalized recurrence, h_0 = pi^{-1/4} e^{-u^2/2}; no H_k(u) to overflow
            prev, vals = np.zeros_like(u), math.pi**-0.25 * np.exp(-0.5 * u * u)
            for j in range(self.hermite_index):
                prev, vals = vals, math.sqrt(2.0 / (j + 1)) * u * vals - math.sqrt(j / (j + 1)) * prev
            return self.amplitude * vals.astype(complex) / math.sqrt(self.width)
        shift = t - self.center
        phase = (2.0 * math.pi) * (self.chirp_start * shift + 0.5 * self.chirp_rate * shift * shift)
        return self.amplitude * np.exp(-math.pi * u * u + 1j * phase)

    def norm(self) -> float:
        """Exact L2 norm."""
        if self.family is SignalFamily.HERMITE:
            return abs(self.amplitude)
        # Gaussian envelope families: integral of |A|^2 e^{-2 pi u^2} s du
        return abs(self.amplitude) * math.sqrt(self.width) * 2.0 ** -0.25

    def support_radius(self, linear: float = 0.0) -> float:
        """Radius beyond which |f(t)| e^{linear |t|} is negligible (~e^-43)."""
        if self.family is SignalFamily.HERMITE:
            alpha = 0.5 / (self.width * self.width)
            tail = _TAIL_LOG + 3.0 * self.hermite_index + linear * abs(self.center)
        else:
            alpha = math.pi / (self.width * self.width)
            tail = _TAIL_LOG + linear * abs(self.center)
        x = (linear + math.sqrt(linear * linear + 4.0 * alpha * tail)) / (2.0 * alpha)
        return abs(self.center) + x


@dataclass(frozen=True)
class GridSignal:
    """Signal known only through samples on a uniform time grid.

    Integrals against it use the trapezoid rule on exactly this grid, so the
    caller owns the resolution/extent trade-off.
    """

    values: np.ndarray
    start: float
    step: float

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 2:
            raise InvalidParameterError("grid signal needs a 1-d array of at least 2 samples")
        if not (self.step > 0 and math.isfinite(self.step)):
            raise InvalidParameterError(f"grid step must be a finite positive real, got {self.step}")
        if not math.isfinite(self.start):
            raise InvalidParameterError("grid start must be finite")

    @property
    def times(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.values.size)

    def norm(self) -> float:
        w = _trapezoid_weights(self.values.size, self.step)
        return math.sqrt(float(np.sum(w * np.abs(self.values) ** 2)))


Signal = ClosedFormSignal | GridSignal


@dataclass(frozen=True)
class SignalGrid:
    """Uniform time grid on which a reconstruction lives."""

    start: float
    step: float
    count: int

    def __post_init__(self) -> None:
        if not (self.step > 0 and math.isfinite(self.step)):
            raise InvalidParameterError(f"grid step must be a finite positive real, got {self.step}")
        if not (isinstance(self.count, (int, np.integer)) and self.count >= 2):
            raise InvalidParameterError(f"grid count must be an integer >= 2, got {self.count!r}")

    @property
    def times(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)


def gaussian_signal(width: float = 1.0, center: float = 0.0, amplitude=1.0) -> ClosedFormSignal:
    return ClosedFormSignal(SignalFamily.GAUSSIAN, width=float(width), center=float(center),
                            amplitude=complex(amplitude))


def hermite_signal(index: int, width: float = 1.0, center: float = 0.0, amplitude=1.0) -> ClosedFormSignal:
    return ClosedFormSignal(SignalFamily.HERMITE, width=float(width), center=float(center),
                            amplitude=complex(amplitude), hermite_index=int(index))


def chirp_signal(width: float = 1.0, center: float = 0.0, amplitude=1.0,
                 start_frequency: float = 0.0, chirp_rate: float = 0.0) -> ClosedFormSignal:
    return ClosedFormSignal(SignalFamily.LINEAR_CHIRP, width=float(width), center=float(center),
                            amplitude=complex(amplitude), chirp_start=float(start_frequency),
                            chirp_rate=float(chirp_rate))


def grid_signal(values, start: float, step: float) -> GridSignal:
    return GridSignal(values=np.asarray(values, dtype=complex), start=float(start), step=float(step))


def _trapezoid_weights(n: int, step: float) -> np.ndarray:
    w = np.full(n, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def resample_bandlimited(signal: GridSignal, new_times) -> np.ndarray:
    """Sinc interpolation of a grid signal onto arbitrary times."""
    new_times = np.asarray(new_times, dtype=float)
    kernel = np.sinc((new_times[:, None] - signal.times[None, :]) / signal.step)
    return kernel @ signal.values


def window_l2_norm(window: WindowModel) -> float:
    """L2 norm of the window, via its Fourier side (Plancherel)."""
    return window.amplitude * math.sqrt(moment_integral(0, 2.0 * window.a, window.m))


def _window_values(window: WindowModel, targets, quad: QuadratureConfig) -> np.ndarray:
    closed = time_window_closed_form(window)
    return closed(targets) if closed is not None else time_window_values(window, targets, quad)


def _window_time_matrix(window: WindowModel, t, shifts, quad: QuadratureConfig) -> np.ndarray:
    """g(t_j - x_p) as a (len(t), len(shifts)) matrix, evaluated once per distinct shift."""
    distinct, inverse = np.unique(shifts, return_inverse=True)
    return _window_values(window, t[:, None] - distinct[None, :], quad)[:, inverse]


def _signal_integral(f: Signal, assemble, quad: QuadratureConfig, what: str, linear: float = 0.0):
    """Integrate against f through assemble(f(t), t, weights) -> (values, scale).

    A grid signal is integrated once, by the trapezoid rule on its own
    samples; a closed-form signal is refined over line_nodes on its support
    radius (widened for an e^{linear |t|} growth factor).
    """
    if isinstance(f, GridSignal):
        t = f.times
        return assemble(f.values, t, _trapezoid_weights(t.size, f.step))[0]
    radius = quad.radius if quad.radius is not None else f.support_radius(linear=linear)

    def level(nodes: int):
        t, wts = line_nodes(radius, nodes)
        return assemble(f.evaluate(t), t, wts)

    return refine(level, quad, what)


def _stft_batch(f: Signal, window: WindowModel, points, quad: QuadratureConfig) -> np.ndarray:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)

    def assemble(fv, t, wts):
        base = wts * fv
        out = np.empty(pts.shape[0], dtype=complex)
        step = max(1, (1 << 21) // max(t.size, 1))
        for k in range(0, pts.shape[0], step):
            xs = pts[k:k + step, 0]
            oms = pts[k:k + step, 1]
            gvals = _window_time_matrix(window, t, xs, quad)
            kern = np.exp((-2j * math.pi) * t[:, None] * oms[None, :])
            out[k:k + step] = base @ (np.conj(gvals) * kern)
        return out, float(np.max(np.abs(out), initial=0.0))

    return _signal_integral(f, assemble, quad, "transform quadrature")


def stft_eval(f: Signal, window: WindowModel, x: float, omega: float,
              quad: QuadratureConfig = DEFAULT_QUADRATURE) -> complex:
    """V_g f(x, omega) at one time-frequency point."""
    return complex(_stft_batch(f, window, np.array([[x, omega]]), quad)[0])


@dataclass(frozen=True)
class SpectrogramSamples:
    """Spectrogram magnitudes |V_g f| on an ordered list of points."""

    points: np.ndarray
    magnitudes: np.ndarray
    quad_config_id: str = ""

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        mags = np.asarray(self.magnitudes, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "magnitudes", mags)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise InvalidParameterError("points must be a nonempty (n, 2) array")
        if mags.shape != (pts.shape[0],):
            raise InvalidParameterError("magnitudes must align with points")

    def to_csv(self, dest=None, extra_meta: dict | None = None):
        """Serialize as commented-header CSV; returns the text when dest is None."""
        rows = (f"{x:.17g},{om:.17g},{mag:.17g}" for (x, om), mag in zip(self.points, self.magnitudes))
        return _write_csv(dest, {"quad_config_id": self.quad_config_id, **(extra_meta or {})},
                          _SPECTROGRAM_HEADER, rows)

    @classmethod
    def from_csv(cls, src) -> "SpectrogramSamples":
        """Rebuild samples from to_csv output (path, file object, or text)."""
        meta, rows = _read_csv(src, _SPECTROGRAM_HEADER, "spectrogram")
        arr = np.array([[float(v) for v in r] for r in rows])
        return cls(points=arr[:, :2], magnitudes=arr[:, 2],
                   quad_config_id=meta.get("quad_config_id", "").strip("'\""))


def spectrogram_on_set(f: Signal, window: WindowModel, points,
                       quad: QuadratureConfig = DEFAULT_QUADRATURE) -> SpectrogramSamples:
    """|V_g f| on a SamplingSet (or raw (n, 2) array), in set order."""
    pts = points.points if isinstance(points, SamplingSet) else np.asarray(points, dtype=float).reshape(-1, 2)
    vals = _stft_batch(f, window, pts, quad)
    radius = "auto" if quad.radius is None else f"{quad.radius:g}"
    qid = f"gauss-legendre(radius={radius},nodes={quad.nodes},tol={quad.tol:g})"
    return SpectrogramSamples(points=pts, magnitudes=np.abs(vals), quad_config_id=qid)


def _common_times(f: Signal, h: Signal, times) -> np.ndarray:
    if times is not None:
        t = np.asarray(times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise InvalidParameterError("times must be a 1-d array of at least 2 points")
        steps = np.diff(t)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0) or steps[0] <= 0:
            raise InvalidParameterError("times must be uniformly increasing")
        return t
    if isinstance(f, GridSignal):
        return f.times
    if isinstance(h, GridSignal):
        return h.times
    radius = max(f.support_radius(), h.support_radius())
    half = int(math.ceil(radius * 64.0))
    return np.arange(-half, half + 1) / 64.0


def _values_on(sig: Signal, t: np.ndarray) -> np.ndarray:
    if isinstance(sig, GridSignal):
        own = sig.times
        if own.size == t.size and np.array_equal(own, t):
            return sig.values
        return resample_bandlimited(sig, t)
    return sig.evaluate(t)


def global_phase_residual(f: Signal, h: Signal, times=None) -> tuple[float, float]:
    """Best global phase alignment of h to f and the relative misfit after it.

    alpha maximizes Re e^{-i alpha} <f, h> (so alpha = arg <f, h>, reported
    in [0, 2 pi)), and the residual is ||f - e^{i alpha} h|| / ||f|| under
    the trapezoid inner product on a shared grid. Both norms must be nonzero.
    <f, h> = 0 pins alpha to 0: an inner product within rounding of zero
    (|<f, h>| <= 64 eps ||f|| ||h||) carries no phase.
    """
    t = _common_times(f, h, times)
    fa = _values_on(f, t)
    ha = _values_on(h, t)
    w = _trapezoid_weights(t.size, float(t[1] - t[0]))
    nf2 = float(np.sum(w * np.abs(fa) ** 2))
    nh2 = float(np.sum(w * np.abs(ha) ** 2))
    if nf2 <= 0.0:
        raise ZeroNormError("reference signal has zero norm on the comparison grid")
    if nh2 <= 0.0:
        raise ZeroNormError("candidate signal has zero norm on the comparison grid")
    inner = complex(np.sum(w * fa * np.conj(ha)))
    alpha = 0.0
    if abs(inner) > 64.0 * np.finfo(float).eps * math.sqrt(nf2 * nh2):
        alpha = float(np.angle(inner)) % (2.0 * math.pi)
    diff = fa - np.exp(1j * alpha) * ha
    residual = math.sqrt(float(np.sum(w * np.abs(diff) ** 2)) / nf2)
    return alpha, residual


class DiscriminationVerdict(Enum):
    EQUIVALENT_UP_TO_PHASE = "EquivalentUpToPhase"
    DISTINCT = "Distinct"
    INCONSISTENT = "Inconsistent"


@dataclass(frozen=True)
class DiscriminationReport:
    """Spectrogram comparison on a sampling set, cross-checked by phase alignment."""

    max_deviation: float
    spectrograms_match: bool
    alignment_phase: float
    aligned_residual: float
    verdict: DiscriminationVerdict

    def to_json_dict(self) -> dict:
        return {
            "max_dev": self.max_deviation,
            "match": self.spectrograms_match,
            "alpha": self.alignment_phase,
            "residual": self.aligned_residual,
            "verdict": self.verdict.value,
        }


def discriminate(f: Signal, h: Signal, window: WindowModel, points,
                 tol: float = 1e-6, residual_tol: float = 0.1,
                 quad: QuadratureConfig = DEFAULT_QUADRATURE) -> DiscriminationReport:
    """Compare two signals through spectrogram magnitudes on a sampling set.

    Matching magnitudes with a small aligned residual means equivalent up to
    a global phase; differing magnitudes mean distinct. Matching magnitudes
    with a large residual is reported as Inconsistent: on a valid sampling
    set for the window class that combination indicates the comparison was
    run outside the guarantees (undersampled set, wrong window, or signals
    outside the transform's reach).
    """
    if not (tol > 0):
        raise InvalidParameterError(f"tol must be positive, got {tol}")
    if not (residual_tol > 0):
        raise InvalidParameterError(f"residual_tol must be positive, got {residual_tol}")
    pts = points.points if isinstance(points, SamplingSet) else np.asarray(points, dtype=float).reshape(-1, 2)
    sf = np.abs(_stft_batch(f, window, pts, quad))
    sh = np.abs(_stft_batch(h, window, pts, quad))
    scale = max(float(sf.max()), float(sh.max()), 1e-300)
    max_dev = float(np.max(np.abs(sf - sh)))
    match = max_dev <= tol * scale
    alpha, residual = global_phase_residual(f, h)
    if match:
        verdict = (DiscriminationVerdict.EQUIVALENT_UP_TO_PHASE if residual < residual_tol
                   else DiscriminationVerdict.INCONSISTENT)
    else:
        verdict = DiscriminationVerdict.DISTINCT
    return DiscriminationReport(max_deviation=max_dev, spectrograms_match=match,
                                alignment_phase=alpha, aligned_residual=residual, verdict=verdict)


def _stft_grid(f: Signal, window: WindowModel, xs: np.ndarray, oms: np.ndarray,
               quad: QuadratureConfig) -> np.ndarray:
    """V_g f on a product grid, factorized as (X, T) @ (T, Omega)."""

    def assemble(fv, t, wts):
        base = wts * fv
        gmat = np.conj(_window_time_matrix(window, t, xs, quad))
        emat = np.exp((-2j * math.pi) * t[:, None] * oms[None, :])
        out = (gmat * base[:, None]).T @ emat
        return out, float(np.max(np.abs(out), initial=0.0))

    return _signal_integral(f, assemble, quad, "grid transform quadrature")


def moyal_energy_check(f: Signal, window: WindowModel, x_grid, omega_grid,
                       quad: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Relative deviation of the discrete spectrogram energy from ||f||^2 ||g||^2.

    The transform's energy identity says the |V_g f|^2 integral over the
    plane equals ||f||^2 ||g||^2; the Riemann sum over the supplied product
    grid converges to it as the grid refines and widens, so this deviation
    is a resolution diagnostic, not a pass/fail test by itself.
    """
    xs = np.asarray(x_grid, dtype=float)
    oms = np.asarray(omega_grid, dtype=float)
    for name, g in (("x_grid", xs), ("omega_grid", oms)):
        if g.ndim != 1 or g.size < 2:
            raise InvalidParameterError(f"{name} must be a 1-d array of at least 2 points")
        steps = np.diff(g)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0) or steps[0] <= 0:
            raise InvalidParameterError(f"{name} must be uniformly increasing")
    vals = _stft_grid(f, window, xs, oms, quad)
    dx = float(xs[1] - xs[0])
    dom = float(oms[1] - oms[0])
    energy = float(np.sum(np.abs(vals) ** 2)) * dx * dom
    reference = (f.norm() * window_l2_norm(window)) ** 2
    if reference == 0.0:
        return 0.0
    return abs(energy - reference) / reference


def gs_reconstruct(magnitudes: SpectrogramSamples, window: WindowModel, grid: SignalGrid,
                   iterations: int, seed: int = 0,
                   quad: QuadratureConfig = DEFAULT_QUADRATURE) -> GridSignal:
    """Alternating-projection reconstruction from spectrogram magnitudes.

    Projects between the range of the discrete transform (the trapezoid
    matrix of the grid) and the magnitude constraint, starting from a seeded
    complex Gaussian draw. Returns the grid signal after the last iteration;
    convergence is up to the usual global phase. Plain alternating
    projections can stagnate on strongly multimodal signals; denser
    time-frequency sampling or another seed usually recovers.
    """
    if not (isinstance(iterations, (int, np.integer)) and iterations >= 1):
        raise InvalidParameterError(f"iterations must be an integer >= 1, got {iterations!r}")
    t = grid.times
    wts = _trapezoid_weights(grid.count, grid.step)
    pts = magnitudes.points
    gmat = np.conj(_window_time_matrix(window, t, pts[:, 0], quad)).T
    forward = gmat * np.exp((-2j * math.pi) * pts[:, 1][:, None] * t[None, :]) * wts[None, :]
    backward = np.linalg.pinv(forward)
    rng = np.random.default_rng(seed)
    est = rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size)
    target = magnitudes.magnitudes
    for _ in range(iterations):
        proj = forward @ est
        mag = np.abs(proj)
        phase = np.where(mag > 0, proj / np.where(mag > 0, mag, 1.0), 1.0 + 0.0j)
        est = backward @ (target * phase)
    return GridSignal(values=est, start=grid.start, step=grid.step)


def extend_stft(f: Signal, window: WindowModel, z, zprime,
                quad: QuadratureConfig = DEFAULT_QUADRATURE) -> complex:
    """The transform continued to complex time shift z and frequency zprime.

    Computes int f(t) conj(G(t - conj(z))) e^{2 pi i zprime t} dt, where G is
    the entire continuation of the window; the conjugations make the result
    holomorphic in both arguments. At real arguments it reduces to
    stft_eval(f, window, x, -omega). Truncation radii account for the
    e^{2 pi |Im zprime| |t|} growth factor; grid signals cannot widen their
    own grid, so a non-negligible integrand at the grid edge only warns.

    Stabilization between quadrature levels is judged against the integrand's
    absolute mass rather than the result: off the real axes the integrand is
    amplified super-exponentially and cancels back down, so the result's own
    magnitude sits below the reachable roundoff floor.
    """
    z = complex(z)
    zp = complex(zprime)
    linear = 2.0 * math.pi * abs(zp.imag)

    def assemble(fv, t, wts):
        gvals = _window_values(window, t - z.conjugate(), quad)
        kern = np.exp((2j * math.pi * zp) * t)
        integrand = wts * fv * np.conj(gvals) * kern
        val, mags = complex(np.sum(integrand)), np.abs(integrand)
        if isinstance(f, GridSignal):
            peak = float(mags.max())
            if peak > 0 and max(float(mags[0]), float(mags[-1])) > 1e-10 * peak:
                warnings.warn("integrand is not negligible at the grid edge; "
                              "the extension is truncated by the signal grid", RuntimeWarning)
        return val, max(abs(val), float(mags.sum()))

    return _signal_integral(f, assemble, quad, "extension quadrature", linear=linear)
