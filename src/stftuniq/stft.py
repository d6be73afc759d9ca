"""Short-time Fourier transforms against decaying windows.

Convention: V_g f(x, omega) = int f(t) conj(g(t - x)) e^{-2 pi i omega t} dt.
Signals are either closed-form atoms (Gaussian atoms, chirped or not, and
Hermite functions) integrated by node-doubling quadrature around their centre,
or samples on a uniform grid integrated by the trapezoid rule. One kernel,
_transform, computes the integral at a list of real (shift, frequency)
pairs; spectrogram sampling, phase-aware discrimination and an energy
identity check all call it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (EvaluationOverflowError, QuadratureConvergenceError, ZeroNormError, _array, _caller_stacklevel,
                     _complex, _count, _real, _require)
from .quadrature import _MAX_DOUBLINGS, DEFAULT_QUADRATURE, QuadratureConfig, line_nodes, panel_nodes, refine
from .sampling import SamplingSet
from .entire import moment_integral
from .windows import WindowModel, time_window_closed_form, time_window_values

_TAIL_LOG = 43.0
# Entries of the window matrix, and of the exponential matrix, in one block of _transform
_BLOCK = 1 << 21


class SignalFamily(Enum):
    GAUSSIAN = "gaussian"
    HERMITE = "hermite"


@dataclass(frozen=True)
class ClosedFormSignal:
    """Analytic signal model evaluated on demand.

    Gaussian atom: A exp(-pi (s/w)^2 + 2 pi i (f0 s + rate s^2/2)) at s = t - c, width w,
    f0 = chirp_start and rate = chirp_rate: a chirp of frequency f0 + rate s, the plain Gaussian
    at f0 = rate = 0. Hermite atom: A times the L2-normalized Hermite function of the given index,
    dilated to width w. Every field enters the atom's formula.
    """

    family: SignalFamily
    width: float = 1.0
    center: float = 0.0
    amplitude: complex = 1.0 + 0.0j
    hermite_index: int = 0
    chirp_start: float = 0.0
    chirp_rate: float = 0.0

    def __post_init__(self) -> None:
        _require(isinstance(self.family, SignalFamily), f"unknown signal family: {self.family!r}")
        for name, low in (("width", 0.0), ("center", -math.inf), ("chirp_start", -math.inf), ("chirp_rate", -math.inf)):
            object.__setattr__(self, name, _real(getattr(self, name), name, low))
        object.__setattr__(self, "hermite_index", _count(self.hermite_index, "hermite_index", 0))
        unused = ("chirp_start", "chirp_rate") if self.family is SignalFamily.HERMITE else ("hermite_index",)
        _require(not any(getattr(self, name) for name in unused), f"a {self.family.value} atom takes no "
                 f"{' or '.join(unused)}, got {', '.join(f'{name}={getattr(self, name)}' for name in unused)}")
        _require(0.0 < self._envelope_rate() < math.inf and math.isfinite(self.support_radius()),
                 f"width must be a positive real with a finite, nonzero envelope rate and support radius, "
                 f"got {self.width} at center {self.center}")
        # |h_k| <= pi^{-1/4} (Cramer's bound), so a Hermite signal peaks below pi^{-1/4} / sqrt(width)
        peak = math.pi ** -0.25 / math.sqrt(self.width) if self.family is SignalFamily.HERMITE else 1.0
        object.__setattr__(self, "amplitude", _complex(self.amplitude, "amplitude"))
        _require(math.isfinite(math.hypot(self.amplitude.real, self.amplitude.imag) * peak),
                 f"amplitude must be finite with a finite peak |amplitude| * {peak:.3g}, got {self.amplitude}")

    def evaluate(self, t) -> np.ndarray:
        return self._centred(_array(t, "times") - self.center)

    def _centred(self, s: np.ndarray) -> np.ndarray:
        """The signal at the times c + s, from the offsets s alone."""
        u = s / self.width
        if self.family is SignalFamily.HERMITE:
            # normalized recurrence, h_0 = pi^{-1/4} e^{-u^2/2}; no H_k(u) to overflow
            prev, vals = np.zeros_like(u), math.pi**-0.25 * np.exp(-0.5 * u * u)
            for j in range(self.hermite_index):
                prev, vals = vals, math.sqrt(2.0 / (j + 1)) * u * vals - math.sqrt(j / (j + 1)) * prev
            return self.amplitude * vals.astype(complex) / math.sqrt(self.width)
        phase = (2.0 * math.pi) * (self.chirp_start * s + 0.5 * self.chirp_rate * s * s)
        # the real envelope times e^{i phase}: at phase 0 the plain Gaussian's bits
        return self.amplitude * (np.exp(-math.pi * u * u) * np.exp(1j * phase))

    def norm(self) -> float:
        """Exact L2 norm."""
        if self.family is SignalFamily.HERMITE:
            return abs(self.amplitude)
        # Gaussian atom: integral of |A|^2 e^{-2 pi u^2} s du
        return abs(self.amplitude) * math.sqrt(self.width) * 2.0 ** -0.25

    def _envelope_rate(self) -> float:
        """alpha of the envelope e^{-alpha (t - c)^2}: c = 1/2 for Hermite, pi otherwise."""
        w2 = self.width * self.width
        return (0.5 if self.family is SignalFamily.HERMITE else math.pi) / w2 if w2 > 0 else math.inf

    def _half_width(self) -> float:
        """Offset x from the centre beyond which |f(c + s)| is negligible (~e^-43)."""
        alpha = self._envelope_rate()
        tail = _TAIL_LOG + (3.0 * self.hermite_index if self.family is SignalFamily.HERMITE else 0.0)
        # 4 alpha tail overflows from widths near 1e-154, which rejects them; sqrt(tail / alpha) would not
        return math.sqrt(4.0 * alpha * tail) / (2.0 * alpha)

    def support_radius(self) -> float:
        """Radius beyond which |f(t)| is negligible (~e^-43)."""
        return abs(self.center) + self._half_width()


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
        vals = _array(self.values, "grid samples", complex)
        object.__setattr__(self, "values", vals)
        _require(vals.ndim == 1 and vals.size >= 2, "grid signal needs a 1-d array of at least 2 samples")
        _require(bool(np.all(np.isfinite(vals))), "grid samples must be finite")
        object.__setattr__(self, "step", _real(self.step, "grid step", 0.0))
        object.__setattr__(self, "start", _real(self.start, "grid start"))

    @property
    def times(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.values.size)

    def _midpoint(self) -> float:
        return self.start + 0.5 * self.step * (self.values.size - 1)

    def _offsets(self) -> np.ndarray:
        """The sample times less the grid midpoint, exactly mirrored about 0."""
        return self.step * (np.arange(self.values.size) - 0.5 * (self.values.size - 1))

    def norm(self) -> float:
        w = _trapezoid_weights(self.values.size, self.step)
        return math.sqrt(float(np.sum(w * np.abs(self.values) ** 2)))


Signal = ClosedFormSignal | GridSignal


def gaussian_signal(width: float = 1.0, center: float = 0.0, amplitude=1.0) -> ClosedFormSignal:
    return chirp_signal(width, center, amplitude)


def hermite_signal(index: int, width: float = 1.0, center: float = 0.0, amplitude=1.0) -> ClosedFormSignal:
    return ClosedFormSignal(SignalFamily.HERMITE, width=width, center=center, amplitude=amplitude,
                            hermite_index=index)


def chirp_signal(width: float = 1.0, center: float = 0.0, amplitude=1.0,
                 start_frequency: float = 0.0, chirp_rate: float = 0.0) -> ClosedFormSignal:
    return ClosedFormSignal(SignalFamily.GAUSSIAN, width=width, center=center, amplitude=amplitude,
                            chirp_start=start_frequency, chirp_rate=chirp_rate)


def grid_signal(values, start: float, step: float) -> GridSignal:
    return GridSignal(values=values, start=start, step=step)


def _trapezoid_weights(n: int, step: float) -> np.ndarray:
    w = np.full(n, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def resample_bandlimited(signal: GridSignal, new_times) -> np.ndarray:
    """Sinc interpolation of a grid signal onto arbitrary times."""
    new_times = _array(new_times, "times")
    kernel = np.sinc((new_times[:, None] - signal.times[None, :]) / signal.step)
    return kernel @ signal.values


def window_l2_norm(window: WindowModel) -> float:
    """L2 norm of the window, via its Fourier side (Plancherel)."""
    return math.sqrt(moment_integral(0, 2.0 * window.a, window.m))


def _check_resolvable(signals, nodes: int, what: str) -> None:
    """Raise QuadratureConvergenceError for a Hermite index n >= nodes, the most nodes a level puts on its interval.

    h_n changes sign n times, which fewer nodes cannot resolve; refine would find that only after n steps per level.
    """
    for sig in signals:
        if getattr(sig, "family", None) is SignalFamily.HERMITE and sig.hermite_index >= nodes:
            raise QuadratureConvergenceError(f"{what} cannot resolve Hermite index {sig.hermite_index} "
                                             f"with at most {nodes} nodes on its interval")


def _window_values(window: WindowModel, t: np.ndarray, shifts: np.ndarray, quad: QuadratureConfig) -> np.ndarray:
    """g(t[:, None] - shifts): the closed form at m = 2, else one shared trig table per level."""
    closed = time_window_closed_form(window)
    if closed is not None:
        return closed(t[:, None] - shifts)
    return time_window_values(window, t, quad, shifts=shifts)


def _transform(f: Signal, window: WindowModel, shifts, freqs, quad: QuadratureConfig, what: str) -> np.ndarray:
    """int f(t) g(t - x) e^{2 pi i w t} dt (g is real) at each real pair (x, w) of shifts and freqs.

    V_g f(x, omega) is the pair (x, -omega). The pairs run in shift order,
    in blocks of _BLOCK / (time nodes) pairs, so no window or exponential
    matrix of a block has more than _BLOCK entries. A block evaluates the
    window once per distinct shift and the exponential once per distinct
    frequency, and sums each shift's pairs by one product. Off m = 2 the
    window at a block's shifts comes from time_window_values, which tables
    the trigonometric values of the time nodes once per window refine level
    for every shift, and of only their non-negative half, since line_nodes
    mirrors its nodes exactly. The scale is the
    largest absolute integrand mass over the shifts: oscillation cancels the
    integrand down, so a result can sit below the roundoff floor of that
    mass. Every signal is integrated in centred time s = t - c: the shift
    becomes x - c and the result gains e^{2 pi i w c} (Groechenig 2001,
    sec. 3.1), so a far centre c loses no digits to the window's angles
    2 pi xi s or the kernel's 2 pi w s. A phase 2 pi w c past the float
    range raises EvaluationOverflowError. A grid signal is centred at its
    grid midpoint, where its offsets are exactly mirrored, and integrated
    once, by the trapezoid rule on its own samples; it cannot widen its
    grid, so an integrand above 1e-10 of the scale at a grid edge only
    warns. A closed-form signal is refined, against the scale, on [-r, r]
    about its centre, r its half-width.
    """
    c = f._midpoint() if isinstance(f, GridSignal) else f.center
    xs, at_shift = np.unique(shifts - c, return_inverse=True)
    ws, at_freq = np.unique(freqs, return_inverse=True)
    order = np.argsort(at_shift, kind="stable")

    def block(t, tw, pairs):
        """Values, scale and edge integrand of pairs that run in shift order."""
        shift_ids, col = np.unique(at_shift[pairs], return_inverse=True)
        freq_ids, row = np.unique(at_freq[pairs], return_inverse=True)
        gw = tw[:, None] * _window_values(window, t, xs[shift_ids], quad)
        kern = np.exp((2j * math.pi) * t[:, None] * ws[freq_ids])
        runs = np.split(row, np.flatnonzero(np.diff(col)) + 1)
        vals = np.concatenate([gw[:, j] @ kern[:, rows] for j, rows in enumerate(runs)])
        mags = np.abs(gw)
        return vals, float(np.max(np.sum(mags, axis=0))), float(np.max(mags[[0, -1]]))

    def level(t, wts, fv):
        out = np.empty(at_shift.size, dtype=complex)
        tw, scale, edge = wts * fv, 0.0, 0.0
        cap = max(1, _BLOCK // t.size)
        for lo in range(0, order.size, cap):
            pairs = order[lo:lo + cap]
            out[pairs], block_scale, block_edge = block(t, tw, pairs)
            scale, edge = max(scale, block_scale), max(edge, block_edge)
        return out, scale, edge

    if isinstance(f, GridSignal):
        out, scale, edge = level(f._offsets(), _trapezoid_weights(f.values.size, f.step), f.values)
        if edge > 1e-10 * scale:
            warnings.warn("integrand is not negligible at the grid edge; "
                          "the transform is truncated by the signal grid", RuntimeWarning,
                          stacklevel=_caller_stacklevel())
    else:
        # line_nodes puts the finest level's nodes on each half of the line
        _check_resolvable((f,), 2 * quad.nodes * 2**_MAX_DOUBLINGS, what)
        half = f._half_width()

        def refined(nodes: int):
            s, wts = line_nodes(half, nodes)
            return level(s, wts, f._centred(s))[:2]

        out = refine(refined, quad, what)
    with np.errstate(over="ignore", invalid="ignore"):
        out = out * np.exp((2j * math.pi * c) * ws[at_freq])
    if not np.all(np.isfinite(out)):
        raise EvaluationOverflowError(f"{what}: e^(2 pi i w c) at centre c = {c:g} leaves the float range")
    return out


def stft_eval(f: Signal, window: WindowModel, x: float, omega: float,
              quad: QuadratureConfig = DEFAULT_QUADRATURE) -> complex:
    """V_g f(x, omega) at one real, finite time-frequency point."""
    pts = _point_array([[_real(x, "x"), _real(omega, "omega")]])
    return complex(_transform(f, window, pts[:, 0], -pts[:, 1], quad, "transform quadrature")[0])


@dataclass(frozen=True)
class SpectrogramSamples:
    """Spectrogram magnitudes |V_g f| on an ordered list of points."""

    points: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self) -> None:
        pts = _array(self.points, "points")
        mags = _array(self.magnitudes, "magnitudes")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "magnitudes", mags)
        _require(pts.ndim == 2 and pts.shape[1] == 2 and pts.shape[0] > 0, "points must be a nonempty (n, 2) array")
        _require(mags.shape == (pts.shape[0],), "magnitudes must align with points")


def _point_array(points) -> np.ndarray:
    """(x, omega) rows of a SamplingSet or raw (n, 2) array; at least one row, all real and finite."""
    # a SamplingSet's columns are computed from finite parameters
    if isinstance(points, SamplingSet):
        return points.points
    pts = _array(points, "time-frequency points").reshape(-1, 2)
    _require(pts.shape[0] > 0, "need at least one time-frequency point")
    _require(bool(np.isfinite(pts).all()), "time-frequency points must be finite")
    return pts


def spectrogram_on_set(f: Signal, window: WindowModel, points,
                       quad: QuadratureConfig = DEFAULT_QUADRATURE) -> SpectrogramSamples:
    """|V_g f| on a SamplingSet (or raw (n, 2) array), in set order."""
    pts = _point_array(points)
    vals = _transform(f, window, pts[:, 0], -pts[:, 1], quad, "transform quadrature")
    return SpectrogramSamples(points=pts, magnitudes=np.abs(vals))


def _uniform_grid(values, name: str) -> np.ndarray:
    """values as a float array, rejected unless 1-d, at least 2 long and uniformly increasing."""
    g = _array(values, name)
    _require(g.ndim == 1 and g.size >= 2, f"{name} must be a 1-d array of at least 2 points")
    steps = np.diff(g)
    _require(bool(np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)) and steps[0] > 0,
             f"{name} must be uniformly increasing")
    return g


def _values_on(sig: Signal, t: np.ndarray) -> np.ndarray:
    if isinstance(sig, GridSignal):
        own = sig.times
        if own.size == t.size and np.array_equal(own, t):
            return sig.values
        return resample_bandlimited(sig, t)
    return sig.evaluate(t)


def _phase(nf2: float, nh2: float, inner: complex) -> float:
    """arg <f, h> in [0, 2 pi), or 0 when |<f, h>| <= 64 eps ||f|| ||h||: rounding carries no phase."""
    if abs(inner) > 64.0 * np.finfo(float).eps * math.sqrt(nf2 * nh2):
        return float(np.angle(inner)) % (2.0 * math.pi)
    return 0.0


def _alignment_sums(w: np.ndarray, fa: np.ndarray, ha: np.ndarray) -> np.ndarray:
    """||f||^2, ||h||^2, <f, h> and ||f - e^{i alpha} h||^2 under w, the last summed, not cancelled."""
    with np.errstate(over="ignore", invalid="ignore"):
        nf2, nh2 = (float(np.sum(w * np.abs(v) ** 2)) for v in (fa, ha))
        inner = complex(np.sum(w * fa * np.conj(ha)))
        diff = fa - np.exp(1j * _phase(nf2, nh2, inner)) * ha
        sums = np.array([nf2, nh2, inner, np.sum(w * np.abs(diff) ** 2)])
    if not np.all(np.isfinite(sums)):
        raise EvaluationOverflowError("signal energy leaves the float range")
    return sums


def global_phase_residual(f: Signal, h: Signal,
                          quad: QuadratureConfig = DEFAULT_QUADRATURE) -> tuple[float, float]:
    """Best global phase alignment of h to f and the relative misfit after it.

    alpha maximizes Re e^{-i alpha} <f, h> (so alpha = arg <f, h>, reported
    in [0, 2 pi)), and the residual is ||f - e^{i alpha} h|| / ||f||; both
    norms must be nonzero. A grid signal gives trapezoid sums on its grid; a
    closed-form partner that reaches past the grid takes its exact norm, and
    the residual then follows from ||f||^2 + ||h||^2 - 2 |<f, h>|.
    Closed-form pairs are refined under quad on panels over both half-width
    intervals, in offsets s from f's centre with h at s - (c_h - c_f), so a
    far common centre loses no digits; disjoint supports give <f, h> = 0.
    """
    if isinstance(f, GridSignal) or isinstance(h, GridSignal):
        g = f if isinstance(f, GridSignal) else h
        _check_resolvable((f, h), g.values.size, "phase alignment")
        sums = _alignment_sums(_trapezoid_weights(g.values.size, g.step), _values_on(f, g.times),
                               _values_on(h, g.times))
        other = h if g is f else f
        if isinstance(other, ClosedFormSignal) and not (g.start <= other.center - other._half_width()
                                                        and other.center + other._half_width() <= g.times[-1]):
            # other reaches past the grid: its energy from the closed form, <f, h> from the grid (g is 0
            # off it), and the residual from those three, not summed
            sums[int(other is h)] = other.norm() * other.norm()
            sums[3] = max(sums[0].real + sums[1].real - 2.0 * abs(sums[2]), 0.0)
            if not math.isfinite(sums[3].real):
                raise EvaluationOverflowError("signal energy leaves the float range")
    else:
        d, xf, xh = h.center - f.center, f._half_width(), h._half_width()
        if abs(d) >= xf + xh:
            # f and h as two orthogonal atoms of their exact norms
            sums = _alignment_sums(np.ones(2), np.array([f.norm(), 0.0]), np.array([0.0, h.norm()]))
        else:
            # the panels over both intervals number at most three
            _check_resolvable((f, h), 3 * quad.nodes * 2**_MAX_DOUBLINGS, "phase alignment quadrature")

            def level(nodes: int):
                s, w = panel_nodes(np.array(sorted({-xf, xf, d - xh, d + xh})), nodes)
                sums = _alignment_sums(w, f._centred(s), h._centred(s - d))
                return sums, max(sums[0].real, sums[1].real)

            sums = refine(level, quad, "phase alignment quadrature")
    nf2, nh2, _, res2 = sums.real
    for norm2, which in ((nf2, "reference"), (nh2, "candidate")):
        if norm2 <= 0.0:
            raise ZeroNormError(f"{which} signal has zero norm")
    return _phase(nf2, nh2, sums[2]), math.sqrt(res2 / nf2)


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


def discriminate(f: Signal, h: Signal, window: WindowModel, points,
                 tol: float = 1e-6, residual_tol: float = 0.1,
                 quad: QuadratureConfig = DEFAULT_QUADRATURE) -> DiscriminationReport:
    """Compare two signals through spectrogram magnitudes on a sampling set.

    Matching magnitudes with a small aligned residual means equivalent up to
    a global phase; differing magnitudes mean distinct. Matching magnitudes
    with a large residual is reported as Inconsistent. The comparison may
    have run outside the guarantees (undersampled set, wrong window, or
    signals outside the transform's reach). On a valid set it also arises
    when uniqueness separates the pair but their magnitudes differ by less
    than tol * scale there, as for two bumps far apart at m = 2, whose
    difference decays like e^{-c d^2} in their distance d. quad governs the
    transforms and the alignment, which runs first, so a zero norm fails
    before any transform.
    """
    tol, residual_tol = _real(tol, "tol", 0.0), _real(residual_tol, "residual_tol", 0.0)
    pts = _point_array(points)
    alpha, residual = global_phase_residual(f, h, quad)
    sf, sh = (np.abs(_transform(sig, window, pts[:, 0], -pts[:, 1], quad, "transform quadrature"))
              for sig in (f, h))
    scale = max(float(sf.max()), float(sh.max()), 1e-300)
    max_dev = float(np.max(np.abs(sf - sh)))
    match = max_dev <= tol * scale
    if match:
        verdict = (DiscriminationVerdict.EQUIVALENT_UP_TO_PHASE if residual < residual_tol
                   else DiscriminationVerdict.INCONSISTENT)
    else:
        verdict = DiscriminationVerdict.DISTINCT
    return DiscriminationReport(max_deviation=max_dev, spectrograms_match=match,
                                alignment_phase=alpha, aligned_residual=residual, verdict=verdict)


def moyal_energy_check(f: Signal, window: WindowModel, x_grid, omega_grid,
                       quad: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Relative deviation of the discrete spectrogram energy from ||f||^2 ||g||^2.

    The transform's energy identity says the |V_g f|^2 integral over the
    plane equals ||f||^2 ||g||^2; the Riemann sum over the supplied product
    grid converges to it as the grid refines and widens, so this deviation
    is a resolution diagnostic, not a pass/fail test by itself.
    """
    xs = _uniform_grid(x_grid, "x_grid")
    oms = _uniform_grid(omega_grid, "omega_grid")
    vals = _transform(f, window, np.repeat(xs, oms.size), np.tile(-oms, xs.size), quad,
                      "grid transform quadrature")
    dx = float(xs[1] - xs[0])
    dom = float(oms[1] - oms[0])
    energy = float(np.sum(np.abs(vals) ** 2)) * dx * dom
    reference = (f.norm() * window_l2_norm(window)) ** 2
    if reference == 0.0:
        return 0.0
    return abs(energy - reference) / reference

