"""Growth analysis for entire functions arising as Fourier transforms.

Closed-form Taylor coefficients of a window's entire extension (from the
Gamma-function absolute moments), order/type estimation from coefficient
decay and the predicted growth of a decay profile, Jensen circle means and
zero-count bounds, and Weierstrass canonical products over finitely many
positive zeros with banded evaluation, including the symmetric
counterexample F(z) = V(z^2). The counterexample functions read the sequence
lambda_k itself and form the zeros lambda_k^2 one slice at a time inside the
evaluator's loops, so no array of squares is ever built. Their validation
squares only the ends of the sequence: squares of floats in [2^-511, 2^511)
cannot round together (see sampling.check_squares_increasing).
Everything here works with the convention F(z) = int ghat(xi)
e^{2 pi i xi z} d xi, so the coefficients are c_n = (2 pi i)^n / n! times the
n-th moment of ghat.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvaluationOverflowError,
    InsufficientDataError,
    InvalidParameterError,
    ZeroAtOriginError,
)
from .sampling import (
    check_increasing,
    check_squares_increasing,
    nonuniqueness_threshold,
    tail_density,
    tail_ratios,
)
from .windows import WindowModel

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_LOG_FLOAT_MIN = math.log(np.finfo(float).tiny)
_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParameterError(msg)


@dataclass(frozen=True)
class TaylorSeries:
    """Taylor coefficients c_0 .. c_N of an entire function about the origin."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", coeffs)
        _require(coeffs.ndim == 1, "coefficients must be one-dimensional")
        _require(coeffs.size >= 3, "need at least coefficients c_0, c_1, c_2")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidParameterError("coefficients must all be finite")

    @property
    def truncation(self) -> int:
        """The index N of the last coefficient."""
        return self.coefficients.size - 1


@dataclass(frozen=True)
class GrowthEstimate:
    """Order and type estimates plus the coefficient indices backing them."""

    order: float
    type: float
    n_used: tuple[int, ...] = ()


@dataclass(frozen=True)
class CanonicalProduct:
    """Weierstrass product prod_k G(w / omega_k; p) over strictly increasing positive zeros."""

    zeros: np.ndarray
    genus: int

    def __post_init__(self) -> None:
        zeros = np.asarray(self.zeros, dtype=float)
        object.__setattr__(self, "zeros", zeros)
        _require(zeros.ndim == 1 and zeros.size >= 1, "need at least one zero")
        check_increasing(zeros, "zeros")
        _require(self.genus >= 0, "genus must be nonnegative")


def _log_moment(n: int, a: float, m: float) -> float:
    """log of 2 Gamma((n+1)/m) / (m a^((n+1)/m)), the absolute moment below."""
    return math.log(2.0) - math.log(m) - ((n + 1) / m) * math.log(a) + math.lgamma((n + 1) / m)


def moment_integral(n: int, a: float, m: float) -> float:
    """Absolute moment int |xi|^n exp(-a |xi|^m) d xi over the whole line.

    Equals 2 Gamma((n+1)/m) / (m a^((n+1)/m)); evaluated through log-Gamma so
    large n cannot overflow intermediates, raising only when the value itself
    leaves the float range.
    """
    _require(isinstance(n, (int, np.integer)) and n >= 0, f"moment index must be an integer >= 0, got {n!r}")
    _require(a > 0 and math.isfinite(a), f"decay rate a must be positive, got {a}")
    _require(m >= 1 and math.isfinite(m), f"decay exponent m must be >= 1, got {m}")
    log_val = _log_moment(n, a, m)
    if log_val > _LOG_FLOAT_MAX:
        raise EvaluationOverflowError(f"moment of index {n} has log magnitude {log_val:.1f}, beyond float range")
    return math.exp(log_val)


def taylor_coefficients(window: WindowModel, n_terms: int) -> TaylorSeries:
    """Coefficients of F(z) = int ghat(xi) e^{2 pi i xi z} d xi about z = 0, in closed form.

    For ghat = C exp(-a |xi - xi0|^m), substituting xi = u + xi0 gives
    c_n = (2 pi i)^n / n! C sum_{k even} binom(n, k) xi0^(n-k) M_k with M_k the
    absolute moment (moment_integral); the odd moments of u vanish. At
    xi0 = 0 only k = n is left, so odd coefficients are exact zeros (the
    order/type estimators rely on that). Otherwise every term carries the
    sign of xi0^n and the sum is taken by log-sum-exp. Magnitudes are built
    in the log domain, so large n_terms cannot overflow intermediates; a
    coefficient that leaves the range of normal floats raises
    EvaluationOverflowError instead of turning into 0 or inf.
    """
    _require(isinstance(window, WindowModel), "taylor_coefficients needs a WindowModel")
    _require(n_terms >= 2, f"need n_terms >= 2, got {n_terms}")
    a, m, xi0 = window.a, window.m, window.center
    log_fact = np.array([math.lgamma(n + 1) for n in range(n_terms + 1)])
    log_mom = np.array([_log_moment(k, a, m) for k in range(0, n_terms + 1, 2)])
    log_front = math.log(window.amplitude)
    coeffs = np.zeros(n_terms + 1, dtype=complex)
    for n in range(n_terms + 1):
        if xi0 == 0.0:
            if n % 2:
                continue
            log_c = n * math.log(2.0 * math.pi) - log_fact[n] + log_front + log_mom[n // 2]
        else:
            k = np.arange(0, n + 1, 2)
            # log of binom(n, k) |xi0|^(n-k) M_k / n!, so n! cancels against the prefactor
            terms = log_mom[:k.size] + (n - k) * math.log(abs(xi0)) - log_fact[k] - log_fact[n - k]
            top = float(terms.max())
            log_c = n * math.log(2.0 * math.pi) + log_front + top + math.log(np.exp(terms - top).sum())
        if not _LOG_FLOAT_MIN <= log_c <= _LOG_FLOAT_MAX:
            raise EvaluationOverflowError(f"Taylor coefficient c_{n} has log magnitude {log_c:.1f}, "
                                          "outside the range of normal floats")
        # the phase is i^n, times sign(xi0)^n; (-i)^n = i^(-n)
        coeffs[n] = _I_POWERS[(n if xi0 >= 0 else -n) % 4] * math.exp(log_c)
    return TaylorSeries(coeffs)


def _usable_tail(series: TaylorSeries):
    """Tail-window indices and log magnitudes, or None for a polynomial series."""
    mags = np.abs(series.coefficients)
    N = series.truncation
    nz = np.nonzero(mags)[0]
    nz = nz[nz >= 1]
    if nz.size == 0 or nz.max() <= N // 2:
        # the trailing half vanishes identically: polynomial input
        return None
    if nz.size < 10:
        raise InsufficientDataError(f"need at least 10 nonzero coefficients, have {nz.size}")
    window = nz[nz >= N // 2]
    if window.size < 5:
        window = nz[-10:]
    return window, np.log(mags[window])


def estimate_order(series: TaylorSeries) -> GrowthEstimate:
    """Estimate exponential order from coefficient decay.

    For order-rho type-tau growth, -log|c_n| = (1/rho) n log n + O(n), so the
    order is recovered from the n log n coefficient of a least-squares fit of
    -log|c_n| against {n log n, n, log n, 1} over the tail window [N/2, N].
    The extra basis members absorb the lower-order bias that the bare ratio
    n log n / log(1/|c_n|) keeps at any reachable N. Series whose trailing
    half vanishes identically are read as polynomials (order 0).
    """
    tail = _usable_tail(series)
    if tail is None:
        return GrowthEstimate(order=0.0, type=0.0)
    ns, logs = tail
    nf = ns.astype(float)
    basis = np.stack([nf * np.log(nf), nf, np.log(nf), np.ones_like(nf)], axis=1)
    beta, *_ = np.linalg.lstsq(basis, -logs, rcond=None)
    alpha = float(beta[0])
    order = math.inf if alpha <= 1e-12 else 1.0 / alpha
    return GrowthEstimate(order=order, type=0.0, n_used=tuple(int(n) for n in ns))


def estimate_type(series: TaylorSeries, rho: float) -> GrowthEstimate:
    """Estimate exponential type at a known order rho.

    Uses tau = limsup n |c_n|^{rho/n} / (e rho): over the tail window the
    quantity u_n = log n + (rho/n) log|c_n| tends to log(e rho tau) with an
    O(log n / n) correction, so tau comes from the intercept of a fit of u_n
    against {1, log n / n, 1/n}. Polynomial series report type 0.
    """
    _require(rho > 0 and math.isfinite(rho), f"order must be positive, got {rho}")
    tail = _usable_tail(series)
    if tail is None:
        return GrowthEstimate(order=0.0, type=0.0)
    ns, logs = tail
    nf = ns.astype(float)
    u = np.log(nf) + (rho / nf) * logs
    basis = np.stack([np.ones_like(nf), np.log(nf) / nf, 1.0 / nf], axis=1)
    beta, *_ = np.linalg.lstsq(basis, u, rcond=None)
    tau = math.exp(float(beta[0])) / (math.e * rho)
    return GrowthEstimate(order=float(rho), type=tau, n_used=tuple(int(n) for n in ns))


def predicted_growth(m: float, a: float) -> GrowthEstimate:
    """Order and type of the entire continuation for a decay profile exp(-a |xi|^m).

    order rho = m/(m-1) and type
    tau = ((m-1)/m) (2 pi)^{m/(m-1)} (a m)^{-1/(m-1)}; both blow up as m -> 1,
    so the type is assembled in the log domain and overflow is reported
    rather than returned as inf.
    """
    _require(m > 1 and math.isfinite(m), f"decay exponent m must exceed 1, got {m}")
    _require(a > 0 and math.isfinite(a), f"decay rate a must be positive, got {a}")
    rho = m / (m - 1.0)
    log_tau = math.log((m - 1.0) / m) + rho * math.log(2.0 * math.pi) - math.log(a * m) / (m - 1.0)
    if log_tau > _LOG_FLOAT_MAX:
        raise EvaluationOverflowError(f"predicted type has log magnitude {log_tau:.1f}, beyond float range")
    return GrowthEstimate(order=rho, type=math.exp(log_tau))


def _eval_complex(f, z: np.ndarray) -> np.ndarray:
    """Evaluate f on a complex array, falling back to elementwise calls."""
    try:
        out = np.asarray(f(z), dtype=complex)
        if out.shape == z.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([complex(f(w)) for w in z.ravel()], dtype=complex).reshape(z.shape)


def jensen_integral(f, r: float, n_theta: int = 1024) -> float:
    """Circle mean of log|f| at radius r, minus log|f(0)|.

    By Jensen's formula this equals the integral of n(t)/t up to r, so it is
    nonnegative and nondecreasing in r for entire f. The mean uses the
    rectangle rule (spectrally accurate here); grid points where |f| is below
    1e-300 trigger a warning and propagate -inf rather than failing.
    """
    _require(r > 0 and math.isfinite(r), f"radius must be positive, got {r}")
    _require(n_theta >= 64, f"need n_theta >= 64, got {n_theta}")
    f0 = complex(_eval_complex(f, np.zeros(1, dtype=complex))[0])
    if abs(f0) < 1e-300:
        raise ZeroAtOriginError("f vanishes at the origin; divide out the zero first")
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    vals = _eval_complex(f, r * np.exp(1j * theta))
    mags = np.abs(vals)
    if np.any(mags < 1e-300):
        warnings.warn("log|f| is singular on the circle; the mean may be -inf", RuntimeWarning)
    with np.errstate(divide="ignore"):
        logs = np.log(mags)
    return float(np.mean(logs) - math.log(abs(f0)))


def zero_count_bound(r: float, s: float, c_bound: float, b: float, rho: float) -> int:
    """Upper bound on the number of zeros in |z| <= r of any f with |f| <= c_bound exp(b |z|^rho).

    Jensen's formula gives n(r) <= (log c_bound + b (s r)^rho) / log s for any s > 1.
    """
    _require(r > 0, f"radius must be positive, got {r}")
    _require(s > 1, f"dilation s must exceed 1, got {s}")
    _require(c_bound > 0, f"envelope constant must be positive, got {c_bound}")
    _require(b >= 0, f"envelope coefficient must be nonnegative, got {b}")
    _require(rho > 0, f"envelope order must be positive, got {rho}")
    try:
        value = (math.log(c_bound) + b * (s * r) ** rho) / math.log(s)
    except OverflowError as exc:
        raise EvaluationOverflowError("zero-count envelope overflows the float range") from exc
    if not math.isfinite(value):
        raise EvaluationOverflowError("zero-count envelope overflows the float range")
    return max(0, math.floor(value))


# Ratio edges for the banded far-zero evaluation. Zeros at least 2.2 |w| away
# admit a geometric tail series; the per-band term count keeps the truncation
# error near 1e-19 at the inner edge and shrinks as the ratio grows.
_BAND_EDGES = (2.2, 8.0, 64.0, 1024.0)
# Zeros per slice in the evaluator's loops. Its two 512 KB buffers stay in a 2 MB
# per-core L2 cache; 2^17 spilled it and ran the band sums at half the speed.
_CHUNK = 1 << 16


def _cut(zeros: np.ndarray, t: float, side: str, squared: bool) -> int:
    """np.searchsorted(zeros, t, side), or of zeros * zeros when squared, without the squares.

    The squares fl(x * x) of positive floats never decrease as x grows, so the
    first index past t among them is found by a search on sqrt(t) and a step
    or two of correction against the rounded squares themselves.
    """
    if not squared:
        return int(np.searchsorted(zeros, t, side))
    if t != t:
        return zeros.size  # NaN sorts last
    k = int(np.searchsorted(zeros, math.sqrt(max(t, 0.0)), side))

    def before(x):
        x = float(x)  # a Python float square past the range is inf without a warning
        return x * x <= t if side == "right" else x * x < t

    while k > 0 and not before(zeros[k - 1]):
        k -= 1
    while k < zeros.size and before(zeros[k]):
        k += 1
    return k


def _square(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x * x, silent on overflow.

    A square past the float range is an infinitely far zero, and the
    validation of the sequence has warned of it already.
    """
    with np.errstate(over="ignore"):
        return np.multiply(x, x, out=out)


@np.errstate(divide="ignore", invalid="ignore")
def _log_product(zeros: np.ndarray, p: int, ws: np.ndarray, squared: bool = False) -> np.ndarray:
    """Complex log of prod_k G(w / omega_k; p) on a flat complex array.

    Zeros within 2.2x of the batch's largest |w| contribute direct factor logs;
    the (typically vast) remainder enters through per-band power sums, an exact
    rearrangement of the tail log series. Bands are keyed to the largest |w|, so
    smaller points see larger ratios and the same truncation bound. A point on
    a zero gets real part -inf. With squared, the zeros are omega_k = x_k^2 for
    the given x_k, squared one slice at a time where they are read, so no
    sequence-length array of squares is ever formed; the squares are the same
    floats as those of zeros * zeros, and so is the result.
    """
    out = np.zeros(ws.shape, dtype=complex)
    wmax = float(np.abs(ws).max()) if ws.size else 0.0
    if wmax == 0.0:
        return out

    cuts = [_cut(zeros, e * wmax, "right", squared) for e in _BAND_EDGES] + [zeros.size]
    near = zeros[:cuts[0]]
    step = max(1, _CHUNK // max(near.size, 1))
    for i in range(0, ws.size, step):
        for k in range(0, near.size, _CHUNK):
            omega = _square(near[k:k + _CHUNK]) if squared else near[k:k + _CHUNK]
            u = ws[i:i + step, None] / omega
            term = np.log(1.0 - u)
            for j in range(1, p + 1):
                term = term + u**j / j
            out[i:i + step] += term.sum(axis=1)

    # per-band sums T_j = sum (wmax / omega_k)^j = wmax^j S_j, all below 1 per term, so
    # no power leaves the float range; they are consumed as -sum_{j>p} (w / wmax)^j T_j / j
    j_caps = [max(p + 1, min(60, math.ceil(43.0 / math.log(e)))) for e in _BAND_EDGES]
    sums = np.zeros(max(j_caps) + 1)
    inv, power = np.empty(_CHUNK), np.empty(_CHUNK)
    for j_max, lo, hi in zip(j_caps, cuts[:-1], cuts[1:]):
        for k in range(lo, hi, _CHUNK):
            n = min(_CHUNK, hi - k)
            iv, pw = inv[:n], power[:n]
            omega = _square(zeros[k:k + n], out=iv) if squared else zeros[k:k + n]
            np.divide(wmax, omega, out=iv)
            pw[:] = 1.0
            for j in range(1, j_max + 1):
                pw *= iv
                if j > p:
                    sums[j] += pw.sum()
    ratio = ws / wmax
    wpow = ratio ** (p + 1)
    for j in range(p + 1, sums.size):
        out -= wpow * (sums[j] / j)
        wpow *= ratio
    return out


def _eval_point(zeros: np.ndarray, p: int, w: complex, squared: bool = False) -> complex:
    """One point of the product, exactly 0 on a zero; the evaluator behind both public point calls."""
    if w == 0:
        return 1 + 0j
    if w.imag == 0.0:
        k = _cut(zeros, w.real, "left", squared)
        if k < zeros.size:
            x = float(zeros[k])
            if (x * x if squared else x) == w.real:
                return 0j
    total = complex(_log_product(zeros, p, np.array([w]), squared)[0])
    if total.real > _LOG_FLOAT_MAX:
        raise EvaluationOverflowError(f"product magnitude exponent {total.real:.1f} exceeds the float range")
    return complex(np.exp(total))


def _log_magnitudes(zeros: np.ndarray, p: int, ws, squared: bool = False) -> np.ndarray:
    """Real part of the banded log on an array of points of any shape."""
    ws = np.atleast_1d(np.asarray(ws, dtype=complex))
    return _log_product(zeros, p, ws.ravel(), squared).real.reshape(ws.shape)


def canonical_product_eval(product: CanonicalProduct, w) -> complex:
    """Evaluate prod_k G(w / omega_k; p) at one point.

    The exp of the banded complex log, phase included; raises
    EvaluationOverflowError if the magnitude exponent leaves the float range.
    Points equal to a zero return exactly 0.
    """
    return _eval_point(product.zeros, product.genus, complex(w))


def canonical_product_log_magnitudes(product: CanonicalProduct, ws) -> np.ndarray:
    """log|product| on an array of points (the real part of the banded log; -inf on a zero)."""
    return _log_magnitudes(product.zeros, product.genus, ws)


def _counterexample_sequence(lambdas, rho: float) -> tuple[np.ndarray, int]:
    """The validated sequence and the genus floor(rho/2) of its product over the squares.

    Checks what CanonicalProduct(lam * lam) would, with the same errors, from
    one pass over lam: check_squares_increasing squares only the ends where
    neighbouring squares can round together.
    """
    lam = np.asarray(lambdas, dtype=float)
    _require(lam.ndim == 1 and lam.size >= 1, "sequence must be a nonempty 1-d array")
    check_increasing(lam, "sequence entries")
    _require(rho > 1 and math.isfinite(rho), f"order rho must exceed 1, got {rho}")
    check_squares_increasing(lam, "zeros")
    return lam, int(math.floor(rho / 2.0))


def build_counterexample_product(lambdas, rho: float) -> CanonicalProduct:
    """Canonical product with zeros lambda_k^2, genus matched to order rho in z.

    The product V(w) of genus floor(rho/2) over the squared sequence makes
    F(z) = V(z^2) an even entire function of order rho vanishing at every
    +-lambda_k. Every given term is a factor; pass lambdas[:K] for fewer.
    The counterexample_* functions evaluate the same product without building
    it, from the sequence itself.
    """
    lam, genus = _counterexample_sequence(lambdas, rho)
    # the product checks all the squares once more, as it does for any zeros
    return CanonicalProduct(zeros=lam * lam, genus=genus)


def counterexample_eval(lambdas, rho: float, z) -> complex:
    """F(z) = V(z^2) for the canonical product over the squared sequence.

    Vanishes exactly at +-lambda_k for every k (the squared argument hits the
    square lambda_k * lambda_k bit for bit). The squares are formed per slice
    where the evaluation reads them, and validated as build_counterexample_product
    does, from one pass over the sequence.
    """
    lam, genus = _counterexample_sequence(lambdas, rho)
    z = complex(z)
    return _eval_point(lam, genus, z * z, squared=True)


def counterexample_log_magnitudes(lambdas, rho: float, zs) -> np.ndarray:
    """log|F| on an array of z points, through the banded product evaluation.

    The squares of the sequence are formed per slice, as in counterexample_eval.
    """
    lam, genus = _counterexample_sequence(lambdas, rho)
    zs = np.asarray(zs, dtype=complex)
    return _log_magnitudes(lam, genus, zs * zs, squared=True)


def counterexample_growth_coefficient(lambdas, rho: float, radii=(4.0, 8.0, 16.0),
                                      n_theta: int = 64, b: float | None = None):
    """Fit log max_theta |F(r e^{i theta})| = coeff * r^rho + const over the radii.

    Returns (coeff, ((r, log_max), ...)). The fit is the operational check
    that the construction stays within type b at the probed radii. When b is
    given and there are at least 16 terms, a sequence whose density does not
    clear the non-uniqueness threshold gets a warning: the construction then
    separates nothing. The fit is a power-law heuristic, so sequences far
    from lambda_k ~ c k^{1/rho} get a warning rather than silent nonsense.
    When rho/2 is an integer, the genus-rho/2 product grows like |u| log|u|
    in u = z^rho / c^rho, which is infinite type: the fitted coefficient
    rises with the radii, so "below b" depends on the radii chosen. At
    rho = 2, c = 1.5 it is 2.33, 2.91 and 3.48 for radii (4, 8, 16),
    (8, 16, 32) and (16, 32, 64).
    """
    _require(n_theta >= 16, f"need n_theta >= 16, got {n_theta}")
    radii = np.asarray(radii, dtype=float)
    _require(radii.ndim == 1 and radii.size >= 2, "need at least two radii")
    _require(bool(np.all((radii > 0) & np.isfinite(radii))), "radii must be positive and finite")
    lam, genus = _counterexample_sequence(lambdas, rho)
    tail = tail_ratios(lam, rho)
    if b is not None and lam.size >= 16 and not tail_density(tail) > nonuniqueness_threshold(rho, b):
        warnings.warn("sequence density does not clear the non-uniqueness threshold; the "
                      "vanishing construction does not separate anything here", RuntimeWarning)
    if float(tail.max() / tail.min()) > 1.05:
        warnings.warn("sequence is not close to a power law; the growth fit is heuristic",
                      RuntimeWarning)
    zs = radii[:, None] * np.exp(1j * np.arange(n_theta) * (2.0 * math.pi / n_theta))
    log_max = _log_magnitudes(lam, genus, zs * zs, squared=True).max(axis=1)
    basis = np.stack([radii**rho, np.ones_like(radii)], axis=1)
    beta, *_ = np.linalg.lstsq(basis, log_max, rcond=None)
    samples = tuple((float(r), float(v)) for r, v in zip(radii, log_max))
    return float(beta[0]), samples

