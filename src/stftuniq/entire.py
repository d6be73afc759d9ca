"""Growth analysis for entire functions arising as Fourier transforms.

Closed-form log magnitudes of the Taylor coefficients of a window's entire
extension (from the Gamma-function absolute moments of its even profile),
one order/type estimate from their decay, the predicted growth of a decay
profile (from the log-domain chain in sampling), Jensen's zero-count bound, and
the symmetric counterexample F(z) = prod_k G((z / lambda_k)^2; floor(rho/2))
as one type, CounterexampleProduct, with banded evaluation in z. F vanishes
exactly at every +-lambda_k, which are distinct whenever the lambda_k are,
and the squares lambda_k^2 are never formed. A product is built without a
copy or a pass over its sequence; every evaluation checks that the lambda_k
rise strictly inside its own sweep over the sequence, slice by slice while
each slice is in cache, so the check makes no pass over memory of its own.
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
    _caller_stacklevel,
    _count,
    _real,
    _real_array,
    _require,
)
from .sampling import (
    _CHUNK,
    _check_slice,
    _log_growth,
    check_increasing,
    nonuniqueness_threshold,
    tail_density,
    tail_ratios,
)
from .windows import WindowModel

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class TaylorSeries:
    """log|c_n| for the Taylor coefficients c_0 .. c_N of an entire function about the origin.

    An entry is -inf where c_n = 0; no entry is NaN or +inf.
    """

    log_magnitudes: np.ndarray

    def __post_init__(self) -> None:
        logs = _real_array(self.log_magnitudes, "log magnitudes")
        object.__setattr__(self, "log_magnitudes", logs)
        _require(logs.ndim == 1, "log magnitudes must be one-dimensional")
        _require(logs.size >= 3, "need at least coefficients c_0, c_1, c_2")
        # NaN fails the comparison too
        _require(bool(np.all(logs < math.inf)), "log magnitudes must be finite or -inf")

    @property
    def truncation(self) -> int:
        """The index N of the last coefficient."""
        return self.log_magnitudes.size - 1


@dataclass(frozen=True)
class GrowthEstimate:
    """Order, type (None past the float range), log type, and the coefficient indices behind an estimate."""

    order: float
    type: float | None
    log_type: float
    n_used: tuple[int, ...] = ()


@dataclass(frozen=True)
class CounterexampleProduct:
    """F(z) = prod_k G((z / lambda_k)^power; genus) over a sequence lambda_k of order rho.

    Genus floor(rho/2) and power 2 make F(z) = V(z^2), with V the canonical
    product over the squares lambda_k^2, an even entire function of order
    rho vanishing at every +-lambda_k. Every given term is a factor; pass
    lambdas[:K] for fewer. A float array is held as given, without a copy;
    only its dtype, shape and rho are checked here. canonical_product_eval
    and canonical_product_log_magnitudes check that it starts positive,
    rises strictly and ends finite in their own sweep over it.
    """

    lambdas: np.ndarray
    rho: float

    def __post_init__(self) -> None:
        lam = _real_array(self.lambdas, "sequence entries")
        object.__setattr__(self, "lambdas", lam)
        _require(lam.ndim == 1 and lam.size >= 1, "sequence must be a nonempty 1-d array")
        object.__setattr__(self, "rho", _real(self.rho, "order rho", 1.0))

    @property
    def genus(self) -> int:
        return math.floor(self.rho / 2.0)

    @property
    def power(self) -> int:
        return 2


def _log_moment(n: int, a: float, m: float) -> float:
    """log of 2 Gamma((n+1)/m) / (m a^((n+1)/m)), the absolute moment below."""
    return math.log(2.0) - math.log(m) - ((n + 1) / m) * math.log(a) + math.lgamma((n + 1) / m)


def moment_integral(n: int, a: float, m: float) -> float:
    """Absolute moment int |xi|^n exp(-a |xi|^m) d xi over the whole line.

    Equals 2 Gamma((n+1)/m) / (m a^((n+1)/m)); evaluated through log-Gamma so
    large n cannot overflow intermediates, raising only when the value itself
    leaves the float range.
    """
    n = _count(n, "moment index", 0)
    a, m = _real(a, "decay rate a", 0.0), _real(m, "decay exponent m", 1.0, closed=True)
    log_val = _log_moment(n, a, m)
    if log_val > _LOG_FLOAT_MAX:
        raise EvaluationOverflowError(f"moment of index {n} has log magnitude {log_val:.1f}, beyond float range")
    return math.exp(log_val)


def taylor_coefficients(window: WindowModel, n_terms: int) -> TaylorSeries:
    """log|c_n| for F(z) = int ghat(xi) e^{2 pi i xi z} d xi about z = 0, in closed form.

    For ghat = exp(-a |xi|^m) the odd moments vanish, so odd coefficients
    are exact zeros (log magnitude -inf, which the estimator relies on), and
    the even ones have |c_n| = (2 pi)^n / n! M_n with M_n the absolute moment
    (moment_integral). Every magnitude stays in the log domain, so no n_terms
    and no window leaves the float range.
    """
    _require(isinstance(window, WindowModel), "taylor_coefficients needs a WindowModel")
    n_terms = _count(n_terms, "n_terms", 2)
    logs = np.full(n_terms + 1, -math.inf)
    for n in range(0, n_terms + 1, 2):
        logs[n] = n * math.log(2.0 * math.pi) - math.lgamma(n + 1) + _log_moment(n, window.a, window.m)
    return TaylorSeries(logs)


def _usable_tail(series: TaylorSeries):
    """Tail-window indices and log magnitudes, or None for a polynomial series."""
    logs = series.log_magnitudes
    N = series.truncation
    nz = np.flatnonzero(np.isfinite(logs))
    nz = nz[nz >= 1]
    if nz.size == 0 or nz.max() <= N // 2:
        # the trailing half vanishes identically: polynomial input
        return None
    if nz.size < 10:
        raise InsufficientDataError(f"need at least 10 nonzero coefficients, have {nz.size}")
    window = nz[nz >= N // 2]
    if window.size < 5:
        window = nz[-10:]
    return window, logs[window]


def estimate_growth(series: TaylorSeries, rho: float) -> GrowthEstimate:
    """Exponential order fitted from coefficient decay, and the type at a known order rho.

    For order-rho type-tau growth, -log|c_n| = (1/rho) n log n + O(n), so the
    order is recovered from the n log n coefficient of a least-squares fit of
    -log|c_n| against {n log n, n, log n, 1} over the tail window [N/2, N].
    The extra basis members absorb the lower-order bias that the bare ratio
    n log n / log(1/|c_n|) keeps at any reachable N.

    The type at the given rho (not the fitted order) uses tau = limsup
    n |c_n|^{rho/n} / (e rho): over the same window u_n = log n +
    (rho/n) log|c_n| tends to log(e rho tau) with an O(log n / n) correction,
    so log tau comes from the intercept of a fit of u_n against
    {1, log n / n, 1/n}. log_type is always a float; type is None where tau
    passes the float range, as in predicted_growth. Series whose trailing
    half vanishes identically are read as polynomials, of order and type 0.
    """
    rho = _real(rho, "order rho", 0.0)
    tail = _usable_tail(series)
    if tail is None:
        return GrowthEstimate(order=0.0, type=0.0, log_type=-math.inf)
    ns, logs = tail
    nf = ns.astype(float)
    basis = np.stack([nf * np.log(nf), nf, np.log(nf), np.ones_like(nf)], axis=1)
    beta, *_ = np.linalg.lstsq(basis, -logs, rcond=None)
    alpha = float(beta[0])
    order = math.inf if alpha <= 1e-12 else 1.0 / alpha
    u = np.log(nf) + (rho / nf) * logs
    basis = np.stack([np.ones_like(nf), np.log(nf) / nf, 1.0 / nf], axis=1)
    beta, *_ = np.linalg.lstsq(basis, u, rcond=None)
    log_e_rho_tau = float(beta[0])
    log_tau = log_e_rho_tau - 1.0 - math.log(rho)
    # e^intercept / (e rho) wherever e^intercept is a float, the rounding C2 and the CLI print
    tau = (math.exp(log_e_rho_tau) / (math.e * rho) if log_e_rho_tau <= _LOG_FLOAT_MAX
           else math.exp(log_tau) if log_tau <= _LOG_FLOAT_MAX else None)
    return GrowthEstimate(order=order, type=tau, n_used=tuple(int(n) for n in ns), log_type=log_tau)


def predicted_growth(m: float, a: float) -> GrowthEstimate:
    """Order and type of the entire continuation for a decay profile exp(-a |xi|^m).

    order rho = m/(m-1) and type tau = ((m-1)/m) (2 pi)^{m/(m-1)} (a m)^{-1/(m-1)},
    by the log-domain chain of the step bounds. Both blow up as m -> 1, where
    log_type stays a float and type is None, so no caller reads tau as inf.
    """
    m, a = _real(m, "decay exponent m", 1.0), _real(a, "decay rate a", 0.0)
    rho, log_tau = _log_growth(m, a)
    return GrowthEstimate(order=rho, type=math.exp(log_tau) if log_tau <= _LOG_FLOAT_MAX else None,
                          log_type=log_tau)


def zero_count_bound(r: float, s: float, c_bound: float, b: float, rho: float) -> int:
    """Upper bound on the number of zeros in |z| <= r of any f with |f| <= c_bound exp(b |z|^rho).

    Jensen's formula gives n(r) <= (log c_bound + b (s r)^rho) / log s for any s > 1.
    At s = e^{1/rho} and c_bound = 1 the bound is b rho e r^rho, which equals
    2 (r / delta)^rho at the uniqueness threshold delta of order rho and type b.
    """
    r, s = _real(r, "radius", 0.0), _real(s, "dilation s", 1.0)
    c_bound, b = _real(c_bound, "envelope constant", 0.0), _real(b, "envelope coefficient", 0.0, closed=True)
    rho = _real(rho, "envelope order", 0.0)
    try:
        value = (math.log(c_bound) + b * (s * r) ** rho) / math.log(s)
    except OverflowError as exc:
        raise EvaluationOverflowError("zero-count envelope overflows the float range") from exc
    if not math.isfinite(value):
        raise EvaluationOverflowError("zero-count envelope overflows the float range")
    return max(0, math.floor(value))


# Ratio edge of the far zeros. Zeros with a factor argument |u| = (|v| / zeta_k)^q
# of at most 1/2.2 admit a geometric tail series. Each slice of them sums the
# powers its first (largest) ratio needs for a truncation error near
# e^-43 = 2e-19: 55 at the edge, fewer further out.
_FAR_EDGE = 2.2
_TERMS_CAP = math.ceil(43.0 / math.log(_FAR_EDGE))
# what the evaluation names the sequence by when its check fails
_SEQUENCE = "sequence entries"


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _log_product(zeros: np.ndarray, p: int, vs: np.ndarray, q: int) -> np.ndarray:
    """Complex log of prod_k G((v / zeta_k)^q; p) on a flat complex array.

    The counterexample's power q = 2 is the even product V(z^2) over the
    squares zeta_k^2, read in z, so the squares are never formed; q = 1
    would be the canonical product over the zeta_k themselves. Zeros within
    (2.2)^(1/q) of the batch's largest |v| contribute direct factor logs; the
    (typically vast) remainder enters through power sums, an exact
    rearrangement of the tail log series. Each
    slice sums the powers j = p+1 .. j_max its own first ratio needs; it
    keeps the powers u^floor((p+1)/2) .. u^ceil(j_max/2) of its ratios u in
    one buffer of 2 _CHUNK floats (at most 30 rows, so slices needing more
    than two rows are shorter) and takes T_j = u^floor(j/2) . u^ceil(j/2)
    as a dot product; points below the largest |v| see a tighter bound. A
    point on a zero gets -inf and enters no sum, so the other factors at
    that point cannot overflow; a factor argument past the float range
    raises EvaluationOverflowError.

    The zeros are checked to start positive, rise strictly and end finite
    (check_increasing's errors, naming the sequence entries) in the same
    sweep: each far slice
    right after its ratios are formed, while it is in cache, and the near
    zeros on their own. Calls with no sum to take check the whole array.
    """
    vmax = float(np.abs(vs).max()) if vs.size else 0.0
    _require(math.isfinite(vmax), "evaluation points must be finite")
    # (v / zeta_k)^q = 1 has the real root v = zeta_k, and v = -zeta_k for even q
    x = vs.real if q % 2 else np.abs(vs.real)
    k = np.minimum(np.searchsorted(zeros, x), zeros.size - 1)
    on_zero = (vs.imag == 0.0) & (zeros[k] == x)
    if on_zero.all() or vmax == 0.0:
        check_increasing(zeros, _SEQUENCE)
        return np.where(on_zero, complex(-math.inf, 0.0), 0j)
    if on_zero.any():
        out = np.full(vs.shape, complex(-math.inf, 0.0))
        out[~on_zero] = _log_product(zeros, p, vs[~on_zero], q)
        return out
    out = np.zeros(vs.shape, dtype=complex)

    # (vmax / zeta_k)^q <= 1 / 2.2 from the cut on; near and far together cover every entry
    cut = int(np.searchsorted(zeros, _FAR_EDGE ** (1.0 / q) * vmax, "right"))
    near = zeros[:cut]
    check_increasing(near, _SEQUENCE)
    # blocks of _CHUNK / 8 complex entries: four live temporaries fill one float slice
    step = max(1, _CHUNK // 8 // max(near.size, 1))
    for i in range(0, vs.size, step):
        for k in range(0, near.size, _CHUNK):
            u = vs[i:i + step, None] / near[k:k + _CHUNK]
            if q != 1:
                u **= q
            # the genus terms sum u^j / j for j = 1..p by Horner's rule
            poly = 0.0
            for j in range(p, 0, -1):
                poly = (poly + 1.0 / j) * u
            out[i:i + step] += (np.log(1.0 - u) + poly).sum(axis=1)

    # sums T_j = sum (vmax / zeta_k)^(q j) over the far zeros, all below 1 per
    # term, so no power leaves the float range; they are consumed as
    # -sum_{j>p} (v / vmax)^(q j) T_j / j
    sums = np.zeros(max(p + 1, _TERMS_CAP) + 1)
    buf = np.empty(2 * _CHUNK)
    k = cut
    while k < zeros.size:
        # only an unordered array, which fails its check below, has a lead of at most 1 or NaN
        lead = zeros[k] / vmax
        j_top = _TERMS_CAP if not lead > 1.0 else math.ceil(43.0 / (q * math.log(lead)))
        j_top = max(p + 1, min(_TERMS_CAP, j_top))
        # rows u^a .. u^c cover both halves of every j in p+1 .. j_top, and a last row
        # keeps u itself when a > 1; that is at most 30 rows, whatever the genus
        a, c = max(1, (p + 1) // 2), (j_top + 1) // 2
        rows = c - a + 1 + (a > 1)
        n = min(_CHUNK, 2 * _CHUNK // rows, zeros.size - k)
        pows = buf[:rows * n].reshape(rows, n)
        u = pows[-1] if a > 1 else pows[0]
        np.divide(vmax, zeros[k:k + n], out=u)
        _check_slice(zeros, k, n, _SEQUENCE)
        if q != 1:
            u **= q
        if a > 1:
            np.power(u, a, out=pows[0])
        for i in range(1, c - a + 1):
            np.multiply(pows[i - 1], u, out=pows[i])
        for j in range(p + 1, j_top + 1):
            half = j // 2
            sums[j] += np.dot(pows[half - a], pows[j - half - a]) if half else u.sum()
        k += n
    ratio = vs / vmax
    if q != 1:
        ratio **= q
    vpow = ratio ** (p + 1)
    for j in range(p + 1, sums.size):
        out -= vpow * (sums[j] / j)
        vpow *= ratio
    # an overflowed u leaves log|1 - u| + Re sum u^j / j at inf, or at inf - inf = nan
    if not np.all(out.real < math.inf):
        raise EvaluationOverflowError("a factor of the product leaves the float range")
    return out


def canonical_product_eval(product: CounterexampleProduct, z) -> complex:
    """F(z) at one point: the exp of the banded complex log, phase included.

    Exactly 0 at every +-lambda_k; raises EvaluationOverflowError where |F(z)|
    leaves the float range.
    """
    total = complex(_log_product(product.lambdas, product.genus, np.array([complex(z)]), product.power)[0])
    if total.real > _LOG_FLOAT_MAX:
        raise EvaluationOverflowError(f"product magnitude exponent {total.real:.1f} exceeds the float range")
    return complex(np.exp(total))


def canonical_product_log_magnitudes(product: CounterexampleProduct, zs) -> np.ndarray:
    """log|F| on an array of z points of any shape: the real part of the banded log, -inf at +-lambda_k."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    return _log_product(product.lambdas, product.genus, zs.ravel(), product.power).real.reshape(zs.shape)


def build_counterexample_product(lambdas, rho: float) -> CounterexampleProduct:
    """The CounterexampleProduct of order rho over the sequence, which is neither copied nor swept here."""
    return CounterexampleProduct(lambdas, rho)


def counterexample_eval(lambdas, rho: float, z) -> complex:
    """F(z) for the sequence and rho, through the built product; see canonical_product_eval."""
    return canonical_product_eval(build_counterexample_product(lambdas, rho), z)


def counterexample_log_magnitudes(lambdas, rho: float, zs) -> np.ndarray:
    """log|F| on an array of z points, through the built product; see canonical_product_log_magnitudes."""
    return canonical_product_log_magnitudes(build_counterexample_product(lambdas, rho), zs)


def counterexample_growth_fit(product: CounterexampleProduct, radii, n_theta: int, b: float | None):
    """counterexample_growth_coefficient's fit and samples, the tail density, and whether F vanished.

    The density is None unless b is given and there are at least 16 terms.
    The ring's evaluation also takes the zeros lambda_1 and -lambda_5 (or
    -lambda_K for K < 5), and the last item says whether F is exactly 0 at
    both; the on-zero split hands the sweep the ring alone, so they leave its
    values as they are. The warnings come after the evaluation has checked
    the sequence, so a bad sequence raises before any of them.
    """
    n_theta = _count(n_theta, "n_theta", 16)
    radii = _real_array(radii, "radii")
    _require(bool(np.all((radii > 0) & np.isfinite(radii))), "radii must be positive and finite")
    # the fit has two unknowns, so one radius, however often repeated, cannot fix them
    _require(radii.ndim == 1 and len(set(radii.tolist())) >= 2, "need at least two distinct radii")
    rho, lam = product.rho, product.lambdas
    threshold = None if b is None else nonuniqueness_threshold(rho, b)
    ring = radii[:, None] * np.exp(1j * np.arange(n_theta) * (2.0 * math.pi / n_theta))
    logs = canonical_product_log_magnitudes(product, np.append(ring, [lam[0], -lam[min(4, lam.size - 1)]]))
    log_max = logs[:-2].reshape(ring.shape).max(axis=1)
    tail = tail_ratios(lam, rho)
    density = None
    if threshold is not None and lam.size >= 16:
        density = tail_density(tail)
        if not density > threshold:
            warnings.warn("sequence density does not clear the non-uniqueness threshold; the "
                          "vanishing construction does not separate anything here", RuntimeWarning,
                          stacklevel=_caller_stacklevel())
    if tail.high / tail.low > 1.05:
        warnings.warn("sequence is not close to a power law; the growth fit is heuristic",
                      RuntimeWarning, stacklevel=_caller_stacklevel())
    if radii.max() > 0.5 * lam[-1]:
        warnings.warn(f"fit radius {radii.max():g} passes half the last sequence term "
                      f"{lam[-1]:.6g}; the missing terms' zeros would change the fit",
                      RuntimeWarning, stacklevel=_caller_stacklevel())
    basis = np.stack([radii**rho, np.ones_like(radii)], axis=1)
    beta, *_ = np.linalg.lstsq(basis, log_max, rcond=None)
    samples = tuple((float(r), float(v)) for r, v in zip(radii, log_max))
    return float(beta[0]), samples, density, bool(np.all(logs[-2:] == -math.inf))


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
    coeff, samples, *_ = counterexample_growth_fit(build_counterexample_product(lambdas, rho), radii, n_theta, b)
    return coeff, samples
