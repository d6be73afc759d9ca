"""Shared one-dimensional quadrature utilities.

Every line integral in this package reduces to a smooth, super-exponentially
decaying integrand on a symmetric interval [-R, R], possibly with a derivative
kink (|xi|^m terms with m not an even integer). Gauss-Legendre panels put
every kink on a panel edge. On a plain panel a d^m kink at the edge limits
the error to n^(-2(m+1)) (Davis & Rabinowitz, Methods of Numerical
Integration, 1984), so graded_nodes maps the panel quadratically onto the
kink: the kink term becomes y^(2m), which is polynomial at m = 1.5 and far
smoother at other m, and the error falls spectrally again (a polynomial
grading in the spirit of Sidi's 1993 transformations). Against a
65536-node plain rule, the half-line cosine transform of e^(-2 xi^m) on
t in [0, 8] is within 2e-14 of max|g| from 512 graded nodes at m = 1.1,
1.2, 1.5 and 3; 512 plain nodes give 1.5e-10 at m = 1.1.
Every quadrature in the package is checked by one routine, refine: it
doubles the nodes until two successive levels agree to tol against the
finer level's scale, at most _MAX_DOUBLINGS = 4 times, so the worst case is
nodes * 16 points per half, 4096 at the defaults.

An n-point Gauss-Legendre rule is built once per process by Newton's method,
with P_n and P_n' from the three-term recurrence vectorised over the nodes.
The start is Tricomi's asymptotic guess in the interior and the Frenzen-Wong
Bessel-zero guess for the 30 nodes nearest each end. From n = 2048 on every
Newton step is then below the 1e-14 stopping test, so one pass over all
nodes confirms them. At n = 256 and 512 most steps are still above it, so
a second pass confirms the nodes the first one moved (128, then 122 nodes at
n = 256; 256, then 220 at n = 512). That is O(n^2) flops: about 3 ms at
n = 256, 6 ms at n = 512, 0.02 s at n = 2048 and 0.03 s at n = 4096 on a
2-core Xeon, against 0.13 s and 0.48 s for the Golub-Welsch eigenvalue
route at the last two. Against a 32-digit mpmath recurrence the nodes are
correct to 1e-16 and the weights to 2e-11 relative at the outermost node
(n = 4096), 1e-14 in the interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError, QuadratureConvergenceError

_MAX_DOUBLINGS = 4


@dataclass(frozen=True)
class QuadratureConfig:
    """Settings for truncated-interval quadrature.

    Every truncation radius follows from the integrand's own decay, so it is
    no setting. nodes counts Gauss-Legendre points per half-interval or
    panel; doubling stops once successive results agree to tol relative to
    the result's scale, at most _MAX_DOUBLINGS times. The
    default starts at 256 nodes, which suffices for the smooth integrands
    and, with graded panels, for the |xi|^m kinks; the ceiling is
    256 * 2**4 = 4096 nodes per half, and a case that needs more raises
    QuadratureConvergenceError.
    """

    nodes: int = 256
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (isinstance(self.nodes, (int, np.integer)) and self.nodes >= 64):
            raise InvalidParameterError(f"quadrature needs an integer of at least 64 nodes, got {self.nodes!r}")
        if not (0 < self.tol < 1):
            raise InvalidParameterError(f"quadrature tol must lie in (0, 1), got {self.tol}")


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
    """Nodes and weights for [-radius, radius], split at 0, `nodes` points per half.

    The [0, radius] panel is built once and mirrored, so the nodes are
    exactly antisymmetric and the weights exactly symmetric: time_window_values
    then tables only the non-negative half of a line's nodes.
    """
    t, w = panel_nodes(np.array([0.0, radius]), nodes)
    return np.concatenate([-t[::-1], t]), np.concatenate([w[::-1], w])


def panel_nodes(edges: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on the panels between consecutive edges, `nodes` points per panel.

    edges is a nondecreasing 1-D array of P + 1 edges; both outputs have
    P * nodes entries.
    """
    x, w = _legendre_rule(nodes)
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    return (lo + half * (x + 1.0)).ravel(), (half * w).ravel()


def graded_nodes(kink: float, end: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on the panel from kink to end, graded toward the kink.

    y in [0, 1] maps to kink + (end - kink) * y^2 with weight 2 |end - kink| y,
    so a d^m kink at the panel's kink edge enters the rule as y^(2m + 1).
    """
    x, w = _legendre_rule(nodes)
    y = 0.5 * (x + 1.0)
    span = end - kink
    return kink + span * (y * y), abs(span) * (w * y)


def refine(level, cfg: QuadratureConfig, what: str):
    """Run level(nodes) -> (values, scale) at cfg.nodes, then double the nodes until stable.

    Returns the finer level's values once the largest change between two
    successive levels is at most cfg.tol times that level's scale; raises
    QuadratureConvergenceError after _MAX_DOUBLINGS doublings.
    """
    nodes = cfg.nodes
    prev, _ = level(nodes)
    for _ in range(_MAX_DOUBLINGS):
        nodes *= 2
        cur, scale = level(nodes)
        change = np.abs(cur - prev).ravel()
        worst = int(np.argmax(change)) if change.size else 0
        if change.size == 0 or change[worst] <= cfg.tol * max(scale, 1e-300):
            return cur
        prev = cur
    raise QuadratureConvergenceError(
        f"{what} did not stabilize after {_MAX_DOUBLINGS} node doublings (change "
        f"{change[worst]:.3e}, scale {scale:.3e}, worst index {worst}, nodes {nodes})"
    )


def decay_truncation_radius(a: float, m: float) -> float:
    """Smallest R (within ~30%) with a*R^m >= 45, for integrands bounded by exp(-a|x|^m).

    The start (45/a)^(1/m) meets the bound only to rounding, so a start that
    misses it is widened in 30% steps until the bound holds.
    """
    if not (a > 0) or not (m >= 1):
        raise InvalidParameterError("decay radius needs a > 0 and m >= 1")
    r = max(1.0, (45.0 / a) ** (1.0 / m))
    while a * r**m < 45.0:
        r *= 1.3
    return r
