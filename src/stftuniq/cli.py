"""Command-line interface.

One subcommand per workflow: window step bounds, sampling-set generation,
growth prediction/estimation, zero-sequence classification, two-signal
discrimination, counterexample growth, window ambiguity scans, and a seeded
reconstruction demo. Output goes to stdout or --output as JSON
{"meta": ..., "result": ...} (keys sorted, no timestamps, byte-deterministic)
or as CSV with "# key=value" metadata comments. Parameter errors exit 2 and
numerical failures exit 3, both with a JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import ast
import cmath
import json
import math
import re
import sys

import numpy as np

from .errors import (
    EvaluationOverflowError,
    InsufficientDataError,
    InvalidParameterError,
    QuadratureConvergenceError,
    ZeroAtOriginError,
    ZeroNormError,
)
from .quadrature import QuadratureConfig
from .windows import make_generalized_gaussian, make_modulated_generalized_gaussian, window_ambiguity_scan
from .entire import (
    counterexample_eval,
    counterexample_growth_coefficient,
    predicted_growth,
    estimate_order,
    estimate_type,
    taylor_coefficients,
)
from .sampling import (
    _write_csv,
    classify_sequence,
    density_index,
    generate_sampling_set,
    max_tau_bounds,
    nonuniqueness_threshold,
)
from .stft import (
    SignalGrid,
    chirp_signal,
    discriminate,
    gaussian_signal,
    global_phase_residual,
    grid_signal,
    gs_reconstruct,
    hermite_signal,
    spectrogram_on_set,
)

_PARAM_ERRORS = (InvalidParameterError, InsufficientDataError, ZeroAtOriginError, ZeroNormError)
_NUMERICAL_ERRORS = (QuadratureConvergenceError, EvaluationOverflowError)


class _Parser(argparse.ArgumentParser):
    """argparse with machine-readable errors on stderr and exit code 2."""

    def error(self, message: str):
        print(json.dumps({"error": {"kind": "invalid-parameter", "message": message}}),
              file=sys.stderr)
        raise SystemExit(2)


_ALLOWED_FUNCS = {"sqrt": np.sqrt, "log": np.log, "exp": np.exp}


def parse_sequence_expr(text: str, count: int) -> np.ndarray:
    """Evaluate a k-expression such as '0.3*sqrt(k)' for k = 1..count.

    Supports +, -, *, /, ** (also ^), numeric literals, the variable k, and
    the functions sqrt/log/exp. Anything else is rejected; the expression is
    never handed to eval.
    """
    if not (isinstance(count, int) and count >= 1):
        raise InvalidParameterError(f"term count must be an integer >= 1, got {count!r}")
    try:
        tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
    except SyntaxError as exc:
        raise InvalidParameterError(f"cannot parse sequence expression {text!r}: {exc.msg}") from None
    k = np.arange(1, count + 1, dtype=float)

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.BinOp):
            ops = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
                   ast.Div: np.divide, ast.Pow: np.power}
            fn = ops.get(type(node.op))
            if fn is None:
                raise InvalidParameterError(f"unsupported operator in sequence expression {text!r}")
            return fn(ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            val = ev(node.operand)
            return val if isinstance(node.op, ast.UAdd) else -val
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "k":
            return k
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _ALLOWED_FUNCS and len(node.args) == 1 and not node.keywords):
            return _ALLOWED_FUNCS[node.func.id](ev(node.args[0]))
        raise InvalidParameterError(f"unsupported element in sequence expression {text!r}")

    vals = np.asarray(ev(tree), dtype=float) * np.ones_like(k)
    if not np.all(np.isfinite(vals)):
        raise InvalidParameterError(f"sequence expression {text!r} produced non-finite terms")
    return vals


_SIGNAL_RE = re.compile(r"^\s*(gaussian|hermite|chirp)\s*(?:\((.*)\))?\s*$")
_SIGNAL_KEYS = {
    "gaussian": {"width", "center", "amp", "phase"},
    "hermite": {"index", "width", "center", "amp", "phase"},
    "chirp": {"width", "center", "amp", "phase", "f0", "rate"},
}


def parse_signal_spec(text: str):
    """Build a closed-form signal from a spec like 'gaussian(width=1,center=0.5)'.

    Common keys: width, center, amp, phase (amplitude amp * e^{i phase}).
    hermite adds index; chirp adds f0 (start frequency) and rate.
    """
    match = _SIGNAL_RE.match(text)
    if not match:
        raise InvalidParameterError(f"cannot parse signal spec {text!r}")
    kind, body = match.group(1), match.group(2) or ""
    kwargs: dict[str, float] = {}
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, val = part.partition("=")
        key = key.strip()
        if not sep or key not in _SIGNAL_KEYS[kind]:
            raise InvalidParameterError(f"bad signal argument {part!r} for {kind}")
        try:
            kwargs[key] = float(val)
        except ValueError:
            raise InvalidParameterError(f"signal argument {part!r} is not numeric") from None
    amp = kwargs.get("amp", 1.0) * cmath.exp(1j * kwargs.get("phase", 0.0))
    width = kwargs.get("width", 1.0)
    center = kwargs.get("center", 0.0)
    if kind == "gaussian":
        return gaussian_signal(width, center, amp)
    if kind == "hermite":
        index = kwargs.get("index", 0.0)
        if index != int(index):
            raise InvalidParameterError(f"hermite index must be an integer, got {index}")
        return hermite_signal(int(index), width, center, amp)
    return chirp_signal(width, center, amp, kwargs.get("f0", 0.0), kwargs.get("rate", 0.0))


def _parse_radii(text: str) -> tuple[float, ...]:
    try:
        radii = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise InvalidParameterError(f"cannot parse radii list {text!r}") from None
    if len(radii) < 2:
        raise InvalidParameterError("need at least two radii")
    return radii


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidParameterError(f"grid spec must be lo,hi,n; got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidParameterError(f"cannot parse grid spec {text!r}") from None
    if not (hi > lo and n >= 2):
        raise InvalidParameterError(f"grid spec needs hi > lo and n >= 2, got {text!r}")
    return np.linspace(lo, hi, n)


def _window_from(ns):
    if getattr(ns, "xi0", None) is not None:
        return make_modulated_generalized_gaussian(ns.a, ns.m, ns.xi0)
    return make_generalized_gaussian(ns.a, ns.m)


def _run_bounds(ns, quad, meta):
    meta.update({"m": ns.m, "a": ns.a})
    bounds = max_tau_bounds(ns.m, ns.a)
    return {"m": ns.m, "a": ns.a, "tau1_max": bounds.tau1_max, "tau2_max": bounds.tau2_max}, None


def _run_sample_set(ns, quad, meta):
    meta.update({"m": ns.m, "a": ns.a, "tau1": ns.tau1, "tau2": ns.tau2,
                 "count": ns.n, "include_origin": ns.include_origin})
    lam = generate_sampling_set(ns.m, ns.tau1, ns.tau2, ns.n,
                                include_origin=ns.include_origin, a=ns.a)
    rows = [[int(n), int(sx), int(sw), float(x), float(om)]
            for n, sx, sw, x, om in zip(lam.n_index, lam.sign_x, lam.sign_omega, lam.x, lam.omega)]
    result = {"m": lam.m, "tau1": lam.tau1, "tau2": lam.tau2, "count": lam.count,
              "includes_origin": lam.includes_origin,
              "columns": ["n", "sign_x", "sign_omega", "x", "omega"], "points": rows}
    return result, lam.to_csv(extra_meta=meta)


def _run_growth(ns, quad, meta):
    meta.update({"m": ns.m, "a": ns.a, "n_coeffs": ns.n_coeffs, "estimate": ns.estimate})
    predicted = predicted_growth(ns.m, ns.a)
    result = {"m": ns.m, "a": ns.a,
              "order_predicted": predicted.order, "type_predicted": predicted.type}
    if ns.estimate:
        series = taylor_coefficients(make_generalized_gaussian(ns.a, ns.m), ns.n_coeffs)
        order_est = estimate_order(series)
        type_est = estimate_type(series, predicted.order)
        result.update({
            "order_estimated": order_est.order,
            "type_estimated": type_est.type,
            "n_used": [int(n) for n in order_est.n_used],
        })
    return result, None


def _run_classify(ns, quad, meta):
    meta.update({"rho": ns.rho, "b": ns.b, "seq": ns.seq, "terms": ns.terms})
    lam = parse_sequence_expr(ns.seq, ns.terms)
    report = classify_sequence(lam, ns.rho, ns.b)
    return report.to_json_dict(), None


def _run_discriminate(ns, quad, meta):
    bounds = max_tau_bounds(ns.m, ns.a)
    tau1 = ns.tau1 if ns.tau1 is not None else 0.9 * bounds.tau1_max
    tau2 = ns.tau2 if ns.tau2 is not None else 0.9 * bounds.tau2_max
    meta.update({"f": ns.f, "h": ns.h, "m": ns.m, "a": ns.a, "tau1": tau1, "tau2": tau2,
                 "count": ns.n, "include_origin": ns.include_origin, "tol": ns.tol,
                 "residual_tol": ns.residual_tol})
    f = parse_signal_spec(ns.f)
    h = parse_signal_spec(ns.h)
    window = make_generalized_gaussian(ns.a, ns.m)
    lam = generate_sampling_set(ns.m, tau1, tau2, ns.n, include_origin=ns.include_origin, a=ns.a)
    report = discriminate(f, h, window, lam, tol=ns.tol, residual_tol=ns.residual_tol, quad=quad)
    result = report.to_json_dict()
    result["points"] = len(lam)
    return result, None


def _run_counterexample(ns, quad, meta):
    radii = _parse_radii(ns.radii)
    meta.update({"rho": ns.rho, "b": ns.b, "seq": ns.seq, "terms": ns.terms,
                 "radii": list(radii), "n_theta": ns.n_theta})
    lam = parse_sequence_expr(ns.seq, ns.terms)
    coeff, samples = counterexample_growth_coefficient(lam, ns.rho, radii,
                                                       n_theta=ns.n_theta, b=ns.b)
    density = density_index(lam, ns.rho)
    # F(z) = V(z^2) hits the square lam_k * lam_k bit for bit at z = +-lam_k
    probe = min(4, lam.size - 1)
    vanishes = all(counterexample_eval(lam, ns.rho, z) == 0 for z in (lam[0], -lam[probe]))
    result = {
        "rho": ns.rho,
        "b": ns.b,
        "terms": ns.terms,
        "genus": int(math.floor(ns.rho / 2.0)),
        "density": density,
        "nonuniq_threshold": nonuniqueness_threshold(ns.rho, ns.b),
        "growth_coefficient": coeff,
        "log_max_samples": [[r, v] for r, v in samples],
        "coefficient_below_b": bool(coeff < ns.b),
        "vanishes_at_sampled_zeros": bool(vanishes),
    }
    return result, None


def _run_scan_window(ns, quad, meta):
    meta.update({"m": ns.m, "a": ns.a, "xi0": ns.xi0, "omega": ns.omega, "grid": ns.grid})
    grid = _parse_grid(ns.grid)
    window = _window_from(ns)
    report = window_ambiguity_scan(window, ns.omega, grid, quad)
    result = {
        "omega": report.omega,
        "min_magnitude": report.min_magnitude,
        "near_zero_fraction": report.near_zero_fraction,
        "xi": [float(v) for v in report.grid],
        "magnitude": [float(v) for v in report.magnitudes],
    }
    rows = (f"{xi:.17g},{mag:.17g}" for xi, mag in zip(report.grid, report.magnitudes))
    return result, _write_csv(None, meta, "xi,magnitude", rows)


def _run_reconstruct(ns, quad, meta):
    meta.update({"iters": ns.iters, "m": ns.m, "a": ns.a, "grid_half": ns.grid_half,
                 "grid_step": ns.grid_step, "tf_step": ns.tf_step})
    rng = np.random.default_rng(ns.seed)
    count = int(round(2.0 * ns.grid_half / ns.grid_step)) + 1
    times = -ns.grid_half + ns.grid_step * np.arange(count)
    components = int(rng.integers(1, 4))
    vals = np.zeros(count, dtype=complex)
    for _ in range(components):
        amp = rng.uniform(0.5, 1.5) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        center = rng.uniform(-2.0, 2.0)
        width = rng.uniform(0.6, 1.4)
        vals += amp * np.exp(-math.pi * ((times - center) / width) ** 2)
    truth = grid_signal(vals, -ns.grid_half, ns.grid_step)
    window = make_generalized_gaussian(ns.a, ns.m)
    tf = np.arange(-ns.grid_half, ns.grid_half + 0.5 * ns.tf_step, ns.tf_step)
    pts = np.stack(np.meshgrid(tf, tf, indexing="ij"), axis=-1).reshape(-1, 2)
    mags = spectrogram_on_set(truth, window, pts, quad)
    recon = gs_reconstruct(mags, window, SignalGrid(-ns.grid_half, ns.grid_step, count),
                           ns.iters, seed=ns.seed, quad=quad)
    alpha, residual = global_phase_residual(recon, truth)
    result = {"seed": ns.seed, "iterations": ns.iters, "components": components,
              "tf_points": int(pts.shape[0]), "alpha": alpha, "residual": residual}
    return result, None


_HANDLERS = {
    "bounds": _run_bounds,
    "sample-set": _run_sample_set,
    "growth": _run_growth,
    "classify": _run_classify,
    "discriminate": _run_discriminate,
    "counterexample": _run_counterexample,
    "scan-window": _run_scan_window,
    "reconstruct": _run_reconstruct,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="write to this path instead of stdout")
    common.add_argument("--seed", type=int, default=0, help="seed for any randomized step")
    quadrature = argparse.ArgumentParser(add_help=False)
    quadrature.add_argument("--quad-radius", type=float, default=None, dest="quad_radius",
                            help="override the automatic truncation radius")
    quadrature.add_argument("--quad-nodes", type=int, default=2048, dest="quad_nodes",
                            help="quadrature nodes per half interval")
    quadrature.add_argument("--quad-tol", type=float, default=1e-10, dest="quad_tol",
                            help="node-doubling stability tolerance")

    parser = _Parser(prog="stftuniq",
                     description="Sampling sets, growth analysis, and discrimination "
                                 "for transforms against super-exponentially decaying windows.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, default_format, quad=False):
        p = sub.add_parser(name, parents=[common, quadrature] if quad else [common], help=help_text)
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
        return p

    p = add("bounds", "admissible step-scale bounds for a window", "json")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--a", type=float, required=True)

    p = add("sample-set", "four-quadrant sampling set on the power-law trajectories", "csv")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--tau1", type=float, default=0.1)
    p.add_argument("--tau2", type=float, default=0.5)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--include-origin", action="store_true")

    p = add("growth", "predicted (and optionally estimated) order and type", "json")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--n-coeffs", type=int, default=80, dest="n_coeffs")
    p.add_argument("--estimate", action="store_true")

    p = add("classify", "zero-sequence density against both thresholds", "json")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--seq", required=True, help="k-expression, e.g. '0.3*sqrt(k)'")
    p.add_argument("--terms", type=int, default=200)

    p = add("discriminate", "compare two signals through spectrogram samples", "json", quad=True)
    p.add_argument("--f", required=True, help="signal spec, e.g. 'gaussian(width=1)'")
    p.add_argument("--h", required=True)
    p.add_argument("--m", type=float, default=2.0)
    p.add_argument("--a", type=float, default=math.pi)
    p.add_argument("--tau1", type=float, default=None, help="default: 0.9 of the bound")
    p.add_argument("--tau2", type=float, default=None, help="default: 0.9 of the bound")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--include-origin", action="store_true")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--residual-tol", type=float, default=0.1, dest="residual_tol")

    p = add("counterexample", "growth of the vanishing construction on a sequence", "json")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--terms", type=int, default=100000)
    p.add_argument("--radii", default="4,8,16")
    p.add_argument("--n-theta", type=int, default=64, dest="n_theta")

    p = add("scan-window", "ambiguity-function slice magnitudes for a window", "csv", quad=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--xi0", type=float, default=None, help="modulation frequency")
    p.add_argument("--omega", type=float, default=0.0)
    p.add_argument("--grid", default="-5,5,1001", help="lo,hi,n")

    p = add("reconstruct", "seeded magnitude-only reconstruction demo", "json", quad=True)
    p.add_argument("--iters", type=int, default=400)
    p.add_argument("--m", type=float, default=2.0)
    p.add_argument("--a", type=float, default=math.pi)
    p.add_argument("--grid-half", type=float, default=4.0, dest="grid_half")
    p.add_argument("--grid-step", type=float, default=0.125, dest="grid_step")
    p.add_argument("--tf-step", type=float, default=0.5, dest="tf_step")

    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": {"kind": kind, "message": str(exc)}}), file=sys.stderr)


def run(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        meta = {"command": ns.command, "format": ns.format, "seed": ns.seed}
        quad = None
        if hasattr(ns, "quad_nodes"):
            quad = QuadratureConfig(radius=ns.quad_radius, nodes=ns.quad_nodes, tol=ns.quad_tol)
            meta.update({"quad_nodes": quad.nodes,
                         "quad_radius": "auto" if quad.radius is None else quad.radius,
                         "quad_tol": quad.tol})
        result, csv_text = _HANDLERS[ns.command](ns, quad, meta)
        if ns.format == "csv":
            if csv_text is None:
                raise InvalidParameterError(f"{ns.command} has no CSV representation; use --format json")
            text = csv_text
        else:
            text = json.dumps({"meta": meta, "result": result}, indent=2, sort_keys=True) + "\n"
    except _PARAM_ERRORS as exc:
        _emit_error("invalid-parameter", exc)
        return 2
    except _NUMERICAL_ERRORS as exc:
        _emit_error("numerical-failure", exc)
        return 3
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
