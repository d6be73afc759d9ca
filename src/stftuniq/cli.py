"""Command-line interface.

One subcommand per workflow: window step bounds, sampling-set generation,
growth prediction/estimation, zero-sequence classification, two-signal
discrimination, and counterexample growth. Output goes to stdout or
--output as JSON {"meta": ..., "result": ...} (keys sorted, no timestamps,
byte-deterministic), except that sample-set writes the set's CSV with
"# key=value" metadata comments.
Parameter errors exit 2 and numerical failures exit 3, both with a JSON
error object on stderr.
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
    ZeroNormError,
    _count,
    _require,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .windows import make_generalized_gaussian
from .entire import (
    build_counterexample_product,
    counterexample_growth_fit,
    predicted_growth,
    estimate_growth,
    taylor_coefficients,
)
from .sampling import (
    classify_sequence,
    generate_sampling_set,
    max_tau_bounds,
    nonuniqueness_threshold,
)
from .stft import (
    chirp_signal,
    discriminate,
    gaussian_signal,
    hermite_signal,
)

_PARAM_ERRORS = (InvalidParameterError, InsufficientDataError, ZeroNormError)
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
    count = _count(count, "term count", 1)
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
            _require(fn is not None, f"unsupported operator in sequence expression {text!r}")
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

    # overflow, log(0) and the like surface as non-finite terms, reported below
    with np.errstate(all="ignore"):
        vals = ev(tree) * np.ones_like(k)
    _require(bool(np.all(np.isfinite(vals))), f"sequence expression {text!r} produced non-finite terms")
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
    _require(match is not None, f"cannot parse signal spec {text!r}")
    kind, body = match.group(1), match.group(2) or ""
    kwargs: dict[str, float] = {}
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, val = part.partition("=")
        key = key.strip()
        _require(bool(sep) and key in _SIGNAL_KEYS[kind], f"bad signal argument {part!r} for {kind}")
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
        # a whole float such as 3.0 reads as the count 3; NaN, inf and 2.5 reach the count check as floats
        return hermite_signal(int(index) if index.is_integer() else index, width, center, amp)
    return chirp_signal(width, center, amp, kwargs.get("f0", 0.0), kwargs.get("rate", 0.0))


def _parse_radii(text: str) -> tuple[float, ...]:
    try:
        radii = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise InvalidParameterError(f"cannot parse radii list {text!r}") from None
    _require(len(radii) >= 2, "need at least two radii")
    return radii


def _run_bounds(ns, meta):
    meta.update({"m": ns.m, "a": ns.a})
    bounds = max_tau_bounds(ns.m, ns.a)
    return {"m": ns.m, "a": ns.a, "tau1_max": bounds.tau1_max, "tau2_max": bounds.tau2_max}


def _run_sample_set(ns, meta):
    # the set's CSV carries its five parameters; meta adds only what they do not say
    meta["a"] = ns.a
    lam = generate_sampling_set(ns.m, ns.tau1, ns.tau2, ns.n, include_origin=ns.include_origin, a=ns.a)
    return lam.to_csv(extra_meta=meta)


def _run_growth(ns, meta):
    meta.update({"m": ns.m, "a": ns.a, "n_coeffs": ns.n_coeffs, "estimate": ns.estimate})
    predicted = predicted_growth(ns.m, ns.a)
    result = {"m": ns.m, "a": ns.a, "order_predicted": predicted.order,
              "type_predicted": predicted.type, "log_type_predicted": predicted.log_type}
    if ns.estimate:
        est = estimate_growth(taylor_coefficients(make_generalized_gaussian(ns.a, ns.m), ns.n_coeffs),
                              predicted.order)
        result.update({"order_estimated": est.order, "type_estimated": est.type,
                       "log_type_estimated": est.log_type, "n_used": list(est.n_used)})
    return result


def _run_classify(ns, meta):
    meta.update({"rho": ns.rho, "b": ns.b, "seq": ns.seq, "terms": ns.terms})
    lam = parse_sequence_expr(ns.seq, ns.terms)
    report = classify_sequence(lam, ns.rho, ns.b)
    return report.to_json_dict()


def _run_discriminate(ns, meta):
    quad = QuadratureConfig(nodes=ns.quad_nodes, tol=ns.quad_tol)
    meta.update({"quad_nodes": quad.nodes, "quad_tol": quad.tol})
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
    return result


def _run_counterexample(ns, meta):
    radii = _parse_radii(ns.radii)
    meta.update({"rho": ns.rho, "b": ns.b, "seq": ns.seq, "terms": ns.terms,
                 "radii": list(radii), "n_theta": ns.n_theta})
    lam = parse_sequence_expr(ns.seq, ns.terms)
    if lam.size < 16:
        raise InsufficientDataError(f"need at least 16 sequence terms, got {lam.size}")
    product = build_counterexample_product(lam, ns.rho)
    # with b and 16 terms the fit reads the density from its own tail summary, and its one
    # sweep over the sequence also probes F at the zeros lambda_1 and -lambda_5
    coeff, samples, density, vanishes = counterexample_growth_fit(product, radii, ns.n_theta, ns.b)
    result = {
        "rho": ns.rho,
        "b": ns.b,
        "terms": ns.terms,
        "genus": product.genus,
        "density": density,
        "nonuniq_threshold": nonuniqueness_threshold(ns.rho, ns.b),
        "growth_coefficient": coeff,
        "log_max_samples": [[r, v] for r, v in samples],
        "coefficient_below_b": bool(coeff < ns.b),
        "vanishes_at_sampled_zeros": vanishes,
    }
    return result


_HANDLERS = {
    "bounds": _run_bounds,
    "sample-set": _run_sample_set,
    "growth": _run_growth,
    "classify": _run_classify,
    "discriminate": _run_discriminate,
    "counterexample": _run_counterexample,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stftuniq",
                     description="Sampling sets, growth analysis, and discrimination "
                                 "for transforms against super-exponentially decaying windows.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        return p

    p = add("bounds", "admissible step-scale bounds for a window")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--a", type=float, required=True)

    p = add("sample-set", "four-quadrant sampling set on the power-law trajectories")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--tau1", type=float, default=0.1)
    p.add_argument("--tau2", type=float, default=0.5)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--include-origin", action="store_true")

    p = add("growth", "predicted (and optionally estimated) order and type")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--n-coeffs", type=int, default=80, dest="n_coeffs")
    p.add_argument("--estimate", action="store_true")

    p = add("classify", "zero-sequence density against both thresholds")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--seq", required=True, help="k-expression, e.g. '0.3*sqrt(k)'")
    p.add_argument("--terms", type=int, default=200)

    p = add("discriminate", "compare two signals through spectrogram samples")
    p.add_argument("--quad-nodes", type=int, default=DEFAULT_QUADRATURE.nodes, dest="quad_nodes",
                   help="quadrature nodes per half interval")
    p.add_argument("--quad-tol", type=float, default=DEFAULT_QUADRATURE.tol, dest="quad_tol",
                   help="node-doubling stability tolerance")
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

    p = add("counterexample", "growth of the vanishing construction on a sequence")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--terms", type=int, default=100000)
    p.add_argument("--radii", default="4,8,16")
    p.add_argument("--n-theta", type=int, default=64, dest="n_theta")

    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": {"kind": kind, "message": str(exc)}}), file=sys.stderr)


def run(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        meta = {"command": ns.command}
        # a handler returns its result, or the finished text when it writes CSV
        text = _HANDLERS[ns.command](ns, meta)
        if not isinstance(text, str):
            text = json.dumps({"meta": meta, "result": text}, indent=2, sort_keys=True) + "\n"
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
