"""Command-line interface: exit codes, output contracts, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from stftuniq import SamplingSet
from stftuniq.cli import main, parse_sequence_expr, parse_signal_spec

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


# -------------------------------------------------------------- parsing

def test_sequence_expressions():
    lam = parse_sequence_expr("0.3*sqrt(k)", 5)
    assert np.allclose(lam, 0.3 * np.sqrt(np.arange(1.0, 6.0)), rtol=1e-15)
    lam = parse_sequence_expr("k^(1/3)", 4)
    assert np.allclose(lam, np.arange(1.0, 5.0) ** (1.0 / 3.0), rtol=1e-15)
    # constants broadcast across the index
    assert parse_sequence_expr("2.5", 3).tolist() == [2.5, 2.5, 2.5]


def test_sequence_expression_rejects_non_whitelist():
    for bad in ("0.3*sqrt(j)", "__import__('os')", "k.real", "lambda k: k",
                "open('/etc/passwd')", "k if k else 1"):
        with pytest.raises(Exception):
            parse_sequence_expr(bad, 4)


def test_signal_specs():
    f = parse_signal_spec("gaussian(width=2, center=0.5, amp=1.5, phase=0.25)")
    assert f.width == 2.0 and f.center == 0.5
    assert abs(f.amplitude - 1.5 * np.exp(0.25j)) < 1e-15
    h = parse_signal_spec("hermite(index=2)")
    assert h.hermite_index == 2
    c = parse_signal_spec("chirp(f0=1.5, rate=2)")
    assert c.chirp_start == 1.5 and c.chirp_rate == 2.0
    assert parse_signal_spec("gaussian()").width == 1.0
    for bad in ("gauss(width=1)", "gaussian(width=1", "gaussian(whatever=2)",
                "hermite(index=1.5)"):
        with pytest.raises(Exception):
            parse_signal_spec(bad)


# --------------------------------------------------------------- bounds

def test_bounds_values_and_determinism(capsys):
    args = ("bounds", "--m", "2", "--a", str(math.pi))
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["meta"]["command"] == "bounds"
    # bounds runs no quadrature, so its meta records no quadrature settings
    assert not any(key.startswith("quad_") for key in doc["meta"])
    assert math.isclose(doc["result"]["tau1_max"], 0.34219828031221655, rel_tol=1e-13)
    assert math.isclose(doc["result"]["tau2_max"], 0.34219828031221655, rel_tol=1e-13)
    code2, out2, _ = run_cli(capsys, *args)
    assert code2 == 0 and out2 == out


def test_bounds_has_no_csv_form(capsys):
    code, out, err = run_cli(capsys, "bounds", "--m", "2", "--a", "3", "--format", "csv")
    assert code == 2
    assert last_json(err)["error"]["kind"] == "invalid-parameter"


def test_bad_flag_reports_json_error(capsys):
    code, _, err = run_cli(capsys, "bounds", "--m", "2")
    assert code == 2
    assert last_json(err)["error"]["kind"] == "invalid-parameter"


# ----------------------------------------------------------- sample-set

def test_sample_set_default_csv(capsys):
    # the documented minimal invocation: defaults are valid for (m=1.5, a=1)
    code, out, err = run_cli(capsys, "sample-set", "--m", "1.5", "--a", "1")
    assert code == 0
    lines = out.splitlines()
    data = [l for l in lines if l and not l.startswith("#") and not l.startswith("n,")]
    assert len(data) == 800
    back = SamplingSet.from_csv(out)
    assert back.count == 200 and not back.includes_origin


def test_sample_set_small(capsys):
    code, out, _ = run_cli(capsys, "sample-set", "--m", "2", "--a", str(math.pi),
                           "--tau2", "0.3", "--n", "2")
    assert code == 0
    data = [l for l in out.splitlines() if l and not l.startswith("#") and not l.startswith("n,")]
    assert len(data) == 8
    first = data[0].split(",")
    assert first[:3] == ["1", "1", "1"]
    assert float(first[3]) == 0.1 and float(first[4]) == 0.3
    third = data[2].split(",")
    assert third[:3] == ["1", "-1", "1"] and float(third[3]) == -0.1


def test_sample_set_json_format(capsys):
    code, out, _ = run_cli(capsys, "sample-set", "--m", "2", "--a", str(math.pi),
                           "--tau2", "0.3", "--n", "3", "--include-origin",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["result"]["points"]) == 13
    assert doc["result"]["points"][0] == [0, 1, 1, 0.0, 0.0]


def test_sample_set_rejects_step_above_bound(capsys):
    code, out, err = run_cli(capsys, "sample-set", "--m", "1.5", "--a", "1",
                             "--tau1", "0.2")
    assert code == 2 and out == ""
    assert last_json(err)["error"]["kind"] == "invalid-parameter"


def test_output_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "set.csv"
    code, out, _ = run_cli(capsys, "sample-set", "--m", "1.5", "--a", "1",
                           "--n", "4", "--output", str(dest))
    assert code == 0 and out == ""
    back = SamplingSet.from_csv(dest)
    assert back.count == 4


# --------------------------------------------------------------- growth

def test_growth_predicted(capsys):
    code, out, _ = run_cli(capsys, "growth", "--m", "2", "--a", str(math.pi))
    assert code == 0
    res = json.loads(out)["result"]
    assert math.isclose(res["order_predicted"], 2.0, rel_tol=1e-14)
    assert math.isclose(res["type_predicted"], math.pi, rel_tol=1e-12)
    assert "order_estimated" not in res


def test_growth_estimated(capsys):
    code, out, _ = run_cli(capsys, "growth", "--m", "2", "--a", str(math.pi),
                           "--estimate", "--n-coeffs", "60")
    assert code == 0
    res = json.loads(out)["result"]
    assert abs(res["order_estimated"] - 2.0) < 0.06
    assert abs(res["type_estimated"] - math.pi) / math.pi < 0.05
    assert len(res["n_used"]) >= 10


def test_growth_estimated_at_large_n(capsys):
    code, out, _ = run_cli(capsys, "growth", "--m", "1.5", "--a", "2", "--estimate", "--n-coeffs", "300")
    assert code == 0
    res = json.loads(out)["result"]
    assert abs(res["order_estimated"] - 3.00005) < 1e-5
    assert abs(res["type_estimated"] - 9.18697) < 1e-5
    # coefficients below the smallest normal float are a numerical failure, not zeros
    code, _, err = run_cli(capsys, "growth", "--m", "3", "--a", "2", "--estimate", "--n-coeffs", "1000")
    assert code == 3
    assert "normal floats" in last_json(err)["error"]["message"]


def test_unstable_quadrature_exit_code(capsys):
    code, _, err = run_cli(capsys, "discriminate", "--f", "gaussian()", "--h", "gaussian(phase=1)",
                           "--n", "4", "--quad-nodes", "64", "--quad-tol", "1e-30")
    assert code == 3
    assert last_json(err)["error"]["kind"] == "numerical-failure"


def test_invalid_quadrature_config_exit_code(capsys):
    code, _, err = run_cli(capsys, "scan-window", "--m", "2", "--a", "3",
                           "--quad-nodes", "32")
    assert code == 2
    assert "at least 64 nodes" in last_json(err)["error"]["message"]


@pytest.mark.parametrize("command", [
    ("bounds", "--m", "2", "--a", "3"),
    ("sample-set", "--m", "2", "--a", "3"),
    ("growth", "--m", "2", "--a", "3", "--estimate"),
    ("classify", "--rho", "2", "--b", "3", "--seq", "0.3*sqrt(k)"),
    ("counterexample", "--rho", "2", "--b", "3", "--seq", "1.5*sqrt(k)", "--terms", "100"),
])
def test_quadrature_flags_only_where_a_quadrature_runs(capsys, command):
    code, out, err = run_cli(capsys, *command, "--quad-tol", "1e-30")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --quad-tol" in last_json(err)["error"]["message"]


# ------------------------------------------------------------- classify

def test_classify_unique(capsys):
    code, out, _ = run_cli(capsys, "classify", "--rho", "2", "--b", str(math.pi),
                           "--seq", "0.3*sqrt(k)")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["verdict"] == "Unique"
    assert math.isclose(res["density"], 0.3, rel_tol=1e-12)
    assert res["uniq_threshold"] < res["nonuniq_threshold"]


def test_classify_bad_expression(capsys):
    code, _, err = run_cli(capsys, "classify", "--rho", "2", "--b", "3",
                           "--seq", "0.3*sqrt(j)")
    assert code == 2
    assert last_json(err)["error"]["kind"] == "invalid-parameter"


# --------------------------------------------------------- discriminate

def test_discriminate_equivalent(capsys):
    code, out, _ = run_cli(capsys, "discriminate",
                           "--f", "gaussian()", "--h", "gaussian(phase=1.0)",
                           "--n", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["quad_radius"] == "auto"
    assert doc["meta"]["quad_nodes"] == 2048 and doc["meta"]["quad_tol"] == 1e-10
    res = doc["result"]
    assert res["verdict"] == "EquivalentUpToPhase"
    assert abs(res["alpha"] - (2.0 * math.pi - 1.0)) < 1e-9
    assert res["points"] == 48


def test_discriminate_distinct(capsys):
    code, out, _ = run_cli(capsys, "discriminate",
                           "--f", "gaussian()", "--h", "gaussian(center=1)",
                           "--n", "12")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "Distinct"


# ------------------------------------------------------- counterexample

def test_counterexample_report(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--rho", "3", "--b", str(math.pi),
                           "--seq", "1.1*k^(1/3)", "--terms", "20000",
                           "--radii", "2,3", "--n-theta", "32")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["genus"] == 1
    assert res["coefficient_below_b"] is True
    assert res["vanishes_at_sampled_zeros"] is True
    assert math.isclose(res["nonuniq_threshold"], 1.0, rel_tol=1e-12)
    assert math.isclose(res["density"], 1.1, rel_tol=1e-10)
    assert len(res["log_max_samples"]) == 2


@pytest.mark.parametrize("radii", ["1,inf", "nan,2", "0,2"])
def test_counterexample_rejects_bad_radii(capsys, radii):
    code, out, err = run_cli(capsys, "counterexample", "--rho", "2", "--b", "3.14",
                             "--seq", "1.5*sqrt(k)", "--terms", "1000", "--radii", radii)
    assert code == 2 and out == ""
    assert last_json(err)["error"] == {"kind": "invalid-parameter",
                                       "message": "radii must be positive and finite"}


def test_counterexample_builds_the_product_once(capsys, monkeypatch):
    import stftuniq.entire as entire
    import stftuniq.sampling as sampling

    calls = []
    check = sampling.check_increasing

    def counting(values, what):
        calls.append(what)
        check(values, what)

    monkeypatch.setattr(sampling, "check_increasing", counting)
    monkeypatch.setattr(entire, "check_increasing", counting)
    code, out, _ = run_cli(capsys, "counterexample", "--rho", "3", "--b", str(math.pi),
                           "--seq", "1.1*k^(1/3)", "--terms", "20000",
                           "--radii", "2,3", "--n-theta", "32")
    assert code == 0
    assert json.loads(out)["result"]["vanishes_at_sampled_zeros"] is True
    # one pass over the sequence each: growth fit, density and the two zero probes;
    # no call builds the product or checks a full array of squares
    assert calls == ["sequence entries"] * 4


# ---------------------------------------------------------- scan-window

def test_scan_window_csv(capsys):
    code, out, _ = run_cli(capsys, "scan-window", "--m", "2", "--a", "2")
    assert code == 0
    lines = out.splitlines()
    assert "xi,magnitude" in lines
    data = [l for l in lines if l and not l.startswith("#") and l != "xi,magnitude"]
    assert len(data) == 1001


def test_scan_window_json_modulated(capsys):
    code, out, _ = run_cli(capsys, "scan-window", "--m", "2", "--a", "2",
                           "--xi0", "1.5", "--grid=-2,2,41", "--format", "json")
    assert code == 0
    res = json.loads(out)["result"]
    assert len(res["xi"]) == 41
    assert res["near_zero_fraction"] == 0.0
    assert res["min_magnitude"] > 0.0


def test_scan_window_off_gaussian_against_quad(capsys):
    from scipy.integrate import quad as scipy_quad

    code, out, _ = run_cli(capsys, "scan-window", "--m", "1.5", "--a", "2", "--format", "json")
    assert code == 0
    res = json.loads(out)["result"]
    xi, mags = np.array(res["xi"]), np.array(res["magnitude"])
    scale = mags.max()

    def integrand(eta, x):
        return math.exp(-2.0 * abs(eta) ** 1.5 - 2.0 * abs(x - eta) ** 1.5)

    for i in (500, 613, 940):
        x = xi[i]
        edges = sorted((-30.0, 0.0, x, 30.0))
        want = sum(scipy_quad(integrand, lo, hi, args=(x,), epsabs=1e-14, limit=200)[0]
                   for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo)
        assert abs(mags[i] - want) < 1e-9 * scale


# ----------------------------------------------------------- reconstruct

def test_reconstruct_demo(capsys):
    code, out, _ = run_cli(capsys, "reconstruct", "--iters", "500", "--seed", "3")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["tf_points"] == 289
    assert res["residual"] < 1e-2


# -------------------------------------------------------------- process

def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "stftuniq", "bounds",
                           "--m", "2", "--a", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["meta"]["command"] == "bounds"


def test_help_exits_cleanly(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "usage" in out
