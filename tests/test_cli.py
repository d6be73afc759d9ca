"""Command-line interface: exit codes, output contracts, determinism."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import stftuniq.cli as cli
import stftuniq.entire as entire
from stftuniq import DEFAULT_QUADRATURE, InvalidParameterError, SamplingSet, gaussian_signal, predicted_growth
from stftuniq.cli import main, parse_sequence_expr, parse_signal_spec

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def only_json_error(capsys, *args):
    """Exit code and the error object of a run whose stderr must be exactly one JSON line.

    Warnings are recorded and must be absent: in a process each would print
    one more stderr line ahead of the error.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *args)
    assert [str(w.message) for w in caught] == []
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    return code, json.loads(lines[0])["error"]


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


def test_gaussian_and_chirp_specs_build_one_atom():
    assert parse_signal_spec("gaussian(width=2)") == gaussian_signal(2.0)
    assert parse_signal_spec("chirp(width=2)") == gaussian_signal(2.0)
    # the grammar keeps its keys: a chirp field is for chirp, and neither takes index
    for bad in ("gaussian(f0=1)", "gaussian(rate=1)", "chirp(index=2)", "hermite(index=2, rate=1)"):
        with pytest.raises(InvalidParameterError, match="bad signal argument"):
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
    code, error = only_json_error(capsys, "bounds", "--m", "2", "--a", "3", "--format", "csv")
    assert code == 2
    assert error == {"kind": "invalid-parameter", "message": "unrecognized arguments: --format csv"}


@pytest.mark.parametrize("args", [
    ("bounds", "--m", "2", "--a", "3"),
    ("growth", "--m", "2", "--a", "3"),
    ("classify", "--rho", "2", "--b", "3", "--seq", "0.3*sqrt(k)"),
    ("discriminate", "--f", "gaussian", "--h", "gaussian", "--n", "2"),
    ("counterexample", "--rho", "2", "--b", "3", "--seq", "1.5*sqrt(k)", "--terms", "2000"),
    ("sample-set", "--m", "1.5", "--a", "1", "--n", "2"),
])
def test_no_command_takes_format(capsys, args):
    # each command writes one format, so neither --format value parses and no output names a format
    code, error = only_json_error(capsys, *args, "--format", "json")
    assert code == 2 and error["message"] == "unrecognized arguments: --format json"
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and "format" not in out


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
    # the set's five parameters, and from the command line only what they do not say
    keys = [l[2:].partition("=")[0] for l in lines if l.startswith("# ")]
    assert keys == ["a", "command", "count", "includes_origin", "m", "tau1", "tau2"]
    assert "# a=1.0" in lines and "# command='sample-set'" in lines


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
    assert math.isclose(res["log_type_predicted"], math.log(math.pi), rel_tol=1e-12)
    # near m = 1 the type is e^1138.7, past the float range; the order and the log type are not
    code, out, _ = run_cli(capsys, "growth", "--m", "1.001", "--a", "2")
    assert code == 0
    res = json.loads(out)["result"]
    assert math.isclose(res["order_predicted"], 1001.0, rel_tol=1e-12)
    assert math.isfinite(res["log_type_predicted"])
    assert math.isclose(res["log_type_predicted"], 1138.6595078035366, rel_tol=1e-13)
    assert res["type_predicted"] is None


def test_growth_estimated(capsys):
    code, out, _ = run_cli(capsys, "growth", "--m", "2", "--a", str(math.pi),
                           "--estimate", "--n-coeffs", "60")
    assert code == 0
    res = json.loads(out)["result"]
    assert abs(res["order_estimated"] - 2.0) < 0.06
    assert abs(res["type_estimated"] - math.pi) / math.pi < 0.05
    assert math.isclose(res["log_type_estimated"], math.log(res["type_estimated"]), rel_tol=1e-13)
    assert len(res["n_used"]) >= 10


def test_growth_estimated_at_large_n(capsys):
    code, out, _ = run_cli(capsys, "growth", "--m", "1.5", "--a", "2", "--estimate", "--n-coeffs", "300")
    assert code == 0
    res = json.loads(out)["result"]
    assert abs(res["order_estimated"] - 3.00005) < 1e-5
    assert abs(res["type_estimated"] - 9.18697) < 1e-5
    # coefficients below the smallest normal float stay log magnitudes, not zeros
    code, out, _ = run_cli(capsys, "growth", "--m", "3", "--a", "2", "--estimate", "--n-coeffs", "1000")
    assert code == 0
    res = json.loads(out)["result"]
    pred = predicted_growth(3.0, 2.0)
    assert abs(res["order_estimated"] - pred.order) / pred.order < 2e-6
    assert abs(res["log_type_estimated"] - pred.log_type) < 1e-6
    # near m = 1 the fitted type is past the float range as well; its log is not
    code, out, _ = run_cli(capsys, "growth", "--m", "1.001", "--a", "2", "--estimate")
    assert code == 0
    res = json.loads(out)["result"]
    pred = predicted_growth(1.001, 2.0)
    assert res["type_estimated"] is None
    assert abs(res["order_estimated"] - pred.order) / pred.order < 3e-4
    assert abs(res["log_type_estimated"] - pred.log_type) < 2e-4


@pytest.mark.parametrize("m", [1.001, 1.05, 1.2, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0])
def test_growth_estimated_across_m(capsys, m):
    # the order's tail fit and the type at the predicted order, from the log magnitudes;
    # the bounds sit just above the largest measured gaps, 1.83e-5 (log type) and 3.48e-5 (order)
    code, out, _ = run_cli(capsys, "growth", "--m", str(m), "--a", "2", "--estimate", "--n-coeffs", "300")
    assert code == 0
    res = json.loads(out)["result"]
    pred = predicted_growth(m, 2.0)
    assert abs(res["log_type_estimated"] - pred.log_type) < 1.9e-5
    assert abs(res["order_estimated"] - pred.order) / pred.order < 3.5e-5
    assert (res["type_estimated"] is None) == (pred.type is None)


def test_unstable_quadrature_exit_code(capsys):
    code, _, err = run_cli(capsys, "discriminate", "--f", "gaussian()", "--h", "gaussian(phase=1)",
                           "--n", "4", "--quad-nodes", "64", "--quad-tol", "1e-30")
    assert code == 3
    assert last_json(err)["error"]["kind"] == "numerical-failure"


def test_invalid_quadrature_config_exit_code(capsys):
    code, _, err = run_cli(capsys, "discriminate", "--f", "gaussian()", "--h", "gaussian()",
                           "--n", "2", "--quad-nodes", "32")
    assert code == 2
    assert last_json(err)["error"]["message"] == "quadrature nodes must be an integer >= 64, got 32"


def test_loose_quadrature_tol_is_rejected(capsys):
    # refine would take two levels that differ by half the scale as converged
    code, _, err = run_cli(capsys, "discriminate", "--f", "gaussian", "--h", "gaussian", "--n", "2",
                           "--quad-tol", "0.5")
    assert code == 2
    assert last_json(err)["error"]["message"] == "quadrature tol must be a finite real > 0 and < 0.01, got 0.5"


def test_deleted_scan_window_command_is_rejected(capsys):
    code, error = only_json_error(capsys, "scan-window", "--m", "2", "--a", "3")
    assert code == 2
    assert error["kind"] == "invalid-parameter"
    assert "invalid choice: 'scan-window'" in error["message"]


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


@pytest.mark.parametrize("seq", ["k^400", "exp(k)", "sqrt(k-5)", "log(k-1)", "k/0"])
def test_non_finite_sequence_is_one_json_error(capsys, seq):
    code, error = only_json_error(capsys, "classify", "--rho", "2", "--b", "3",
                                  "--seq", seq, "--terms", "800")
    assert code == 2
    assert error == {"kind": "invalid-parameter",
                     "message": f"sequence expression {seq!r} produced non-finite terms"}


# --------------------------------------------------------- discriminate

def test_discriminate_equivalent(capsys):
    code, out, _ = run_cli(capsys, "discriminate",
                           "--f", "gaussian()", "--h", "gaussian(phase=1.0)",
                           "--n", "12")
    assert code == 0
    doc = json.loads(out)
    assert "quad_radius" not in doc["meta"]
    assert doc["meta"]["quad_nodes"] == DEFAULT_QUADRATURE.nodes
    assert doc["meta"]["quad_tol"] == DEFAULT_QUADRATURE.tol
    res = doc["result"]
    assert set(res) == {"max_dev", "match", "alpha", "residual", "verdict", "points"}
    assert res["verdict"] == "EquivalentUpToPhase"
    assert abs(res["alpha"] - (2.0 * math.pi - 1.0)) < 1e-9
    assert res["points"] == 48


def test_discriminate_distinct(capsys):
    code, out, _ = run_cli(capsys, "discriminate",
                           "--f", "gaussian()", "--h", "gaussian(center=1)",
                           "--n", "12")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "Distinct"


def test_low_decay_rate_warns_with_one_text(capsys):
    # the sampling bounds and the window model share one a <= 1 check
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run_cli(capsys, "discriminate", "--a", "0.9", "--f", "gaussian", "--h", "gaussian",
                             "--n", "2")
    assert code == 0
    texts = {str(w.message) for w in caught}
    assert len(caught) >= 2 and len(texts) == 1 and "at or below 1" in texts.pop()


@pytest.mark.parametrize("spec,code,kind,fragment", [
    ("gaussian(width=1e-200)", 2, "invalid-parameter", "width must be"),
    ("gaussian(width=1e200)", 2, "invalid-parameter", "width must be"),
    ("gaussian(amp=1e308)", 3, "numerical-failure", "leaves the float range"),
    ("gaussian(amp=nan)", 2, "invalid-parameter", "amplitude must be finite"),
    ("hermite(amp=1.7e308,width=1e-10)", 2, "invalid-parameter", "amplitude must be finite"),
    ("hermite(index=1e30)", 3, "numerical-failure", "cannot resolve Hermite index"),
])
def test_extreme_signal_is_one_json_error(capsys, spec, code, kind, fragment):
    got, error = only_json_error(capsys, "discriminate", "--f", spec, "--h", "gaussian", "--n", "2")
    assert got == code
    assert error["kind"] == kind and fragment in error["message"]


def test_far_centre_signal_is_distinct(capsys):
    # disjoint supports align to alpha 0 and residual sqrt(2) from the exact norms, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "discriminate", "--f", "gaussian(center=1e300)", "--h", "gaussian",
                                 "--n", "2")
    assert code == 0 and err == ""
    res = json.loads(out)["result"]
    assert res["verdict"] == "Distinct" and res["alpha"] == 0.0
    assert abs(res["residual"] - math.sqrt(2.0)) < 1e-15


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


def test_counterexample_needs_sixteen_terms(capsys):
    code, out, err = run_cli(capsys, "counterexample", "--rho", "2", "--b", "3.14",
                             "--seq", "1.5*sqrt(k)", "--terms", "15")
    assert code == 2 and out == ""
    assert last_json(err)["error"] == {"kind": "invalid-parameter",
                                       "message": "need at least 16 sequence terms, got 15"}


@pytest.mark.parametrize("radii", ["1,inf", "nan,2", "0,2", "4,4"])
def test_counterexample_rejects_bad_radii(capsys, radii):
    code, out, err = run_cli(capsys, "counterexample", "--rho", "2", "--b", "3.14",
                             "--seq", "1.5*sqrt(k)", "--terms", "1000", "--radii", radii)
    assert code == 2 and out == ""
    message = "need at least two distinct radii" if radii == "4,4" else "radii must be positive and finite"
    assert last_json(err)["error"] == {"kind": "invalid-parameter", "message": message}


def test_counterexample_decreasing_sequence_is_one_json_error(capsys):
    # the fit's power-law warning would come first if the fit warned before its sweep
    code, error = only_json_error(capsys, "counterexample", "--rho", "2", "--b", "3.14",
                                  "--seq", "1000-k", "--terms", "50")
    assert code == 2
    assert error == {"kind": "invalid-parameter", "message": "sequence entries must be strictly increasing"}


def test_counterexample_builds_the_product_once(capsys, monkeypatch, slice_checks):
    lams = []
    parse = cli.parse_sequence_expr

    def keeping(text, count):
        lams.append(parse(text, count))
        return lams[-1]

    monkeypatch.setattr(cli, "parse_sequence_expr", keeping)
    code, out, _ = run_cli(capsys, "counterexample", "--rho", "3", "--b", str(math.pi),
                           "--seq", "1.1*k^(1/3)", "--terms", "20000",
                           "--radii", "2,3", "--n-theta", "32")
    assert code == 0
    assert json.loads(out)["result"]["vanishes_at_sampled_zeros"] is True
    # one sweep over the sequence, the growth fit's evaluation: the probe at two zeros
    # reads the array the fit has checked; no array of squares is checked
    assert slice_checks.sweeps_over(lams[0]) == 1
    assert all(np.shares_memory(values, lams[0]) for values, _, _ in slice_checks.seen)


def test_counterexample_reads_the_tail_once(capsys, monkeypatch):
    tails = []
    tail_ratios = entire.tail_ratios

    def counting(lam, rho):
        tails.append(lam)
        return tail_ratios(lam, rho)

    monkeypatch.setattr(entire, "tail_ratios", counting)
    for rho, seq in (("3", "1.1*k^(1/3)"), ("2", "1.5*sqrt(k)")):
        tails.clear()
        code, out, _ = run_cli(capsys, "counterexample", "--rho", rho, "--b", str(math.pi),
                               "--seq", seq, "--terms", "5000", "--radii", "2,3", "--n-theta", "16")
        assert code == 0
        # the printed density is the growth fit's own
        assert len(tails) == 1
        assert json.loads(out)["result"]["density"] == tail_ratios(tails[0], float(rho)).low


# -------------------------------------------------------------- process

def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "stftuniq", "bounds",
                           "--m", "2", "--a", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["meta"]["command"] == "bounds"


def test_discriminate_and_counterexample_leave_numpy_ma_unloaded():
    # np.unique without a return_* flag imports numpy.ma, about 20 ms of a fresh process
    code = ("import sys\n"
            "from stftuniq.cli import main\n"
            "main(['discriminate', '--f', 'gaussian(width=1)', '--h', 'hermite(index=3)', '--n', '2'])\n"
            "main(['counterexample', '--rho', '2', '--b', '3.14', '--seq', '1.5*sqrt(k)', '--terms', '1000'])\n"
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_help_exits_cleanly(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "usage" in out
