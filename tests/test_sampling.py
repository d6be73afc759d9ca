"""Sampling sets, admissible step bounds, and density classification."""

import io
import json
import math
import warnings

import numpy as np
import pytest

import stftuniq.sampling as sampling
from stftuniq import (
    InsufficientDataError,
    InvalidParameterError,
    SamplingSet,
    ThresholdReport,
    Verdict,
    classify_sequence,
    density_index,
    generate_sampling_set,
    max_tau_bounds,
    nonuniqueness_threshold,
    predicted_growth,
    uniqueness_threshold,
    zero_count_bound,
)
from stftuniq.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def test_bound_reference_values():
    b = max_tau_bounds(2.0, math.pi)
    assert math.isclose(b.tau1_max, 0.34219828031221655, rel_tol=1e-13)
    assert math.isclose(b.tau2_max, 0.34219828031221655, rel_tol=1e-13)
    b = max_tau_bounds(2.0, 1.0)
    assert math.isclose(b.tau1_max, 0.19306470526010786, rel_tol=1e-13)
    assert math.isclose(b.tau2_max, 0.6065306597126334, rel_tol=1e-13)
    b = max_tau_bounds(1.5, 1.0)
    assert math.isclose(b.tau1_max, 0.18827506618070766, rel_tol=1e-13)
    assert math.isclose(b.tau2_max, 0.6219605464711152, rel_tol=1e-13)
    # near m = 1 the predicted type is past the float range; the log-domain chain keeps the bound
    b = max_tau_bounds(1.001, 2.0)
    assert math.isclose(b.tau1_max, 0.3183097272938011, rel_tol=1e-13)
    assert math.isclose(b.tau2_max, 0.36787962480504066, rel_tol=1e-13)


def test_bounds_warn_at_low_decay_rate():
    with pytest.warns(UserWarning):
        max_tau_bounds(2.0, 1.0)
    for m, a in ((1.0, 2.0), (0.5, 2.0), (2.0, 0.0), (2.0, -1.0)):
        with pytest.raises(InvalidParameterError):
            max_tau_bounds(m, a)


def _jensen_gap(delta: float, rho: float, b: float) -> float:
    """Relative gap between Jensen's zero count at s = e^{1/rho} and 2 (r/delta)^rho.

    Taken at the radius r where 2 (r/delta)^rho is 1e14, so the floor of the count costs 1e-14.
    """
    r = delta * 5e13 ** (1.0 / rho)
    want = 2.0 * (r / delta) ** rho
    return abs(zero_count_bound(r, math.exp(1.0 / rho), 1.0, b, rho) - want) / want


@pytest.mark.parametrize("m", [1.2, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("a", [1.5, 2.0, math.pi, 5.0])
def test_bounds_agree_with_growth_thresholds(m, a):
    # each bound is a uniqueness threshold, checked against Jensen's count of the zeros an
    # order-rho type-b function can have, which reaches 2 (r/delta)^rho at the optimal
    # dilation: the time-side bound at the predicted order/type of the transform, the
    # frequency-side bound at the window parameters themselves
    bounds = max_tau_bounds(m, a)
    pred = predicted_growth(m, a)
    assert _jensen_gap(bounds.tau1_max, pred.order, pred.type) < 1e-12
    assert _jensen_gap(bounds.tau2_max, m, a) < 1e-12


def test_generate_small_set_layout():
    s = generate_sampling_set(1.5, 0.1, 0.5, 8, a=1.0)
    assert len(s) == 32
    assert s.points.shape == (32, 2)
    # n = 8 block: x = 0.1 * 8^{1/3}, omega = 0.5 * 8^{2/3}
    last = s.points[-4:]
    assert math.isclose(last[0, 0], 0.2, rel_tol=1e-14)
    assert math.isclose(last[0, 1], 2.0, rel_tol=1e-14)
    # quadrant order within each block
    assert list(s.sign_x[:4]) == [1, 1, -1, -1]
    assert list(s.sign_omega[:4]) == [1, -1, 1, -1]
    assert np.array_equal(s.n_index[:4], [1, 1, 1, 1])
    assert np.array_equal(np.abs(s.x[:4]), np.full(4, 0.1))


def test_generate_origin_row_first():
    s = generate_sampling_set(2.0, 0.1, 0.3, 3, include_origin=True, a=math.pi)
    assert len(s) == 13
    assert s.n_index[0] == 0
    assert s.x[0] == 0.0 and s.omega[0] == 0.0
    assert s.sign_x[0] == 1 and s.sign_omega[0] == 1


def test_generate_rejects_steps_at_the_bound():
    bounds = max_tau_bounds(2.0, math.pi)
    with pytest.raises(InvalidParameterError):
        generate_sampling_set(2.0, bounds.tau1_max, 0.2, 4, a=math.pi)
    with pytest.raises(InvalidParameterError):
        generate_sampling_set(2.0, 0.2, bounds.tau2_max + 0.01, 4, a=math.pi)
    with pytest.raises(InvalidParameterError):
        generate_sampling_set(2.0, 0.1, 0.2, 0, a=math.pi)


def test_generate_without_rate_warns():
    with pytest.warns(UserWarning, match="not validated") as record:
        generate_sampling_set(2.0, 0.1, 0.5, 4)
    assert record[0].filename == __file__


def test_csv_round_trip_is_exact():
    s = generate_sampling_set(1.7, 0.123456789012345, 0.3, 25, include_origin=True, a=3.0)
    text = s.to_csv()
    assert "n,sign_x,sign_omega,x,omega" in text.splitlines()
    back = SamplingSet.from_csv(text)
    assert back.m == s.m and back.tau1 == s.tau1 and back.tau2 == s.tau2
    assert back.count == s.count and back.includes_origin == s.includes_origin
    assert np.array_equal(back.n_index, s.n_index)
    assert np.array_equal(back.sign_x, s.sign_x)
    assert np.array_equal(back.sign_omega, s.sign_omega)
    assert np.array_equal(back.x, s.x)
    assert np.array_equal(back.omega, s.omega)


def test_csv_file_and_handle_round_trip(tmp_path):
    s = generate_sampling_set(2.0, 0.1, 0.2, 5, a=math.pi)
    path = tmp_path / "set.csv"
    path.write_text(s.to_csv(), encoding="utf-8")
    back = SamplingSet.from_csv(path)
    assert np.array_equal(back.points, s.points)
    handle = io.StringIO(s.to_csv())
    assert np.array_equal(SamplingSet.from_csv(handle).omega, s.omega)


def test_csv_missing_metadata_rejected():
    s = generate_sampling_set(2.0, 0.1, 0.2, 3, a=math.pi)
    stripped = "\n".join(l for l in s.to_csv().splitlines() if not l.startswith("# m="))
    with pytest.raises(InvalidParameterError):
        SamplingSet.from_csv(stripped + "\n")


def test_csv_rows_must_match_the_metadata():
    text = generate_sampling_set(2.0, 0.3, 0.3, 2, a=3.0).to_csv()
    lines = text.splitlines()
    n, sx, sw, _, om = lines[-1].split(",")
    edited = "\n".join(lines[:-1] + [",".join([n, sx, sw, "99.0", om])]) + "\n"
    with pytest.raises(InvalidParameterError, match="rows differ"):
        SamplingSet.from_csv(edited)
    with pytest.raises(InvalidParameterError, match="rows differ"):
        SamplingSet.from_csv("\n".join(lines[:-1]) + "\n")
    # the same float written another way is the same set
    back = SamplingSet.from_csv(text.replace("# tau1=0.3", "# tau1=0.29999999999999999"))
    assert back == SamplingSet(2.0, 0.3, 0.3, 2)
    # extra metadata cannot rename the set it rides with
    assert SamplingSet.from_csv(back.to_csv(extra_meta={"count": 3, "note": "x"})) == back


@pytest.mark.parametrize("key, value", [("m", "0.5"), ("tau1", "-1.0"), ("count", "2.0"), ("m", "abc")])
def test_csv_metadata_is_validated(key, value):
    # a count of 2.0 and an m of abc used to raise untyped ValueErrors from int() and float()
    text = generate_sampling_set(2.0, 0.3, 0.3, 2, a=3.0).to_csv()
    bad = "\n".join(f"# {key}={value}" if line.startswith(f"# {key}=") else line
                    for line in text.splitlines()) + "\n"
    with pytest.raises(InvalidParameterError, match=key):
        SamplingSet.from_csv(bad)


def test_csv_rows_must_be_numbers():
    # float("x") used to raise an untyped ValueError
    text = generate_sampling_set(2.0, 0.3, 0.3, 2, a=3.0).to_csv()
    with pytest.raises(InvalidParameterError, match="sampling-set row 'x,1,1,"):
        SamplingSet.from_csv(text.replace("\n1,1,1,", "\nx,1,1,", 1))


def test_threshold_reference_values():
    assert math.isclose(uniqueness_threshold(2.0, math.pi), 0.34219828031221655, rel_tol=1e-13)
    assert math.isclose(uniqueness_threshold(3.0, 36.748179769244224),
                        0.18827506618070766, rel_tol=1e-12)
    assert nonuniqueness_threshold(2.0, math.pi) == 1.0
    assert nonuniqueness_threshold(3.0, math.pi) == 1.0
    assert math.isclose(nonuniqueness_threshold(4.0, 1.0), math.pi**0.25, rel_tol=1e-14)
    for rho, b in ((1.0, 1.0), (0.5, 1.0), (2.0, 0.0), (2.0, -3.0)):
        with pytest.raises(InvalidParameterError):
            uniqueness_threshold(rho, b)
        with pytest.raises(InvalidParameterError):
            nonuniqueness_threshold(rho, b)


@pytest.mark.parametrize("rho", [1.5, 2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("b", [0.5, 1.0, math.pi, 10.0])
def test_threshold_gap(rho, b):
    assert uniqueness_threshold(rho, b) < nonuniqueness_threshold(rho, b)


def test_density_index_power_law():
    k = np.arange(1, 101, dtype=float)
    assert math.isclose(density_index(0.3 * np.sqrt(k), 2.0), 0.3, rel_tol=1e-12)
    # perturbation decaying in k: the minimum sits at the tail end
    lam = 0.3 * np.sqrt(np.arange(1, 201, dtype=float)) * (1.0 + 1.0 / np.arange(1, 201))
    assert math.isclose(density_index(lam, 2.0), 0.30149999999999993, rel_tol=1e-14)


def test_density_index_scaling():
    k = np.arange(1, 257, dtype=float)
    lam = k ** (1.0 / 3.0) + 0.01 * np.log(k + 1.0)
    d = density_index(lam, 3.0)
    assert math.isclose(density_index(2.5 * lam, 3.0), 2.5 * d, rel_tol=1e-14)


def test_density_index_guards():
    with pytest.raises(InsufficientDataError):
        density_index(np.arange(1.0, 13.0), 2.0)
    with pytest.raises(InvalidParameterError):
        density_index(np.array([3.0, 2.0] * 10), 2.0)
    with pytest.raises(InvalidParameterError):
        density_index(np.arange(1.0, 33.0), 1.0)
    with pytest.warns(RuntimeWarning, match="keep increasing") as record:
        # linear growth has no finite rho = 2 density
        density_index(np.arange(1.0, 65.0), 2.0)
    assert record[0].filename == __file__


def _array_summary(lam, rho):
    """The tail ratios as one array, reduced there, apart from the sliced pass."""
    start = lam.size // 2
    tail = lam[start:] / np.arange(start + 1, lam.size + 1, dtype=float) ** (1.0 / rho)
    return (float(tail.min()), float(tail.max()), float(tail[0]), float(tail[-1]),
            bool(np.all(tail[1:] >= tail[:-1])))


@pytest.mark.parametrize("chunk", [None, 64])
def test_tail_summary_matches_the_full_array(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(sampling, "_CHUNK", chunk)
    rng = np.random.default_rng(7)
    for size in (16, 17, 129, 1000, 70001):
        noisy = np.cumsum(rng.uniform(0.5, 1.5, size))
        for lam, rho in ((noisy, 1.5), (noisy, 3.0), (0.3 * np.sqrt(np.arange(1.0, size + 1)), 2.0),
                         (np.arange(1.0, size + 1), 2.0)):
            assert tuple(sampling.tail_ratios(lam, rho)) == _array_summary(lam, rho)


def test_tail_rise_across_slice_edges(monkeypatch):
    monkeypatch.setattr(sampling, "_CHUNK", 64)
    # ratios sqrt(k) rise through every slice edge of the tail, by 41% end to end
    lam = np.arange(1.0, 1001.0)
    summary = sampling.tail_ratios(lam, 2.0)
    assert summary == _array_summary(lam, 2.0) and summary.rising
    with pytest.warns(RuntimeWarning, match="keep increasing"):
        assert density_index(lam, 2.0) == summary.low
    # a fall only where one slice meets the next: each slice still rises on its own
    edge = 500 + 3 * 64
    lam[edge] = lam[edge - 1] + 0.1
    summary = sampling.tail_ratios(lam, 2.0)
    assert summary == _array_summary(lam, 2.0) and not summary.rising
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        density_index(lam, 2.0)


def test_classify_three_verdicts():
    k = np.arange(1, 201, dtype=float)
    assert classify_sequence(0.3 * np.sqrt(k), 2.0, math.pi).verdict is Verdict.UNIQUE
    assert classify_sequence(0.6 * np.sqrt(k), 2.0, math.pi).verdict is Verdict.INDETERMINATE
    assert classify_sequence(1.5 * np.sqrt(k), 2.0, math.pi).verdict is Verdict.NOT_UNIQUE


def test_threshold_report_json_round_trip(capsys):
    # the CLI renders the report; its classify result reads back into the same report
    k = np.arange(1, 101, dtype=float)
    report = classify_sequence(0.3 * np.sqrt(k), 2.0, math.pi)
    assert main(["classify", "--rho", "2", "--b", repr(math.pi), "--seq", "0.3*sqrt(k)", "--terms", "100"]) == 0
    d = json.loads(capsys.readouterr().out)["result"]
    back = ThresholdReport(**{**d, "verdict": Verdict(d["verdict"])})
    assert back == report
    assert d["verdict"] == "Unique"
    assert set(d) == {"rho", "b", "uniq_threshold", "nonuniq_threshold", "density", "verdict"}
