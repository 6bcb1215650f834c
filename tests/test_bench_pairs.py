"""scripts/bench_pairs.py on fabricated pairs: no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "step_ms.p50", "unit": "ms", "better": "lower", "bound": 0.13},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "train_steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.12},
    {"name": "eval_samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.22},
]


def _pairs(parent: dict, candidate: dict, same=None):
    n = len(next(iter(parent.values())))
    same = same or (True,) * n

    def side(metrics, i, tag):
        return {"metrics": {name: values[i] for name, values in metrics.items()},
                "params_final": "p" if same[i] else tag, "test_acc": 0.5}

    return [{"seed": 601 + i, "first": "parent",
             "parent": side(parent, i, "a"), "candidate": side(candidate, i, "b")}
            for i in range(n)]


def test_parse_seeds_takes_a_range_or_one_seed():
    assert bench_pairs.parse_seeds("501-504") == [501, 502, 503, 504]
    assert bench_pairs.parse_seeds("7") == [7]


def test_a_reversed_seed_range_is_a_usage_error_before_any_run(tmp_path, capsys, monkeypatch):
    def run_once(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(tmp_path), "--candidate", str(ROOT),
                          "--workload", "routed-small", "--seeds", "5-3", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "argument --seeds: seed range '5-3' is empty" in capsys.readouterr().err
    assert not out.exists()


def test_summarise_counts_wins_and_checks_bounds_in_the_better_direction():
    parent = {
        "step_ms.p50": [10.0, 11.0, 12.0, 13.0],
        "peak_rss_mb": [100.0, 100.0, 100.0, 100.0],
        "train_steps_per_s": [100.0, 100.0, 100.0, 100.0],
        "eval_samples_per_s": [50.0, 50.0, 50.0, 50.0],
    }
    candidate = {
        "step_ms.p50": [9.0, 12.0, 11.0, 12.0],  # lower wins 3 of 4, same median
        "peak_rss_mb": [106.0, 106.0, 106.0, 99.0],  # +6%: past its 5% bound
        "train_steps_per_s": [80.0, 85.0, 90.0, 120.0],  # -12.5%: past its 12% bound
        "eval_samples_per_s": [60.0, 60.0, 60.0, 40.0],  # +20%: a gain
    }
    summary = bench_pairs.summarise(_pairs(parent, candidate, (True, False, True, True)),
                                    END_TO_END)
    metrics = summary["metrics"]
    assert summary["pairs"] == 4 and summary["seeds"] == [601, 602, 603, 604]
    assert summary["params_final_equal"] == [True, False, True, True]
    assert summary["test_acc_equal"] == [True] * 4
    assert [metrics[n]["candidate_wins"] for n in parent] == [3, 1, 1, 3]
    assert [metrics[n]["within_bound"] for n in parent] == [True, False, False, True]
    assert metrics["step_ms.p50"]["median_shift"] == 0.0
    assert metrics["train_steps_per_s"]["median_shift"] == pytest.approx(-0.125)
    assert metrics["eval_samples_per_s"]["median_shift"] == pytest.approx(0.2)
    assert metrics["step_ms.p50"]["parent_stats"] == {
        "median": 11.5, "q1": 10.75, "q3": 12.25, "iqr": 1.5}


def test_a_workload_not_in_benchmark_json_is_rejected_before_any_run(tmp_path, capsys,
                                                                     monkeypatch):
    def run_once(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(tmp_path), "--candidate", str(ROOT),
                          "--workload", "all", "--seeds", "1-2", "--out", str(out)])
    assert exit_info.value.code == 2
    assert ("--workload must be one of routed-small, routed-wide, dense-small, got 'all'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_gain_shown_needs_nine_in_ten_wins_and_a_shift_past_the_parent_iqr():
    slow = [10.0 + 0.2 * i for i in range(10)]  # median 10.9, IQR 0.9
    rate = [100.0 + 2.0 * i for i in range(10)]  # median 109, IQR 9
    parent = {"step_ms.p50": slow, "peak_rss_mb": slow,
              "train_steps_per_s": rate, "eval_samples_per_s": rate}
    candidate = {
        # 9 wins and a tie, median 9.9: better by 1.0 > 0.9
        "step_ms.p50": [v - 1.0 for v in slow[:9]] + slow[9:],
        # the same shift, but 8 wins and 2 ties
        "peak_rss_mb": [v - 1.0 for v in slow[:8]] + slow[8:],
        # 10 wins, but the median moves by exactly the IQR, not more
        "train_steps_per_s": [v + 9.0 for v in rate],
        # 10 wins and a shift of 20 > 9
        "eval_samples_per_s": [v + 20.0 for v in rate],
    }
    metrics = bench_pairs.summarise(_pairs(parent, candidate), END_TO_END)["metrics"]
    assert [metrics[n]["candidate_wins"] for n in parent] == [9, 8, 10, 10]
    assert metrics["step_ms.p50"]["parent_stats"]["iqr"] == pytest.approx(0.9)
    assert metrics["train_steps_per_s"]["parent_stats"]["iqr"] == 9.0
    assert [metrics[n]["gain_shown"] for n in parent] == [True, False, False, True]


def test_gain_shown_is_false_in_the_worse_direction():
    parent = {name: [100.0 + i for i in range(10)] for name in
              ("step_ms.p50", "peak_rss_mb", "train_steps_per_s", "eval_samples_per_s")}
    candidate = {"step_ms.p50": [v + 50.0 for v in parent["step_ms.p50"]],
                 "peak_rss_mb": parent["peak_rss_mb"],
                 "train_steps_per_s": [v - 50.0 for v in parent["train_steps_per_s"]],
                 "eval_samples_per_s": parent["eval_samples_per_s"]}
    metrics = bench_pairs.summarise(_pairs(parent, candidate), END_TO_END)["metrics"]
    assert [metrics[n]["candidate_wins"] for n in parent] == [0, 0, 0, 0]
    assert not any(metrics[n]["gain_shown"] for n in parent)


def _fake_run_once(tree, workload, seed, seconds):
    """Every metric reads the seed in the candidate tree and seed + 0.5 in the parent."""
    value = float(seed) if Path(tree) == ROOT else float(seed) + 0.5
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"metrics": {m["name"]: value for m in spec["end_to_end"]},
            "params_final": "p", "test_acc": 0.5}


def test_a_second_invocation_keeps_the_pairs_already_in_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run_once)
    out = tmp_path / "out.json"
    args = ["--parent", str(tmp_path), "--candidate", str(ROOT), "--workload", "routed-small",
            "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(args + ["--seeds", "1-3"]) == 0
    assert bench_pairs.main(args + ["--seeds", "4-5"]) == 0
    summary = json.loads(out.read_text())["workloads"]["routed-small"]
    assert summary["trees"]["parent"] == str(tmp_path.resolve())
    assert summary["pairs"] == 5 and summary["seeds"] == [1, 2, 3, 4, 5]
    assert [p["first"] for p in summary["runs"]] == ["parent", "candidate"] * 2 + ["parent"]
    assert summary["metrics"]["step_ms.p50"]["candidate"] == [1.0, 2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize("seeds, seconds, parent, message", [
    ("3-4", "1", None, "seed 3 of routed-small is already in"),
    ("4-4", "2", None,
     "--seconds 2.0 differs from the 1.0 of the routed-small pairs already in"),
    ("4-4", "1", "other", "differ from the trees {'parent': "),
], ids=["recorded-seed", "other-seconds", "other-parent"])
def test_a_run_that_clashes_with_the_recorded_pairs_is_a_usage_error(tmp_path, capsys,
                                                                     monkeypatch, seeds,
                                                                     seconds, parent, message):
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run_once)
    out = tmp_path / "out.json"
    args = ["--candidate", str(ROOT), "--workload", "routed-small", "--out", str(out)]
    assert bench_pairs.main(args + ["--parent", str(tmp_path), "--seeds", "1-3",
                                    "--seconds", "1"]) == 0
    before = out.read_text()
    (tmp_path / "other").mkdir()
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("a benchmark ran"))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(args + ["--parent", str(tmp_path / (parent or "")), "--seeds", seeds,
                                 "--seconds", seconds])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert out.read_text() == before
