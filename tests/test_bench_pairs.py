"""scripts/bench_pairs.py on fabricated pairs: no benchmark is run."""

import importlib.util
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


def _pairs(parent: dict, candidate: dict, same=(True, True, True, True)):
    def side(metrics, i, tag):
        return {"metrics": {name: values[i] for name, values in metrics.items()},
                "params_final": "p" if same[i] else tag, "test_acc": 0.5}

    return [{"seed": 601 + i, "first": "parent",
             "parent": side(parent, i, "a"), "candidate": side(candidate, i, "b")}
            for i in range(4)]


def test_parse_seeds_takes_a_range_or_one_seed():
    assert bench_pairs.parse_seeds("501-504") == [501, 502, 503, 504]
    assert bench_pairs.parse_seeds("7") == [7]


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
