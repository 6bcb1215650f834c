"""Self-tests of the benchmark: layer spans, speed scaling and the result contract.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import come.model
from come import harness
from come.datagen import generate
from come.model import ComeModel

from perfbench import run, workloads
from perfbench.speed import REFERENCE_PROBE_S, SpeedMeter
from perfbench.tracing import Tracer, layer_metrics, per_layer_spec, train_mix

ROOT = Path(__file__).resolve().parents[2]
ROUTED = ("routed-small", "routed-wide")
ROUTED_ONLY = ("clustering.", "router.", "experts.", "losses.traceability",
               "losses.importance", "losses.load")


def small_config(name: str, steps: int = 3):
    """A workload's config at test size: a few steps, one log point, 200 samples."""
    cfg = workloads.WORKLOADS[name].config(seed=0)
    cfg.training.steps = steps
    cfg.training.log_every = steps
    cfg.training.eval_batches = 1
    cfg.data.n_samples = 200
    return cfg


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """name -> (tracer, train result, untraced train result), built on first use."""
    runs = {}

    def get(name):
        if name not in runs:
            cfg = small_config(name)
            dataset = generate(cfg.data.generator(), 0)
            plain = harness.train(cfg, dataset)
            tracer = Tracer()
            with tracer.installed():
                result = harness.train(cfg, dataset, out_dir=tmp_path_factory.mktemp(name))
                harness.evaluate(result.model, dataset, "test", max_batches=2)
            runs[name] = (tracer, result, plain)
        return runs[name]

    return get


@pytest.mark.parametrize("name", ROUTED)
def test_every_layer_gets_spans_on_routed_workloads(traced, name):
    metrics = layer_metrics(traced(name)[0])
    missing = [k for k, v in metrics.items() if k.endswith(".calls") and v < 1]
    assert missing == []
    assert metrics["clustering.kmeans_iters"] >= 1
    assert 0 < metrics["router.admitted_ratio"] <= 1
    assert 0 < metrics["eval.router.admitted_ratio"] <= 1


def test_dense_workload_bypasses_routing_layers(traced):
    metrics = layer_metrics(traced("dense-small")[0])
    calls = {k: v for k, v in metrics.items() if k.endswith(".calls")}
    routed = {k: v for k, v in calls.items() if k.removeprefix("eval.").startswith(ROUTED_ONLY)}
    assert routed and all(v == 0 for v in routed.values())
    assert all(v >= 1 for k, v in calls.items() if k not in routed)
    assert metrics["clustering.kmeans_iters"] == 0
    assert metrics["router.admitted_ratio"] == 0


def test_call_counts_are_per_train_and_per_eval_pass():
    cfg = small_config("routed-small")
    dataset = generate(cfg.data.generator(), 0)
    calls = []
    for repeats in (1, 2):
        tracer = Tracer()
        with tracer.installed():
            for _ in range(repeats):
                result = harness.train(cfg, dataset)
                harness.evaluate(result.model, dataset, "test", max_batches=2)
        metrics = layer_metrics(tracer)
        calls.append({k: v for k, v in metrics.items() if k.endswith((".calls", "fallbacks"))})
    assert calls[0] == calls[1]
    assert calls[0]["model.forward.calls"] == cfg.training.steps
    assert calls[0]["eval.model.forward.calls"] == 2


def _check_self_times_add_up(tracer, durations):
    own = tracer.self_times(durations)
    root_of = {}
    totals = {}
    for i, parent in enumerate(tracer.parents):
        if tracer.names[i] == "model.forward":
            root_of[i] = i
        elif parent in root_of:
            root_of[i] = root_of[parent]
        else:
            continue
        totals[root_of[i]] = totals.get(root_of[i], 0.0) + own[i]
    assert totals
    for root, total in totals.items():
        assert total == pytest.approx(durations[root], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("name", ROUTED + ("dense-small",))
def test_forward_self_time_and_child_self_times_add_up_to_forward(traced, name):
    tracer = traced(name)[0]
    _check_self_times_add_up(tracer, tracer.durations())
    # A meter whose probes, between the spans train calls, alternate between
    # fast and slow: a forward's children must share its scale, or scaled
    # they can outgrow it.
    meter = SpeedMeter()
    train = tracer.names.index("harness.train")
    for k, end in enumerate(sorted(e for e, p in zip(tracer.ends, tracer.parents) if p == train)):
        meter.starts.append(end + 1e-9)
        meter.ends.append(end + 1e-9 + (1e-7 if k % 2 else 3e-7))
    durations = tracer.durations(meter)
    own = tracer.self_times(durations)
    model = [i for i, n in enumerate(tracer.names) if n.startswith("model.")]
    assert np.all(own[model] >= 0)
    _check_self_times_add_up(tracer, durations)


def test_wrapper_on_defining_module_is_bypassed():
    """model.py binds attention_forward with from-import, so only a wrapper
    on come.model sees the calls; the tracer's target table relies on that."""
    cfg = small_config("routed-small")
    dataset = generate(cfg.data.generator(), 0)
    model = ComeModel.build(cfg)
    batch = dataset.take(dataset.train_idx[:8])
    defining = Tracer(targets=[("attention.forward", "come.attention", "attention_forward")])
    caller = Tracer(targets=[("attention.forward", "come.model", "attention_forward")])
    for tracer in (defining, caller):
        with tracer.installed():
            model.forward(batch)
    assert defining.names == []
    assert caller.names == ["attention.forward"]


def test_tracing_restores_targets_and_changes_no_result(traced):
    original = come.model.attention_forward
    tracer, result, plain = traced("routed-small")
    assert come.model.attention_forward is original
    assert "traced" not in ComeModel.forward.__code__.co_name
    assert result.manifest["digests"] == plain.manifest["digests"]


@pytest.mark.parametrize("name", ROUTED + ("dense-small",))
def test_timed_step_does_the_work_of_a_train_step(name):
    cfg = small_config(name)
    dataset = generate(cfg.data.generator(), 0)
    train, steps = Tracer(), Tracer()
    with train.installed():
        harness.train(cfg, dataset)
    loop = workloads.StepLoop(ComeModel.build(cfg), dataset)
    with steps.installed():
        for _ in range(cfg.training.steps):
            loop.step()
    # The log-point evaluate span, batch loading and the checkpoint are not step work.
    skip = {"harness.evaluate", "datagen.take", "container.checkpoint_save"}
    in_train = [n for n, phase in zip(train.names, train.phases())
                if phase == "train" and n not in skip]
    in_steps = [n for n in steps.names if n not in skip]
    assert set(in_steps) == set(in_train)
    for layer in ("model.forward", "model.backward", "numerics.adamw"):
        assert in_steps.count(layer) == in_train.count(layer) == cfg.training.steps


def test_train_mix_is_a_share_of_train_wall_time(traced):
    mix = train_mix(traced("routed-small")[0])
    assert all(0 < share <= 1 for share in mix.values())
    assert mix["model.forward"] >= mix["attention.forward"] + mix["clustering.fine2coarse"]
    assert "harness.log_eval" in mix and list(mix.values()) == sorted(mix.values(), reverse=True)


def test_gate_counts_failures_and_catches_changed_repeats():
    gate = workloads.Gate()
    gate.same("params_final", "abc")
    gate.same("params_final", "abc")
    assert gate.correct
    with pytest.raises(FloatingPointError):
        with gate.attempt(5, "harness.train"):
            raise FloatingPointError("non-finite loss")
    with gate.attempt(1, "training step"):
        pass
    assert (gate.attempted, gate.failed) == (6, 5)
    assert not gate.correct
    gate = workloads.Gate()
    gate.same("test_acc", 0.5)
    gate.same("test_acc", 0.25)
    assert not gate.correct and "test_acc" in gate.problems[0]


def test_speed_meter_removes_probe_time_and_scales_to_reference_probe():
    meter = SpeedMeter()
    slow = 2 * REFERENCE_PROBE_S
    # probes at half the reference speed, around and inside [1.0, 1.01]
    meter.starts[:] = [0.0, 0.995, 1.004, 1.5]
    meter.ends[:] = [t + slow for t in meter.starts]
    (scaled,) = meter.scaled([(1.0, 1.01)])
    assert scaled == pytest.approx((0.01 - slow) * 0.5)


def test_benchmark_json_matches_what_the_runs_report():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == per_layer_spec()
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_run_fails_without_printing_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "routed-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
