"""The benchmark's training workloads and the phases that time them.

A workload is a ``come`` config plus a fixed ``harness.train`` step count.
Its dataset comes from ``come.datagen.generate`` with the benchmark seed and
is handed to ``come.harness`` as a user would; the model seed stays at the
config default, so the benchmark seed changes the inputs and nothing else.

An untraced run sets up five times, then repeats rounds of one
``harness.train`` into a fresh ``out_dir``, evaluation passes over the full
test split, and steady-state training steps that continue from the trained
model. A traced run alternates untraced and traced trains, then traces
evaluation passes, and reports the per-layer spans.
"""

from __future__ import annotations

import resource
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from come import harness
from come.config import RunConfig, apply_overrides
from come.datagen import generate
from come.model import ComeModel
from come.numerics import AdamWState

from perfbench.speed import SpeedMeter
from perfbench.tracing import Tracer, layer_metrics, train_mix

SETUP_REPEATS = 5
WARMUP_STEPS = 5
MIN_TRAINS = 2  # the repeat check needs two
MIN_EVALS = 3
MIN_STEPS = 100  # leaves ten samples above p90

# An untraced run repeats rounds of one train, then evaluation passes and
# steady-state steps until their total time reaches these multiples of the
# total train time, so each metric samples the whole run, not one stretch.
EVAL_SHARE, STEP_SHARE = 0.5, 1.0
# Share of --seconds a traced run spends alternating untraced and traced trains.
TRACED_TRAIN_UNTIL = 0.7


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple
    steps: int  # harness.train step count
    log_every: int

    def config(self, seed: int) -> RunConfig:
        cfg = apply_overrides(RunConfig(), [
            *self.overrides,
            f"data.seed={seed}",
            f"training.steps={self.steps}",
            f"training.log_every={self.log_every}",
        ])
        return cfg.validate()


WORKLOADS = {w.name: w for w in (
    Workload("routed-small", (), steps=300, log_every=100),
    Workload("routed-wide",
             ("training.batch_size=64", "data.width=64", "router.top_k=2"),
             steps=100, log_every=100),
    Workload("dense-small", ("model.arch=dense",), steps=1000, log_every=100),
)}


@dataclass
class Gate:
    """Correctness of one run: attempted and failed steps, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    seen: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    @contextmanager
    def attempt(self, steps: int, what: str):
        """Count ``steps`` as attempted, and as failed if the block raises."""
        self.attempted += steps
        try:
            yield
        except Exception as exc:
            self.failed += steps
            self.problems.append(f"{what}: {exc!r}")
            raise

    def same(self, what: str, value):
        """Record ``value``; a different value for ``what`` later is a problem."""
        first = self.seen.setdefault(what, value)
        if value != first:
            self.problems.append(f"{what} differs between repeats: {first!r} vs {value!r}")


class StepLoop:
    """Timed training steps over consecutive train batches.

    A step is ``loss_and_grads`` plus ``adamw_step``, the work ``train`` does
    per step. Batch ``i`` is the ``i``-th chunk of ``train_idx`` (wrapping
    around) and clusters with ``default_rng(i)``; optimizer moments start fresh.
    """

    def __init__(self, model: ComeModel, dataset):
        opt = model.cfg.optimizer
        self.model = model
        self.dataset = dataset
        self.opt = AdamWState(lr=opt.lr, beta1=opt.beta1, beta2=opt.beta2, eps=opt.eps,
                              weight_decay=opt.weight_decay)
        idx = dataset.train_idx
        bs = min(model.cfg.training.batch_size, idx.size)
        self.batches = [idx[i:i + bs] for i in range(0, idx.size - bs + 1, bs)]
        self.step_no = 0

    def step(self):
        """Run one step and return its (start, end); raises on a broken step."""
        batch = self.dataset.take(self.batches[self.step_no % len(self.batches)])
        rng = np.random.default_rng(self.step_no)
        start = perf_counter()
        state, grads = self.model.loss_and_grads(batch, cluster_rng=rng)
        harness.adamw_step(self.model.params, grads, self.opt)
        end = perf_counter()
        if not np.isfinite(state.report.total):
            raise FloatingPointError(f"non-finite loss at step {self.step_no}")
        plan = state.plan
        if plan is not None and np.any(plan.utilization() > plan.capacity):
            raise RuntimeError(f"capacity bound violated at step {self.step_no}")
        self.step_no += 1
        return start, end


def setup(cfg: RunConfig, seed: int):
    """Dataset generation, model build and warm-up; returns (dataset, (start, end)).

    Warm-up runs a few steps and one eval batch, because the first NumPy
    calls in a fresh process are far off their steady state.
    """
    start = perf_counter()
    dataset = generate(cfg.data.generator(), seed)
    model = ComeModel.build(cfg)
    loop = StepLoop(model, dataset)
    for _ in range(WARMUP_STEPS):
        loop.step()
    harness.evaluate(model, dataset, "test", max_batches=1)
    return dataset, (start, perf_counter())


def train_once(cfg: RunConfig, dataset, gate: Gate, work_dir):
    """One ``harness.train`` into a fresh out_dir; returns (model, (start, end)).

    Checks the run did not halt and logged only finite losses, and that its
    final parameter digest and full-split test accuracy match earlier repeats.
    """
    with gate.attempt(cfg.training.steps, "harness.train"):
        with tempfile.TemporaryDirectory(dir=work_dir) as out_dir:
            start = perf_counter()
            result = harness.train(cfg, dataset, out_dir=out_dir)
            end = perf_counter()
        if result.halted:
            raise FloatingPointError(f"harness.train halted: {result.halt_reason}")
        if not np.all(np.isfinite([m.total for m in result.metrics])):
            raise FloatingPointError("harness.train logged a non-finite loss")
    gate.same("params_final", result.manifest["digests"]["params_final"])
    gate.same("test_acc", harness.evaluate(result.model, dataset, "test").accuracy)
    return result.model, (start, end)


def eval_pass(model: ComeModel, dataset, gate: Gate):
    """One full-test-split ``harness.evaluate``; returns its (start, end)."""
    start = perf_counter()
    result = harness.evaluate(model, dataset, "test")
    end = perf_counter()
    gate.same("test_acc", result.accuracy)
    gate.same("test_samples", result.n_samples)
    return start, end


def _until(deadline: float, done: int, minimum: int, last: float = 0.0) -> bool:
    """Whether to start another repeat: always below ``minimum``, and after
    that while it would end less than half its length past ``deadline``,
    judging its length ``last`` by the previous repeat."""
    return done < minimum or perf_counter() + last / 2 < deadline


def _shapes(cfg: RunConfig) -> dict:
    return {
        "arch": cfg.model.arch,
        "batch_size": cfg.training.batch_size,
        "tokens_per_sample": cfg.data.tokens_per_sample,
        "width": cfg.data.width,
        "experts": cfg.model.n_experts,
        "top_k": cfg.router.top_k,
        "clustering": cfg.clustering.strategy,
        "n_samples": cfg.data.n_samples,
        "train_steps": cfg.training.steps,
        "log_every": cfg.training.log_every,
    }


def measure(workload: Workload, seed: int, seconds: float, gate: Gate, work_dir):
    """Untraced run; returns (end-to-end metric values, record)."""
    cfg = workload.config(seed)
    meter = SpeedMeter()
    setups, trains, evals, steps = [], [], [], []
    with meter.running():
        for _ in range(SETUP_REPEATS):
            dataset, interval = setup(cfg, seed)
            setups.append(interval)

        start = perf_counter()
        spent = dict.fromkeys(("train", "eval", "step"), 0.0)

        def timed(kind, intervals, interval):
            intervals.append(interval)
            spent[kind] += interval[1] - interval[0]

        round_s = 0.0
        while _until(start + seconds, len(trains), MIN_TRAINS, round_s):
            round_start = perf_counter()
            model, interval = train_once(cfg, dataset, gate, work_dir)
            timed("train", trains, interval)
            while spent["eval"] < EVAL_SHARE * spent["train"] or len(evals) < MIN_EVALS:
                timed("eval", evals, eval_pass(model, dataset, gate))
            loop = StepLoop(model, dataset)
            while spent["step"] < STEP_SHARE * spent["train"] or len(steps) < MIN_STEPS:
                with gate.attempt(1, "training step"):
                    timed("step", steps, loop.step())
            round_s = perf_counter() - round_start

    def end_to_end(seconds_of):
        step_ms = seconds_of(steps) * 1e3
        return {
            "setup_s": float(np.median(seconds_of(setups))),
            "train_steps_per_s": float(np.median(cfg.training.steps / seconds_of(trains))),
            "step_ms.p50": float(np.percentile(step_ms, 50)),
            "step_ms.p90": float(np.percentile(step_ms, 90)),
            "eval_samples_per_s": float(np.median(gate.seen["test_samples"] / seconds_of(evals))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    record = _record(workload, cfg, seed, gate, meter, {
        "setup": len(setups), "train": len(trains), "eval": len(evals), "step": len(steps)})
    record["unscaled"] = end_to_end(lambda intervals: np.diff(intervals, axis=1)[:, 0])
    return end_to_end(meter.scaled), record


def measure_traced(workload: Workload, seed: int, seconds: float, gate: Gate, work_dir):
    """Traced run; returns (per-layer metric values, record)."""
    cfg = workload.config(seed)
    meter = SpeedMeter()
    tracer = Tracer()
    plain, traced = [], []
    evals = 0
    with meter.running():
        dataset, _ = setup(cfg, seed)
        start = perf_counter()
        round_s = 0.0
        while _until(start + TRACED_TRAIN_UNTIL * seconds, len(traced), MIN_TRAINS, round_s):
            round_start = perf_counter()
            model, interval = train_once(cfg, dataset, gate, work_dir)
            plain.append(interval)
            with tracer.installed():
                model, interval = train_once(cfg, dataset, gate, work_dir)
            traced.append(interval)
            round_s = perf_counter() - round_start

        with tracer.installed():
            while _until(start + seconds, evals, MIN_EVALS):
                eval_pass(model, dataset, gate)
                evals += 1

    metrics = layer_metrics(tracer, meter)
    metrics["trace.overhead_ratio"] = float(
        np.median(meter.scaled(plain)) / np.median(meter.scaled(traced)))
    metrics["test_acc"] = gate.seen["test_acc"]
    record = _record(workload, cfg, seed, gate, meter, {
        "train": len(plain), "traced_train": len(traced), "traced_eval": evals,
        "spans": len(tracer.names)})
    record["train_mix"] = {layer: round(share, 4)
                           for layer, share in train_mix(tracer, meter).items()}
    return metrics, record


def _record(workload: Workload, cfg: RunConfig, seed: int, gate: Gate, meter: SpeedMeter,
            samples: dict) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "shapes": _shapes(cfg),
        "params_final": gate.seen.get("params_final"),
        "test_acc": gate.seen.get("test_acc"),
        "test_samples": gate.seen.get("test_samples"),
        "samples": samples,
        "speed": meter.summary(),
    }
