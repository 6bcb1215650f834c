"""Layer spans recorded from outside ``come`` by wrapping its functions.

Each target is patched at the name its caller looks up, not where it is
defined: ``come.model`` binds ``attention_forward`` and the other layer
functions with ``from … import``, so a wrapper on ``come.attention`` would
never run during ``ComeModel.forward``. ``kmeans`` is patched on
``come.clustering`` because ``fine2coarse`` calls it through that module's
globals; ``adamw_step``, ``evaluate`` and ``train`` on ``come.harness``; and
``forward``/``backward``/``take`` on their classes.

A span is (layer, parent span, start, end, info). Spans nest through a
stack, so a layer's self time is its duration minus its direct children's.
Spans inside ``harness.train`` make up the train phase. An ``evaluate``
span there is the log-point eval, and the spans inside it count only
toward it. Spans inside an ``evaluate`` pass made outside ``train`` make up
the eval phase. Call counts are given per train and per eval pass, so they
repeat exactly for a seed however many repeats a run fits in.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (layer, owner the caller resolves the name on, attribute)
TARGETS = [
    ("harness.train", "come.harness", "train"),
    ("harness.evaluate", "come.harness", "evaluate"),
    ("numerics.adamw", "come.harness", "adamw_step"),
    ("model.forward", "come.model:ComeModel", "forward"),
    ("model.backward", "come.model:ComeModel", "backward"),
    ("datagen.take", "come.datagen:DatasetBundle", "take"),
    ("experts.frozen_forward", "come.model", "frozen_forward"),
    ("attention.forward", "come.model", "attention_forward"),
    ("attention.backward", "come.model", "attention_backward"),
    ("clustering.fine2coarse", "come.model", "fine2coarse"),
    ("clustering.kmeans", "come.clustering", "kmeans"),
    ("experts.dr_forward", "come.model", "dr_forward"),
    ("experts.dr_backward", "come.model", "dr_backward"),
    ("router.gate_forward", "come.model", "gate_forward"),
    ("router.gate_backward", "come.model", "gate_backward"),
    ("router.topk", "come.model", "topk_select"),
    ("router.dispatch", "come.model", "build_dispatch"),
    ("experts.mixture_forward", "come.model", "expert_mixture_forward"),
    ("experts.mixture_backward", "come.model", "expert_mixture_backward"),
    ("losses.cross_entropy", "come.model", "cross_entropy"),
    ("losses.traceability", "come.model", "traceability_loss"),
    ("losses.importance", "come.model", "importance_loss"),
    ("losses.load", "come.model", "load_loss"),
    ("container.checkpoint_save", "come.model", "save_checkpoint"),
]

# What a span keeps from its layer's return value, for the count metrics.
OBSERVE = {
    "clustering.kmeans": lambda run: (run.n_iters, run.converged),
    "clustering.fine2coarse": lambda model: len(model.warnings),
    "router.dispatch": lambda plan: (int(plan.admitted.sum()), plan.admitted.size),
}

# Layers reported for the train phase, as <layer>_ms, <layer>_ms.p90 and
# <layer>.calls (per train). harness.log_eval is an evaluate span inside
# harness.train.
TRAIN_LAYERS = [
    "model.forward", "model.forward_self", "model.backward", "model.backward_self",
    "experts.frozen_forward", "attention.forward", "attention.backward",
    "clustering.fine2coarse", "clustering.kmeans",
    "experts.dr_forward", "experts.dr_backward",
    "router.gate_forward", "router.gate_backward", "router.topk", "router.dispatch",
    "experts.mixture_forward", "experts.mixture_backward",
    "losses.cross_entropy", "losses.traceability", "losses.importance", "losses.load",
    "numerics.adamw", "datagen.take", "harness.log_eval", "container.checkpoint_save",
]

# Forward-side layers, reported for the eval phase as eval.<layer>_ms and
# eval.<layer>.calls (per full evaluation pass).
EVAL_LAYERS = [
    "model.forward", "model.forward_self", "experts.frozen_forward", "attention.forward",
    "clustering.fine2coarse", "clustering.kmeans", "experts.dr_forward",
    "router.gate_forward", "router.topk", "router.dispatch", "experts.mixture_forward",
    "losses.cross_entropy", "losses.traceability", "losses.importance", "losses.load",
    "datagen.take",
]

# Count metrics: name -> (unit, better).
COUNTS = {
    "clustering.kmeans_iters": ("iter/call", "lower"),
    "clustering.kmeans_unconverged": ("count/train", "lower"),
    "clustering.fallbacks": ("count/train", "lower"),
    "router.admitted_ratio": ("ratio", "higher"),
    "eval.router.admitted_ratio": ("ratio", "higher"),
}


def per_layer_spec() -> list:
    """Every per-layer metric a traced run reports, as (name, unit, better).

    ``trace.overhead_ratio`` and ``test_acc`` are added by the workload
    runner, which measures them around the traced trains.
    """
    spec = []
    for layer in TRAIN_LAYERS:
        spec += [(f"{layer}_ms", "ms", "lower"), (f"{layer}_ms.p90", "ms", "lower"),
                 (f"{layer}.calls", "count/train", "lower")]
    for layer in EVAL_LAYERS:
        spec += [(f"eval.{layer}_ms", "ms", "lower"),
                 (f"eval.{layer}.calls", "count/pass", "lower")]
    spec += [(name, unit, better) for name, (unit, better) in COUNTS.items()]
    spec += [("trace.overhead_ratio", "ratio", "higher"), ("test_acc", "ratio", "higher")]
    return spec


def _resolve(owner: str):
    module, _, attr = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Tracer:
    """Records spans while installed; single-threaded like one training run."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.info: list = []
        self._stack: list = []

    def _wrap(self, layer: str, fn):
        observe = OBSERVE.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(layer)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self.info.append(None)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()
            if observe is not None:
                self.info[idx] = observe(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore it."""
        saved = []
        try:
            for layer, owner, attr in self.targets:
                obj = _resolve(owner)
                if attr not in obj.__dict__:
                    raise LookupError(f"trace target {owner}.{attr} does not exist")
                original = obj.__dict__[attr]
                saved.append((obj, attr, original))
                setattr(obj, attr, self._wrap(layer, original))
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def durations(self, meter=None) -> np.ndarray:
        """Span seconds; with a SpeedMeter, less probe time and scaled to the
        reference core speed. A span shares the scale of its outermost
        ancestor below harness.train/evaluate, so self times stay exact."""
        if meter is None:
            return np.subtract(self.ends, self.starts)
        top = []
        for i, parent in enumerate(self.parents):
            outer = parent < 0 or self.names[parent] in ("harness.train", "harness.evaluate")
            top.append(i if outer else top[parent])
        top = np.asarray(top, dtype=np.int64)
        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        return meter.net(starts, ends) * meter.factor(starts[top], ends[top])

    def self_times(self, durations) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        own = np.array(durations, dtype=float)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[i]
        return own

    def phases(self) -> list:
        """Per span: 'top' (no parent), 'train', 'log_eval' (inside an
        evaluate inside train) or 'eval' (inside an evaluate pass)."""
        phase = []
        for parent in self.parents:
            if parent < 0:
                phase.append("top")
            elif self.names[parent] == "harness.train":
                phase.append("train")
            elif self.names[parent] == "harness.evaluate":
                phase.append("log_eval" if phase[parent] == "train" else "eval")
            else:
                phase.append(phase[parent])
        return phase


def layer_samples(tracer: Tracer, phases: list, meter=None) -> dict:
    """(phase, layer) -> per-call seconds, with model self times and
    log-point evals under their reported layer names."""
    durations = tracer.durations(meter)
    own = tracer.self_times(durations)
    samples: dict = {}
    for i, layer in enumerate(tracer.names):
        if phases[i] not in ("train", "eval"):
            continue
        if layer == "harness.evaluate":
            layer = "harness.log_eval"
        samples.setdefault((phases[i], layer), []).append(durations[i])
        if layer in ("model.forward", "model.backward"):
            samples.setdefault((phases[i], f"{layer}_self"), []).append(own[i])
    return samples


def train_mix(tracer: Tracer, meter=None) -> dict:
    """Share of ``harness.train`` wall time spent inside each layer, largest
    first. Shares of nested layers overlap: ``model.forward`` holds
    ``attention.forward``, and ``harness.log_eval`` holds its own forwards."""
    phases = tracer.phases()
    durations = tracer.durations(meter)
    total = sum(d for d, name, phase in zip(durations, tracer.names, phases)
                if name == "harness.train" and phase == "top")
    shares = {layer: sum(seconds) / total
              for (phase, layer), seconds in layer_samples(tracer, phases, meter).items()
              if phase == "train" and total > 0}
    return dict(sorted(shares.items(), key=lambda item: -item[1]))


def layer_metrics(tracer: Tracer, meter=None) -> dict:
    """Per-layer metric values (no unit) for everything in per_layer_spec()
    except the two the workload runner adds."""
    phases = tracer.phases()
    samples = layer_samples(tracer, phases, meter)
    top = [name for name, phase in zip(tracer.names, phases) if phase == "top"]
    per = {"train": max(1, top.count("harness.train")),
           "eval": max(1, top.count("harness.evaluate"))}
    out = {}

    def timing(prefix, phase, layer, with_p90):
        ms = np.asarray(samples.get((phase, layer), []), dtype=float) * 1e3
        out[f"{prefix}{layer}_ms"] = float(np.median(ms)) if ms.size else 0.0
        if with_p90:
            out[f"{prefix}{layer}_ms.p90"] = float(np.percentile(ms, 90)) if ms.size else 0.0
        out[f"{prefix}{layer}.calls"] = ms.size / per[phase]

    for layer in TRAIN_LAYERS:
        timing("", "train", layer, True)
    for layer in EVAL_LAYERS:
        timing("eval.", "eval", layer, False)

    def infos(phase, layer):
        return [tracer.info[i] for i, name in enumerate(tracer.names)
                if name == layer and phases[i] == phase]

    runs = infos("train", "clustering.kmeans")
    out["clustering.kmeans_iters"] = float(np.mean([r[0] for r in runs])) if runs else 0.0
    out["clustering.kmeans_unconverged"] = sum(1 for r in runs if not r[1]) / per["train"]
    out["clustering.fallbacks"] = sum(infos("train", "clustering.fine2coarse")) / per["train"]
    for prefix, phase in (("", "train"), ("eval.", "eval")):
        plans = infos(phase, "router.dispatch")
        selected = sum(p[1] for p in plans)
        out[f"{prefix}router.admitted_ratio"] = (
            sum(p[0] for p in plans) / selected if selected else 0.0
        )
    return out
