"""Training and evaluation loops, ablation matrix, hyperparameter sweeps.

One training run is single-threaded and bit-deterministic given its seed:
batch order, clustering seeds and evaluation subsets are all derived from
named sub-streams of the run seed. The ablation and sweep drivers may run
independent configurations on a small thread pool capped by the
COME_THREADS environment variable (default 1); runs share nothing but the
read-only dataset.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, apply_overrides, config_to_dict
from .container import load_dataset
from .datagen import DatasetBundle, generate
from .model import ComeModel, ForwardState
from .numerics import AdamWState, RandomStreams, adamw_step

EVAL_STREAM_OFFSET = 2**33  # keeps eval clustering seeds clear of training steps

METRICS_HEADER = [
    "step", "train_acc", "test_acc", "purity", "util_cv", "overflow_rate",
    "task_ce", "l_tb", "l_ip", "l_load", "total",
]

# Each ablation is a list of --set overrides on the run config.
ABLATION_VARIANTS = {
    "full": [],
    "no_ste": ["model.structure_expert=false"],
    "no_see": ["model.semantic_expert=false"],
    "no_dse": ["model.structure_expert=false", "model.semantic_expert=false"],
    "no_clustering": ["clustering.strategy=none"],
    "no_tb": ["losses.tb_weight=0"],
}

SWEEP_AXES = {
    "experts": [4, 8, 10],
    "topk": [1, 2, 3, 4],
}


@dataclass
class EvalResult:
    accuracy: float
    purity: float
    utilization: np.ndarray
    util_cv: float
    overflow_rate: float
    n_samples: int


@dataclass
class MetricsRecord:
    step: int
    train_acc: float
    test_acc: float
    purity: float
    util_cv: float
    overflow_rate: float
    task_ce: float
    l_tb: float
    l_ip: float
    l_load: float
    total: float

    def row(self) -> list:
        return [getattr(self, name) for name in METRICS_HEADER]


@dataclass
class TrainResult:
    model: ComeModel
    metrics: list
    expert_stats: list
    manifest: dict
    halted: bool = False
    halt_reason: str | None = None

    def final(self) -> MetricsRecord:
        return self.metrics[-1]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def worker_count() -> int:
    return max(1, int(os.environ.get("COME_THREADS", "1")))


def _run_jobs(fn, jobs: list) -> list:
    workers = worker_count()
    if workers == 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: list, rows: list) -> Path:
    p = Path(path)
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    p.write_text("\n".join(lines) + "\n")
    return p


def build_dataset(cfg: RunConfig) -> DatasetBundle:
    if cfg.data.path:
        return load_dataset(cfg.data.path)
    return generate(cfg.data.generator(), cfg.data.seed)


def _check_dataset(cfg: RunConfig, dataset: DatasetBundle):
    if dataset.tokens.shape[2] != cfg.data.width:
        raise ValueError(
            f"dataset width {dataset.tokens.shape[2]} != configured {cfg.data.width}"
        )
    if dataset.labels.max(initial=0) >= cfg.data.n_classes:
        raise ValueError("dataset labels exceed configured class count")
    if dataset.sources.max(initial=0) >= cfg.data.n_sources:
        raise ValueError("dataset sources exceed configured source count")


def _group_mask(groups: dict, n_sources: int, n_experts: int) -> np.ndarray:
    mask = np.zeros((n_sources, n_experts), dtype=bool)
    for src, experts in groups.items():
        for e in experts:
            mask[src, e] = True
    return mask


def routing_purity(plan, token_sources, group_mask) -> tuple:
    """(in-group count, counted tokens) for the highest-gate admitted expert.

    Tokens whose every selection overflowed have no admitted expert and are
    excluded from the count. Selection columns are gate-sorted, so the first
    admitted slot is the top-1 admitted expert.
    """
    has_any = plan.admitted.any(axis=1)
    if not has_any.any():
        return 0, 0
    first_slot = np.argmax(plan.admitted, axis=1)
    experts = plan.selection[np.arange(plan.n_tokens), first_slot]
    sel = has_any
    hits = group_mask[token_sources[sel], experts[sel]]
    return int(hits.sum()), int(sel.sum())


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(model: ComeModel, dataset: DatasetBundle, split="test",
             batch_size: int | None = None, max_batches: int | None = None) -> EvalResult:
    """Deterministic evaluation of a checkpointed model on a dataset split.

    ``split`` is "train", "test", or an explicit index array. Model
    parameters are never mutated; an empty split is rejected.
    """
    cfg = model.cfg
    _check_dataset(cfg, dataset)
    if isinstance(split, str):
        if split not in ("train", "test"):
            raise ValueError(f"split must be train|test or indices, got {split!r}")
        indices = dataset.train_idx if split == "train" else dataset.test_idx
    else:
        indices = np.asarray(split)
    if indices.size == 0:
        raise ValueError("evaluate: empty split")
    batch_size = batch_size or cfg.training.batch_size
    streams = RandomStreams(cfg.seed)

    correct = 0
    purity_num = 0
    purity_den = 0
    pair_total = 0
    overflow_total = 0
    util = np.zeros(cfg.model.n_experts, dtype=np.int64)
    gmask = _group_mask(model.groups, cfg.data.n_sources, cfg.model.n_experts)

    n_batches = 0
    for b_i, start in enumerate(range(0, indices.size, batch_size)):
        if max_batches is not None and b_i >= max_batches:
            break
        batch = dataset.take(indices[start : start + batch_size])
        state = model.forward(
            batch, cluster_rng=streams.stream("noise", EVAL_STREAM_OFFSET + b_i)
        )
        correct += int(np.sum(state.predictions == batch.labels))
        n_batches += 1
        if state.plan is not None:
            num, den = routing_purity(state.plan, batch.token_sources, gmask)
            purity_num += num
            purity_den += den
            util += state.plan.utilization()
            overflow_total += len(state.plan.overflow)
            pair_total += state.plan.n_tokens * state.plan.top_k
    n_seen = min(indices.size, n_batches * batch_size)
    mean_util = util.mean() if util.size else 0.0
    util_cv = float(util.std() / mean_util) if mean_util > 0 else 0.0
    return EvalResult(
        accuracy=correct / n_seen,
        purity=purity_num / purity_den if purity_den else 0.0,
        utilization=util,
        util_cv=util_cv,
        overflow_rate=overflow_total / pair_total if pair_total else 0.0,
        n_samples=n_seen,
    )


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _expert_stats_header(n_experts: int) -> list:
    return (
        ["step"]
        + [f"ip_{j}" for j in range(n_experts)]
        + [f"load_{j}" for j in range(n_experts)]
        + [f"util_{j}" for j in range(n_experts)]
    )


def run_manifest(cfg: RunConfig, command: str, digests: dict, outputs: list) -> dict:
    return {
        "command": command,
        "seed": cfg.seed,
        "config": config_to_dict(cfg),
        "digests": digests,
        "outputs": outputs,
    }


def train(cfg: RunConfig, dataset: DatasetBundle | None = None,
          out_dir=None) -> TrainResult:
    """Train a model and log metrics at the configured cadence.

    Deterministic given the seed; halts with the last logged checkpoint if
    the loss turns non-finite. Writes metrics.csv, expert_stats.csv,
    checkpoint.come and manifest.json when ``out_dir`` is given.
    """
    cfg.validate()
    if dataset is None:
        dataset = build_dataset(cfg)
    _check_dataset(cfg, dataset)
    model = ComeModel.build(cfg)
    init_digest = model.parameter_digest()
    frozen_before = model.frozen_digests()
    opt = AdamWState(
        lr=cfg.optimizer.lr,
        beta1=cfg.optimizer.beta1,
        beta2=cfg.optimizer.beta2,
        eps=cfg.optimizer.eps,
        weight_decay=cfg.optimizer.weight_decay,
    )
    streams = RandomStreams(cfg.seed)

    train_idx = dataset.train_idx
    if train_idx.size == 0:
        raise ValueError("train: dataset has no training samples")
    bs = min(cfg.training.batch_size, train_idx.size)
    steps_per_epoch = max(1, train_idx.size // bs)
    eval_n = cfg.training.eval_batches * bs
    eval_train = train_idx[:eval_n]
    eval_test = dataset.test_idx[:eval_n] if dataset.test_idx.size else dataset.test_idx

    metrics: list = []
    expert_rows: list = []
    snapshot = {k: v.copy() for k, v in model.params.items()}
    halted = False
    halt_reason = None
    order = None
    epoch = -1

    for step in range(1, cfg.training.steps + 1):
        e = (step - 1) // steps_per_epoch
        if e != epoch:
            epoch = e
            order = streams.stream("data", epoch).permutation(train_idx.size)
        i = (step - 1) % steps_per_epoch
        batch = dataset.take(train_idx[order[i * bs : (i + 1) * bs]])

        state = model.forward(batch, cluster_rng=streams.stream("noise", step))
        if not np.isfinite(state.report.total):
            halted = True
            halt_reason = f"non-finite loss at step {step}"
            model.params = snapshot
            break
        if state.plan is not None and np.any(state.plan.utilization() > state.plan.capacity):
            raise RuntimeError(f"capacity bound violated at step {step}")

        grads = model.backward(state)
        adamw_step(model.params, grads, opt)

        if step % cfg.training.log_every == 0 or step == cfg.training.steps:
            metrics.append(_log_point(model, dataset, state, step, bs, eval_train, eval_test))
            expert_rows.append(_expert_row(cfg, state, metrics[-1]))
            snapshot = {k: v.copy() for k, v in model.params.items()}

    if model.frozen_digests() != frozen_before:
        raise RuntimeError("frozen expert parameters changed during training")

    digests = {
        "params_init": init_digest,
        "params_final": model.parameter_digest(),
        "frozen_structure": frozen_before["structure"],
        "frozen_semantic": frozen_before["semantic"],
    }
    manifest = run_manifest(cfg, "train", digests, [])
    if halted:
        manifest["halted"] = halt_reason
    result = TrainResult(
        model=model, metrics=metrics, expert_stats=expert_rows,
        manifest=manifest, halted=halted, halt_reason=halt_reason,
    )
    if out_dir is not None:
        _write_train_outputs(result, cfg, out_dir)
    return result


def _log_point(model, dataset, state: ForwardState, step, bs, eval_train, eval_test):
    tr = evaluate(model, dataset, eval_train, batch_size=bs)
    te = evaluate(model, dataset, eval_test, batch_size=bs) if eval_test.size else tr
    rep = state.report
    return MetricsRecord(
        step=step,
        train_acc=tr.accuracy,
        test_acc=te.accuracy,
        purity=te.purity,
        util_cv=te.util_cv,
        overflow_rate=te.overflow_rate,
        task_ce=rep.task_ce,
        l_tb=rep.l_tb,
        l_ip=rep.l_ip,
        l_load=rep.l_load,
        total=rep.total,
    )


def _expert_row(cfg, state: ForwardState, record: MetricsRecord) -> list:
    n = cfg.model.n_experts
    ip = state.report.importance
    load = state.report.load
    util = state.plan.utilization() if state.plan is not None else np.zeros(n)
    pad = lambda v: list(v) + [0.0] * (n - len(v))
    return [record.step] + pad(ip) + pad(load) + pad(util)


def _write_train_outputs(result: TrainResult, cfg: RunConfig, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [
        write_csv(out / "metrics.csv", METRICS_HEADER, [m.row() for m in result.metrics]),
        write_csv(
            out / "expert_stats.csv",
            _expert_stats_header(cfg.model.n_experts),
            result.expert_stats,
        ),
        result.model.save(out / "checkpoint.come"),
    ]
    result.manifest["outputs"] = [p.name for p in paths] + ["manifest.json"]
    (out / "manifest.json").write_text(json.dumps(result.manifest, indent=2))


# ---------------------------------------------------------------------------
# ablations and sweeps
# ---------------------------------------------------------------------------

ABLATION_HEADER = ["variant", "seed", "test_acc", "purity", "util_cv"]
SWEEP_HEADER = ["axis", "value", "seed", "test_acc", "purity", "util_cv", "overflow_rate"]


def run_ablations(cfg: RunConfig, dataset: DatasetBundle | None = None,
                  seeds: list | None = None, out_dir=None) -> list:
    """Full model plus the five single-removal variants on identical seeds.

    Returns rows (variant, seed, test accuracy, purity, utilization CV).
    """
    cfg.validate()
    if dataset is None:
        dataset = build_dataset(cfg)
    seeds = list(seeds) if seeds else [cfg.seed]

    jobs = []
    for variant, overrides in ABLATION_VARIANTS.items():
        for seed in seeds:
            jobs.append((variant, seed, apply_overrides(cfg, [*overrides, f"seed={seed}"])))

    def _one(job):
        variant, seed, run_cfg = job
        result = train(run_cfg, dataset=dataset)
        final = result.final()
        return [variant, seed, final.test_acc, final.purity, final.util_cv]

    rows = _run_jobs(_one, jobs)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "ablations.csv", ABLATION_HEADER, rows)
        manifest = run_manifest(cfg, "ablate", {}, ["ablations.csv"])
        manifest["seeds"] = seeds
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return rows


def sweep(cfg: RunConfig, axis: str, dataset: DatasetBundle | None = None,
          values: list | None = None, out_dir=None) -> list:
    """One run per axis value on a shared seed; axes: experts, topk."""
    cfg.validate()
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    values = list(values) if values is not None else SWEEP_AXES[axis]
    if dataset is None:
        dataset = build_dataset(cfg)

    jobs = []
    for value in values:
        if axis == "experts":
            overrides = [f"model.n_experts={int(value)}",
                         f"router.top_k={min(cfg.router.top_k, int(value))}"]
        else:
            overrides = [f"router.top_k={int(value)}"]
        jobs.append((value, apply_overrides(cfg, overrides)))

    def _one(job):
        value, run_cfg = job
        result = train(run_cfg, dataset=dataset)
        final = result.final()
        return [axis, value, run_cfg.seed, final.test_acc, final.purity,
                final.util_cv, final.overflow_rate]

    rows = _run_jobs(_one, jobs)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / f"sweep_{axis}.csv", SWEEP_HEADER, rows)
        manifest = run_manifest(cfg, "sweep", {}, [f"sweep_{axis}.csv"])
        manifest["axis"] = axis
        manifest["values"] = values
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return rows
