"""Training and evaluation loops, ablation matrix, hyperparameter sweeps.

One training run is single-threaded and bit-deterministic given its seed:
batch order, clustering seeds and evaluation subsets are all derived from
named sub-streams of the run seed. The ablation and sweep drivers train
their configurations one after another on the same read-only dataset.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .config import RunConfig, apply_overrides, config_to_dict
from .container import checkpoint_digest, load_dataset
from .datagen import DatasetBundle, generate
from .model import ComeModel, ForwardState
from .numerics import AdamWState, NonFiniteError, RandomStreams, adamw_step

EVAL_STREAM_OFFSET = 2**33  # keeps eval clustering seeds clear of training steps

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
    util_cv: float
    overflow_rate: float
    n_samples: int


@dataclass
class MetricsRecord:
    step: int
    train_acc: float
    test_acc: float
    test_samples: int  # the sample count test_acc covers
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


METRICS_HEADER = [f.name for f in fields(MetricsRecord)]


@dataclass
class TrainResult:
    model: ComeModel
    metrics: list
    expert_stats: list
    manifest: dict
    halt_reason: str | None = None

    @property
    def halted(self) -> bool:
        return self.halt_reason is not None

    def final(self) -> MetricsRecord:
        if not self.metrics:
            # the last step always logs, so only a halt or zero steps leave none
            raise ValueError(f"run logged no metrics: {self.halt_reason or 'training.steps=0'}")
        return self.metrics[-1]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


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
    if dataset.sources.min(initial=0) < 0:
        raise ValueError(f"dataset source id {dataset.sources.min()} is negative")


def routing_purity(plan, token_sources, group_size: int) -> tuple:
    """(in-group count, counted tokens) for the highest-gate admitted expert.

    A token is in group when its source owns that expert under
    ``ComeModel.group_size``. Tokens whose every selection overflowed have
    no admitted expert and are excluded from the count. Selection columns
    are gate-sorted, so the first admitted slot is the top-1 admitted expert.
    """
    has_any = plan.admitted.any(axis=1)
    first_slot = np.argmax(plan.admitted, axis=1)
    experts = plan.selection[np.arange(plan.n_tokens), first_slot]
    hits = experts[has_any] // group_size == token_sources[has_any]
    return int(hits.sum()), int(has_any.sum())


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(model: ComeModel, dataset: DatasetBundle, split="test",
             batch_size: int | None = None, max_batches: int | None = None) -> EvalResult:
    """Deterministic evaluation of a checkpointed model on a dataset split.

    ``split`` is "train", "test", or an explicit array of integer indices
    in [0, n_samples). Model parameters are never mutated; an empty split,
    any other index, ``batch_size`` < 1 and ``max_batches`` < 1 are
    rejected.
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
    integral = np.issubdtype(indices.dtype, np.integer)
    bad = indices if not integral else indices[(indices < 0) | (indices >= dataset.n_samples)]
    if bad.size:
        raise ValueError(f"evaluate: split index {bad.flat[0].item()!r} is not an integer "
                         f"in [0, {dataset.n_samples})")
    if batch_size is None:
        batch_size = cfg.training.batch_size
    for name, value in (("batch_size", batch_size), ("max_batches", max_batches)):
        if value is not None and value < 1:
            raise ValueError(f"evaluate: {name} must be >= 1, got {value}")
    streams = RandomStreams(cfg.seed)

    correct = 0
    purity_num = 0
    purity_den = 0
    pair_total = 0
    overflow_total = 0
    util = np.zeros(cfg.model.n_experts, dtype=np.int64)

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
            num, den = routing_purity(state.plan, batch.token_sources, model.group_size)
            purity_num += num
            purity_den += den
            util += state.plan.utilization()
            overflow_total += state.plan.n_overflow
            pair_total += state.plan.admitted.size
    n_seen = min(indices.size, n_batches * batch_size)
    mean_util = util.mean() if util.size else 0.0
    util_cv = float(util.std() / mean_util) if mean_util > 0 else 0.0
    return EvalResult(
        accuracy=correct / n_seen,
        purity=purity_num / purity_den if purity_den else 0.0,
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

    Deterministic given the seed. A whole step (forward, backward, AdamW
    and the log-point eval) runs with NumPy overflow and invalid operations
    raising. If a step meets NaN or Inf tokens (``NonFiniteError``) or an
    operation that overflows or is invalid (``FloatingPointError``),
    training halts and keeps the parameters of the last log point, or the
    initial ones if none was reached. The halt reason names the step, and
    for a FloatingPointError the innermost function. Writes metrics.csv,
    expert_stats.csv, checkpoint.come and manifest.json when ``out_dir`` is
    given.
    """
    cfg.validate()
    if dataset is None:
        dataset = build_dataset(cfg)
    _check_dataset(cfg, dataset)
    model = ComeModel.build(cfg)
    init_digest = model.parameter_digest()
    frozen_before = checkpoint_digest(model.frozen)
    opt = AdamWState(**asdict(cfg.optimizer))
    streams = RandomStreams(cfg.seed)

    train_idx = dataset.train_idx
    if train_idx.size == 0:
        raise ValueError("train: dataset has no training samples")
    bs = min(cfg.training.batch_size, train_idx.size)
    steps_per_epoch = max(1, train_idx.size // bs)
    eval_n = cfg.training.eval_batches * bs
    eval_train = train_idx[:eval_n]
    eval_test = dataset.test_idx[:eval_n]

    metrics: list = []
    expert_rows: list = []
    snapshot = {k: v.copy() for k, v in model.params.items()}
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

        log = step % cfg.training.log_every == 0 or step == cfg.training.steps
        try:
            with np.errstate(over="raise", invalid="raise"):
                state = model.forward(batch, cluster_rng=streams.stream("noise", step))
                plan = state.plan
                if plan is not None and np.any(plan.utilization() > plan.capacity):
                    raise RuntimeError(f"capacity bound violated at step {step}")
                adamw_step(model.params, model.backward(state), opt)
                if log:
                    record = _log_point(model, dataset, state, step, bs, eval_train, eval_test)
        except NonFiniteError as exc:
            halt_reason = f"non-finite value at step {step}: {exc}"
        except FloatingPointError as exc:
            where = traceback.extract_tb(exc.__traceback__)[-1].name
            halt_reason = f"non-finite value at step {step}: {where}: {exc}"
        if halt_reason is not None:
            model.params = snapshot
            break
        if log:
            metrics.append(record)
            expert_rows.append(_expert_row(cfg, state, record))
            snapshot = {k: v.copy() for k, v in model.params.items()}

    if checkpoint_digest(model.frozen) != frozen_before:
        raise RuntimeError("frozen expert parameters changed during training")

    digests = {
        "params_init": init_digest,
        "params_final": model.parameter_digest(),
        "frozen": frozen_before,
    }
    manifest = run_manifest(cfg, "train", digests, [])
    if halt_reason is not None:
        manifest["halted"] = halt_reason
    result = TrainResult(
        model=model, metrics=metrics, expert_stats=expert_rows,
        manifest=manifest, halt_reason=halt_reason,
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
        test_samples=te.n_samples,
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

ABLATION_HEADER = ["variant", "seed", "test_acc", "purity", "util_cv", "halted"]
SWEEP_HEADER = ["axis", "value", "seed", "test_acc", "purity", "util_cv", "overflow_rate",
                "halted"]


def _run_grid(cfg: RunConfig, dataset: DatasetBundle, runs: list, header: list,
              out_dir, command: str, csv_name: str, **manifest_extra) -> list:
    """Train one run per (row prefix, overrides) pair and return its rows.

    Every run's config is validated before the first run trains. A row is
    the prefix, then the final log point's value of each metric ``header``
    names after the prefix, then whether the run halted. A run that logged
    nothing gets nan metric cells. With ``out_dir``, writes the rows to
    ``csv_name`` and a manifest that lists each halted run's reason.
    """
    configs = [apply_overrides(cfg, overrides).validate() for _, overrides in runs]
    rows, halts = [], []
    for (prefix, _), run_cfg in zip(runs, configs):
        result = train(run_cfg, dataset=dataset)
        names = header[len(prefix):-1]
        if result.metrics:
            cells = [getattr(result.metrics[-1], name) for name in names]
        else:
            cells = [float("nan")] * len(names)
        rows.append([*prefix, *cells, result.halted])
        if result.halted:
            halts.append({"row": prefix, "halt_reason": result.halt_reason})
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / csv_name, header, rows)
        manifest = run_manifest(cfg, command, {}, [csv_name])
        manifest.update(manifest_extra, halted=halts)
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return rows


def run_ablations(cfg: RunConfig, dataset: DatasetBundle | None = None,
                  seeds: list | None = None, out_dir=None) -> list:
    """Full model plus the five single-removal variants on identical seeds.

    Returns rows (variant, seed, test accuracy, purity, utilization CV,
    halted).
    """
    cfg.validate()
    if dataset is None:
        dataset = build_dataset(cfg)
    seeds = list(seeds) if seeds else [cfg.seed]
    runs = [
        ([variant, seed], [*overrides, f"seed={seed}"])
        for variant, overrides in ABLATION_VARIANTS.items()
        for seed in seeds
    ]
    return _run_grid(cfg, dataset, runs, ABLATION_HEADER, out_dir, "ablate", "ablations.csv",
                     seeds=seeds)


def sweep(cfg: RunConfig, axis: str, dataset: DatasetBundle | None = None,
          values: list | None = None, out_dir=None) -> list:
    """One run per axis value on a shared seed; axes: experts, topk."""
    cfg.validate()
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    values = list(values) if values is not None else SWEEP_AXES[axis]
    if dataset is None:
        dataset = build_dataset(cfg)
    runs = []
    for value in values:
        if axis == "experts":
            overrides = [f"model.n_experts={int(value)}",
                         f"router.top_k={min(cfg.router.top_k, int(value))}"]
        else:
            overrides = [f"router.top_k={int(value)}"]
        runs.append(([axis, value, cfg.seed], overrides))
    return _run_grid(cfg, dataset, runs, SWEEP_HEADER, out_dir, "sweep", f"sweep_{axis}.csv",
                     axis=axis, values=values)
