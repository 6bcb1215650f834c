"""Training and evaluation loops, and one driver for grids of runs.

One training run is single-threaded and bit-deterministic given its seed:
batch order, clustering seeds and evaluation subsets are all derived from
named sub-streams of the run seed. ``run_grid`` trains a table of named
override lists (``ABLATION_VARIANTS``, or ``sweep_runs`` for a sweep axis)
on each seed, one run after another on one shared read-only dataset. Each
row is ``GRID_HEADER``: run name, seed, the run's final logged
``MetricsRecord`` and whether it halted. Every run's config, the run and
seed lists (not empty, no seed twice), and that no run changes the ``data``
section or its own seed are checked before the first run trains.
"""

from __future__ import annotations

import csv
import json
import traceback
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, apply_overrides, config_to_dict
from .container import checkpoint_digest, load_dataset
from .datagen import DatasetBundle, check_dataset, generate
from .losses import LossReport
from .model import ComeModel, ForwardState
from .numerics import AdamWState, NonFiniteError, RandomStreams, adamw_step

EVAL_STREAM_OFFSET = 2**33  # keeps eval clustering seeds clear of training steps

# A run table for run_grid: each ablation is a list of --set overrides on the run config.
ABLATION_VARIANTS = {
    "full": [],
    "no_ste": ["model.structure_expert=false"],
    "no_see": ["model.semantic_expert=false"],
    "no_dse": ["model.structure_expert=false", "model.semantic_expert=false"],
    "no_clustering": ["clustering.strategy=none"],
    "no_tb": ["losses.tb_weight=0"],
}

SWEEP_AXES = {  # default values of each sweep_runs axis
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
    loss: LossReport  # the objective over all n_samples evaluated samples


@dataclass
class MetricsRecord:
    """One log point: accuracies and routing over the evaluated batches, and
    the loss parts of the step's training batch."""

    step: int
    train_acc: float
    test_acc: float
    test_samples: int  # the sample count test_acc covers
    test_ce: float  # task cross-entropy over those test samples
    train_ce: float  # the same over the train_acc samples: its in-sample counterpart
    purity: float
    util_cv: float
    overflow_rate: float
    task_ce: float
    l_tb: float
    l_ip: float
    l_load: float
    total: float
    tb_clamped: int  # training tokens whose own-group gate mass traceability clamped

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


def write_csv(path, header: list, rows: list) -> Path:
    p = Path(path)
    with p.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return p


def build_dataset(cfg: RunConfig) -> DatasetBundle:
    """Generated from the ``data`` section, or loaded from ``data.path`` if the file's
    generator and seed equal that section's (else a ConfigError names the first key)."""
    if not cfg.data.path:
        return generate(cfg.data.generator(), cfg.data.seed)
    dataset = load_dataset(cfg.data.path)
    for key, saved in {"seed": dataset.seed, **asdict(dataset.config)}.items():
        if saved != getattr(cfg.data, key):
            raise ConfigError(f"data.{key}={getattr(cfg.data, key)!r}, but {cfg.data.path} "
                              f"was generated with {key}={saved!r}")
    return dataset


def routing_figures(token_sources, selection, admitted, group_size: int,
                    n_experts: int) -> tuple:
    """(purity, util_cv, overflow_rate) over any number of routed tokens,
    from their source ids and their dispatch's (N, K) ``selection`` and
    ``admitted`` mask.

    Purity is the share of tokens whose highest-gate admitted expert their
    source owns under ``ComeModel.group_size``. Tokens whose every selection
    overflowed have no admitted expert and are not counted. Selection
    columns are gate-sorted, so the first admitted slot is the top-1
    admitted expert. ``util_cv`` is the coefficient of variation of the
    admitted pairs per expert, and ``overflow_rate`` the share of pairs not
    admitted. A figure with nothing to count is 0.0.
    """
    has_any = admitted.any(axis=1)
    experts = selection[np.arange(selection.shape[0]), np.argmax(admitted, axis=1)]
    hits = int(np.count_nonzero(experts[has_any] // group_size == token_sources[has_any]))
    counted = int(np.count_nonzero(has_any))
    util = np.bincount(selection[admitted], minlength=n_experts)
    mean_util = util.mean()
    return (hits / counted if counted else 0.0,
            float(util.std() / mean_util) if mean_util > 0 else 0.0,
            int(np.count_nonzero(~admitted)) / admitted.size if admitted.size else 0.0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(model: ComeModel, dataset: DatasetBundle, split="test",
             batch_size: int | None = None, max_batches: int | None = None) -> EvalResult:
    """Deterministic evaluation of a checkpointed model on a dataset split.

    ``split`` is "train" or "test": the dataset's training or test indices,
    in order, of which the first ``max_batches`` batches of ``batch_size``
    are evaluated (all of them by default). Each batch runs a forward only
    and keeps its class logits, labels and, on the routed body, gates,
    token sources and dispatch selection and admitted mask. Every figure is
    then formed once, over the concatenation of those outputs: accuracy
    and ``n_samples`` over the evaluated samples, ``routing_figures`` over
    their tokens, and ``EvalResult.loss`` as one ``ComeModel.objective``,
    whose importance and load CV^2 are so split-level figures, not means of
    per-batch ones. Model parameters are never mutated.
    Before the first forward, a dataset that fails
    ``datagen.check_dataset`` against ``cfg.data`` (integer ids in range,
    and splits of integer indices in [0, N), each in at most one split and
    at most once, so no sample is scored twice), any other split, an empty
    one, and a ``batch_size`` or ``max_batches`` that is not an int >= 1
    are rejected with a ValueError.
    """
    cfg = model.cfg
    check_dataset("evaluate", dataset, cfg.data)
    # str first: `array in tuple` would compare an index array elementwise
    if not (isinstance(split, str) and split in ("train", "test")):
        raise ValueError(f"evaluate: split must be 'train' or 'test', got {split!r}")
    indices = dataset.train_idx if split == "train" else dataset.test_idx
    if indices.size == 0:
        raise ValueError("evaluate: empty split")
    if batch_size is None:
        batch_size = cfg.training.batch_size
    for name, value in (("batch_size", batch_size), ("max_batches", max_batches)):
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"evaluate: {name} must be an int, got {value!r}")
        if value < 1:
            raise ValueError(f"evaluate: {name} must be >= 1, got {value}")
    streams = RandomStreams(cfg.seed)

    # each batch's outputs in the order ``objective`` (the first four) and
    # ``routing_figures`` (the last three) take them; dense keeps no routing arrays
    names = ("logits", "labels", "gates", "token_sources", "selection", "admitted")
    kept = {name: [] for name in names}
    for b_i, start in enumerate(range(0, indices.size, batch_size)[:max_batches]):
        batch = dataset.take(indices[start : start + batch_size])
        rng = streams.stream("noise", EVAL_STREAM_OFFSET + b_i) if model.clusters else None
        state = model.forward(batch, cluster_rng=rng)
        kept["logits"].append(state.logits)
        kept["labels"].append(batch.labels)
        if state.plan is not None:
            kept["gates"].append(state.gates)
            kept["token_sources"].append(batch.token_sources)
            kept["selection"].append(state.plan.selection)
            kept["admitted"].append(state.plan.admitted)
        del state  # free the forward's caches before the next batch's forward
    logits, labels, *routing = (np.concatenate(arrays) for arrays in kept.values() if arrays)
    loss, *_ = model.objective(logits, labels, *routing[:2])
    figures = (routing_figures(*routing[1:], model.group_size, cfg.model.n_experts)
               if routing else (0.0, 0.0, 0.0))
    accuracy = int(np.count_nonzero(logits.argmax(axis=1) == labels)) / labels.size
    return EvalResult(accuracy, *figures, n_samples=labels.size, loss=loss)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _expert_stats_header(n_experts: int) -> list:
    return ["step"] + [f"{kind}_{j}" for kind in ("ip", "load", "util") for j in range(n_experts)]


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
    given. Before a model is built, a dataset that fails
    ``datagen.check_dataset`` against ``cfg.data`` raises a ValueError: ids
    must have an integer dtype and lie in range, and the splits must hold
    integer indices in [0, N), each in at most one split and at most once.
    """
    cfg.validate()
    if dataset is None:
        dataset = build_dataset(cfg)
    check_dataset("train", dataset, cfg.data)
    train_idx = dataset.train_idx
    for name, idx in (("training", train_idx), ("test", dataset.test_idx)):
        if idx.size == 0:
            raise ValueError(f"train: dataset has no {name} samples")
    model = ComeModel.build(cfg)
    init_digest = model.parameter_digest()
    frozen_before = checkpoint_digest(model.frozen)
    opt = AdamWState(**asdict(cfg.optimizer))
    streams = RandomStreams(cfg.seed)

    bs = min(cfg.training.batch_size, train_idx.size)
    steps_per_epoch = max(1, train_idx.size // bs)

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
                rng = streams.stream("noise", step) if model.clusters else None
                state, grads = model.loss_and_grads(batch, cluster_rng=rng)
                plan = state.plan
                if plan is not None and np.any(plan.utilization() > plan.capacity):
                    raise RuntimeError(f"capacity bound violated at step {step}")
                adamw_step(model.params, grads, opt)
                del grads  # not held through the log-point eval
                if log:
                    record = _log_point(model, dataset, state, step, bs)
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


def _log_point(model, dataset, state: ForwardState, step, bs):
    n = model.cfg.training.eval_batches
    tr = evaluate(model, dataset, "train", batch_size=bs, max_batches=n)
    te = evaluate(model, dataset, "test", batch_size=bs, max_batches=n)
    rep = state.report
    return MetricsRecord(
        step=step,
        train_acc=tr.accuracy,
        test_acc=te.accuracy,
        test_samples=te.n_samples,
        test_ce=te.loss.task_ce,
        train_ce=tr.loss.task_ce,
        purity=te.purity,
        util_cv=te.util_cv,
        overflow_rate=te.overflow_rate,
        task_ce=rep.task_ce,
        l_tb=rep.l_tb,
        l_ip=rep.l_ip,
        l_load=rep.l_load,
        total=rep.total,
        tb_clamped=rep.tb_clamped,
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
# grids of runs
# ---------------------------------------------------------------------------

GRID_HEADER = ["run", "seed", *METRICS_HEADER, "halted"]


def _plain(value):
    """A NumPy scalar as its Python value, for overrides and JSON; else ``value``."""
    return value.item() if isinstance(value, np.generic) else value


def sweep_runs(cfg: RunConfig, axis: str, values: list | None = None) -> dict:
    """The run table of a sweep axis (experts, topk): ``{axis}={value}`` to
    its overrides. ``experts`` caps ``router.top_k`` at each value. A value
    that repeats is rejected; one that is not an int is left for config
    validation to reject."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    runs = {}
    for value in SWEEP_AXES[axis] if values is None else [_plain(v) for v in values]:
        name = f"{axis}={value}"
        if name in runs:
            raise ValueError(f"sweep over {axis!r}: value {value!r} repeats")
        if axis == "experts":
            top_k = min(cfg.router.top_k, value) if type(value) is int else cfg.router.top_k
            runs[name] = [f"model.n_experts={json.dumps(value)}", f"router.top_k={top_k}"]
        else:
            runs[name] = [f"router.top_k={json.dumps(value)}"]
    return runs


def run_grid(cfg: RunConfig, runs: dict, dataset: DatasetBundle | None = None,
             seeds: list | None = None, out_dir=None) -> list:
    """Train each named override list of ``runs`` on each seed; return the rows.

    ``seeds`` defaults to ``[cfg.seed]``. Every run trains on one shared
    dataset: ``dataset``, or the one ``cfg`` builds. A row is ``GRID_HEADER``:
    the run name, the seed, the final logged ``MetricsRecord.row()`` (nan
    cells if the run logged nothing) and whether the run halted. Before any
    run trains, every run's config is validated, and empty ``runs`` or
    ``seeds``, a repeated seed, and a run whose overrides are not a list of
    strings, change the ``data`` section or set a seed other than the one it
    is given are rejected. With ``out_dir``, writes the rows to ``grid.csv``
    and a manifest with the runs' overrides, the seeds and each halt's
    reason.
    """
    cfg.validate()
    seeds = [cfg.seed] if seeds is None else [_plain(s) for s in seeds]
    for name, value in (("runs", runs), ("seeds", seeds)):
        if not value:
            raise ValueError(f"run_grid: {name} is empty, so no run would train")
    configs = []
    for name, overrides in runs.items():
        strings = isinstance(overrides, (list, tuple)) and all(isinstance(o, str) for o in overrides)
        if not strings:
            raise ConfigError(f"run {name!r}: overrides must be a list of key=value strings, "
                              f"got {overrides!r}")
        for seed in seeds:
            run_cfg = apply_overrides(cfg, [f"seed={json.dumps(seed)}", *overrides]).validate()
            if run_cfg.seed != seed:
                raise ConfigError(f"run {name!r} sets seed={run_cfg.seed}, but run_grid trains "
                                  f"it on seed {seed}: pass seeds to run_grid instead")
            changed = [k for k, v in asdict(run_cfg.data).items() if v != getattr(cfg.data, k)]
            if changed:
                raise ConfigError(f"run {name!r} changes data.{changed[0]}, but every run of "
                                  f"a grid trains on one shared dataset")
            configs.append((name, seed, run_cfg))
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"run_grid: a seed repeats in {seeds}, so a run would train twice")
    if dataset is None:
        dataset = build_dataset(cfg)
    rows, halts = [], []
    for name, seed, run_cfg in configs:
        result = train(run_cfg, dataset=dataset)
        cells = result.final().row() if result.metrics else [float("nan")] * len(METRICS_HEADER)
        rows.append([name, seed, *cells, result.halted])
        if result.halted:
            halts.append({"run": name, "seed": seed, "halt_reason": result.halt_reason})
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "grid.csv", GRID_HEADER, rows)
        manifest = run_manifest(cfg, "grid", {}, ["grid.csv"])
        manifest.update(runs=runs, seeds=seeds, halted=halts)
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return rows
