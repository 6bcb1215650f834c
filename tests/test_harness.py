import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from come import harness
from come.config import ConfigError, RunConfig, apply_overrides, config_to_dict
from come.container import save_dataset
from come.datagen import DatasetBundle, generate
from come.model import ComeModel
from come.numerics import RandomStreams

SMALL = [
    "data.n_samples=80",
    "training.steps=4",
    "training.log_every=2",
    "training.eval_batches=1",
]


@pytest.fixture(scope="module")
def small():
    cfg = apply_overrides(RunConfig(), SMALL)
    return cfg, harness.build_dataset(cfg)


# ---------------------------------------------------------------------------
# halting
# ---------------------------------------------------------------------------


def test_non_finite_step_halts_and_restores_initial_params():
    # k-means's point terms meet the overflow first and raise before NumPy warns
    cfg = apply_overrides(RunConfig(), ["optimizer.lr=1e6", "training.steps=50"])
    result = harness.train(cfg)
    assert result.halted
    assert result.halt_reason == ("non-finite value at step 20: "
                                  "_point_terms: overflow encountered in multiply")
    assert result.manifest["halted"] == result.halt_reason
    assert result.metrics == []
    with pytest.raises(ValueError, match="logged no metrics"):
        result.final()
    digests = result.manifest["digests"]
    assert digests["params_final"] == digests["params_init"]


def test_halt_keeps_the_parameters_of_the_last_log_point():
    over = ["optimizer.lr=1e6", "training.steps=50", "training.log_every=1"]
    result = harness.train(apply_overrides(RunConfig(), over))
    assert result.halt_reason.startswith("non-finite value at step 19:")
    assert [m.step for m in result.metrics] == list(range(1, 19))
    last_logged = harness.train(apply_overrides(RunConfig(), over + ["training.steps=18"]))
    assert not last_logged.halted
    assert (result.manifest["digests"]["params_final"]
            == last_logged.manifest["digests"]["params_final"])


# ---------------------------------------------------------------------------
# evaluation and logging
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argument, value", [("batch_size", -1), ("batch_size", 0),
                                             ("max_batches", 0), ("max_batches", -2)])
def test_evaluate_rejects_a_batch_argument_below_one(small, argument, value):
    cfg, dataset = small
    model = ComeModel.build(cfg)
    with pytest.raises(ValueError, match=f"evaluate: {argument} must be >= 1, got {value}"):
        harness.evaluate(model, dataset, "test", **{argument: value})


@pytest.mark.parametrize("source, split, message", [
    (-1, "test", r"evaluate: sample 1 of 80 has source -1, not an integer in \[0, n_sources = 4\)"),
], ids=["negative-source"])
def test_evaluate_rejects_ids_out_of_range(small, source, split, message):
    cfg, dataset = small
    sources = dataset.sources.copy()
    sources[0] = source
    dataset = dataclasses.replace(dataset, sources=sources)
    with pytest.raises(ValueError, match=message):
        harness.evaluate(ComeModel.build(cfg), dataset, split)


def test_evaluate_rejects_an_index_array_as_a_split(small):
    cfg, dataset = small
    with pytest.raises(ValueError, match=re.escape(
            "evaluate: split must be 'train' or 'test', got array([0, 1])")):
        harness.evaluate(ComeModel.build(cfg), dataset, np.array([0, 1]))


def test_train_rejects_a_negative_label_before_training(small, monkeypatch):
    cfg, dataset = small
    labels = dataset.labels.copy()
    labels[5] = -1
    monkeypatch.setattr(ComeModel, "build", lambda _: pytest.fail("a model was built"))
    with pytest.raises(ValueError, match=re.escape(
            "train: sample 6 of 80 has label -1, not an integer in [0, n_classes = 3)")):
        harness.train(cfg, dataset=dataclasses.replace(dataset, labels=labels))


MALFORMED_BUNDLES = {
    "2-D-tokens": (lambda d: dataclasses.replace(d, tokens=d.tokens[:, :, 0]),
                   "tokens have shape (80, 16), but the generator's (tokens_per_sample, width) "
                   "is (16, 32)"),
    "short-labels": (lambda d: dataclasses.replace(d, labels=d.labels[:-5]),
                     "labels shape (75,) does not match 80 samples"),
    "short-sources": (lambda d: dataclasses.replace(d, sources=d.sources[:-5]),
                      "sources shape (75,) does not match 80 samples"),
    "5-tokens-per-sample": (
        lambda d: dataclasses.replace(d, tokens=d.tokens[:, :5],
                                      config=dataclasses.replace(d.config, tokens_per_sample=5)),
        "tokens have shape (80, 5, 32), but the generator's (tokens_per_sample, width) "
        "is (16, 32)"),
    "source-equal-to-n_sources": (
        lambda d: dataclasses.replace(d, sources=np.where(np.arange(80) == 3, 4, d.sources)),
        "sample 4 of 80 has source 4, not an integer in [0, n_sources = 4)"),
    "repeated-test-index": (
        lambda d: dataclasses.replace(d, test_idx=np.append(d.test_idx, d.test_idx[-1])),
        "test_idx repeats a sample index: entries 16 and 17 of 17 are"),
    "test-index-equal-to-N": (
        lambda d: dataclasses.replace(d, test_idx=np.append(d.test_idx, 80)),
        "test_idx must be a list of ints in [0, 80), but entry 17 of 17 is 80"),
    "training-index-in-test_idx": (
        lambda d: dataclasses.replace(d, test_idx=np.append(d.test_idx, d.train_idx[:3])),
        "3 sample indices are in both train_idx and test_idx, the lowest"),
    "float-train_idx": (
        lambda d: dataclasses.replace(d, train_idx=d.train_idx.astype(float)),
        "train_idx must be a list of ints in [0, 80), got dtype float64 and shape (64,)"),
    "float-labels": (lambda d: dataclasses.replace(d, labels=d.labels.astype(float)),
                     "labels have dtype float64, expected integers"),
    "list-test_idx": (lambda d: dataclasses.replace(d, test_idx=d.test_idx.tolist()),
                      "test_idx must be a NumPy array, got list"),
}


@pytest.mark.parametrize("malform, message", MALFORMED_BUNDLES.values(), ids=MALFORMED_BUNDLES)
def test_a_malformed_bundle_is_rejected_before_any_model_runs(small, monkeypatch, malform,
                                                              message):
    cfg, dataset = small
    bundle = malform(dataset)
    model = ComeModel.build(cfg)
    monkeypatch.setattr(ComeModel, "build", lambda _: pytest.fail("a model was built"))
    monkeypatch.setattr(ComeModel, "forward", lambda *_, **__: pytest.fail("a forward ran"))
    with pytest.raises(ValueError, match=re.escape(f"train: {message}")):
        harness.train(cfg, dataset=bundle)
    with pytest.raises(ValueError, match=re.escape(f"evaluate: {message}")):
        harness.evaluate(model, bundle, "train")


def test_evaluate_scores_no_test_sample_twice(small):
    cfg, dataset = small
    model = ComeModel.build(cfg)
    assert harness.evaluate(model, dataset, "test").n_samples == dataset.test_idx.size == 16
    first = dataset.test_idx[0]
    repeated = dataclasses.replace(dataset, test_idx=np.append(dataset.test_idx, first))
    with pytest.raises(ValueError, match=re.escape(
            f"evaluate: test_idx repeats a sample index: entries 1 and 17 of 17 are {first}")):
        harness.evaluate(model, repeated, "test")


@pytest.mark.parametrize("argument, value", [
    ("batch_size", True), ("batch_size", 2.5), ("batch_size", "4"),
    ("max_batches", 1.5), ("max_batches", False), ("max_batches", np.float64(2.0)),
])
def test_evaluate_rejects_a_batch_argument_that_is_not_an_int(small, argument, value):
    cfg, dataset = small
    with pytest.raises(ValueError, match=re.escape(
            f"evaluate: {argument} must be an int, got {value!r}")):
        harness.evaluate(ComeModel.build(cfg), dataset, "test", **{argument: value})


def test_evaluate_takes_numpy_int_batch_arguments(small):
    cfg, dataset = small
    model = ComeModel.build(cfg)
    plain = harness.evaluate(model, dataset, "test", batch_size=4, max_batches=3)
    numpy = harness.evaluate(model, dataset, "test", batch_size=np.int64(4),
                             max_batches=np.int32(3))
    assert numpy == plain and numpy.n_samples == 12


@pytest.fixture
def noise_indices(monkeypatch):
    """The index of every ``noise`` stream the harness derives."""
    indices = []
    stream = RandomStreams.stream

    def counting(self, purpose, index=0):
        if purpose == "noise":
            indices.append(index)
        return stream(self, purpose, index)

    monkeypatch.setattr(RandomStreams, "stream", counting)
    return indices


@pytest.mark.parametrize("overrides, clusters", [
    ([], True),
    (["clustering.strategy=none"], False),
    (["model.arch=dense"], False),
], ids=["fine2coarse", "strategy-none", "dense"])
def test_a_noise_stream_is_derived_per_batch_only_when_the_model_clusters(
        small, noise_indices, overrides, clusters):
    cfg, dataset = small
    cfg = apply_overrides(cfg, overrides)
    model = ComeModel.build(cfg)
    assert model.clusters is clusters
    harness.evaluate(model, dataset, "test", batch_size=4)  # 16 test samples: 4 batches
    eval_expected = [harness.EVAL_STREAM_OFFSET + b for b in range(4)] if clusters else []
    assert noise_indices == eval_expected
    noise_indices.clear()
    harness.train(cfg, dataset=dataset)
    # 4 steps, and at each of the 2 log points one batch on each split
    evals = [harness.EVAL_STREAM_OFFSET] * 2
    assert noise_indices == ([1, 2] + evals + [3, 4] + evals if clusters else [])


def test_logged_test_accuracy_states_its_sample_count(small, tmp_path):
    cfg, dataset = small
    result = harness.train(cfg, dataset=dataset, out_dir=tmp_path)
    # eval_batches=1 at batch size 8 covers 8 of the 16 test samples
    assert [m.test_samples for m in result.metrics] == [8, 8]
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0].split(",")[:4] == ["step", "train_acc", "test_acc", "test_samples"]
    assert [line.split(",")[3] for line in lines[1:]] == ["8", "8"]


def test_logged_test_ce_is_the_held_out_objective_of_the_logged_batches(small, tmp_path):
    cfg, dataset = small
    result = harness.train(cfg, dataset=dataset, out_dir=tmp_path)
    # the last step logs, so the final model is the one its log point evaluated
    held_out = harness.evaluate(result.model, dataset, "test", batch_size=8,
                                max_batches=cfg.training.eval_batches)
    assert result.metrics[-1].test_ce == held_out.loss.task_ce
    header = (tmp_path / "metrics.csv").read_text().splitlines()[0].split(",")
    assert header[3:5] == ["test_samples", "test_ce"]


def test_logged_train_ce_is_the_in_sample_objective_of_the_logged_batches(small, tmp_path):
    cfg, dataset = small
    result = harness.train(cfg, dataset=dataset, out_dir=tmp_path)
    in_sample = harness.evaluate(result.model, dataset, "train", batch_size=8,
                                 max_batches=cfg.training.eval_batches)
    assert result.metrics[-1].train_ce == in_sample.loss.task_ce
    rows = list(csv.DictReader((tmp_path / "metrics.csv").read_text().splitlines()))
    assert float(rows[-1]["train_ce"]) == in_sample.loss.task_ce  # repr round-trips the bits
    assert harness.METRICS_HEADER.index("train_ce") == harness.METRICS_HEADER.index("test_ce") + 1


def test_a_log_point_records_the_traceability_clamps_of_its_training_batch(
        small, monkeypatch, tmp_path):
    """A router bias of 60 on expert 0 leaves every other expert under 1e-12
    of gate mass at the first step, so every token of a source other than 0,
    which owns expert 0, has its own-group mass clamped."""
    cfg, dataset = small
    cfg = apply_overrides(cfg, ["training.steps=1", "training.log_every=1"])
    assert harness.train(cfg, dataset=dataset).metrics[-1].tb_clamped == 0
    build = ComeModel.build.__func__

    def biased(cls, cfg):
        model = build(cls, cfg)
        model.params["router.b"][0] = 60.0
        return model

    batches = []
    take = DatasetBundle.take
    monkeypatch.setattr(ComeModel, "build", classmethod(biased))
    monkeypatch.setattr(DatasetBundle, "take",
                        lambda self, idx: batches.append(take(self, idx)) or batches[-1])
    result = harness.train(cfg, dataset=dataset, out_dir=tmp_path)
    clamped = int(np.sum(batches[0].token_sources != 0))  # the first take is the step's batch
    assert 0 < clamped < batches[0].token_sources.size
    assert [m.tb_clamped for m in result.metrics] == [clamped]
    rows = list(csv.DictReader((tmp_path / "metrics.csv").read_text().splitlines()))
    assert [row["tb_clamped"] for row in rows] == [str(clamped)]


@pytest.mark.parametrize("train_fraction, empty", [(0.001, "training"), (0.999, "test")],
                         ids=["no-training-samples", "no-test-samples"])
def test_train_rejects_an_empty_split_before_building_a_model(small, monkeypatch,
                                                              train_fraction, empty):
    # the config itself is valid: only the dataset handed to train lacks a split
    cfg, _ = small
    generator = dataclasses.replace(cfg.data.generator(), train_fraction=train_fraction)
    dataset = generate(generator, cfg.data.seed)
    monkeypatch.setattr(harness.ComeModel, "build", lambda _: pytest.fail("a model was built"))
    with pytest.raises(ValueError, match=f"train: dataset has no {empty} samples"):
        harness.train(cfg, dataset=dataset)


def test_a_capacity_factor_past_float_range_trains_without_overflow():
    # f N K / E overflows to inf; the capacity is then every token of the batch
    cfg = apply_overrides(RunConfig(), ["router.capacity_factor=1e308", "training.steps=3",
                                        "data.n_samples=200"])
    result = harness.train(cfg)
    assert not result.halted
    assert result.final().overflow_rate == 0.0


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


def test_training_from_a_saved_dataset_equals_training_from_the_generator(tmp_path):
    cfg = apply_overrides(RunConfig(), ["data.n_samples=400", "training.steps=60",
                                        "training.log_every=20", "training.eval_batches=4"])
    generated = harness.build_dataset(cfg)
    path = save_dataset(tmp_path / "data.come", generated)
    from_file = apply_overrides(cfg, [f"data.path={json.dumps(str(path))}"])
    a = harness.train(cfg, dataset=generated)
    b = harness.train(from_file)
    assert b.manifest["digests"]["params_final"] == a.manifest["digests"]["params_final"]
    assert [m.total for m in b.metrics] == [m.total for m in a.metrics]


@pytest.mark.parametrize("saved_with, message", [
    (["data.seed=7"], "data.seed=0, but {path} was generated with seed=7"),
    (["data.n_samples=300"], "data.n_samples=200, but {path} was generated with n_samples=300"),
    (["data.mean_scale=0.5"], "data.mean_scale=2.0, but {path} was generated with mean_scale=0.5"),
    (["data.n_samples=300", "data.mean_scale=0.5", "data.seed=7"],
     "data.seed=0, but {path} was generated with seed=7"),
], ids=["seed", "n_samples", "mean_scale", "all-three"])
def test_training_from_a_dataset_made_by_another_generator_is_rejected(
        tmp_path, monkeypatch, saved_with, message):
    base = apply_overrides(RunConfig(), ["data.n_samples=200"])
    path = save_dataset(tmp_path / "data.come",
                        harness.build_dataset(apply_overrides(base, saved_with)))
    cfg = apply_overrides(base, [f"data.path={json.dumps(str(path))}"])
    monkeypatch.setattr(ComeModel, "build", lambda _: pytest.fail("a model was built"))
    with pytest.raises(ConfigError, match=re.escape(message.format(path=path))):
        harness.train(cfg)


# ---------------------------------------------------------------------------
# grids of runs
# ---------------------------------------------------------------------------

TABLES = {
    "ablations": lambda cfg: harness.ABLATION_VARIANTS,
    "sweep-topk": lambda cfg: harness.sweep_runs(cfg, "topk", [2, 1]),
    "sweep-experts": lambda cfg: harness.sweep_runs(cfg, "experts", [4, 8]),
}


def test_sweep_runs_names_each_value_and_caps_top_k_at_the_expert_count(small):
    cfg, _ = small
    assert harness.sweep_runs(cfg, "topk", [2, 1]) == {
        "topk=2": ["router.top_k=2"], "topk=1": ["router.top_k=1"]}
    assert harness.sweep_runs(apply_overrides(cfg, ["router.top_k=5"]), "experts", [4, 8]) == {
        "experts=4": ["model.n_experts=4", "router.top_k=4"],
        "experts=8": ["model.n_experts=8", "router.top_k=5"]}
    assert list(harness.sweep_runs(cfg, "topk")) == ["topk=1", "topk=2", "topk=3", "topk=4"]


@pytest.mark.parametrize("table, seeds", [("ablations", [3, 4]), ("sweep-topk", None),
                                          ("sweep-experts", None)],
                         ids=["ablations", "sweep-topk", "sweep-experts"])
def test_grid_rows_csv_and_manifest(small, tmp_path, table, seeds):
    cfg, dataset = small
    runs = TABLES[table](cfg)
    rows = harness.run_grid(cfg, runs, dataset=dataset, seeds=seeds, out_dir=tmp_path)
    seeds = seeds or [cfg.seed]
    assert [row[:2] for row in rows] == [[name, seed] for name in runs for seed in seeds]
    for name, seed, *cells in rows:
        overrides = [*runs[name], f"seed={seed}"]
        final = harness.train(apply_overrides(cfg, overrides), dataset=dataset).final()
        assert cells == final.row() + [False]

    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == ",".join(harness.GRID_HEADER)
    assert harness.GRID_HEADER == ["run", "seed", *harness.METRICS_HEADER, "halted"]
    assert lines[1:] == [",".join(map(str, row)) for row in rows]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "grid"
    assert manifest["runs"] == runs
    assert manifest["seeds"] == seeds
    assert manifest["outputs"] == ["grid.csv"]
    assert manifest["config"] == config_to_dict(cfg)


def test_grid_validates_every_run_before_training_any(small, tmp_path, monkeypatch):
    cfg, dataset = small
    trained = []
    monkeypatch.setattr(harness, "train", lambda run_cfg, **_: trained.append(run_cfg))
    with pytest.raises(ConfigError, match=r"n_experts >= n_sources \(2 < 4\)"):
        harness.run_grid(cfg, harness.sweep_runs(cfg, "experts", [4, 2]), dataset=dataset,
                         out_dir=tmp_path)
    assert trained == []
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def trained(monkeypatch):
    """The configs ``harness.train`` is called with; each run logs nothing."""
    configs = []

    def fake_train(run_cfg, **_):
        configs.append(run_cfg)
        return harness.TrainResult(model=None, metrics=[], expert_stats=[], manifest={})

    monkeypatch.setattr(harness, "train", fake_train)
    return configs


@pytest.mark.parametrize("table, seeds, error, message", [
    (TABLES["ablations"], [], ValueError, "run_grid: seeds is empty, so no run would train"),
    (TABLES["ablations"], np.array([], dtype=int), ValueError,
     "run_grid: seeds is empty, so no run would train"),
    (lambda cfg: {"full": [], "more": ["data.n_samples=160"]}, None, ConfigError,
     "run 'more' changes data.n_samples, but every run of a grid trains on one shared dataset"),
    (lambda cfg: {"other": ["data.seed=1", "losses.tb_weight=0"]}, None, ConfigError,
     "run 'other' changes data.seed"),
    (lambda cfg: harness.sweep_runs(cfg, "topk", [1, 2, np.int64(1)]), None, ValueError,
     "sweep over 'topk': value 1 repeats"),
    (lambda cfg: {"full": [], "a": ["seed=5"]}, None, ConfigError,
     "run 'a' sets seed=5, but run_grid trains it on seed 0: pass seeds to run_grid instead"),
    (lambda cfg: {"a": ["seed=3"]}, [3, 4], ConfigError,
     "run 'a' sets seed=3, but run_grid trains it on seed 4"),
    (TABLES["ablations"], np.array([3, 1, 3]), ValueError,
     "run_grid: a seed repeats in [3, 1, 3], so a run would train twice"),
    (lambda cfg: {"full": [], "dense": "model.arch=dense"}, None, ConfigError,
     "run 'dense': overrides must be a list of key=value strings, got 'model.arch=dense'"),
], ids=["no-seeds", "empty-seed-array", "data-n-samples", "data-seed", "repeated-value",
        "run-sets-a-seed", "run-sets-one-of-the-seeds", "repeated-seed",
        "overrides-not-a-list"])
def test_grid_rejects_a_bad_table_before_training_or_writing(small, trained, tmp_path,
                                                             monkeypatch, table, seeds, error,
                                                             message):
    cfg, _ = small
    monkeypatch.setattr(harness, "build_dataset", lambda _: pytest.fail("a dataset was built"))
    with pytest.raises(error, match=re.escape(message)):
        harness.run_grid(cfg, table(cfg), seeds=seeds, out_dir=tmp_path)
    assert trained == []
    assert list(tmp_path.iterdir()) == []


def test_grid_csv_quotes_a_run_name_with_a_comma(small, trained, tmp_path):
    cfg, dataset = small
    name = "lr=1e-3, wd=0"
    harness.run_grid(cfg, {name: []}, dataset=dataset, out_dir=tmp_path)
    with open(tmp_path / "grid.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == harness.GRID_HEADER
    assert [len(row) for row in rows] == [len(header)]
    assert rows[0][:2] == [name, str(cfg.seed)]


@pytest.mark.parametrize("runs, seeds", [
    ({"same": ["data.n_samples=80"]}, None),
    ({"pinned": ["seed=7"]}, [7]),
], ids=["same-data", "the-seed-it-is-given"])
def test_a_run_that_keeps_the_shared_data_and_its_seed_trains(small, trained, runs, seeds):
    cfg, dataset = small
    harness.run_grid(cfg, runs, dataset=dataset, seeds=seeds)
    assert [c.seed for c in trained] == (seeds or [cfg.seed])


@pytest.mark.parametrize("axis, value, message", [
    ("experts", 4.7, "model.n_experts must be an int, got 4.7"),
    ("topk", True, "router.top_k must be an int, got True"),
], ids=["experts-4.7", "topk-True"])
def test_sweep_rejects_a_value_that_is_not_an_int_before_training(small, trained, axis, value,
                                                                   message):
    cfg, dataset = small
    with pytest.raises(ConfigError, match=re.escape(message)):
        harness.run_grid(cfg, harness.sweep_runs(cfg, axis, [value]), dataset=dataset)
    assert trained == []


def test_sweep_takes_numpy_values_as_plain_ints(small, trained, tmp_path):
    cfg, dataset = small
    runs = harness.sweep_runs(cfg, "topk", np.array([1, 2]))
    rows = harness.run_grid(cfg, runs, dataset=dataset, out_dir=tmp_path)
    assert [c.router.top_k for c in trained] == [1, 2]
    assert [row[0] for row in rows] == ["topk=1", "topk=2"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["runs"] == {"topk=1": ["router.top_k=1"], "topk=2": ["router.top_k=2"]}


@pytest.mark.parametrize("seeds", [[0, 1], [3]], ids=["two_seeds", "one_seed"])
def test_grid_takes_a_numpy_seed_array(small, trained, tmp_path, seeds):
    cfg, dataset = small
    rows = harness.run_grid(cfg, harness.ABLATION_VARIANTS, dataset=dataset,
                            seeds=np.array(seeds), out_dir=tmp_path)
    assert [c.seed for c in trained] == seeds * len(harness.ABLATION_VARIANTS)
    assert [row[1] for row in rows] == seeds * len(harness.ABLATION_VARIANTS)
    assert all(type(row[1]) is int for row in rows)
    assert json.loads((tmp_path / "manifest.json").read_text())["seeds"] == seeds


@pytest.mark.parametrize("axis", ["experts", "topk"])
def test_sweep_rejects_an_empty_value_list_before_writing(small, trained, tmp_path, axis):
    cfg, dataset = small
    with pytest.raises(ValueError, match="run_grid: runs is empty, so no run would train"):
        harness.run_grid(cfg, harness.sweep_runs(cfg, axis, []), dataset=dataset,
                         out_dir=tmp_path)
    assert trained == []
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_unknown_axis(small):
    cfg, _ = small
    with pytest.raises(ValueError, match="sweep axis must be one of"):
        harness.sweep_runs(cfg, "heads")


@pytest.fixture(scope="module")
def diverging():
    over = ["optimizer.lr=1e6", "training.steps=50", "training.log_every=10"]
    cfg = apply_overrides(RunConfig(), over)
    return cfg, harness.build_dataset(cfg)


def test_sweep_marks_a_run_that_halted_after_a_log_point(diverging, tmp_path):
    cfg, dataset = diverging
    runs = harness.sweep_runs(cfg, "topk", [1])
    rows = harness.run_grid(cfg, runs, dataset=dataset, out_dir=tmp_path)
    result = harness.train(cfg, dataset=dataset)
    assert result.halt_reason.startswith("non-finite value at step 20:")
    final = result.final()
    assert final.step == 10
    assert rows == [["topk=1", cfg.seed, *final.row(), True]]
    assert (tmp_path / "grid.csv").read_text().splitlines()[1].endswith(",True")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["halted"] == [{"run": "topk=1", "seed": cfg.seed,
                                   "halt_reason": result.halt_reason}]


def test_run_with_no_log_point_gets_nan_cells_instead_of_aborting_the_grid(diverging, tmp_path):
    cfg, dataset = diverging
    cfg = apply_overrides(cfg, ["training.log_every=100"])
    rows = harness.run_grid(cfg, harness.ABLATION_VARIANTS, dataset=dataset, out_dir=tmp_path)
    assert [row[0] for row in rows] == list(harness.ABLATION_VARIANTS)
    for row in rows:
        assert row[-1] is True
        assert len(row) == len(harness.GRID_HEADER)
        assert all(math.isnan(v) for v in row[2:-1])
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0].endswith(",halted")
    assert lines[1] == ",".join(["full", "0"] + ["nan"] * len(harness.METRICS_HEADER) + ["True"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [(h["run"], h["seed"]) for h in manifest["halted"]] == [
        (v, 0) for v in harness.ABLATION_VARIANTS]
    assert all(h["halt_reason"].startswith("non-finite value at step ") for h in manifest["halted"])
    # without the semantic prior the second moment overflows in AdamW first
    no_see = manifest["halted"][list(harness.ABLATION_VARIANTS).index("no_see")]
    assert no_see["halt_reason"].startswith("non-finite value at step 9: adamw_step:")


def test_grid_of_finished_runs_lists_no_halts(small, tmp_path):
    cfg, dataset = small
    rows = harness.run_grid(cfg, harness.sweep_runs(cfg, "topk", [1]), dataset=dataset,
                            out_dir=tmp_path)
    assert rows[0][-1] is False
    assert json.loads((tmp_path / "manifest.json").read_text())["halted"] == []


# ---------------------------------------------------------------------------
# routing purity
# ---------------------------------------------------------------------------


def test_routing_purity_counts_the_top_admitted_expert_of_each_token():
    # 10 experts over 4 sources: groups of 2, and experts 8, 9 owned by none
    selection = np.array([[1, 5], [8, 3], [4, 9], [0, 6], [7, 2], [2, 9], [6, 1]])
    admitted = np.array([[1, 1], [1, 1], [0, 1], [0, 1], [0, 0], [1, 0], [0, 1]], dtype=bool)
    sources = np.array([0, 1, 2, 3, 3, 1, 3])
    util = np.array([0, 2, 1, 1, 0, 1, 1, 0, 1, 1])  # admitted pairs per expert
    util_cv = float(util.std() / util.mean())
    # token 0: expert 1 of source 0's group; 1: remainder expert 8; 2: its
    # in-group top pick overflowed, then remainder expert 9; 3: top pick
    # overflowed, then expert 6 of source 3's group; 4: both overflowed, not
    # counted; 5: expert 2; 6: in-group top pick overflowed, then expert 1
    assert harness.routing_figures(sources, selection, admitted, 2, 10) == (3 / 6, util_cv, 6 / 14)
    # as singletons, source m owns expert m only, which no token reached
    assert harness.routing_figures(sources, selection, admitted, 1, 10) == (0 / 6, util_cv, 6 / 14)


def _per_batch_figures(model, dataset, split, batch_size, max_batches):
    """``evaluate``'s (accuracy, purity, util_cv, overflow_rate, n_samples),
    summed batch by batch in running counters, each batch's purity from its
    own dispatch plan."""
    indices = dataset.train_idx if split == "train" else dataset.test_idx
    streams = RandomStreams(model.cfg.seed)
    correct = purity_num = purity_den = pair_total = overflow_total = n_batches = 0
    util = np.zeros(model.cfg.model.n_experts, dtype=np.int64)
    for b_i, start in enumerate(range(0, indices.size, batch_size)):
        if max_batches is not None and b_i >= max_batches:
            break
        batch = dataset.take(indices[start : start + batch_size])
        offset = harness.EVAL_STREAM_OFFSET + b_i
        rng = streams.stream("noise", offset) if model.clusters else None
        state = model.forward(batch, cluster_rng=rng)
        correct += int(np.sum(np.argmax(state.logits, axis=1) == batch.labels))
        n_batches += 1
        plan = state.plan
        if plan is not None:
            has_any = plan.admitted.any(axis=1)
            first_slot = np.argmax(plan.admitted, axis=1)
            experts = plan.selection[np.arange(plan.selection.shape[0]), first_slot]
            hits = experts[has_any] // model.group_size == batch.token_sources[has_any]
            purity_num += int(hits.sum())
            purity_den += int(has_any.sum())
            util += plan.utilization()
            overflow_total += plan.admitted.size - int(np.count_nonzero(plan.admitted))
            pair_total += plan.admitted.size
    n_seen = min(indices.size, n_batches * batch_size)
    mean_util = util.mean() if util.size else 0.0
    return (correct / n_seen,
            purity_num / purity_den if purity_den else 0.0,
            float(util.std() / mean_util) if mean_util > 0 else 0.0,
            overflow_total / pair_total if pair_total else 0.0,
            n_seen)


@pytest.mark.parametrize("overrides, split, batch_size, max_batches", [
    ([], "test", None, None),
    ([], "train", 8, 3),
    (["router.top_k=2"], "test", 16, None),
    (["model.arch=dense"], "test", None, None),
], ids=["top1", "top1_train_3_batches", "top2_batch16", "dense"])
def test_split_figures_equal_the_per_batch_sums_bit_for_bit(overrides, split, batch_size,
                                                            max_batches):
    cfg = apply_overrides(RunConfig(), SMALL + ["data.n_samples=400", *overrides])
    dataset = harness.build_dataset(cfg)
    model = harness.train(cfg, dataset=dataset).model
    result = harness.evaluate(model, dataset, split, batch_size=batch_size,
                              max_batches=max_batches)
    got = (result.accuracy, result.purity, result.util_cv, result.overflow_rate,
           result.n_samples)
    expected = _per_batch_figures(model, dataset, split, batch_size or cfg.training.batch_size,
                                  max_batches)
    assert [type(v) for v in got] == [float, float, float, float, int]
    assert [float(v).hex() for v in got] == [float(v).hex() for v in expected]
    if cfg.model.arch == "dense":
        assert got[1:4] == (0.0, 0.0, 0.0)
    elif cfg.router.top_k == 1:
        assert result.overflow_rate > 0  # the default capacity factor overflows
