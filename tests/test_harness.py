import dataclasses
import json
import math

import numpy as np
import pytest

from come import harness
from come.config import ConfigError, RunConfig, apply_overrides, config_to_dict
from come.container import save_dataset
from come.model import ComeModel
from come.router import DispatchPlan

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


def _final_row(cfg, dataset, overrides):
    final = harness.train(apply_overrides(cfg, overrides), dataset=dataset).final()
    return [final.test_acc, final.purity, final.util_cv, final.overflow_rate]


# ---------------------------------------------------------------------------
# halting
# ---------------------------------------------------------------------------


def test_non_finite_step_halts_and_restores_initial_params():
    # k-means seeding meets the overflow first and raises before NumPy warns
    cfg = apply_overrides(RunConfig(), ["optimizer.lr=1e6", "training.steps=50"])
    result = harness.train(cfg)
    assert result.halted
    assert result.halt_reason == ("non-finite value at step 20: "
                                  "_farthest_first_seed: overflow encountered in multiply")
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
    (-1, "test", "dataset source id -1 is negative"),
    (0, [-1, -2], r"split index -1 is not an integer in \[0, 80\)"),
    (0, [0, 80], r"split index 80 is not an integer in \[0, 80\)"),
    (0, [0.0, 1.0], r"split index 0.0 is not an integer in \[0, 80\)"),
], ids=["negative-source", "negative-index", "index-past-the-end", "float-index"])
def test_evaluate_rejects_ids_out_of_range(small, source, split, message):
    cfg, dataset = small
    sources = dataset.sources.copy()
    sources[0] = source
    dataset = dataclasses.replace(dataset, sources=sources)
    with pytest.raises(ValueError, match=message):
        harness.evaluate(ComeModel.build(cfg), dataset, split)


def test_logged_test_accuracy_states_its_sample_count(small, tmp_path):
    cfg, dataset = small
    result = harness.train(cfg, dataset=dataset, out_dir=tmp_path)
    # eval_batches=1 at batch size 8 covers 8 of the 16 test samples
    assert [m.test_samples for m in result.metrics] == [8, 8]
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0].split(",")[:4] == ["step", "train_acc", "test_acc", "test_samples"]
    assert [line.split(",")[3] for line in lines[1:]] == ["8", "8"]


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


# ---------------------------------------------------------------------------
# ablations and sweeps
# ---------------------------------------------------------------------------


def test_run_ablations_rows_csv_and_manifest(small, tmp_path):
    cfg, dataset = small
    rows = harness.run_ablations(cfg, dataset=dataset, seeds=[3, 4], out_dir=tmp_path)
    assert [row[:2] for row in rows] == [
        [variant, seed] for variant in harness.ABLATION_VARIANTS for seed in (3, 4)
    ]
    assert all(len(row) == len(harness.ABLATION_HEADER) for row in rows)
    no_tb = rows[2 * list(harness.ABLATION_VARIANTS).index("no_tb") + 1]
    expected = _final_row(cfg, dataset, ["losses.tb_weight=0", "seed=4"])
    assert no_tb[2:] == expected[:3] + [False]

    lines = (tmp_path / "ablations.csv").read_text().splitlines()
    assert lines[0] == ",".join(harness.ABLATION_HEADER)
    assert lines[1:] == [",".join(harness._fmt(v) for v in row) for row in rows]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "ablate"
    assert manifest["seeds"] == [3, 4]
    assert manifest["outputs"] == ["ablations.csv"]
    assert manifest["config"] == config_to_dict(cfg)


@pytest.mark.parametrize(
    "axis, values, overrides",
    [
        ("topk", [2, 1], [["router.top_k=2"], ["router.top_k=1"]]),
        ("experts", [4, 8], [["model.n_experts=4", "router.top_k=1"],
                             ["model.n_experts=8", "router.top_k=1"]]),
    ],
)
def test_sweep_rows_csv_and_manifest(small, tmp_path, axis, values, overrides):
    cfg, dataset = small
    rows = harness.sweep(cfg, axis, dataset=dataset, values=values, out_dir=tmp_path)
    assert [row[:3] for row in rows] == [[axis, v, cfg.seed] for v in values]
    assert rows[0][3:] == _final_row(cfg, dataset, overrides[0]) + [False]
    assert rows[1][3:] == _final_row(cfg, dataset, overrides[1]) + [False]

    lines = (tmp_path / f"sweep_{axis}.csv").read_text().splitlines()
    assert lines[0] == ",".join(harness.SWEEP_HEADER)
    assert lines[1:] == [",".join(harness._fmt(v) for v in row) for row in rows]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert (manifest["axis"], manifest["values"]) == (axis, values)
    assert manifest["outputs"] == [f"sweep_{axis}.csv"]


def test_grid_validates_every_run_before_training_any(small, tmp_path, monkeypatch):
    cfg, dataset = small
    trained = []
    monkeypatch.setattr(harness, "train", lambda run_cfg, **_: trained.append(run_cfg))
    with pytest.raises(ConfigError, match=r"n_experts >= n_sources \(2 < 4\)"):
        harness.sweep(cfg, "experts", dataset=dataset, values=[4, 2], out_dir=tmp_path)
    assert trained == []
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_unknown_axis(small):
    cfg, dataset = small
    with pytest.raises(ValueError, match="sweep axis must be one of"):
        harness.sweep(cfg, "heads", dataset=dataset)


@pytest.fixture(scope="module")
def diverging():
    over = ["optimizer.lr=1e6", "training.steps=50", "training.log_every=10"]
    cfg = apply_overrides(RunConfig(), over)
    return cfg, harness.build_dataset(cfg)


def test_sweep_marks_a_run_that_halted_after_a_log_point(diverging, tmp_path):
    cfg, dataset = diverging
    rows = harness.sweep(cfg, "topk", dataset=dataset, values=[1], out_dir=tmp_path)
    result = harness.train(cfg, dataset=dataset)
    assert result.halt_reason.startswith("non-finite value at step 20:")
    final = result.final()
    assert final.step == 10
    assert rows == [["topk", 1, cfg.seed, final.test_acc, final.purity, final.util_cv,
                     final.overflow_rate, True]]
    assert (tmp_path / "sweep_topk.csv").read_text().splitlines()[1].endswith(",True")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["halted"] == [{"row": ["topk", 1, cfg.seed],
                                   "halt_reason": result.halt_reason}]


def test_run_with_no_log_point_gets_nan_cells_instead_of_aborting_the_grid(diverging, tmp_path):
    cfg, dataset = diverging
    cfg = apply_overrides(cfg, ["training.log_every=100"])
    rows = harness.run_ablations(cfg, dataset=dataset, out_dir=tmp_path)
    assert [row[0] for row in rows] == list(harness.ABLATION_VARIANTS)
    for row in rows:
        assert row[-1] is True
        assert all(math.isnan(v) for v in row[2:-1])
    lines = (tmp_path / "ablations.csv").read_text().splitlines()
    assert lines[0].endswith(",halted")
    assert lines[1] == "full,0,nan,nan,nan,True"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [h["row"] for h in manifest["halted"]] == [[v, 0] for v in harness.ABLATION_VARIANTS]
    assert all(h["halt_reason"].startswith("non-finite value at step ") for h in manifest["halted"])
    # without the semantic prior the second moment overflows in AdamW first
    no_see = manifest["halted"][list(harness.ABLATION_VARIANTS).index("no_see")]
    assert no_see["halt_reason"].startswith("non-finite value at step 9: adamw_step:")


def test_grid_of_finished_runs_lists_no_halts(small, tmp_path):
    cfg, dataset = small
    rows = harness.sweep(cfg, "topk", dataset=dataset, values=[1], out_dir=tmp_path)
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
    plan = DispatchPlan(
        selection=selection, admitted=admitted, capacity=2,
        expert_tokens=[np.flatnonzero((selection == j) & admitted) // 2 for j in range(10)],
    )
    # token 0: expert 1 of source 0's group; 1: remainder expert 8; 2: its
    # in-group top pick overflowed, then remainder expert 9; 3: top pick
    # overflowed, then expert 6 of source 3's group; 4: both overflowed, not
    # counted; 5: expert 2; 6: in-group top pick overflowed, then expert 1
    assert harness.routing_purity(plan, sources, 2) == (3, 6)
    # as singletons, source m owns expert m only, which no token reached
    assert harness.routing_purity(plan, sources, 1) == (0, 6)
