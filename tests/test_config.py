import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from come.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    load_config,
)
from come.numerics import AdamWConfig, AdamWState


@pytest.mark.parametrize(
    "overrides, message",
    [
        (["model.heads=0"], "model.heads must be >= 1, got 0"),
        (["model.heads=5"], "model.heads=5 does not divide data.width=32"),
        (["training.log_every=0"], "training.log_every must be >= 1, got 0"),
        (["training.eval_batches=0"], "training.eval_batches must be >= 1, got 0"),
        (["clustering.coarse_clusters=-1"], "fine_clusters > coarse_clusters >= 1, got 16 and -1"),
        (
            ["clustering.strategy=kmeans"],
            "clustering.strategy must be fine2coarse|none, got 'kmeans'",
        ),
        (
            ["clustering.fine_clusters=4", "clustering.coarse_clusters=8"],
            "fine_clusters > coarse_clusters >= 1, got 4 and 8",
        ),
        (["model.arch=moe"], "model.arch must be come|dense, got 'moe'"),
        (["data.seed=-1"], "data.seed must be >= 0, got -1"),
        (
            ["data.n_samples=200", "data.train_fraction=0.999"],
            "data.train_fraction=0.999 of data.n_samples=200 leaves the test split empty",
        ),
        (["training.batch_size=0"], "training.batch_size must be >= 1, got 0"),
        (["training.steps=-1"], "training.steps must be >= 0, got -1"),
        (["model.n_experts=8", "router.top_k=0"], "router.top_k=0 outside [1, 8]"),
        (["losses.balance_weight=-1"], "losses.balance_weight must be >= 0, got -1"),
        (["losses.tb_weight=-1"], "losses.tb_weight must be >= 0, got -1"),
        (["losses.tb_weight=NaN"], "losses.tb_weight must be >= 0, got nan"),
        (
            ["clustering.coarse_clusters=0"],
            "fine_clusters > coarse_clusters >= 1, got 16 and 0",
        ),
        (["data.train_fraction=1"], "data: train_fraction must be in (0, 1)"),
        (["router.capacity_factor=-1"], "router.capacity_factor must be > 0, got -1"),
        (["router.capacity_factor=0"], "router.capacity_factor must be > 0, got 0"),
        (["model.n_experts=8", "router.top_k=9"], "router.top_k=9 outside [1, 8]"),
        (
            ["losses.tb_weight=0", "model.n_experts=2"],
            "traceability needs n_experts >= n_sources (2 < 4)",
        ),
        (["seed=-1"], "seed must be >= 0, got -1"),
        (["router.capacity_factor=Infinity"], "router.capacity_factor must be finite, got inf"),
        (["optimizer.lr=NaN"], "optimizer.lr must be finite, got nan"),
        (["data.source_weights=[1, 1, 1, 1e400]"], "data.source_weights must be finite"),
        (["data.noise_scale=" + "9" * 400], "data.noise_scale must be finite"),
        (["data.shared_rank=40"], "data: shared_rank=40 outside [1, width=32]"),
        (["data.source_weights=[Infinity, 1, 1, 1]"],
         "data.source_weights must be finite, got [inf, 1, 1, 1]"),
        (["data.source_weights=[NaN, 1, 1, 1]"],
         "data.source_weights must be finite, got [nan, 1, 1, 1]"),
        (["data.source_weights=[1e308, 1e308, 1, 1]"],
         "data: source_weights sum past the largest float: [1e+308, 1e+308, 1, 1]"),
        (["data.n_samples=1", "data.train_fraction=0.4"],
         "data.train_fraction=0.4 of data.n_samples=1 leaves the training split empty"),
        (["optimizer.beta1=1.0"], "optimizer.beta1 must be in [0, 1), got 1.0"),
        (["optimizer.beta1=2.0"], "optimizer.beta1 must be in [0, 1), got 2.0"),
        (["optimizer.beta1=-0.1"], "optimizer.beta1 must be in [0, 1), got -0.1"),
        (["optimizer.beta2=1.0"], "optimizer.beta2 must be in [0, 1), got 1.0"),
        (["optimizer.beta2=1.5"], "optimizer.beta2 must be in [0, 1), got 1.5"),
        (["optimizer.eps=0"], "optimizer.eps must be > 0, got 0"),
        (["optimizer.eps=-1"], "optimizer.eps must be > 0, got -1"),
        (["optimizer.lr=-1"], "optimizer.lr must be >= 0, got -1"),
        (["optimizer.weight_decay=-5"], "optimizer.weight_decay must be >= 0, got -5"),
    ],
)
def test_validate_names_the_bad_key_and_value(overrides, message):
    cfg = apply_overrides(RunConfig(), overrides)
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg.validate()


@pytest.mark.parametrize(
    "override",
    [
        "model.dense_hidden=5",
        "ablation.no_tb=true",
        "clustering.clusters=4",
        "clustering.steps=5",
        "clustering.min_cluster_fraction=0.01",
        "losses.tb_average=true",
        "losses.load_mode=literal",
        "losses.load_noise_scale=1",
        "model.frozen_scale=0.3",
        "clustering.max_iters=50",
        "router.temperature=1.0",
        "model.expert_hidden_ratio=4",
    ],
)
def test_removed_keys_are_rejected(override):
    with pytest.raises(ConfigError, match="unknown config"):
        apply_overrides(RunConfig(), [override])


def test_manifest_with_ablation_section_is_rejected():
    with pytest.raises(ConfigError, match=re.escape("unknown top-level key(s) ['ablation']")):
        config_from_dict({"config": {"seed": 0, "ablation": {"no_tb": True}}})


@pytest.mark.parametrize(
    "override, message",
    [
        ("data.width=abc", "data.width must be an int, got 'abc'"),
        ('router.top_k="2"', "router.top_k must be an int, got '2'"),
        ("data.source_weights=3", "data.source_weights must be a list of numbers, got 3"),
        ('data.source_weights=[1, "2", 1, 1]', "a list of numbers, got [1, '2', 1, 1]"),
        ("data.path=5", "data.path must be a string or null, got 5"),
        ("training.steps=1.5", "training.steps must be an int, got 1.5"),
        ("training.batch_size=2.5", "training.batch_size must be an int, got 2.5"),
        ("seed=abc", "seed must be an int, got 'abc'"),
        ("model.heads=true", "model.heads must be an int, got True"),
        ("model.attention_residual=1", "model.attention_residual must be a bool, got 1"),
        ("optimizer.lr=[1]", "optimizer.lr must be a number, got [1]"),
        ("model.arch=3", "model.arch must be a string, got 3"),
    ],
)
def test_mistyped_values_name_key_value_and_type(override, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        apply_overrides(RunConfig(), [override])


def test_ints_are_accepted_for_float_keys_and_null_for_the_path():
    cfg = apply_overrides(RunConfig(), ["optimizer.lr=1", "data.path=null"]).validate()
    assert (cfg.optimizer.lr, cfg.data.path) == (1, None)


def _leaf_keys(tree, prefix=""):
    for name, value in tree.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, f"{prefix}{name}.")
        else:
            yield prefix + name


LEAF_KEYS = sorted(_leaf_keys(config_to_dict(RunConfig())))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)


def test_there_are_42_config_keys():
    assert len(LEAF_KEYS) == 42


def test_the_optimizer_section_is_the_config_adamw_state_extends():
    cfg = apply_overrides(RunConfig(), ["optimizer.lr=0.5"])
    assert type(cfg.optimizer) is AdamWConfig
    state = AdamWState(**dataclasses.asdict(cfg.optimizer))
    assert isinstance(state, AdamWConfig)
    assert (state.lr, state.beta1, state.weight_decay, state.step) == (0.5, 0.9, 0.01, 0)


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(LEAF_KEYS), value=JSON_VALUES)
def test_any_json_override_validates_or_raises_config_error(key, value):
    # validation only: sizes have no upper bound, so these configs are never trained
    try:
        apply_overrides(RunConfig(), [f"{key}={json.dumps(value)}"]).validate()
    except ConfigError:
        pass


CHANGED = ["seed=3", "model.arch=dense", "router.top_k=2", "data.source_weights=[1, 2, 3, 4]"]


def test_load_config_reads_a_bare_config_and_a_run_manifest(tmp_path):
    from come.harness import run_manifest

    cfg = apply_overrides(RunConfig(), CHANGED)
    bare = tmp_path / "config.json"
    bare.write_text(json.dumps(config_to_dict(cfg)))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(run_manifest(cfg, "train", {}, [])))
    assert load_config(bare) == cfg
    assert load_config(manifest) == cfg
    assert load_config() == RunConfig()


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("missing.json", None, "cannot read the config"),
        ("bad.json", b"{", "invalid JSON"),
        ("list.json", b"[1, 2]", "config root must be an object"),
        ("folder", "dir", "cannot read the config"),
        ("latin1.json", b'{"seed": "\xe9"}', "cannot read the config"),
    ],
)
def test_load_config_names_the_path_of_a_file_it_cannot_use(tmp_path, name, content, message):
    path = tmp_path / name
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        load_config(path)
