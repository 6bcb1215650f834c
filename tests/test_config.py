import re

import pytest

from come.config import ConfigError, RunConfig, apply_overrides, config_from_dict


@pytest.mark.parametrize(
    "overrides, message",
    [
        (["model.heads=0"], "model.heads must be >= 1, got 0"),
        (["model.heads=5"], "model.heads=5 does not divide data.width=32"),
        (["training.log_every=0"], "training.log_every must be >= 1, got 0"),
        (["training.eval_batches=0"], "training.eval_batches must be >= 1, got 0"),
        (["clustering.max_iters=0"], "clustering.max_iters must be >= 1, got 0"),
        (["losses.load_mode=soft"], "losses.load_mode must be literal|margin, got 'soft'"),
        (
            ["clustering.fine_clusters=4", "clustering.coarse_clusters=8"],
            "fine_clusters > coarse_clusters >= 1, got 4 and 8",
        ),
        (["clustering.clusters=0"], "clustering.clusters must be >= 1, got 0"),
        (["clustering.steps=0"], "clustering.steps must be >= 1, got 0"),
        (["model.expert_hidden_ratio=0"], "model.expert_hidden_ratio must be >= 1, got 0"),
        (["training.batch_size=0"], "training.batch_size must be >= 1, got 0"),
        (["training.steps=-1"], "training.steps must be >= 0, got -1"),
        (["losses.load_noise_scale=0"], "losses.load_noise_scale must be > 0, got 0"),
        (["losses.balance_weight=-1"], "losses.balance_weight must be >= 0, got -1"),
        (["losses.tb_weight=-1"], "losses.tb_weight must be >= 0, got -1"),
        (["losses.tb_weight=NaN"], "losses.tb_weight must be >= 0, got nan"),
        (
            ["clustering.min_cluster_fraction=1"],
            "clustering.min_cluster_fraction must be in [0, 1), got 1",
        ),
        (
            ["clustering.min_cluster_fraction=-0.5"],
            "clustering.min_cluster_fraction must be in [0, 1), got -0.5",
        ),
        (["router.temperature=0"], "router.temperature must be > 0, got 0"),
        (["router.capacity_factor=0"], "router.capacity_factor must be > 0, got 0"),
        (["router.top_k=9"], "router.top_k=9 outside [1, 8]"),
    ],
)
def test_validate_names_the_bad_key_and_value(overrides, message):
    cfg = apply_overrides(RunConfig(), overrides)
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg.validate()


@pytest.mark.parametrize("override", ["model.dense_hidden=5", "ablation.no_tb=true"])
def test_removed_keys_are_rejected(override):
    with pytest.raises(ConfigError, match="unknown config"):
        apply_overrides(RunConfig(), [override])


def test_manifest_with_ablation_section_is_rejected():
    with pytest.raises(ConfigError, match=re.escape("unknown top-level key(s) ['ablation']")):
        config_from_dict({"config": {"seed": 0, "ablation": {"no_tb": True}}})
