"""Behaviour pin: short fixed-seed training runs reproduce recorded values.

Each case runs ``harness.train`` for 60 steps on 400 generated samples
(data seed 0, log every 20 steps, 4 eval batches per log point) and checks
the final parameter digest, the total loss and logged test accuracy at
every log point, and the accuracy of a full-test-split evaluation.

Tolerance: none. Values are compared for exact equality, because a run is
bit-deterministic given its seed. A change that moves any of them must say
why in CHANGES.md and re-record them here.
"""

import pytest

from come import harness
from come.config import RunConfig, apply_overrides

BASE = [
    "data.n_samples=400",
    "training.steps=60",
    "training.log_every=20",
    "training.eval_batches=4",
]

# Variants beyond the ablation presets, as --set overrides.
EXTRA = {
    "dense": ["model.arch=dense"],
    "wide": ["training.batch_size=16", "router.top_k=2"],
    "multistep": [
        "clustering.strategy=multistep",
        "losses.load_mode=margin",
        "router.renormalize_topk=true",
    ],
    "attention_residual": ["model.attention_residual=true"],
}

# name -> (params_final digest, total per log point, test_acc per log point,
#          full-test-split accuracy)
PIN = {
    "full": (
        "ef2fedf6707d59760eb57a26ffd47b51854e67f86170605ba92f0888e66d23c9",
        [2.511191746466438, 2.3112545455687665, 2.310091804566653],
        [0.1875, 0.15625, 0.25],
        0.2125,
    ),
    "no_ste": (
        "f04c9862411bcc04b27eddfef51339b5788fb2512b49cbbe71c6a2a850156c6d",
        [2.561340544863451, 2.154260152160934, 2.2188619294285763],
        [0.3125, 0.3125, 0.34375],
        0.3875,
    ),
    "no_see": (
        "fbaffb16055970910c633f1d9e1b8437a8c4bc262e92ec12c1c56174f16f3acc",
        [2.412468498463333, 2.3056659531143984, 2.120806570167576],
        [0.3125, 0.3125, 0.21875],
        0.2125,
    ),
    "no_dse": (
        "e5903522fddfed6cd81dc841358cd1ae65350320f1401709e285c558fedc1c98",
        [2.414152038888036, 2.132946564403944, 2.0338052922673033],
        [0.46875, 0.4375, 0.375],
        0.425,
    ),
    "no_clustering": (
        "f9c306bb1067774e65a68e7ff61717742d440eedd85eeee75a93364f6d0edb41",
        [2.5128849907715494, 2.342472774039407, 2.359703831164944],
        [0.1875, 0.15625, 0.21875],
        0.2,
    ),
    "no_tb": (
        "91f460f90e2aafb5ebb5a779151001aecb23ef374782440ea5ffb4081faf5c6c",
        [1.196108233403244, 1.280260892211035, 1.3680895703230618],
        [0.1875, 0.1875, 0.21875],
        0.175,
    ),
    "dense": (
        "a586fc9c5dd910e885b504d24acd7132b2f3600d093e634b0f9c5e488203d565",
        [1.0531001828621576, 0.9240268419763826, 1.0174173334812557],
        [0.25, 0.375, 0.46875],
        0.5375,
    ),
    "wide": (
        "0eac98774d3fb1c1c2d52da83ea2924da5845f8ff28ae13d4ed6b59f657b91d0",
        [2.4702168351433684, 2.316341157917185, 2.108611865915821],
        [0.1875, 0.296875, 0.28125],
        0.2875,
    ),
    "multistep": (
        "2fd3c122929d5dbaaffb40dc80daafedb14e3a28178329848213b6c300f08934",
        [2.5472624203346825, 2.3343543006897516, 2.431740298997054],
        [0.1875, 0.1875, 0.15625],
        0.15,
    ),
    "attention_residual": (
        "eeae445cafecff062be824ada173905d539049330433a4a13ba172780e363752",
        [2.4712225139337423, 2.1656569594578827, 2.181184450640394],
        [0.1875, 0.1875, 0.21875],
        0.175,
    ),
}


def _config(name: str) -> RunConfig:
    overrides = EXTRA[name] if name in EXTRA else harness.ABLATION_VARIANTS[name]
    return apply_overrides(RunConfig(), BASE + list(overrides))


def test_every_ablation_preset_is_pinned():
    assert set(harness.ABLATION_VARIANTS) == set(PIN) - set(EXTRA)


@pytest.mark.parametrize("name", list(PIN))
def test_pinned_run(name):
    digest, totals, test_accs, full_test_acc = PIN[name]
    cfg = _config(name)
    dataset = harness.build_dataset(cfg)
    result = harness.train(cfg, dataset)
    assert result.manifest["digests"]["params_final"] == digest
    assert [m.total for m in result.metrics] == totals
    assert [m.test_acc for m in result.metrics] == test_accs
    assert harness.evaluate(result.model, dataset, "test").accuracy == full_test_acc
