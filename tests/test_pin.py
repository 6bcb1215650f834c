"""Behaviour pin: short fixed-seed training runs reproduce recorded values.

Each case runs ``harness.train`` for 60 steps on 400 generated samples
(data seed 0, log every 20 steps, 4 eval batches per log point) and checks
the final parameter digests (the float32 checkpoint digest and a SHA-256 of
the float64 parameters in sorted-name order), the total loss and logged test
accuracy at every log point, and the accuracy of a full-test-split
evaluation.

All cases run in one child process with one BLAS thread, the setting the
benchmark pins: the dense FFN's gradients differ in the last bit between one
and two OpenBLAS threads, so the pin holds whatever thread count the test
process itself uses. Run this file as a script to print the values it
compares, as JSON.

Tolerance: none. Values are compared for exact equality, because a run is
bit-deterministic given its seed. A change that moves any of them must say
why in CHANGES.md and re-record them here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from come import harness
from come.config import RunConfig, apply_overrides

SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SRC = Path(__file__).resolve().parents[1] / "src"

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
    "renormalize": ["router.renormalize_topk=true"],
    "attention_residual": ["model.attention_residual=true"],
}

# name -> (params_final checkpoint digest, float64 parameter digest,
#          total per log point, test_acc per log point, full-test-split accuracy)
PIN = {
    "full": (
        "ef2fedf6707d59760eb57a26ffd47b51854e67f86170605ba92f0888e66d23c9",
        "ff39eab80e455c0a71cb815d9b83849b41752f454b7267f864e57d35c2035164",
        [2.5111917464664377, 2.311254545568766, 2.310091804566653],
        [0.1875, 0.15625, 0.25],
        0.2125,
    ),
    "no_ste": (
        "f04c9862411bcc04b27eddfef51339b5788fb2512b49cbbe71c6a2a850156c6d",
        "91318b7c4c467ded3b16bd7cb67095d39fa0b0ce0e1e81e1d1f1b85b0501e9ec",
        [2.561340544863451, 2.154260152160934, 2.2188619294285763],
        [0.3125, 0.3125, 0.34375],
        0.3875,
    ),
    "no_see": (
        "fbaffb16055970910c633f1d9e1b8437a8c4bc262e92ec12c1c56174f16f3acc",
        "896d3c95d45af95172db2816db78674cf4aeb4ea08b79366afcd7b8a69fb3f1f",
        [2.412468498463333, 2.3056659531143984, 2.1208065701675762],
        [0.3125, 0.3125, 0.21875],
        0.2125,
    ),
    "no_dse": (
        "e5903522fddfed6cd81dc841358cd1ae65350320f1401709e285c558fedc1c98",
        "ce25f9f62e9c19402cb5db43f766e8bb2fa797943eea0f4d085b9795210cedac",
        [2.414152038888036, 2.132946564403944, 2.0338052922673033],
        [0.46875, 0.4375, 0.375],
        0.425,
    ),
    "no_clustering": (
        "f9c306bb1067774e65a68e7ff61717742d440eedd85eeee75a93364f6d0edb41",
        "280de226ef6c0d59d337a4f0598652a3d12085f845bdc5c5a9331c9e9b7bc47b",
        [2.5128849907715494, 2.342472774039407, 2.359703831164944],
        [0.1875, 0.15625, 0.21875],
        0.2,
    ),
    "no_tb": (
        "91f460f90e2aafb5ebb5a779151001aecb23ef374782440ea5ffb4081faf5c6c",
        "e0737ff7559a6943976f253100ac4dc4ba8d5bd28301a0065f686709f6e97466",
        [1.196108233403244, 1.280260892211035, 1.3680895703230616],
        [0.1875, 0.1875, 0.21875],
        0.175,
    ),
    "dense": (
        "a586fc9c5dd910e885b504d24acd7132b2f3600d093e634b0f9c5e488203d565",
        "60e4f490b295bcfafb412b6c8405f895b2f094ddf25a85522a1f5add98c2c796",
        [1.0531001828621576, 0.9240268419763825, 1.0174173334812557],
        [0.25, 0.375, 0.46875],
        0.5375,
    ),
    "wide": (
        "0eac98774d3fb1c1c2d52da83ea2924da5845f8ff28ae13d4ed6b59f657b91d0",
        "768a17c955e442bc91050721ba9956fb5bd4c8b632432d738dba402ea5901768",
        [2.4702168351433684, 2.3163411579171855, 2.108611865915821],
        [0.1875, 0.296875, 0.28125],
        0.2875,
    ),
    "renormalize": (
        "6fd8452bcfb4799d29f43851bc7a491c77b8b38c53ef8a01f1e5138aa2b8f8ac",
        "14e121cb9be73993cd4b9129ff7b143b41fb46015e9dc4978692ce9d350ab74d",
        [2.547088625311015, 2.333883238308449, 2.4221949292348364],
        [0.1875, 0.1875, 0.15625],
        0.15,
    ),
    "attention_residual": (
        "eeae445cafecff062be824ada173905d539049330433a4a13ba172780e363752",
        "7581036e8d7a505f3116908405e5cebcecbfea3a024cff743c83442a1f2a2388",
        [2.4712225139337423, 2.1656569594578827, 2.181184450640394],
        [0.1875, 0.1875, 0.21875],
        0.175,
    ),
}


def _config(name: str) -> RunConfig:
    overrides = EXTRA[name] if name in EXTRA else harness.ABLATION_VARIANTS[name]
    return apply_overrides(RunConfig(), BASE + list(overrides))


def _float64_digest(params: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    return h.hexdigest()


def _run(name: str) -> list:
    cfg = _config(name)
    dataset = harness.build_dataset(cfg)
    result = harness.train(cfg, dataset)
    return [
        result.manifest["digests"]["params_final"],
        _float64_digest(result.model.params),
        [m.total for m in result.metrics],
        [m.test_acc for m in result.metrics],
        harness.evaluate(result.model, dataset, "test").accuracy,
    ]


@pytest.fixture(scope="module")
def pinned_runs() -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, "-W", "error", __file__],
                           env=env, capture_output=True, text=True)
    if child.returncode != 0:
        pytest.fail(f"pinned runs failed:\n{child.stderr}")
    return json.loads(child.stdout)


def test_every_ablation_preset_is_pinned():
    assert set(harness.ABLATION_VARIANTS) == set(PIN) - set(EXTRA)


@pytest.mark.parametrize("name", list(PIN))
def test_pinned_run(name, pinned_runs):
    assert tuple(pinned_runs[name]) == PIN[name]


if __name__ == "__main__":
    print(json.dumps({name: _run(name) for name in PIN}))
