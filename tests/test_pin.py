"""Behaviour pin: short fixed-seed training runs reproduce recorded values.

Each case runs ``harness.train`` for 60 steps on 400 generated samples
(data seed 0, log every 20 steps, 4 eval batches per log point) and checks
the final checkpoint digest (a SHA-256 of the float64 parameters and frozen
experts as the checkpoint stores them), the total loss and logged test
accuracy at every log point, and the accuracy of a full-test-split
evaluation.

All cases run in one child process with one BLAS thread, the setting the
benchmark pins, so the pin holds whatever thread count the test process
itself uses. With OpenBLAS 0.3.31 on a 2-CPU x86-64 host every case gives
the same values at one and two threads; a dense body that ran its second
layer per token did not, because its gradients differed in the last bit.
Another BLAS or thread count may still split a GEMM differently, which the
one-thread child rules out. Run this file as a script to print the values it
compares, as JSON.

Tolerance: none. Values are compared for exact equality, because a run is
bit-deterministic given its seed. A change that moves any of them must say
why in CHANGES.md and re-record them here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    # the routed model that ROADMAP item 2 makes the default
    "stripped": ["router.capacity_factor=8", "router.renormalize_topk=true",
                 "model.attention_residual=true", "losses.balance_weight=0",
                 "clustering.strategy=none", "model.n_experts=4"],
}

# name -> (params_final checkpoint digest, total per log point,
#          test_acc per log point, full-test-split accuracy)
PIN = {
    "full": (
        "7d359394381b1a4811978f309cd69d00d2e664a0977612d4186450c7b4407643",
        [2.5111917464664377, 2.311254545568766, 2.310091804566653],
        [0.1875, 0.15625, 0.25],
        0.2125,
    ),
    "no_ste": (
        "7121017c8b810a403849c1619a61e0e1638da22b31752d4d3a156f616c77e943",
        [2.561340544863451, 2.154260152160934, 2.2188619294285763],
        [0.3125, 0.3125, 0.34375],
        0.3875,
    ),
    "no_see": (
        "a4e6ab2b676705e54edf34e78844561fe2ce9626e7cc729a16ff1d7bb80ca92e",
        [2.412468498463333, 2.3056659531143984, 2.1208065701675762],
        [0.3125, 0.3125, 0.21875],
        0.2125,
    ),
    "no_dse": (
        "aca82cf0b769233372dfaa2c06d58e4b15302eecc5a4135e33c5c8cf4981da20",
        [2.414152038888036, 2.132946564403944, 2.0338052922673033],
        [0.46875, 0.4375, 0.375],
        0.425,
    ),
    "no_clustering": (
        "3272253dc7c993d3caeb27623e4e6332642edf869fbca9e1cc4f0133e0dd5910",
        [2.5128849907715494, 2.342472774039407, 2.359703831164944],
        [0.1875, 0.15625, 0.21875],
        0.2,
    ),
    "no_tb": (
        "c5ee54abba863c1f272fc1d26ecc2a4fa70862ea5d95c45b42a6f5a8b40e124e",
        [1.196108233403244, 1.280260892211035, 1.3680895703230616],
        [0.1875, 0.1875, 0.21875],
        0.175,
    ),
    "dense": (
        "464332eee836b3806e7fa44493dffb7d97a7a23369ce872d8f665808f2e86f46",
        [1.0531001828621576, 0.9240268419763826, 1.0174173334812555],
        [0.25, 0.375, 0.46875],
        0.5375,
    ),
    "wide": (
        "f8cb64dae056e9ea9755fc8606e78c53bb60a737f65c43f1678c860bbf33fca6",
        [2.4702168351433684, 2.3163411579171855, 2.108611865915821],
        [0.1875, 0.296875, 0.28125],
        0.2875,
    ),
    "renormalize": (
        "02adc2251f6208557ac9b439cff640e52676436d7a229aefb203dba9853c85e1",
        [2.547088625311015, 2.333883238308449, 2.4221949292348364],
        [0.1875, 0.1875, 0.15625],
        0.15,
    ),
    "attention_residual": (
        "d27540836881ee8c7d686d1e7c2399b7a49e447aadab2de3e689597ef8df2785",
        [2.4712225139337423, 2.1656569594578827, 2.181184450640394],
        [0.1875, 0.1875, 0.21875],
        0.175,
    ),
    "stripped": (
        "49ea9f3249ecee21e35b683a6806d994858dc1803d55098acfc3d7aaf01ede6c",
        [2.50970859235213, 2.003055223776336, 2.2166437071748457],
        [0.375, 0.34375, 0.34375],
        0.4125,
    ),
}


def _config(name: str) -> RunConfig:
    overrides = EXTRA[name] if name in EXTRA else harness.ABLATION_VARIANTS[name]
    return apply_overrides(RunConfig(), BASE + list(overrides))


def _run(name: str) -> list:
    cfg = _config(name)
    dataset = harness.build_dataset(cfg)
    result = harness.train(cfg, dataset)
    return [
        result.manifest["digests"]["params_final"],
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
