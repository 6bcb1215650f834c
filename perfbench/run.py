"""Benchmark of the ``come`` training pipeline, end to end or layer by layer.

    python3 perfbench/run.py --workload routed-small --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
metrics of a separately traced run (see perfbench/README.md). ``--workload
all`` runs every workload in its own process. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment, shapes, seed and
final parameter digest. The exit code is 1 when a correctness check fails
and 2 when the ``come`` sources are missing.

BLAS runs on a fixed number of threads and the training loop on one, so
figures from different machines differ only by the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("routed-small", "routed-wide", "dense-small")
BLAS_THREADS = 1
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "COME_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "1/s",
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "eval_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # NumPy before 1.26 only prints its config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
        "come_threads": os.environ["COME_THREADS"],
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def run_one(args) -> int:
    os.environ.update(PINNED_ENV)  # before NumPy loads BLAS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from perfbench.tracing import per_layer_spec

    work_dir = ROOT / "perfbench" / ".work"
    work_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    gate = workloads.Gate()
    measure = workloads.measure_traced if args.trace else workloads.measure
    try:
        values, record = measure(workload, args.seed, args.seconds, gate, work_dir)
    except Exception as exc:
        traceback.print_exc()
        gate.problems.append(f"run aborted: {exc!r}")
        values, record = {}, {"workload": workload.name, "seed": args.seed}
    if args.trace:
        units = {name: unit for name, unit, _ in per_layer_spec()}
    else:
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    for name, m in metrics.items():
        print(f"{workload.name:<14} {name:<36} {m['value']:>14.6g} {m['unit']}")
    for problem in gate.problems:
        print(f"{workload.name}: FAILED {problem}", file=sys.stderr)
    record["environment"] = environment()
    record["problems"] = gate.problems
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if lines else {"correct": False}
        correct = correct and proc.returncode == 0 and result["correct"]
        attempted += result.get("attempted", 0)
        failed += result.get("failed", 0)
        metrics.update({f"{name}.{k}": v for k, v in result.get("metrics", {}).items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "come" / "__init__.py").is_file():
        print(f"perfbench: no come package at {ROOT / 'src' / 'come'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
