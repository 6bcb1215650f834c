"""Alternate the benchmark between two source trees and summarise the pairs.

    python3 scripts/bench_pairs.py --parent ../parent --candidate . \
        --workload routed-wide --seeds 501-510 --seconds 10 --out BENCH.json

Each seed is one pair: ``perfbench/run.py --workload W --seed S --seconds N``
runs once in each tree, in fresh processes, parent first on odd pairs and
candidate first on even ones, so slow drift of the host falls on both sides.
Every end-to-end metric of ``BENCHMARK.json`` (read from the candidate) is
summarised per workload: the value of each pair, each side's median and
quartiles, the shift of the medians, how many pairs the candidate won, and
whether that shift stays inside the metric's bound. Each pair also records
whether ``params_final`` and ``test_acc`` were equal on both sides.

The summary of each workload is merged into ``--out`` after every pair, so
an interrupted run keeps the pairs it finished and several invocations fill
one file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics and record lines of one benchmark run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    if not result["correct"]:
        raise RuntimeError(f"{tree}: seed {seed} failed its correctness check")
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "params_final": record["params_final"], "test_acc": record["test_acc"]}


def quartiles(values) -> dict:
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(pairs: list, end_to_end: list) -> dict:
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], (1.0 if spec["better"] == "higher" else -1.0)
        parent = [p["parent"]["metrics"][name] for p in pairs]
        cand = [p["candidate"]["metrics"][name] for p in pairs]
        before, after = quartiles(parent), quartiles(cand)
        shift = after["median"] / before["median"] - 1.0
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": parent,
            "candidate": cand,
            "parent_stats": before,
            "candidate_stats": after,
            "median_shift": shift,
            "candidate_wins": sum(int(sign * (c - p) > 0) for p, c in zip(parent, cand)),
            "bound": spec["bound"],
            "within_bound": bool(sign * shift >= -spec["bound"]),
        }
    return {
        "pairs": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "params_final_equal": [p["parent"]["params_final"] == p["candidate"]["params_final"]
                               for p in pairs],
        "test_acc_equal": [p["parent"]["test_acc"] == p["candidate"]["test_acc"]
                           for p in pairs],
        "metrics": metrics,
    }


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--candidate", type=Path, required=True)
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 501-510")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.candidate / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:  # checked before any run: "all" keys its metrics per workload
        parser.error(f"--workload must be one of {', '.join(names)}, got {args.workload!r}")
    pairs = []
    for i, seed in enumerate(args.seeds):
        sides = ["parent", "candidate"] if i % 2 == 0 else ["candidate", "parent"]
        pair = {"seed": seed, "first": sides[0]}
        for side in sides:
            pair[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append(pair)
        p50 = [pair[s]["metrics"]["step_ms.p50"] for s in ("parent", "candidate")]
        print(f"{args.workload} seed {seed}: step_ms.p50 {p50[0]:.3f} -> {p50[1]:.3f}",
              flush=True)
        out = json.loads(args.out.read_text()) if args.out.exists() else {}
        out.setdefault("workloads", {})[args.workload] = {
            "seconds": args.seconds, **summarise(pairs, spec["end_to_end"]), "runs": pairs}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
