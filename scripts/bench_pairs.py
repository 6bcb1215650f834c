"""Alternate the benchmark between two source trees and summarise the pairs.

    python3 scripts/bench_pairs.py --parent ../parent --candidate . \
        --workload routed-wide --seeds 501-510 --seconds 10 --out BENCH.json

Each seed is one pair: ``perfbench/run.py --workload W --seed S --seconds N``
runs once in each tree, in fresh processes, parent first on odd pairs and
candidate first on even ones, so slow drift of the host falls on both sides.
Every end-to-end metric of ``BENCHMARK.json`` (read from the candidate) is
summarised per workload: the value of each pair, each side's median and
quartiles, the shift of the medians, how many pairs the candidate won,
whether that shift stays inside the metric's bound, and whether the pairs
show a gain (``gain_shown``): the candidate won at least 9 in 10 of them, ties
counting for neither side, and its median is better than the parent's by more
than the parent's interquartile range. Each pair also records whether
``params_final`` and ``test_acc`` were equal on both sides.

After the last pair the verdict is printed: one line per end-to-end metric
with each side's median and quartiles, the shift, the wins, ``within_bound``
and ``gain_shown``, then how many pairs had equal ``params_final``.

The summary of each workload is merged into ``--out`` after every pair, so
an interrupted run keeps the pairs it finished and several invocations fill
one file. Pairs already in ``--out`` for the workload are kept and the
alternation goes on from their count; a seed already recorded there, or a
``--seconds``, ``--parent`` or ``--candidate`` other than theirs, is a usage
error raised before any run. Each tree is recorded as its commit when it is
the top of a git checkout with no uncommitted changes to tracked files, and
as its resolved path otherwise.
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


def tree_id(tree: Path) -> str:
    """The commit of a clean git checkout at ``tree``, else its resolved path."""
    if (tree / ".git").exists():
        git = ["git", "-C", str(tree)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True)
        if head.returncode == 0 and dirty.returncode == 0 and not dirty.stdout.strip():
            return head.stdout.strip()
    return str(tree.resolve())


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
        wins = sum(int(sign * (c - p) > 0) for p, c in zip(parent, cand))
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": parent,
            "candidate": cand,
            "parent_stats": before,
            "candidate_stats": after,
            "median_shift": shift,
            "candidate_wins": wins,
            "bound": spec["bound"],
            "within_bound": bool(sign * shift >= -spec["bound"]),
            "gain_shown": bool(10 * wins >= 9 * len(pairs)
                               and sign * (after["median"] - before["median"]) > before["iqr"]),
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


def verdict(workload: str, summary: dict) -> list:
    """The lines printed after the last pair: one per end-to-end metric of
    ``summary`` (as ``summarise`` returns it), then the ``params_final`` count."""
    def stats(s):
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"

    n = summary["pairs"]
    lines = []
    for name, m in summary["metrics"].items():
        lines.append(
            f"{workload} {name} ({m['unit']}, {m['better']} is better): "
            f"parent {stats(m['parent_stats'])} -> candidate {stats(m['candidate_stats'])}, "
            f"shift {m['median_shift']:+.1%}, wins {m['candidate_wins']}/{n}, "
            f"within_bound {m['within_bound']}, gain_shown {m['gain_shown']}")
    lines.append(f"{workload} params_final equal in {sum(summary['params_final_equal'])}/{n} "
                 f"pairs")
    return lines


def parse_seeds(text: str) -> list:
    """``first-last`` (inclusive) or one seed; a range with no seeds is an
    argparse usage error, raised before any run."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"seed range {text!r} is empty: write first-last "
                                         f"with first <= last")
    return seeds


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
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    earlier = out.get("workloads", {}).get(args.workload)
    pairs = earlier["runs"] if earlier else []
    trees = {side: tree_id(getattr(args, side)) for side in ("parent", "candidate")}
    if earlier and earlier["seconds"] != args.seconds:
        parser.error(f"--seconds {args.seconds} differs from the {earlier['seconds']} of the "
                     f"{args.workload} pairs already in {args.out}")
    if earlier and earlier.get("trees") != trees:
        parser.error(f"--parent/--candidate {trees} differ from the trees {earlier.get('trees')} "
                     f"of the {args.workload} pairs already in {args.out}")
    recorded = sorted(set(args.seeds) & {p["seed"] for p in pairs})
    if recorded:
        parser.error(f"seed {recorded[0]} of {args.workload} is already in {args.out}")
    for seed in args.seeds:
        sides = ["parent", "candidate"] if len(pairs) % 2 == 0 else ["candidate", "parent"]
        pair = {"seed": seed, "first": sides[0]}
        for side in sides:
            pair[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append(pair)
        p50 = [pair[s]["metrics"]["step_ms.p50"] for s in ("parent", "candidate")]
        print(f"{args.workload} seed {seed}: step_ms.p50 {p50[0]:.3f} -> {p50[1]:.3f}",
              flush=True)
        summary = summarise(pairs, spec["end_to_end"])
        out = json.loads(args.out.read_text()) if args.out.exists() else {}
        out.setdefault("workloads", {})[args.workload] = {
            "seconds": args.seconds, "trees": trees, **summary, "runs": pairs}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    print("\n".join(verdict(args.workload, summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
