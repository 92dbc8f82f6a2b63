#!/usr/bin/env python3
"""Benchmark a parent revision against the working tree in alternating pairs.

    python scripts/bench_pairs.py --parent HEAD~1 --name lp_kernel

The working tree must be clean, untracked files included, so the change
measured is the commit HEAD names. The parent is checked out into a
temporary `git worktree`, which is removed when the script ends. Every
workload of BENCHMARK.json gets PAIRS pairs; each runs `perfbench/run.py`
once in the parent and once in the working tree on one seed (SEED_BASE +
pair index), and the side that runs first alternates between pairs. The
runs are untraced and last the benchmark's own run length.

BENCH_<name>.json, written at the repository root, holds for each workload
and each end-to-end metric of BENCHMARK.json: the median and quartiles of
each side, the number of pairs the change won (ties count for neither),
and the parent's interquartile spread, beside every run's raw result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
SEED_BASE = 1000


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in tree: its result line, plus the exit code."""
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=tree, text=True, stdout=subprocess.PIPE, timeout=1800)
    lines = res.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: no output "
                           f"(exit code {res.returncode})")
    result = json.loads(lines[-1])
    result["exit_code"] = res.returncode
    return result


def summary(parent: list[float], change: list[float], better: str) -> dict:
    """Medians and quartiles of both sides and the pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    side = {}
    for name, values in (("parent", parent), ("change", change)):
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        side[name] = {"median": med, "q1": q1, "q3": q3}
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {"better": better, **side, "pairs": len(parent), "change_won": int(won),
            "median_gain": side["change"]["median"] - side["parent"]["median"],
            "parent_iqr": side["parent"]["q3"] - side["parent"]["q1"]}


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so the worktree is still removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--name", required=True, help="output file BENCH_<name>.json")
    args = ap.parse_args(argv)
    if git("status", "--porcelain", "--untracked-files=all"):
        print("the working tree has uncommitted or untracked files; commit or remove them",
              file=sys.stderr)
        return 1
    parent_sha = git("rev-parse", args.parent)
    out = {"parent": parent_sha, "change": git("rev-parse", "HEAD"),
           "run_seconds": seconds, "pairs": PAIRS, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "parent")
        git("worktree", "add", "--detach", tree, parent_sha)
        try:
            for workload in (w["name"] for w in spec["workloads"]):
                runs = []
                for i in range(PAIRS):
                    seed = SEED_BASE + i
                    order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                    run = {"seed": seed, "first": order[0]}
                    for side in order:
                        run[side] = run_bench(tree if side == "parent" else ROOT,
                                              workload, seed, seconds)
                        print(f"{workload} seed {seed} {side}: "
                              f"{run[side]['metrics']['ops_per_s']['value']:.1f} ops/s",
                              file=sys.stderr, flush=True)
                    runs.append(run)
                metrics = {
                    m["name"]: summary([r["parent"]["metrics"][m["name"]]["value"] for r in runs],
                                       [r["change"]["metrics"][m["name"]]["value"] for r in runs],
                                       m["better"])
                    for m in spec["end_to_end"]}
                failed = {side: sum(r[side]["failed"] for r in runs)
                          for side in ("parent", "change")}
                out["workloads"][workload] = {"metrics": metrics, "failed_ops": failed,
                                              "runs": runs}
        finally:
            git("worktree", "remove", "--force", tree)
    path = os.path.join(ROOT, f"BENCH_{args.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, default=float)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
