#!/usr/bin/env python3
"""Generate a clustered-vs-uniform batch and run the experiment harness on it.

Writes the instance files and the CSV report under --workdir, all through
the ordmed command-line interface, so the script doubles as a usage example.
Every file it writes is byte-identical across reruns with the same
arguments.
"""

import argparse
import os
import sys

from ordmed.cli import main as ordmed


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workdir", default="experiment_out",
                    help="directory for instances and reports")
    ap.add_argument("--count", type=int, default=10,
                    help="instances per generator")
    ap.add_argument("--m", type=int, default=12, help="points per instance")
    ap.add_argument("--p", type=int, default=3, help="centers to open")
    ap.add_argument("--weights", nargs="+",
                    default=["median", "center", "centdian:0.5"],
                    help="weight family specs for the harness")
    ap.add_argument("--bootstrap", type=int, default=200,
                    help="resamples for the dip p-value")
    ap.add_argument("--seed", type=int, default=0, help="base seed")
    args = ap.parse_args(argv)

    inst_dir = os.path.join(args.workdir, "instances")
    os.makedirs(inst_dir, exist_ok=True)
    paths = []
    for i in range(args.count):
        path = os.path.join(inst_dir, f"ball{i:02d}.txt")
        code = ordmed(["generate", "ball", "--m", str(args.m),
                       "--clusters", str(args.p), "--radius", "0.5",
                       "--sep", "4", "--seed", str(args.seed + i),
                       "-o", path])
        if code:
            return code
        paths.append(path)
    for i in range(args.count):
        path = os.path.join(inst_dir, f"uniform{i:02d}.txt")
        code = ordmed(["generate", "uniform", "--m", str(args.m),
                       "--seed", str(args.seed + i), "-o", path])
        if code:
            return code
        paths.append(path)

    report = os.path.join(args.workdir, "report.csv")
    cmd = ["experiment"]
    for path in paths:
        cmd += ["--instance", path]
    for spec in args.weights:
        cmd += ["--weights", spec]
    cmd += ["--p", str(args.p), "--seed", str(args.seed),
            "--bootstrap", str(args.bootstrap), "-o", report]
    return ordmed(cmd)


if __name__ == "__main__":
    sys.exit(run())
