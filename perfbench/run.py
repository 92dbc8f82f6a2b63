"""Seeded benchmark of the ordmed package.

Run from the repository root:

    python3 perfbench/run.py --workload relax --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run sets up its workload (imports, corpus, instance files, one untimed
warm-up op), then runs ops one after another (closed loop, one client, one
process, one BLAS thread) until --seconds of op time have passed, at least
40 ops are done and the corpus cycle in progress is complete, and checks
every op's output outside the timed region. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
instead times a fixed number of ops untraced, then the same ops traced, and
reports per-layer metrics from the spans. The line before it is a JSON
record of the environment, the input properties and the per-stratum times.
`--workload all` runs every workload in a child process and prints a table.
The exit code is 0 only when every op passed its check.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# One BLAS thread, set before numpy loads (set-up children inherit it): an
# idle OpenBLAS worker spins on the second core and ties op times to
# whatever else runs there.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3        # this process plus two set-up-only children
SETUP_OP = -2            # op id of spans recorded during set-up
CHILD_TIMEOUT = 170
PACKAGE_MODULES = ("bench_io", "certificates", "cli", "clusterability", "exact",
                   "formulations", "instance", "lp_core")


class ProgramMissing(Exception):
    """The package source is not where the benchmark expects it."""


def import_program():
    """Import ordmed from src/ of this checkout and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ordmed", "__init__.py")):
        raise ProgramMissing(f"no ordmed package under {src}")
    sys.path.insert(0, src)
    ordmed = importlib.import_module("ordmed")
    if os.path.dirname(os.path.dirname(os.path.abspath(ordmed.__file__))) != src:
        raise ProgramMissing(f"ordmed was imported from {ordmed.__file__}")
    return argparse.Namespace(**{name: importlib.import_module(f"ordmed.{name}")
                                 for name in PACKAGE_MODULES})


def environment() -> dict:
    import numpy as np

    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = res.stdout.strip() or None
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load": "closed loop, 1 client, 1 process, 1 BLAS thread",
        "machine": platform.machine(),
        "speed_probe_s": speed_probe_s(),
    }


def speed_probe_s(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a gauge of the machine's pace
    while this run ended, to tell a slow machine from a slow program."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _blas_threads(np):
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_op(wl, probe, cell, op_id: int):
    """Run one op; returns (seconds, problems, pivots, check seconds). The
    output is checked after the op's timer stops."""
    probe.captured.clear()
    root = probe.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        out, error = wl.run(cell), None
    except Exception as exc:  # the loop must go on; the op counts as failed
        out, error = None, exc
    seconds = time.perf_counter() - t0
    probe.end_op(root)
    captured = list(probe.captured)
    probe.captured.clear()
    if error is not None:
        traceback.print_exception(error)
        return seconds, [f"raised {type(error).__name__}: {error}"], 0, 0.0
    t1 = time.perf_counter()
    try:
        problems = wl.check(cell, out, captured)
    except Exception as exc:  # a crashing check is a failed op, not a crash
        traceback.print_exception(exc)
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    pivots = sum(r.iterations for s, _, _, r in captured if s == "lp_core.solve_lp")
    return seconds, problems, pivots, time.perf_counter() - t1


class Tally:
    """Ops attempted and failed, and per-op records of the timed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.records: list[tuple[str, float, int]] = []   # stratum, s, pivots

    def add(self, wl, cell, result, timed: bool) -> None:
        seconds, problems, pivots, _ = result
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {wl.name} {cell.key}: {'; '.join(problems)}", file=sys.stderr)
        if timed:
            self.records.append((cell.stratum, seconds, pivots))

    def seconds(self) -> list[float]:
        return [s for _, s, _ in self.records]


def set_up(name: str, seed: int, workdir: str, trace: bool):
    """Import, build the corpus and run the warm-up op; returns its parts."""
    lib = import_program()
    import spans
    import workloads

    probe = spans.Probe(workloads.SITES)
    probe.install(trace=trace)
    probe.op_id = SETUP_OP
    wl = workloads.WORKLOADS[name](lib, seed, workdir)
    warm = run_op(wl, probe, wl.warm_cell, SETUP_OP)
    return wl, probe, warm


def set_up_only(name: str, seed: int, workdir: str) -> None:
    """The same set-up, unpatched and unchecked (set-up-only children)."""
    lib = import_program()
    import workloads

    wl = workloads.WORKLOADS[name](lib, seed, workdir)
    wl.run(wl.warm_cell)


def e2e_metrics(tally: Tally, wl, setups: list[float]) -> dict:
    import numpy as np

    times = tally.seconds()
    return {
        "ops_per_s": len(times) / sum(times),
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": float(np.percentile(times, wl.tail_percentile)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(wl, probe, untraced_s: float, traced_s: float, n_ops: int) -> dict:
    """Per-layer metrics from the traced ops' spans and the checks' counts."""
    f = probe.frame()
    ids = {name: i for i, name in enumerate(probe.names)}
    in_ops = f["op"] >= 0

    def spans_of(name, op_mask=in_ops):
        return op_mask & (f["name"] == ids.get(name, -1))

    def total(name, col="dur"):
        return float(f[col][spans_of(name)].sum())

    def count(name):
        return int(spans_of(name).sum())

    def ratio(a, b):
        return a / b if b else 0.0

    st = wl.stats
    solve_s = total("lp_core.solve_lp")
    enum_s = total("exact.solve_enumeration")
    root = spans_of("bench.op")
    op_time = float(f["dur"][root].sum())
    root_self = float(f["self"][root].sum())
    all_self = float(f["self"][in_ops].sum())
    return {
        "formulations.build_s": total("formulations.build"),
        "formulations.lp_rows": ratio(st["rows"], st["models"]),
        "formulations.lp_cols": ratio(st["cols"], st["models"]),
        "formulations.bounded_cols": ratio(st["bounded_cols"], st["models"]),
        "lp_core.solve_calls": st["lp_solves"],
        "lp_core.solve_s": solve_s,
        "lp_core.pivots": st["pivots"],
        "lp_core.s_per_pivot": ratio(solve_s, st["pivots"]),
        "lp_core.infeasible_frac": ratio(st["infeasible"], st["lp_solves"]),
        "lp_core.max_residual": wl.max_residual,
        "exact.enumeration_s": enum_s,
        "exact.subsets": st["subsets"],
        "exact.s_per_subset": ratio(enum_s, st["subsets"]),
        "exact.recovery_self_s": total("exact.recovery_status", "self"),
        "ordered_median.allocation_calls": count("ordered_median.closest_allocation"),
        "ordered_median.allocation_s": total("ordered_median.closest_allocation"),
        "certificates.search_s": total("certificates.search_certificate"),
        "certificates.search_self_s": total("certificates.search_certificate", "self"),
        "certificates.found_frac": ratio(st["found"], st["searches"]),
        "certificates.holds_frac": ratio(st["holds"], st["found"]),
        "certificates.predict_s": total("certificates.predict_non_recovery"),
        "certificates.contradictions": st["contradictions"],
        "clusterability.dip_calls": count("clusterability.dip_statistic"),
        "clusterability.dip_s": total("clusterability.dip_statistic"),
        "clusterability.pvalue_s": total("clusterability.dip_pvalue"),
        "clusterability.mds_s": total("clusterability.mds_1d"),
        "clusterability.null_reuse_frac": ratio(st["null_reused"], st["pvalues"]),
        "instance.read_s": total("instance.read_instance"),
        "instance.equidistance_s": total("instance.is_free_of_equidistance"),
        "bench_io.experiment_self_s": total("bench_io.run_experiment", "self"),
        "bench_io.csv_s": total("bench_io.rows_to_csv"),
        "bench_io.generate_s": float(f["dur"][spans_of("bench_io.generate",
                                                       f["op"] == SETUP_OP)].sum()),
        "cli.main_self_s": total("cli.main", "self"),
        "trace.ops": n_ops,
        "trace.spans": int(in_ops.sum()),
        "trace.untraced_ops_per_s": n_ops / untraced_s,
        "trace.traced_ops_per_s": n_ops / traced_s,
        "trace.overhead_ops_per_s": n_ops / traced_s - n_ops / untraced_s,
        "trace.layer_self_frac": ratio(all_self - root_self, op_time),
        "trace.glue_frac": ratio(root_self, op_time),
    }


def self_time_by_layer(probe) -> dict:
    f = probe.frame()
    out: dict[str, float] = {}
    for i, name in enumerate(probe.names):
        mask = (f["op"] >= 0) & (f["name"] == i)
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + float(f["self"][mask].sum())
    return {k: round(v, 6) for k, v in sorted(out.items())}


def strata(tally: Tally) -> dict:
    groups: dict[str, list[tuple[float, int]]] = {}
    for stratum, seconds, pivots in tally.records:
        groups.setdefault(stratum, []).append((seconds, pivots))
    return {k: {"ops": len(v),
                "p50_s": round(statistics.median(s for s, _ in v), 6),
                "pivots_p50": statistics.median(p for _, p in v)}
            for k, v in sorted(groups.items())}


def run_child_setup(name: str, seed: int) -> float:
    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise RuntimeError(f"set-up child exited {res.returncode}")
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(args, units: dict) -> int:
    t_start = time.perf_counter()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.setup_only:
            set_up_only(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - t_start}))
            return 0
        wl, probe, warm = set_up(args.workload, args.seed, workdir, bool(args.trace))
        # the warm-up op's oracle check (and its lazy scipy import) is not
        # set-up: the set-up-only children skip it
        setup_s = time.perf_counter() - t_start - warm[3]
        return measure(args, wl, probe, warm, setup_s, units)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, probe, warm, setup_s: float, units: dict) -> int:
    """The timed (or traced) ops, the after-window ops, and the report."""
    tally = Tally()
    tally.add(wl, wl.warm_cell, warm, timed=False)
    wl.reset_stats()
    op_id = 0
    if args.trace:
        # the same fixed ops twice: untraced for the overhead, then traced
        probe.install(trace=False)
        cells = [wl.cells[k % len(wl.cells)] for k in range(wl.trace_cycles * wl.cycle)]
        t0 = time.perf_counter()
        for cell in cells:
            tally.add(wl, cell, run_op(wl, probe, cell, -1), timed=False)
        untraced_s = time.perf_counter() - t0
        wl.reset_stats()
        probe.install(trace=True)
        t0 = time.perf_counter()
        for cell in cells:
            tally.add(wl, cell, run_op(wl, probe, cell, op_id), timed=True)
            op_id += 1
        traced_s = time.perf_counter() - t0
    else:
        busy = 0.0
        cells = []
        while busy < args.seconds or len(cells) < wl.min_ops or len(cells) % wl.cycle:
            cell = wl.cells[op_id % len(wl.cells)]
            result = run_op(wl, probe, cell, op_id)
            tally.add(wl, cell, result, timed=True)
            cells.append(cell)
            busy += result[0]
            op_id += 1
    after = wl.after_window()
    for cell in after:
        tally.add(wl, cell, run_op(wl, probe, cell, op_id), timed=False)
        op_id += 1
    probe.uninstall()

    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "timed_ops": len(tally.records),
        "after_window_ops": len(after),
        "tail_percentile": wl.tail_percentile,
        "failed_frac": tally.failed / tally.attempted,
        "vertex_integral_ops": wl.stats["vertex_integral"],
        "properties": wl.properties(cells + after),
        "strata": strata(tally),
    }
    if args.trace:
        metrics = layer_metrics(wl, probe, untraced_s, traced_s, len(cells))
        spans_path = os.path.join(WORK, f"spans-{wl.name}-seed{args.seed}.npz")
        probe.save(spans_path)
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)
        detail["self_s_by_layer"] = self_time_by_layer(probe)
    else:
        setups = [setup_s] + [run_child_setup(wl.name, args.seed)
                              for _ in range(SETUP_REPEATS - 1)]
        metrics = e2e_metrics(tally, wl, setups)
        detail["setup_runs_s"] = [round(s, 6) for s in setups]
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps(detail, default=float))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and each metric's unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args, names) -> int:
    """Every workload in its own child process; one table of every metric."""
    code = 0
    print(f"{'workload':<11} {'metric':<32} {'value':>14}  unit")
    for name in names:
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600, cwd=ROOT)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or len(lines) < 2:
            code = 1
        if len(lines) < 2:
            print(f"{name:<11} (no result, exit code {res.returncode})")
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        rows.append(("failed_frac", detail["failed_frac"], "ratio"))
        for metric, value, unit in rows:
            print(f"{name:<11} {metric:<32} {value:>14.6g}  {unit}")
        print(f"{name:<11} {'(ops attempted / failed)':<32} "
              f"{result['attempted']:>7} / {result['failed']}")
        print(f"{name:<11} {'(timed ops, tail percentile)':<32} "
              f"{detail['timed_ops']:>7}, p{detail['tail_percentile']}")
    return code


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception: subprocess.run kills and reaps a
    # running child, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    return run_workload(args, {m["name"]: m["unit"] for m in metrics})


if __name__ == "__main__":
    sys.exit(main())
