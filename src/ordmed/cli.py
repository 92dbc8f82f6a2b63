"""Command-line front door for the package.

Subcommands: solve (exact optimum by enumeration), relax (LP relaxation and
recovery check), certify (dual certificate search at the exact optimum),
clusterability (dip diagnostics over one or more instances), generate
(synthetic instance files), experiment (the batch harness). Data goes to
stdout or the -o file; everything human-oriented goes to stderr. Exit codes:
0 success, 1 domain failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys

from .bench_io import floyd_warshall, format_csv, format_cell, \
    generate_ball, generate_uniform, parse_pmed, prefix_subsample, \
    profile_instances, row_values, rows_to_csv, run_experiment
from .certificates import search_certificate
from .clusterability import MIN_BOOTSTRAP
from .errors import OrdmedError, ParameterError
from .exact import recovery_status, solve_enumeration
from .formulations import build_bep, build_ot
from .instance import WEIGHT_GRAMMAR, Instance, PointSet, parse_weight_spec, \
    read_instance, resolve_weights, write_instance

_CLUSTERABILITY_HEADER = ("instance", "dip", "dip_pvalue", "label_dip",
                          "label_pvalue")


def _weight_spec(text: str) -> str:
    """The library's m-free spec check; range checks against m happen at build time."""
    try:
        parse_weight_spec(text)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _number(text: str, cast, ok, expected: str):
    """text cast to a number that passes ok, else a usage error naming expected."""
    try:
        value = cast(text)
        if ok(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")


def _positive_int(text: str) -> int:
    return _number(text, int, lambda v: v >= 1, "a positive integer")


def _nonnegative_int(text: str) -> int:
    return _number(text, int, lambda v: v >= 0, "a non-negative integer")


def _nonnegative_float(text: str) -> float:
    return _number(text, float, lambda v: math.isfinite(v) and v >= 0,
                   "a finite non-negative number")


def _bootstrap_count(text: str) -> int:
    return _number(text, int, lambda v: v >= MIN_BOOTSTRAP,
                   f"an integer of at least {MIN_BOOTSTRAP}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ordmed parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ordmed",
        description="Ordered median location: exact solving, LP relaxations, "
                    "recovery certificates, and clusterability diagnostics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, multi_instance=False):
        """Declare every flag a group of subcommands shares, once."""
        if multi_instance:
            sp.add_argument("--instance", action="append", default=[],
                            metavar="PATH",
                            help="instance file (repeatable); matrix format "
                                 "`m p` or coordinate format `m n p`")
        else:
            sp.add_argument("--instance", required=True, metavar="PATH",
                            help="instance file: matrix format `m p` or "
                                 "coordinate format `m n p`")
            sp.add_argument("--weights", type=_weight_spec, metavar="SPEC",
                            help=f"weight family spec: {WEIGHT_GRAMMAR} "
                                 "(default: weights stored in the file, else "
                                 "median)")
        sp.add_argument("--subsample", type=_positive_int, metavar="M",
                        help="keep only the first M points (deterministic prefix)")
        sp.add_argument("-o", "--output", metavar="PATH",
                        help="write data here instead of stdout")
        sp.add_argument("--json", action="store_true", dest="json_lines",
                        help="emit JSON instead of plain text")
        if multi_instance:
            sp.add_argument("--bootstrap", type=_bootstrap_count, default=1000,
                            metavar="B", help="uniform resamples for the "
                            "p-value")
            sp.add_argument("--seed", type=_nonnegative_int, default=0,
                            help="bootstrap seed; instance k (counting from "
                                 "0) uses seed + k")
        else:
            sp.add_argument("--p", type=_positive_int, help="number of "
                            "centers (default: the file's declared p)")

    sp = sub.add_parser("solve", help="exact optimum by subset enumeration")
    common(sp)

    sp = sub.add_parser("relax", help="LP relaxation value and recovery check")
    common(sp)
    sp.add_argument("--formulation", choices=("bep", "ot"), default="bep",
                    help="LP shape: sorting rows (bep) or tail sums (ot)")

    sp = sub.add_parser("certify", help="search a dual certificate at the optimum")
    common(sp)
    sp.add_argument("--strict", action="store_true",
                    help="demand strict inequalities by a margin of 1e-6 * "
                         "lam_1 * max distance")

    sp = sub.add_parser("clusterability",
                        help="dip statistic, p-value, and collection labels")
    common(sp, multi_instance=True)

    sp = sub.add_parser("generate", help="write a synthetic instance file")
    sp.add_argument("generator", choices=("ball", "uniform"),
                    help="clustered balls or a uniform cube")
    sp.add_argument("--m", type=_positive_int, required=True,
                    help="number of points")
    sp.add_argument("--clusters", type=_positive_int, default=2,
                    help="ball generator: number of clusters")
    sp.add_argument("--radius", type=_nonnegative_float, default=0.1,
                    help="ball generator: ball radius")
    sp.add_argument("--sep", type=_nonnegative_float, default=1.0,
                    dest="separation",
                    help="ball generator: minimum distance between cluster centers")
    sp.add_argument("--dim", type=_positive_int, default=2,
                    help="coordinate dimension")
    sp.add_argument("--seed", type=_nonnegative_int, default=0,
                    help="generator seed")
    sp.add_argument("--p", type=_positive_int,
                    help="declared center count (default: clusters for ball, 1 "
                         "for uniform)")
    sp.add_argument("-o", "--output", metavar="PATH",
                    help="write the instance here instead of stdout")

    sp = sub.add_parser("experiment", help="batch harness over instance files")
    common(sp, multi_instance=True)
    sp.add_argument("--pmed", action="append", default=[], metavar="PATH",
                    help="benchmark edge-list file (repeatable), completed by "
                         "all-pairs shortest paths")
    sp.add_argument("--weights", type=_weight_spec, action="append",
                    default=[], metavar="SPEC",
                    help=f"weight family spec, repeatable: {WEIGHT_GRAMMAR} "
                         "(default: median)")
    sp.add_argument("--p", type=_positive_int, action="append", default=[],
                    help="center count, repeatable (default: 2)")
    sp.add_argument("--include-times", action="store_true",
                    help="fill the wall-clock time columns (breaks "
                         "byte-identity of reruns)")
    return parser


def _json_lines(records) -> str:
    return "".join(json.dumps(rec) + "\n" for rec in records)


def _emit(text: str, ns: argparse.Namespace) -> None:
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {ns.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _emit_pairs(pairs, ns: argparse.Namespace) -> None:
    if ns.json_lines:
        _emit(_json_lines([dict(pairs)]), ns)
    else:
        _emit("".join(f"{key} {format_cell(val)}\n" for key, val in pairs), ns)


def _read(path, subsample, *, pmed=False):
    """(dist, points, file p, file weights) of an instance file, or of a
    benchmark edge list when pmed, cut to its first `subsample` points."""
    if pmed:
        dist, points, p, weights = floyd_warshall(parse_pmed(path)), None, None, None
    else:
        dist, points, p, weights = read_instance(path)
    if subsample is not None:
        dist = prefix_subsample(dist, subsample)
        points = None if points is None else PointSet(points.coords[:subsample])
    return dist, points, p, weights


def _load_instance(ns: argparse.Namespace) -> Instance:
    dist, points, file_p, file_weights = _read(ns.instance, ns.subsample)
    if ns.weights is not None:
        weights = resolve_weights(ns.weights, dist.m)
    elif file_weights is None:
        weights = resolve_weights("median", dist.m)
    elif file_weights.m != dist.m:
        raise ParameterError(
            f"{ns.instance} stores {file_weights.m} weights but --subsample "
            f"keeps {dist.m} points; pass --weights to choose weights for "
            "the prefix")
    else:
        weights = file_weights
    p = file_p if ns.p is None else ns.p
    return Instance(dist, weights, p, points)


def _cmd_solve(ns: argparse.Namespace) -> int:
    inst = _load_instance(ns)
    sol = solve_enumeration(inst)
    _emit_pairs([("v_ip", sol.value),
                 ("centers", list(sol.centers)),
                 ("assignment", list(sol.assignment))], ns)
    return 0


def _cmd_relax(ns: argparse.Namespace) -> int:
    inst = _load_instance(ns)
    build = build_bep if ns.formulation == "bep" else build_ot
    report = recovery_status(inst, model=build(inst))
    _emit_pairs([("v_ip", report.v_ip), ("v_lp", report.v_lp),
                 ("gap_lp", report.gap_lp), ("recovered", report.recovered),
                 ("vertex_integral", report.vertex_integral)], ns)
    print(f"relaxation {'matches' if report.recovered else 'is below'} "
          f"the exact optimum on {ns.instance}", file=sys.stderr)
    return 0


def _cmd_certify(ns: argparse.Namespace) -> int:
    inst = _load_instance(ns)
    sol = solve_enumeration(inst)
    cert, verdict = search_certificate(inst, sol, strict=ns.strict)
    pairs = [("v_ip", sol.value), ("centers", list(sol.centers)),
             ("found", cert is not None)]
    if cert is not None:
        pairs += [("omega", cert.omega), ("alpha", list(cert.alpha)),
                  ("holds", verdict.holds), ("strict", verdict.strict)]
    else:
        print(f"no {'strict ' if ns.strict else ''}certificate exists for "
              "this solution", file=sys.stderr)
    _emit_pairs(pairs, ns)
    return 0


def _cmd_clusterability(ns: argparse.Namespace) -> int:
    if not ns.instance:
        raise OrdmedError("clusterability needs at least one --instance")
    profiles = profile_instances(
        [_read(path, ns.subsample)[0] for path in ns.instance],
        bootstrap=ns.bootstrap, seed=ns.seed)
    rows = [(path, *profile) for path, profile in zip(ns.instance, profiles)]
    for path, dip, *_ in rows:
        if dip is None:
            raise OrdmedError(f"{path}: cannot profile this instance; the "
                              "dip statistic needs at least 2 values")
    if ns.json_lines:
        _emit(_json_lines(dict(zip(_CLUSTERABILITY_HEADER, row))
                          for row in rows), ns)
    else:
        _emit(format_csv(_CLUSTERABILITY_HEADER, rows), ns)
    return 0


def _cmd_generate(ns: argparse.Namespace) -> int:
    if ns.p is not None and ns.p > ns.m:
        raise ParameterError(f"--p {ns.p} exceeds --m {ns.m}; an instance "
                             "opens at most m centers")
    if ns.generator == "ball":
        points, _ = generate_ball(ns.m, ns.clusters, ns.radius,
                                  ns.separation, dim=ns.dim, seed=ns.seed)
        p = ns.clusters if ns.p is None else ns.p
    else:
        points, _ = generate_uniform(ns.m, dim=ns.dim, seed=ns.seed)
        p = 1 if ns.p is None else ns.p
    buf = io.StringIO()
    write_instance(buf, points=points, p=p)
    _emit(buf.getvalue(), ns)
    return 0


def _cmd_experiment(ns: argparse.Namespace) -> int:
    if not ns.instance and not ns.pmed:
        raise OrdmedError("experiment needs --instance or --pmed inputs")
    loaded = [(os.path.basename(path), *_read(path, ns.subsample)[:2])
              for path in ns.instance]
    suffix = "" if ns.subsample is None else f"@{ns.subsample}"
    loaded += [(os.path.basename(path) + suffix,
                _read(path, ns.subsample, pmed=True)[0], None)
               for path in ns.pmed]
    rows = run_experiment(loaded, ns.weights or ["median"], ns.p or [2],
                          seed=ns.seed, bootstrap=ns.bootstrap)
    if ns.json_lines:
        _emit(_json_lines(row_values(row, include_times=ns.include_times)
                          for row in rows), ns)
    else:
        _emit(rows_to_csv(rows, include_times=ns.include_times), ns)
    failures = sum(1 for row in rows if row.error)
    print(f"{len(rows)} rows, {failures} failed", file=sys.stderr)
    return 0


_HANDLERS = {
    "solve": _cmd_solve,
    "relax": _cmd_relax,
    "certify": _cmd_certify,
    "clusterability": _cmd_clusterability,
    "generate": _cmd_generate,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 2
    try:
        return _HANDLERS[ns.subcommand](ns)
    except (OrdmedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
