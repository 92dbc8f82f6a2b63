"""The three workloads: a seeded corpus, the timed op, and the op's oracle check.

Every op calls the package through module attributes (`lib.exact.
recovery_status`, ...), so the tracer's patches at those names see the call.
Inputs come only from the workload seed, except the points-on-lines cells of
`certify`, which follow a fixed recipe (rng(3)) that exposes a known
predictor defect.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import oracles

# (module, attribute, span name, capture). The attribute is the name under
# which the calling module looks the function up, so a patch there sees that
# caller's calls and no other. Captured calls feed the oracle and the counts.
SITES = [
    ("ordmed.bench_io", "generate_ball", "bench_io.generate", False),
    ("ordmed.bench_io", "generate_uniform", "bench_io.generate", False),
    ("ordmed.formulations", "build_bep", "formulations.build", False),
    ("ordmed.formulations", "build_ot", "formulations.build", False),
    ("ordmed.exact", "build_bep", "formulations.build", False),
    ("ordmed.exact", "recovery_status", "exact.recovery_status", False),
    ("ordmed.exact", "solve_enumeration", "exact.solve_enumeration", True),
    ("ordmed.exact", "solve_lp", "lp_core.solve_lp", True),
    ("ordmed.exact", "closest_allocation", "ordered_median.closest_allocation", False),
    ("ordmed.certificates", "search_certificate", "certificates.search_certificate", False),
    ("ordmed.certificates", "solve_lp", "lp_core.solve_lp", True),
    ("ordmed.certificates", "predict_non_recovery", "certificates.predict_non_recovery", False),
    ("ordmed.certificates", "is_free_of_equidistance", "instance.is_free_of_equidistance", False),
    ("ordmed.clusterability", "mds_1d", "clusterability.mds_1d", False),
    ("ordmed.clusterability", "dip_statistic", "clusterability.dip_statistic", False),
    ("ordmed.clusterability", "dip_pvalue", "clusterability.dip_pvalue", True),
    ("ordmed.bench_io", "recovery_status", "exact.recovery_status", True),
    ("ordmed.bench_io", "is_free_of_equidistance", "instance.is_free_of_equidistance", False),
    ("ordmed.bench_io", "clusterability_sample", "clusterability.sample", False),
    ("ordmed.bench_io", "dip_statistic", "clusterability.dip_statistic", True),
    ("ordmed.bench_io", "dip_pvalue", "clusterability.dip_pvalue", True),
    ("ordmed.bench_io", "classify_collection", "clusterability.classify_collection", False),
    ("ordmed.cli", "main", "cli.main", False),
    ("ordmed.cli", "read_instance", "instance.read_instance", False),
    ("ordmed.cli", "run_experiment", "bench_io.run_experiment", False),
    ("ordmed.cli", "rows_to_csv", "bench_io.rows_to_csv", False),
]

RADIUS = 0.1          # ball generator: cluster radius
SEPARATION = 1.0      # ball generator: distance between cluster centers
BOOTSTRAP = 200       # dip p-value replicates (B)


@dataclass
class Cell:
    """One op's input. key names the instance (BEP and OT share one)."""

    key: str
    stratum: str
    inst: object = None
    form: str | None = None
    extra: dict = field(default_factory=dict)


class Workload:
    """Base: corpus in the constructor (that is set-up), then ops and checks."""

    name = ""
    tail_percentile = 75
    min_ops = 40          # 10 ops beyond the 75th percentile
    cycle = 1             # ops per stratified cycle; runs end on a whole cycle
    trace_cycles = 1      # cycles per phase of the traced run

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self._pvalue_sig = inspect.signature(lib.clusterability.dip_pvalue)
        self._best: dict[str, float] = {}
        self.reset_stats()
        self.cells = self.make_cells()
        self.warm_cell = self.make_warm_cell()

    # -- corpus -----------------------------------------------------------

    def derive(self, *path: int) -> int:
        """A generator seed from the workload seed and a cell path."""
        words = [self.seed & 0xFFFFFFFF, self.seed >> 32 & 0xFFFFFFFF,
                 *(int(x) for x in path)]
        seq = np.random.SeedSequence([sum(map(ord, self.name)), *words])
        return int(seq.generate_state(1)[0])

    def generated(self, gen: str, m: int, clusters: int, seed: int):
        bench_io = self.lib.bench_io
        if gen == "ball":
            return bench_io.generate_ball(m, clusters, RADIUS, SEPARATION, seed=seed)
        return bench_io.generate_uniform(m, seed=seed)

    def instance(self, dist, spec: str, p: int, points=None):
        weights = self.lib.bench_io.resolve_weights(spec, dist.m)
        return self.lib.instance.Instance(dist, weights, p, points)

    def make_cells(self) -> list[Cell]:
        raise NotImplementedError

    def make_warm_cell(self) -> Cell:
        raise NotImplementedError

    def after_window(self) -> list[Cell]:
        """Ops run once after the timed window: checked, never timed."""
        return []

    # -- op and oracle ----------------------------------------------------

    def run(self, cell: Cell):
        raise NotImplementedError

    def check(self, cell: Cell, out, captured) -> list[str]:
        problems = []
        for span, args, kwargs, result in captured:
            if span == "lp_core.solve_lp":
                problems += self._check_lp(args[0], result)
            elif span == "exact.solve_enumeration":
                self.stats["subsets"] += math.comb(args[0].m, args[0].p)
            elif span == "clusterability.dip_statistic":
                problems += oracles.dip_problems(result.dip, len(args[0]))
            elif span == "clusterability.dip_pvalue":
                problems += self._check_pvalue(args, kwargs, result)
        return problems + self.check_output(cell, out, captured)

    def check_output(self, cell: Cell, out, captured) -> list[str]:
        raise NotImplementedError

    def reset_stats(self) -> None:
        self.stats = Counter()
        self.max_residual = 0.0
        self._null_keys: set[tuple] = set()

    def _check_lp(self, lp, sol) -> list[str]:
        problems, residual = oracles.lp_problems(lp, sol,
                                                 self.lib.lp_core.check_solution)
        self.max_residual = max(self.max_residual, residual)
        self.stats["lp_solves"] += 1
        self.stats["pivots"] += sol.iterations
        self.stats["infeasible"] += sol.status == "Infeasible"
        if lp.name in ("bep", "ot"):
            self.stats["models"] += 1
            self.stats["rows"] += lp.n_rows
            self.stats["cols"] += lp.n_vars
            self.stats["bounded_cols"] += sum(math.isfinite(u) for u in lp.upper)
        return problems

    def _check_pvalue(self, args, kwargs, pval) -> list[str]:
        bound = self._pvalue_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        b = bound.arguments["bootstrap"]
        key = (len(bound.arguments["sample"]), bound.arguments["seed"], b)
        self.stats["pvalues"] += 1
        self.stats["null_reused"] += key in self._null_keys
        self._null_keys.add(key)
        return oracles.pvalue_problems(pval, b)

    def exact_problems(self, key: str, inst, sol, v_ip: float) -> list[str]:
        """v_ip is the value of sol, sol is a closest allocation, v_ip is optimal."""
        d, lam = inst.dist.d, inst.weights.lam
        problems = oracles.allocation_problems(d, lam, inst.p, sol)
        if float(sol.value) != v_ip:
            problems.append(f"v_ip {v_ip!r} != solution value {sol.value!r}")
        if key not in self._best:
            self._best[key] = oracles.best_value(d, lam, inst.p)
        if not oracles.close(self._best[key], v_ip, oracles.VALUE_RTOL):
            problems.append(f"v_ip {v_ip!r} != independent enumeration "
                            f"{self._best[key]!r}")
        return problems

    def report_problems(self, key: str, inst, report) -> list[str]:
        return (self.exact_problems(key, inst, report.best_solution, report.v_ip)
                + oracles.bound_problems(report.v_lp, report.v_ip))

    def dists(self, cells: list[Cell]) -> dict:
        """Distance matrix of each distinct instance the cells ran on."""
        return {c.key: c.inst.dist for c in cells if c.inst is not None}

    def properties(self, cells: list[Cell]) -> dict:
        """Input properties of the cells the ops ran on (see README)."""
        dists = self.dists(cells)
        foe = self.lib.instance.is_free_of_equidistance
        ties = sum(not foe(dist) for dist in dists.values())
        models = self.stats["models"]
        pvalues = self.stats["pvalues"]
        return {
            "subsets_per_op": self.stats["subsets"] / max(1, len(cells)),
            "rows_per_model": self.stats["rows"] / models if models else 0,
            "cols_per_model": self.stats["cols"] / models if models else 0,
            "bounded_cols_per_model": self.stats["bounded_cols"] / models if models else 0,
            "tied_instance_frac": ties / len(dists) if dists else 0.0,
            "null_reuse_frac": self.stats["null_reused"] / pvalues if pvalues else 0.0,
        }


class Relax(Workload):
    """One recovery_status call on a prebuilt BEP or OT model."""

    name = "relax"
    SIZES = (8, 9, 10)
    GENERATORS = ("ball", "uniform")
    FAMILIES = ("center", "median", "ksum:auto", "centdian:0.5")
    FORMS = ("bep", "ot")
    P = 3
    PMED_M = 14           # one pmed1 prefix op closes every cycle
    CYCLES = 8

    def make_cells(self):
        bench_io = self.lib.bench_io
        pmed = bench_io.prefix_subsample(
            bench_io.floyd_warshall(bench_io.parse_pmed(bench_io.data_path("pmed1.txt"))),
            self.PMED_M)
        pmed_insts = {f: self.instance(pmed, f, self.P) for f in self.FAMILIES}
        # OT and BEP alternate, OT first: an OT model on the pmed prefix is
        # the largest of the run and sets peak RSS, so every run meets one
        # in its first cycle, however many cycles it completes
        pmed_ops = [(f, form) for f in self.FAMILIES for form in self.FORMS[::-1]]
        kinds = [(f, g, m) for f in self.FAMILIES for g in self.GENERATORS
                 for m in self.SIZES]
        cells = []
        for c in range(self.CYCLES):
            for k, (family, gen, m) in enumerate(kinds):
                i = c * len(kinds) + k
                points, dist = self.generated(gen, m, self.P, self.derive(i))
                inst = self.instance(dist, family, self.P, points)
                cells += [Cell(f"{gen}{m}-{i}", f"{form}/{family}/{gen}{m}", inst, form)
                          for form in self.FORMS]
            family, form = pmed_ops[c % len(pmed_ops)]
            cells.append(Cell(f"pmed{self.PMED_M}-{family}",
                              f"{form}/{family}/pmed{self.PMED_M}", pmed_insts[family], form))
        self.cycle = len(kinds) * len(self.FORMS) + 1
        self._bep_values = {}
        return cells

    def make_warm_cell(self):
        points, dist = self.generated("ball", self.SIZES[-1], self.P, self.derive(1 << 20))
        return Cell("warm", "warm", self.instance(dist, "center", self.P, points), "bep")

    def run(self, cell):
        f = self.lib.formulations
        model = f.build_bep(cell.inst) if cell.form == "bep" else f.build_ot(cell.inst)
        return self.lib.exact.recovery_status(cell.inst, model=model)

    def check_output(self, cell, report, captured):
        sols = [r for s, _, _, r in captured if s == "lp_core.solve_lp"]
        problems = self.report_problems(cell.key, cell.inst, report)
        if len(sols) != 1 or sols[0].value != report.v_lp:
            problems.append("v_lp is not the value of the one LP solved")
        if cell.form == "bep":
            self._bep_values[cell.key] = report.v_lp
        elif cell.key in self._bep_values:
            problems += oracles.formulation_problems(self._bep_values[cell.key], report.v_lp)
        self.stats["vertex_integral"] += report.vertex_integral
        return problems


class Certify(Workload):
    """Enumeration, certificate search and structural prediction on one cell."""

    name = "certify"
    trace_cycles = 2
    # (generator, m) pairs; two center cells per median cell keep the median
    # and the 75th percentile inside one family's band of op times
    SHAPES = (("ball", 24), ("uniform", 24))
    FAMILIES = ("center", "median", "center")
    P = 4
    CYCLES = 12
    LINES = 60            # points-on-lines recipe: lines drawn from rng(3)

    def make_cells(self):
        kinds = [(f, g, m) for g, m in self.SHAPES for f in self.FAMILIES]
        self.cycle = len(kinds)
        cells = []
        for i in range(self.CYCLES * len(kinds)):
            family, gen, m = kinds[i % len(kinds)]
            points, dist = self.generated(gen, m, self.P, self.derive(i))
            cells.append(Cell(f"{gen}{m}-{i}", f"{family}/{gen}{m}",
                              self.instance(dist, family, self.P, points)))
        self.line_cells = self._line_cells()
        return cells

    def _line_cells(self):
        """Points on random float lines: rng(3), m in 5..8, ksum:2, p in {1, 2}."""
        rng = np.random.default_rng(3)
        point_set = self.lib.instance.PointSet
        cells = []
        for trial in range(self.LINES):
            m = int(rng.integers(5, 9))
            base = rng.uniform(size=2)
            angle = rng.uniform(0.0, np.pi)
            t = rng.uniform(-1.0, 1.0, size=m)
            points = point_set(base + t[:, None] * np.array([np.cos(angle), np.sin(angle)]))
            for p in (1, 2):
                cells.append(Cell(f"line{trial}-p{p}", f"line/p{p}",
                                  self.instance(points.distance_matrix(), "ksum:2", p, points),
                                  extra={"recovery": True}))
        return cells

    def make_warm_cell(self):
        gen, m = self.SHAPES[0]
        points, dist = self.generated(gen, m, self.P, self.derive(1 << 20))
        return Cell("warm", "warm", self.instance(dist, "center", self.P, points))

    def after_window(self):
        return self.line_cells

    def run(self, cell):
        exact, certificates = self.lib.exact, self.lib.certificates
        sol = exact.solve_enumeration(cell.inst)
        cert, verdict = certificates.search_certificate(cell.inst, sol)
        prediction = certificates.predict_non_recovery(cell.inst)
        report = exact.recovery_status(cell.inst) if cell.extra.get("recovery") else None
        return sol, cert, verdict, prediction, report

    def check_output(self, cell, out, captured):
        sol, cert, verdict, prediction, report = out
        inst = cell.inst
        problems = self.exact_problems(cell.key, inst, sol, float(sol.value))
        self.stats["searches"] += 1
        if cert is not None:
            self.stats["found"] += 1
            self.stats["holds"] += verdict.holds
            problems += oracles.certificate_problems(inst.dist.d, inst.weights.lam,
                                                     sol, cert)
        if report is not None:
            problems += self.report_problems(cell.key, inst, report)
            if prediction.kind == self.lib.certificates.NEVER_RECOVERS and report.recovered:
                # the known predictor defect: counted, never gated
                self.stats["contradictions"] += 1
        return problems


class Experiment(Workload):
    """`ordmed experiment` in-process over a batch of two instance files."""

    name = "experiment"
    trace_cycles = 8
    M = 10
    P = 3
    CLUSTERS = 3
    FAMILIES = ("median", "center")
    BATCHES = 100

    def make_cells(self):
        return [self._batch(i, f"b{i}") for i in range(self.BATCHES)]

    def make_warm_cell(self):
        return self._batch(1 << 20, "warm")

    def _batch(self, i: int, key: str) -> Cell:
        argv, written = ["experiment"], []
        for j, gen in enumerate(("ball", "uniform")):
            points, _ = self.generated(gen, self.M, self.CLUSTERS, self.derive(i, j))
            path = os.path.join(self.workdir, f"{key}-{gen}.txt")
            self.lib.instance.write_instance(path, points=points, p=self.P)
            argv += ["--instance", path]
            written.append(points)
        for family in self.FAMILIES:
            argv += ["--weights", family]
        # distinct --seed per batch: p-value seeds are seed + idx, never reused
        seed = (self.seed % 100_000) * 10_000 + 2 * (i % 5_000)
        argv += ["--p", str(self.P), "--bootstrap", str(BOOTSTRAP), "--seed", str(seed),
                 "-o", os.path.join(self.workdir, "experiment.csv")]
        return Cell(key, "/".join(self.FAMILIES), extra={"argv": argv, "points": written})

    def run(self, cell):
        with contextlib.redirect_stderr(io.StringIO()):
            return self.lib.cli.main(cell.extra["argv"])

    def check_output(self, cell, code, captured):
        if code != 0:
            return [f"exit code {code}"]
        with open(cell.extra["argv"][-1], encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        reports = [(a[0], r) for s, a, _, r in captured if s == "exact.recovery_status"]
        dips = [r.dip for s, _, _, r in captured if s == "clusterability.dip_statistic"]
        n_files, n_families = len(cell.extra["points"]), len(self.FAMILIES)
        if len(rows) != n_files * n_families or len(reports) != len(rows):
            return [f"{len(rows)} rows and {len(reports)} solves for "
                    f"{n_files} files x {n_families} families"]
        problems = []
        for k, (row, (inst, report)) in enumerate(zip(rows, reports)):
            key = f"{cell.key}-{k}"
            problems += self.report_problems(key, inst, report)
            if row["error"]:
                problems.append(f"row error: {row['error']}")
            if (row["v_ip"], row["v_lp"]) != ("%.9g" % report.v_ip, "%.9g" % report.v_lp):
                problems.append("CSV values differ from the solved values")
            if row["dip"] != "%.9g" % dips[k // n_families]:
                problems.append("CSV dip differs from the computed dip")
            if not np.allclose(inst.points.coords, cell.extra["points"][k // n_families].coords,
                               rtol=0.0, atol=1e-15):
                problems.append("instance read back differs from the one written")
        cell.extra["dists"] = [inst.dist for inst, _ in reports[::n_families]]
        return problems

    def dists(self, cells):
        return {f"{c.key}-{j}": dist for c in cells
                for j, dist in enumerate(c.extra.get("dists", ()))}


WORKLOADS = {w.name: w for w in (Relax, Certify, Experiment)}
