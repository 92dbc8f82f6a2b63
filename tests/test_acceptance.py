"""Thirteen-point acceptance checklist run at full scale.

One test per shipped guarantee, ordered; each prints a single PASS line
(visible under -s) so a complete run reads as a checklist. Tolerances are
stated inline next to every comparison.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ordmed import (
    Instance,
    WeightVector,
    check_single_center,
    conic_combine,
    dip_statistic,
    has_collinear_triple,
    is_free_of_equidistance,
    om_evaluate,
    predict_non_recovery,
    resolve_weights,
    search_certificate,
    solve_enumeration,
    solve_lp,
    validate_metric,
)
from ordmed.bench_io import (
    data_path,
    floyd_warshall,
    generate_ball,
    generate_uniform,
    parse_pmed,
)
from ordmed.clusterability import classify_collection, clusterability_sample
from ordmed.cli import main
from ordmed.exact import recovery_status
from ordmed.formulations import build_bep, build_ot

from oracles import (dip_lp_oracle, om_max_perm_bruteforce, om_telescoped,
                     subadditivity_gap)


def announce(num, name, detail):
    print(f"[{num:2d}/13] {name}: PASS ({detail})")


def solved(inst):
    report = recovery_status(inst)
    return SimpleNamespace(inst=inst, report=report,
                           foe=is_free_of_equidistance(inst.dist))


def foe_uniform(m, seed):
    """First free-of-equidistance uniform planar instance at or after seed."""
    while True:
        pts, dist = generate_uniform(m, seed=seed)
        if is_free_of_equidistance(dist):
            return pts, dist, seed
        seed += 1


@pytest.fixture(scope="module")
def median_corpus():
    records = []
    for i in range(100):
        m = 6 + i % 4
        pts, dist = generate_uniform(m, seed=4000 + i)
        records.append(solved(Instance(dist, resolve_weights("median", m), 1, pts)))
    for i in range(100):
        pts, dist = generate_ball(8, 2, 0.3, 4.0, seed=4200 + i)
        records.append(solved(Instance(dist, resolve_weights("median", 8), 1, pts)))
    return records


@pytest.fixture(scope="module")
def center_corpus():
    records = []
    seed = 5000
    for i in range(200):
        m = 6 + i % 4
        pts, dist, seed = foe_uniform(m, seed)
        seed += 1
        records.append(solved(
            Instance(dist, resolve_weights("center", m), 1 + i % 3, pts)))
    return records


@pytest.fixture(scope="module")
def two_sum_corpus():
    records = []
    seed = 6000
    for i in range(100):
        m = 6 + i % 4
        while True:
            pts, dist = generate_uniform(m, seed=seed)
            seed += 1
            if not has_collinear_triple(pts.coords) and \
                    is_free_of_equidistance(dist):
                break
        records.append(solved(
            Instance(dist, resolve_weights("ksum:2", m), 1 + i % 2, pts)))
    return records


@pytest.fixture(scope="module")
def centdian_corpus():
    below = []
    seed = 7000
    for gamma, sizes in ((0.25, (2, 3, 4)), (0.5, (2,)), (0.75, (2,))):
        for m in sizes:
            for _ in range(10):
                pts, dist, seed = foe_uniform(m, seed)
                seed += 1
                rec = solved(Instance(
                    dist, resolve_weights(f"centdian:{gamma}", m), 1, pts))
                rec.gamma, rec.m = gamma, m
                below.append(rec)
    scan = []
    for gamma in (0.25, 0.5, 0.75):
        for m in range(2, 9):
            pts, dist, seed = foe_uniform(m, seed)
            seed += 1
            rec = solved(Instance(
                dist, resolve_weights(f"centdian:{gamma}", m), 1, pts))
            rec.gamma, rec.m = gamma, m
            scan.append(rec)
    return below, scan


def test_01_operator_equivalence():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = int(rng.integers(1, 8))
        d = rng.uniform(0.0, 10.0, size=m)
        lam = np.sort(rng.uniform(0.0, 5.0, size=m))[::-1]
        w = WeightVector(lam)
        direct = om_evaluate(d, w)
        tele = om_telescoped(d, w)
        brute = om_max_perm_bruteforce(d, w)
        tol = 1e-12 * (1.0 + abs(direct))
        assert abs(direct - tele) <= tol
        assert abs(direct - brute) <= tol
    announce(1, "ordered median operator equivalence", "1000 triples, 1e-12 rel")


def test_02_convexity_boundary():
    rng = np.random.default_rng(13)
    # integer weights keep every float dot product exact, so == is honest
    for _ in range(100):
        m = int(rng.integers(2, 9))
        lam = rng.integers(-20, 21, size=m).astype(float)
        for s in range(1, m):
            assert subadditivity_gap(lam, s) == lam[s] - lam[s - 1]
    # quarter-grid values are also dyadic, keeping the sign test exact
    for _ in range(100):
        m = int(rng.integers(2, 9))
        lam = np.sort(rng.integers(0, 41, size=m))[::-1] / 4.0
        for s in range(1, m):
            assert subadditivity_gap(lam, s) <= 0.0
    announce(2, "convexity boundary", "100 exact + 100 non-increasing")


def test_03_formulation_agreement():
    rng = np.random.default_rng(17)
    families = ("median", "center", "ksum", "centdian")
    for i in range(100):
        m = 6 + i % 7
        pts, dist = generate_uniform(m, seed=3000 + i)
        spec = families[i % 4]
        if spec == "ksum":
            spec += f":{int(rng.integers(1, m + 1))}"
        if spec == "centdian":
            spec += f":{float(rng.uniform(0.05, 0.95))}"
        inst = Instance(dist, resolve_weights(spec, m), 1 + i % 3, pts)
        bep = solve_lp(build_bep(inst).lp)
        ot = solve_lp(build_ot(inst).lp)
        assert bep.status == "Optimal" and ot.status == "Optimal"
        assert abs(bep.value - ot.value) <= 1e-6 * (1.0 + abs(bep.value))
    announce(3, "formulation agreement", "100 instances, m 6-12, 4 families")


def test_04_median_single_center_recovery(median_corpus):
    hits = sum(rec.report.recovered for rec in median_corpus)
    assert hits == 200
    announce(4, "median single-center recovery", "200/200 recovered")


def test_05_center_never_recovers(center_corpus):
    for rec in center_corpus:
        assert not rec.report.recovered
        assert rec.report.gap_lp > 0.0
    announce(5, "center never recovers", "200/200 with positive gap")


def test_06_two_sum_never_recovers(two_sum_corpus):
    for rec in two_sum_corpus:
        assert not rec.report.recovered
    announce(6, "2-sum never recovers", "100/100 non-collinear planar")


def test_07_centdian_threshold(centdian_corpus):
    below, scan = centdian_corpus
    for rec in below:
        assert rec.gamma * (rec.m - 1) < 1.0
        assert not rec.report.recovered
    for rec in scan:
        pred = predict_non_recovery(rec.inst)
        assert (pred.item == 6) == (rec.gamma * (rec.m - 1) < 1.0), \
            (rec.gamma, rec.m, pred.item)
    announce(7, "centdian threshold", f"{len(below)} below-threshold + "
             f"{len(scan)} prediction scans")


def test_08_certificate_soundness_completeness(
        median_corpus, center_corpus, two_sum_corpus, centdian_corpus):
    below, scan = centdian_corpus
    corpus = median_corpus + center_corpus + two_sum_corpus + below + scan
    feasible_count = 0
    # every tenth cell again on OT: its duals must certify recoveries too
    reports = [rec.report for rec in corpus]
    reports += [recovery_status(rec.inst, model=build_ot(rec.inst))
                for rec in corpus[::10]]
    for report in reports:
        assert (report.verdict is not None) == report.recovered
        if report.recovered:
            assert report.verdict.holds, "relaxation duals are no certificate"
    for rec in corpus:
        cert, verdict = search_certificate(rec.inst, rec.report.best_solution)
        feasible = cert is not None
        if feasible:
            feasible_count += 1
            assert verdict.holds
            assert rec.report.recovered, "certificate on a non-recovering instance"
        if rec.report.recovered and rec.foe:
            assert feasible, "recovering free-of-equidistance instance lacks a certificate"
    assert feasible_count >= 200
    announce(8, "certificate soundness and completeness",
             f"{len(corpus)} instances, {feasible_count} certified, "
             f"{sum(r.recovered for r in reports)} read off LP duals")


def test_09_single_center_characterization():
    families = ("median", "center", "ksum:3", "centdian:0.5")
    seed = 9000
    agree = 0
    for i in range(100):
        m = 5 + i % 4
        pts, dist, seed = foe_uniform(m, seed)
        seed += 1
        inst = Instance(dist, resolve_weights(families[i % 4], m), 1, pts)
        report = recovery_status(inst)
        best_j = report.best_solution.centers[0]
        assert check_single_center(inst, best_j) == report.recovered
        agree += 1
    announce(9, "single-center characterization", f"{agree}/100 biconditional")


def test_10_conic_propagation():
    w_first = resolve_weights("median", 9)
    w_second = resolve_weights("centdian:0.9", 9)
    w_sum = conic_combine(w_first, w_second)
    qualifying = propagated = 0
    seed = 0
    while qualifying < 50 and seed < 90:
        pts, dist = generate_ball(9, 3, 0.2, 10.0, seed=seed)
        seed += 1
        first = recovery_status(Instance(dist, w_first, 3, pts))
        second = recovery_status(Instance(dist, w_second, 3, pts))
        if not (first.recovered and second.recovered):
            continue
        sol_a = first.best_solution
        sol_b = second.best_solution
        if sol_a.centers != sol_b.centers or sol_a.assignment != sol_b.assignment:
            continue
        qualifying += 1
        summed = recovery_status(Instance(dist, w_sum, 3, pts))
        if summed.recovered and \
                summed.best_solution.centers == sol_a.centers and \
                summed.best_solution.assignment == sol_a.assignment:
            propagated += 1
    assert qualifying == 50
    assert propagated == 50
    announce(10, "conic propagation", "50/50 qualifying cases propagate")


def test_11_dip_reference_agreement():
    rng = np.random.default_rng(23)
    for i in range(200):
        n = int(rng.integers(2, 13))
        x = rng.uniform(0.0, 1.0, size=n)
        if i % 3 == 0 and n >= 4:
            x[1] = x[0]  # duplicate values exercise the tie path
        got = dip_statistic(x).dip
        assert abs(got - dip_lp_oracle(x)) <= 1e-9
        assert got >= 1.0 / (2.0 * n) - 1e-15
    assert dip_statistic([0.0, 1.0]).dip == pytest.approx(0.25, abs=1e-15)
    announce(11, "dip reference agreement", "200 samples, 1e-9")


def test_12_clusterability_effect():
    instances = []
    for s in range(30, 60):
        pts, dist = generate_ball(14, 3, 1.0, 8.0, seed=s)
        instances.append(("ball", pts, dist))
    for s in range(30, 60):
        pts, dist = generate_uniform(14, seed=s)
        instances.append(("uniform", pts, dist))
    dips = [dip_statistic(clusterability_sample(dist)).dip
            for _, _, dist in instances]
    labels = classify_collection(dips, basis="dip-stat")
    assert "High" in labels and "Low" in labels
    for spec in ("center", "ksum:7", "centdian:0.5"):
        weights = resolve_weights(spec, 14)
        gaps = [recovery_status(Instance(dist, weights, 3, pts)).gap_lp
                for _, pts, dist in instances]
        assert np.mean(gaps[:30]) < np.mean(gaps[30:]), spec
        high = [g for g, lab in zip(gaps, labels) if lab == "High"]
        low = [g for g, lab in zip(gaps, labels) if lab == "Low"]
        assert np.median(high) <= np.median(low), spec
    announce(12, "clusterability effect", "30 ball vs 30 uniform, 3 families")


def test_13_benchmark_ingestion(tmp_path, capsys):
    graph = parse_pmed(data_path("pmed1.txt"))
    assert graph.n == 100
    dist = floyd_warshall(graph)
    assert validate_metric(dist).ok
    out = tmp_path / "report.csv"
    code = main(["experiment", "--pmed", str(data_path("pmed1.txt")),
                 "--subsample", "20", "--weights", "median", "--p", "3",
                 "--bootstrap", "100", "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("instance,m,p,family,param,v_ip,v_lp,gap_lp,"
                        "recovered,vertex_integral,"
                        "time_enumeration,time_lp,dip,dip_pvalue,label_dip,"
                        "label_pvalue,free_of_equidistance,error")
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "pmed1.txt@20"
    assert cells[1] == "20" and cells[2] == "3" and cells[3] == "median"
    assert float(cells[5]) >= float(cells[6]) > 0.0
    assert cells[-1] == ""
    announce(13, "benchmark ingestion", "n=100 parse, metric, m'=20 report")
