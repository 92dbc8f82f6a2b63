"""Dual contribution certificates, structural predictions, conic combination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmed.certificates
import ordmed.exact
from ordmed import (
    MEDIAN_SINGLE_RECOVERS,
    NEVER_RECOVERS,
    UNKNOWN,
    CenterSolution,
    DistanceMatrix,
    Instance,
    ParameterError,
    PointSet,
    WeightVector,
    check_single_center,
    classify_weights,
    closest_allocation,
    conic_combine,
    has_collinear_triple,
    is_free_of_equidistance,
    make_certificate,
    ordered_contribution,
    predict_non_recovery,
    recovery_status,
    resolve_weights,
    restrict_instance,
    search_certificate,
    solve_enumeration,
    solve_lp,
    sorting_permutation,
    strictness_margin,
    verify_certificate,
)
from ordmed.bench_io import (data_path, floyd_warshall, generate_ball,
                             generate_uniform, parse_pmed, prefix_subsample)
from ordmed.lp_core import INFEASIBLE, RESIDUAL_TOL, UNBOUNDED, LpSolution

from helpers import (T1_COORDS, matrix_instance, other_size_pairs, planar_instance,
                     random_instance, t1_instance)
from oracles import collinear_triple_oracle, full_certificate_lp


@pytest.fixture
def median_solution():
    inst = t1_instance("median", p=1)
    return inst, solve_enumeration(inst)


class TestOrderedContribution:
    def test_constant_budget(self, median_solution):
        inst, sol = median_solution
        sigma = sorting_permutation(sol.distances)
        alpha = np.full(5, 12.0)
        c = ordered_contribution(alpha, sigma, inst.dist, inst.weights, 2)
        assert c == pytest.approx(42.0)
        assert ordered_contribution(alpha, sigma, inst.dist, inst.weights, 4) == pytest.approx(23.0)

    def test_zero_budget(self, median_solution):
        inst, sol = median_solution
        sigma = sorting_permutation(sol.distances)
        assert ordered_contribution(np.zeros(5), sigma, inst.dist, inst.weights, 2) == 0.0

    def test_negative_parts_are_clipped(self):
        inst = t1_instance("median", p=1)
        sigma = sorting_permutation(np.array([3.0, 2.0, 0.0, 4.0, 9.0]))
        alpha = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        # Only point 0 contributes at j = 0: 1 - 0 = 1; everyone else clips.
        c = ordered_contribution(alpha, sigma, inst.dist, inst.weights, 0)
        assert c == pytest.approx(1.0)


class TestVerifyCertificate:
    def test_constant_alpha_holds(self, median_solution):
        inst, sol = median_solution
        sigma = sorting_permutation(sol.distances)
        cert = make_certificate(inst, sigma, np.full(5, 12.0), 42.0)
        verdict = verify_certificate(inst, sol, cert)
        assert verdict.holds
        assert verdict.center_equality_deviation <= 1e-9

    def test_beta_is_clipped_surplus(self, median_solution):
        inst, sol = median_solution
        sigma = sorting_permutation(sol.distances)
        cert = make_certificate(inst, sigma, np.full(5, 12.0), 42.0)
        assert cert.beta[:, 2].tolist() == [9.0, 10.0, 12.0, 8.0, 3.0]
        assert np.all(cert.beta >= 0.0)

    def test_underfunded_member_fails(self, median_solution):
        inst, sol = median_solution
        sigma = sorting_permutation(sol.distances)
        alpha = np.full(5, 12.0)
        alpha[0] = 2.0  # below the weighted distance 3 to the center
        cert = make_certificate(inst, sigma, alpha, 32.0)
        verdict = verify_certificate(inst, sol, cert)
        assert not verdict.holds
        assert verdict.member_slack == pytest.approx(-1.0)

    def test_zero_alpha_fails_member_condition(self, median_solution):
        inst, sol = median_solution
        sigma = sorting_permutation(sol.distances)
        cert = make_certificate(inst, sigma, np.zeros(5), 0.0)
        verdict = verify_certificate(inst, sol, cert)
        assert not verdict.holds
        assert verdict.member_slack == pytest.approx(-9.0)

    def test_alpha_length_checked(self, median_solution):
        inst, sol = median_solution
        sigma = sorting_permutation(sol.distances)
        with pytest.raises(ParameterError):
            make_certificate(inst, sigma, np.ones(3), 1.0)

    def test_solution_of_another_size_rejected(self):
        for inst, sol in other_size_pairs():
            sigma = sorting_permutation(inst.dist.d[0])
            cert = make_certificate(inst, sigma, np.zeros(inst.m), 0.0)
            with pytest.raises(ParameterError,
                               match=f"^a solution of 5 points for an instance of {inst.m}$"):
                verify_certificate(inst, sol, cert)


class TestSearchCertificate:
    def test_median_single_center_feasible(self, median_solution):
        inst, sol = median_solution
        cert, verdict = search_certificate(inst, sol)
        assert cert is not None
        assert verdict.holds
        recheck = verify_certificate(inst, sol, cert)
        assert recheck.holds

    def test_non_optimal_search_raises(self, monkeypatch, median_solution):
        inst, sol = median_solution
        monkeypatch.setattr(ordmed.certificates, "solve_lp",
                            lambda lp, start=None: LpSolution(UNBOUNDED, iterations=2))
        with pytest.raises(ParameterError) as info:
            search_certificate(inst, sol)
        assert str(info.value) == "certificate search ended Unbounded"

    def test_solution_of_another_size_rejected(self):
        for inst, sol in other_size_pairs():
            with pytest.raises(ParameterError,
                               match=f"^a solution of 5 points for an instance of {inst.m}$"):
                search_certificate(inst, sol)

    def test_center_single_center_infeasible(self):
        inst = t1_instance("center", p=1)
        cert, verdict = search_certificate(inst, solve_enumeration(inst))
        assert cert is None
        assert verdict is None

    def test_degenerate_full_opening(self):
        inst = t1_instance("median", p=5)
        cert, verdict = search_certificate(inst, solve_enumeration(inst))
        assert cert is not None
        assert cert.omega == pytest.approx(0.0, abs=1e-9)
        assert verdict.holds

    def test_strict_search_reports_strict(self, median_solution):
        inst, sol = median_solution
        cert, verdict = search_certificate(inst, sol, strict=True)
        assert cert is not None
        assert verdict.holds
        assert verdict.strict

    def test_margin_scales_with_distances(self):
        # in the unit of lam * d; lam_1 = 1 keeps the bits of 1e-6 * max d
        inst = t1_instance()
        assert strictness_margin(inst) == 1e-6 * 12.0
        heavy = Instance(inst.dist, WeightVector(1e3 * inst.weights.lam), 1)
        assert strictness_margin(heavy) == pytest.approx(1.2e-2)

    def test_heavy_square_has_no_strict_certificate(self):
        # every corner of the square is optimal, so no certificate is
        # strict; a margin in distance units fell under the slack tolerance
        inst = planar_instance([[0, 0], [1, 0], [0, 1], [1, 1]],
                               WeightVector(np.full(4, 1e4)), 1)
        _, verdict = search_certificate(inst, solve_enumeration(inst),
                                        strict=True)
        assert verdict is None or not verdict.strict
        report = recovery_status(inst)
        assert report.recovered
        assert not report.verdict.strict

    def test_light_weights_keep_the_strict_certificate(self):
        # strict at unit weights; a margin in distance units outgrew the
        # slacks of lam * d at x1e-6
        inst = planar_instance(np.array(T1_COORDS)[:, None],
                               WeightVector(np.full(5, 1e-6)), 1)
        cert, verdict = search_certificate(inst, solve_enumeration(inst),
                                           strict=True)
        assert cert is not None
        assert verdict.strict

    def test_coincident_points_are_never_strict(self):
        # max d = 0 makes the default margin 0, and a zero margin pins no
        # unique optimum: every center set is optimal here
        inst = Instance(DistanceMatrix(np.zeros((4, 4))),
                        resolve_weights("median", 4), 2)
        _, verdict = search_certificate(inst, solve_enumeration(inst),
                                        strict=True)
        assert verdict is None or not verdict.strict

    def test_soundness_random_suite(self):
        rng = np.random.default_rng(53)
        corpus = []
        for _ in range(6):  # single-center medians always recover
            m = int(rng.integers(5, 8))
            corpus.append(random_instance(rng, m, 1,
                                          weights=resolve_weights("median", m)))
        for _ in range(6):  # generic head-heavy weights rarely recover
            m = int(rng.integers(5, 8))
            corpus.append(random_instance(rng, m, int(rng.integers(1, 4))))
        for _ in range(3):  # degenerate full opening always recovers
            m = int(rng.integers(5, 8))
            corpus.append(random_instance(rng, m, m))
        seen_feasible = 0
        for inst in corpus:
            rep = recovery_status(inst)
            cert, verdict = search_certificate(inst, rep.best_solution)
            if cert is not None:
                assert verdict.holds
                assert rep.recovered  # soundness: certificate implies recovery
                seen_feasible += 1
            elif is_free_of_equidistance(inst.dist):
                assert not rep.recovered  # completeness on tie-free inputs
        assert seen_feasible >= 9

    def test_decomposition_into_single_center_parts(self):
        pts, dist = generate_ball(10, 2, 0.3, 12.0, seed=5)
        inst = Instance(dist, resolve_weights("median", 10), 2, points=pts)
        rep = recovery_status(inst)
        assert rep.recovered
        sol = rep.best_solution
        cert, _ = search_certificate(inst, sol)
        assert cert is not None
        for j in sol.centers:
            sub = restrict_instance(inst, sol, j)
            sub_rep = recovery_status(sub)
            assert sub_rep.recovered
            assert check_single_center(sub, sol.group(j).index(j))


def full_search(inst, sol, strict):
    """search_certificate's answer, read off the unpruned program."""
    margin = strictness_margin(inst) if strict else 0.0
    lp_sol = solve_lp(full_certificate_lp(inst, sol, margin))
    if lp_sol.status == INFEASIBLE:
        return None, None
    sigma = sorting_permutation(sol.distances)
    cert = make_certificate(inst, sigma, lp_sol.x[:inst.m], lp_sol.x[inst.m])
    return cert, verify_certificate(inst, sol, cert)


def differential_corpus():
    """(instance, solution) pairs: p = 1, ties, non-optimal and non-closest."""
    for seed in range(2):
        pts, dist = generate_uniform(9, seed=seed)
        for spec in ("median", "center", "ksum:2", "centdian:0.3"):
            for p in (1, 2, 3):
                inst = Instance(dist, resolve_weights(spec, 9), p, points=pts)
                yield inst, solve_enumeration(inst)
    tied = prefix_subsample(floyd_warshall(parse_pmed(data_path("pmed1.txt"))), 10)
    for spec in ("median", "center", "ksum:2", "centdian:0.7"):
        for p in (1, 2, 3):
            inst = Instance(tied, resolve_weights(spec, 10), p)
            yield inst, solve_enumeration(inst)
            yield inst, closest_allocation(tied, range(p, 2 * p), inst.weights)
    # point 2 served by the farther of two centers: an empty alpha box
    inst = t1_instance("median", p=2)
    yield inst, CenterSolution((0, 4), (0, 0, 4, 4, 4),
                               np.array([0.0, 1.0, 9.0, 5.0, 0.0]), 15.0)


def capture_programs(monkeypatch):
    """Record each (program, start) search_certificate solves; the solves still run."""
    programs = []

    def capture(lp, start=None):
        programs.append((lp, start))
        return solve_lp(lp, start=start)

    monkeypatch.setattr(ordmed.certificates, "solve_lp", capture)
    return programs


class TestCertificateProgram:
    def test_pruned_program_matches_the_full_program(self):
        for inst, sol in differential_corpus():
            for strict in (False, True):
                cert, verdict = search_certificate(inst, sol, strict=strict)
                ref, ref_verdict = full_search(inst, sol, strict)
                assert (cert is None) == (ref is None)
                if cert is None:
                    continue
                assert verdict.holds == ref_verdict.holds
                assert verdict.strict == ref_verdict.strict
                assert abs(cert.omega - ref.omega) <= 1e-9 * (1.0 + abs(ref.omega))

    def test_no_row_holds_a_single_variable(self, monkeypatch):
        programs = []

        def capture(lp, start=None):
            programs.append(lp)
            return solve_lp(lp, start=start)

        monkeypatch.setattr(ordmed.certificates, "solve_lp", capture)
        pts, dist = generate_ball(24, 4, 0.5, 6.0, seed=0)
        for spec in ("center", "median"):
            inst = Instance(dist, resolve_weights(spec, 24), 4, points=pts)
            search_certificate(inst, solve_enumeration(inst))
        center, median = programs
        for lp in programs:
            assert np.all(np.count_nonzero(lp.dense()[0], axis=1) > 1)
        # the unpruned program has 600 rows here, the surplus ones 480
        assert center.n_rows < 60
        assert median.n_rows < 600

    def test_start_saves_phase_one_pivots(self, monkeypatch):
        programs = capture_programs(monkeypatch)
        pts, dist = generate_ball(24, 4, 0.5, 6.0, seed=0)
        inst = Instance(dist, resolve_weights("median", 24), 4, points=pts)
        search_certificate(inst, solve_enumeration(inst))
        [(lp, start)] = programs
        cold, warm = solve_lp(lp), solve_lp(lp, start=start)
        assert cold.is_optimal() and warm.is_optimal()
        assert warm.phase1_iterations < cold.phase1_iterations

    @settings(max_examples=40, deadline=None)
    @given(gen=st.sampled_from(["ball", "uniform"]), m=st.integers(4, 10),
           p=st.integers(1, 3), seed=st.integers(0, 99),
           spec=st.sampled_from(["center", "median", "ksum:2", "centdian:0.5"]),
           optimal=st.booleans(), strict=st.booleans())
    def test_start_meets_every_surplus_cap_and_bound(self, gen, m, p, seed, spec,
                                                     optimal, strict):
        # only the center-equality rows are left for phase 1
        if gen == "ball":
            pts, dist = generate_ball(m, 2, 0.5, 4.0, seed=seed)
        else:
            pts, dist = generate_uniform(m, seed=seed)
        inst = Instance(dist, resolve_weights(spec, m), p, points=pts)
        sol = (solve_enumeration(inst) if optimal
               else closest_allocation(dist, range(m - p, m), inst.weights))
        with pytest.MonkeyPatch.context() as patch:
            programs = capture_programs(patch)
            search_certificate(inst, sol, strict=strict)
        tol = RESIDUAL_TOL * inst.unit
        for lp, start in programs:
            a, rels, b = lp.dense()
            excess = a @ start - b
            assert np.all(excess[rels == ">="] >= -tol)
            assert np.all(excess[rels == "<="] <= tol)
            assert np.all((lp.lower - tol <= start) & (start <= lp.upper + tol))


class TestUnitInvariance:
    # found, holds and strict must not move when only the unit of distance
    # does. The first five cells move under an absolute equality tolerance
    # and a margin of 1e-6 * (1 + max d); the last is a control.
    @pytest.mark.parametrize("gen, seed, scale", [
        ("ball", 0, 1e8), ("ball", 2, 1e8), ("ball", 2, 1e-4),
        ("uniform", 3, 1e-4), ("uniform", 2, 1e8), ("uniform", 1, 1e2)])
    def test_flags_do_not_depend_on_the_unit(self, gen, seed, scale):
        if gen == "ball":
            points, _ = generate_ball(12, 3, 0.5, 4.0, seed=seed)
        else:
            points, _ = generate_uniform(12, seed=seed)

        def flags(s):
            pts = PointSet(points.coords * s)
            inst = Instance(pts.distance_matrix(), resolve_weights("median", 12),
                            3, pts)
            sol = solve_enumeration(inst)
            out = []
            for strict in (False, True):
                cert, verdict = search_certificate(inst, sol, strict=strict)
                out.append((cert is not None, verdict and verdict.holds,
                            verdict and verdict.strict))
            return out

        assert flags(scale) == flags(1.0)

    @pytest.mark.parametrize("seed", [2, 3, 4, 5])
    def test_strict_flags_do_not_depend_on_the_weight_unit(self, seed):
        # seed 2 at x1e-3 found no certificate while the margin was in
        # distance units and the slacks in those of lam * d
        points, _ = generate_ball(10, 3, 0.5, 4.0, seed=seed)

        def flags(s):
            inst = planar_instance(points.coords, WeightVector(np.full(10, s)), 3)
            cert, verdict = search_certificate(inst, solve_enumeration(inst),
                                               strict=True)
            return (cert is not None, verdict and verdict.holds,
                    verdict and verdict.strict)

        assert flags(1e-3) == flags(1.0) == flags(1e4)


class TestCheckSingleCenter:
    def test_median_optimum_passes(self):
        inst = t1_instance("median", p=1)
        assert check_single_center(inst, 2)
        assert not check_single_center(inst, 0)

    def test_center_optimum_fails(self):
        inst = t1_instance("center", p=1)
        assert not check_single_center(inst, 3)

    def test_single_point_trivially_passes(self):
        inst = matrix_instance([[0.0]], WeightVector((1.0,)), 1)
        assert check_single_center(inst, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            check_single_center(t1_instance(), 9)

    # every vertex of a regular polygon ties by symmetry, at any unit; an
    # absolute tie tolerance drops vertices from ×1e4 on
    @pytest.mark.parametrize("unit", [1e-8, 1.0, 1e4, 1e8])
    @pytest.mark.filterwarnings("ignore:tied distances")
    def test_regular_polygon_vertices_all_pass(self, unit):
        rng = np.random.default_rng(61)
        for k in [3, 4, 5, 6, 7, 8] * 10:
            theta = rng.uniform(0.0, 2 * np.pi) + 2 * np.pi * np.arange(k) / k
            coords = rng.uniform(-5.0, 5.0, 2) + rng.uniform(0.5, 5.0) * np.c_[
                np.cos(theta), np.sin(theta)]
            inst = planar_instance(coords * unit, resolve_weights("median", k), 1)
            assert all(check_single_center(inst, j) for j in range(k))

    def test_tied_distances_warn(self):
        d = np.ones((3, 3)) - np.eye(3)
        inst = matrix_instance(d, resolve_weights("median", 3), 1)
        with pytest.warns(UserWarning):
            check_single_center(inst, 0)

    def test_matches_recovery_on_tie_free_instances(self):
        rng = np.random.default_rng(59)
        for _ in range(12):
            m = int(rng.integers(5, 8))
            kind = rng.choice(["median", "center", "centdian"])
            spec = "centdian:0.5" if kind == "centdian" else str(kind)
            inst = random_instance(rng, m, 1,
                                   weights=resolve_weights(spec, m))
            assert is_free_of_equidistance(inst.dist)
            rep = recovery_status(inst)
            best = rep.best_solution.centers[0]
            assert check_single_center(inst, best) == rep.recovered


class TestCollinearity:
    def test_line_points(self):
        assert has_collinear_triple([[x] for x in (0.0, 1.0, 3.0)])

    def test_triangle(self):
        assert not has_collinear_triple([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_exact_collinear_in_3d(self):
        pts = [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 0.0]]
        assert has_collinear_triple(pts)

    def test_too_few_points(self):
        assert not has_collinear_triple([[0.0, 0.0], [1.0, 1.0]])

    def test_float_lines_are_collinear(self):
        rng = np.random.default_rng(3)
        assert all(has_collinear_triple(line_points(rng)) for _ in range(60))

    def test_uniform_points_are_in_general_position(self):
        rng = np.random.default_rng(7)
        assert not any(has_collinear_triple(rng.uniform(size=(12, 2)))
                       for _ in range(200))

    def test_near_collinear_in_3d(self):
        direction = np.array([0.3, -1.7, 2.9])
        pts = [0.1 * direction, 1.3 * direction, 2.7 * direction,
               [1.0, 0.0, 0.0]]
        assert has_collinear_triple(np.array(pts) + 0.37)

    # COLLINEAR_BLOCK = 4 * block: 1 scans one anchor at a time; 75 gives
    # three anchors per chunk at m = 10 and one at m = 24; the default
    # scores m <= 26 in one chunk
    @pytest.mark.parametrize("block", [1, 75, ordmed.certificates.COLLINEAR_BLOCK // 4])
    def test_matches_per_anchor_scan(self, monkeypatch, block):
        monkeypatch.setattr(ordmed.certificates, "COLLINEAR_BLOCK", 4 * block)
        corpus = collinearity_corpus()
        verdicts = [has_collinear_triple(pts) for pts in corpus]
        rtol = ordmed.certificates.COLLINEAR_RTOL
        assert verdicts == [collinear_triple_oracle(pts, rtol) for pts in corpus]
        assert True in verdicts and False in verdicts

    def test_line_cells_never_contradict_recovery(self):
        # regression: an exact-equality scan missed float collinear triples,
        # so the 2-sum item said NeverRecovers where the relaxation recovered
        rng = np.random.default_rng(3)
        for _ in range(60):
            coords = line_points(rng)
            for p in (1, 2):
                inst = planar_instance(coords, resolve_weights("ksum:2", len(coords)), p)
                pred = predict_non_recovery(inst)
                assert not (pred.kind == NEVER_RECOVERS
                            and recovery_status(inst).recovered)


def line_points(rng):
    """Points on a random float line: m in 5..8, the certify line recipe."""
    m = int(rng.integers(5, 9))
    base = rng.uniform(size=2)
    angle = rng.uniform(0.0, np.pi)
    t = rng.uniform(-1.0, 1.0, size=m)
    return base + t[:, None] * np.array([np.cos(angle), np.sin(angle)])


def collinearity_corpus():
    """Random, line, near-line and coincident point sets in 1, 2 and 3 dimensions."""
    rng = np.random.default_rng(41)
    out = []
    for m in (3, 4, 7, 10, 24, 37, 60):
        for dim in (1, 2, 3):
            pts = rng.uniform(-1.0, 1.0, size=(m, dim))
            line = (rng.uniform(size=dim)
                    + rng.uniform(-1.0, 1.0, size=(m, 1)) * rng.normal(size=dim))
            # noise around the tolerance (1e-9 of s**2 on |u x v|) and above it
            near = [line + scale * rng.normal(size=(m, dim)) for scale in (1e-11, 1e-9, 1e-5)]
            late = pts.copy()  # only the last three points are collinear
            late[-1] = 0.5 * (late[-3] + late[-2])
            twin = pts.copy()
            twin[m // 2] = twin[m - 1]
            out += [pts, line, *near, late, twin, np.full((m, dim), 0.25)]
    return out


GENERAL_POSITION = [[0.0, 0.0], [1.0, 0.0], [0.3, 1.7], [2.1, 3.3]]


class TestPredictNonRecovery:
    def test_center_head_heavy(self):
        pred = predict_non_recovery(t1_instance("center", p=1))
        assert pred.kind == NEVER_RECOVERS
        assert pred.item == 1
        assert pred.checks["family"] == "center"
        assert pred.checks["free_of_equidistance"] is True
        assert pred.checks["collinearity"] == "present"

    def test_median_single_always_recovers(self):
        pred = predict_non_recovery(t1_instance("median", p=1))
        assert pred.kind == MEDIAN_SINGLE_RECOVERS
        assert pred.item == 3

    def test_centdian_below_threshold(self):
        inst = planar_instance([[0.0], [1.0], [3.0], [7.0]],
                               resolve_weights("centdian:0.25", 4), 1)
        pred = predict_non_recovery(inst)
        assert pred.kind == NEVER_RECOVERS
        assert pred.item == 6

    def test_centdian_above_threshold(self):
        inst = planar_instance([[0.0], [1.0], [3.0], [7.0]],
                               resolve_weights("centdian:0.5", 4), 1)
        pred = predict_non_recovery(inst)
        assert pred.kind == UNKNOWN
        assert pred.item is None

    def test_centdian_needs_distinct_distances(self):
        inst = planar_instance([[0.0], [1.0], [2.0], [3.0]],
                               resolve_weights("centdian:0.25", 4), 1)
        assert predict_non_recovery(inst).kind == UNKNOWN

    @pytest.mark.parametrize("m", [5, 6, 9, 11, 50])
    def test_centdian_at_threshold_is_the_balanced_head(self, m):
        # gamma * (m - 1) == 1 makes the tail mass equal the head, item 2's
        # case, whatever the float sum of the tail or, at m = 50, the float
        # product 1/49 * 49 < 1; no such cell recovers (solved up to m = 11)
        points, dist = generate_uniform(m, seed=0)
        for p in (1, 2):
            inst = Instance(dist, resolve_weights(f"centdian:{1 / (m - 1)!r}", m), p, points)
            pred = predict_non_recovery(inst)
            assert (pred.kind, pred.item) == (NEVER_RECOVERS, 2), pred.reason
            assert pred.checks["collinearity"] == "none"
            assert m > 11 or not recovery_status(inst).recovered

    def test_two_sum_general_position(self):
        inst = planar_instance(GENERAL_POSITION, resolve_weights("ksum:2", 4), 1)
        assert is_free_of_equidistance(inst.dist)
        pred = predict_non_recovery(inst)
        assert pred.kind == NEVER_RECOVERS
        assert pred.item == 4
        assert pred.checks["collinearity"] == "none"

    def test_two_sum_needs_coordinates(self):
        base = planar_instance(GENERAL_POSITION, resolve_weights("ksum:2", 4), 1)
        inst = matrix_instance(base.dist.d, base.weights, 1)
        pred = predict_non_recovery(inst)
        assert pred.kind == UNKNOWN
        assert pred.checks["collinearity"] == "unavailable"

    def test_two_sum_needs_distinct_distances(self):
        square = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        inst = planar_instance(square, resolve_weights("ksum:2", 4), 1)
        pred = predict_non_recovery(inst)
        assert pred.kind == UNKNOWN and pred.item is None
        assert pred.reason == "2-sum item needs pairwise-distinct distances"

    def test_two_sum_blocked_by_collinear_triple(self):
        inst = t1_instance("ksum:2", p=1)
        pred = predict_non_recovery(inst)
        assert pred.kind == UNKNOWN
        assert pred.checks["collinearity"] == "present"

    def test_generic_strict_head(self):
        inst = planar_instance(GENERAL_POSITION,
                               WeightVector((1.0, 0.3, 0.1, 0.0)), 1)
        pred = predict_non_recovery(inst)
        assert pred.kind == NEVER_RECOVERS
        assert pred.item == 1

    def test_generic_balanced_head(self):
        inst = planar_instance(GENERAL_POSITION,
                               WeightVector((1.0, 0.7, 0.3, 0.0)), 1)
        pred = predict_non_recovery(inst)
        assert pred.kind == NEVER_RECOVERS
        assert pred.item == 2

    def test_light_head_general_weights(self):
        # trailing mass 1.5 exceeds the leading weight 1: no item applies
        inst = planar_instance(GENERAL_POSITION,
                               WeightVector((1.0, 0.8, 0.5, 0.2)), 1)
        pred = predict_non_recovery(inst)
        assert pred.checks["family"] == "general"
        assert pred.kind == UNKNOWN and pred.item is None
        assert pred.reason == "no structural item applies"

    def test_balanced_head_blocked_by_collinearity(self):
        inst = planar_instance([[0.0], [1.0], [3.0], [7.0]],
                               WeightVector((1.0, 0.7, 0.3, 0.0)), 1)
        assert predict_non_recovery(inst).kind == UNKNOWN

    def test_every_point_open_is_trivial(self):
        pred = predict_non_recovery(t1_instance("center", p=5))
        assert pred.kind == UNKNOWN
        assert pred.item is None

    def test_zero_weights(self):
        inst = planar_instance(GENERAL_POSITION, WeightVector((0.0,) * 4), 1)
        assert predict_non_recovery(inst).kind == UNKNOWN

    def test_tied_distances_block_generic_item(self):
        d = np.ones((3, 3)) - np.eye(3)
        inst = matrix_instance(d, resolve_weights("center", 3), 1)
        assert predict_non_recovery(inst).kind == UNKNOWN

    def test_predictions_are_sound(self):
        # Structural "never recovers" verdicts must match the solver.
        rng = np.random.default_rng(61)
        fired = 0
        for _ in range(12):
            m = int(rng.integers(4, 7))
            spec = rng.choice(["center", "ksum:2", "centdian:0.2"])
            inst = random_instance(rng, m, int(rng.integers(1, 3)),
                                   weights=resolve_weights(str(spec), m))
            pred = predict_non_recovery(inst)
            if pred.kind == NEVER_RECOVERS:
                fired += 1
                assert not recovery_status(inst).recovered
            elif pred.kind == MEDIAN_SINGLE_RECOVERS:
                assert recovery_status(inst).recovered
        assert fired >= 4


class TestConicCombine:
    def test_center_plus_median(self):
        combined = conic_combine(WeightVector((1.0, 0.0, 0.0)),
                                 WeightVector((1.0, 1.0, 1.0)))
        assert combined.lam.tolist() == [2.0, 1.0, 1.0]
        wc = classify_weights(combined)
        assert wc.family == "centdian"
        assert wc.param == pytest.approx(0.5)
        assert wc.scale == pytest.approx(2.0)

    def test_zero_identity(self):
        lam = WeightVector((2.0, 1.0, 0.5))
        same = conic_combine(lam, WeightVector((0.0, 0.0, 0.0)))
        assert np.array_equal(same.lam, lam.lam)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            conic_combine(WeightVector((1.0, 0.0)), WeightVector((1.0, 0.0, 0.0)))

    def test_propagation_on_separated_balls(self):
        # When two families recover with the same centers, their sum does too.
        checked = 0
        for seed in range(10):
            pts, dist = generate_ball(9, 3, 0.2, 10.0, seed=seed)
            med = resolve_weights("median", 9)
            second = resolve_weights("centdian:0.9", 9)
            r1 = recovery_status(Instance(dist, med, 3, points=pts))
            r2 = recovery_status(Instance(dist, second, 3, points=pts))
            if not (r1.recovered and r2.recovered
                    and r1.best_solution.centers == r2.best_solution.centers):
                continue
            combined = Instance(dist, conic_combine(med, second), 3, points=pts)
            rc = recovery_status(combined)
            assert rc.recovered
            assert rc.best_solution.centers == r1.best_solution.centers
            checked += 1
        assert checked >= 6
