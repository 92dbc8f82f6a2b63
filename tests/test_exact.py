"""Enumeration solver and LP recovery reports against brute-force oracles."""

import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

import ordmed.certificates
import ordmed.exact
from ordmed import (
    ConvergenceError,
    Instance,
    ParameterError,
    PointSet,
    SizeGuardError,
    WeightVector,
    build_bep,
    build_ot,
    closest_allocation,
    data_path,
    embed_integral,
    floyd_warshall,
    fractionality_report,
    generate_ball,
    generate_uniform,
    om_evaluate,
    ordered_contribution,
    parse_pmed,
    prefix_subsample,
    recovery_status,
    resolve_weights,
    solve_enumeration,
    solve_lp,
)

from ordmed.lp_core import UNBOUNDED, LpSolution

from helpers import (matrix_instance, planar_instance, random_instance,
                     random_points, random_weights, stop_above_the_optimum,
                     t1_instance)
from oracles import assignment_beats_closest, domp_oracle


class TestEnumeration:
    def test_t1_median_single(self):
        sol = solve_enumeration(t1_instance("median", p=1))
        assert sol.centers == (2,)
        assert sol.value == pytest.approx(18.0)

    def test_t1_center_single(self):
        sol = solve_enumeration(t1_instance("center", p=1))
        assert sol.centers == (3,)
        assert sol.value == pytest.approx(7.0)

    def test_t1_single_center_hand_sums(self):
        # Sums of distances: 23, 20, 18, 22, 37; maxima: 12, 11, 9, 7, 12.
        inst = t1_instance("median", p=1)
        d = inst.dist.d
        assert d.sum(axis=0).tolist() == [23.0, 20.0, 18.0, 22.0, 37.0]
        assert d.max(axis=0).tolist() == [12.0, 11.0, 9.0, 7.0, 12.0]

    def test_all_points_open(self):
        sol = solve_enumeration(t1_instance("median", p=5))
        assert sol.value == 0.0
        assert sol.centers == (0, 1, 2, 3, 4)

    def test_tie_prefers_lexicographically_smallest(self):
        square = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        inst = planar_instance(square, resolve_weights("median", 4), 2)
        sol = solve_enumeration(inst)
        assert sol.value == pytest.approx(2.0)
        assert sol.centers == (0, 1)

    def test_subset_count_guard(self):
        xs = np.arange(40, dtype=float)[:, None]
        inst = planar_instance(xs, resolve_weights("median", 40), 20)
        with pytest.raises(SizeGuardError):
            solve_enumeration(inst)

    def test_matches_subset_scan_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = int(rng.integers(4, 8))
            inst = random_instance(rng, m, int(rng.integers(1, m + 1)))
            sol = solve_enumeration(inst)
            centers, value = domp_oracle(inst.dist.d, inst.weights.lam, inst.p)
            assert sol.centers == centers
            assert sol.value == pytest.approx(value, rel=1e-12, abs=1e-10)

    def test_closest_assignment_is_never_beaten(self):
        # With non-increasing nonnegative weights, reassigning a point away
        # from its nearest open center cannot reduce the objective.
        rng = np.random.default_rng(19)
        for _ in range(6):
            m = int(rng.integers(4, 7))
            inst = random_instance(rng, m, int(rng.integers(1, 3)))
            assert not assignment_beats_closest(inst.dist.d, inst.weights.lam, inst.p)


def per_subset_enumeration(inst):
    """The scan solve_enumeration replaces: one closest allocation per subset."""
    best = None
    for centers in combinations(range(inst.m), inst.p):
        sol = closest_allocation(inst.dist, centers, inst.weights)
        if best is None or sol.value < best.value:
            best = sol
    return best


def enumeration_corpus():
    """Tie-heavy inputs (integer grids, the pmed1 prefix, center and k-sum
    weights) next to random ball and uniform instances."""
    rng = np.random.default_rng(29)
    pmed = floyd_warshall(parse_pmed(data_path("pmed1.txt")))
    families = ("center", "ksum:2", "median", "centdian:0.5", "ksum:auto")
    out = []
    for t in range(40):
        m = int(rng.integers(5, 13))
        p = int(rng.integers(1, 4))
        seed = int(rng.integers(1_000_000))
        kind = t % 4
        if kind == 0:
            dist = PointSet(rng.integers(0, 4, size=(m, 2)).astype(float)).distance_matrix()
        elif kind == 1:
            dist = prefix_subsample(pmed, m)
        elif kind == 2:
            dist = generate_ball(m, 2, 0.1, 1.0, seed=seed)[1]
        else:
            dist = generate_uniform(m, seed=seed)[1]
        out.append(Instance(dist, resolve_weights(families[t % 5], m), p))
    return out


def deep_corpus():
    """The depths prefix extension adds beyond enumeration_corpus: p = 4 and
    5, p = m - 1 and p = m, asymmetric costs at p = 4, and ball and uniform
    cells at the certify size m = 24, p = 4."""
    rng = np.random.default_rng(37)
    families = ("center", "median", "ksum:2", "centdian:0.5")
    out = []
    for t, (m, p) in enumerate([(9, 4), (10, 5), (11, 4), (12, 5), (6, 5), (7, 6),
                                (8, 7), (5, 5), (7, 7)]):
        dist = (PointSet(rng.integers(0, 4, size=(m, 2)).astype(float)).distance_matrix()
                if t % 2 else generate_ball(m, 2, 0.1, 1.0, seed=t)[1])
        out.append(Instance(dist, resolve_weights(families[t % 4], m), p))
    for _ in range(4):
        m = int(rng.integers(6, 11))
        d = rng.uniform(1.0, 5.0, size=(m, m))
        np.fill_diagonal(d, 0.0)
        out.append(matrix_instance(d, random_weights(rng, m), 4))
    out.append(Instance(generate_ball(24, 2, 0.1, 1.0, seed=5)[1],
                        resolve_weights("center", 24), 4))
    out.append(Instance(generate_uniform(24, seed=6)[1], resolve_weights("median", 24), 4))
    return out


# Integer-grid instances where a BLAS matrix-vector product over a block
# (OpenBLAS, x86-64) ranked two subsets differently from scoring each subset
# alone, so a block score that depends on its block returns the wrong
# center set.
ROUNDING_SENSITIVE = [
    ([[3, 3], [0, 0], [0, 2], [3, 3], [2, 3], [3, 0], [0, 3], [0, 3]], 2, "centdian:0.7"),
    ([[3, 0], [1, 0], [3, 3], [0, 3], [2, 2], [1, 0], [3, 2], [2, 0]], 2, "centdian:0.3"),
    ([[2, 1], [3, 1], [1, 3], [2, 1], [0, 0], [0, 0], [0, 3], [1, 2]], 1, "median"),
    ([[3, 0], [3, 2], [3, 3], [1, 2], [2, 0], [0, 0], [2, 2], [3, 2], [2, 3]], 2,
     "centdian:0.3"),
]


def same_solution(a, b):
    return (a.centers == b.centers and a.assignment == b.assignment
            and a.value == b.value and np.array_equal(a.distances, b.distances))


class TestBlockedEnumeration:
    # 7 is prime and far below C(m, p), so value ties straddle block edges
    @pytest.mark.parametrize("block", [7, ordmed.exact.ENUMERATION_BLOCK])
    def test_identical_to_per_subset_scan(self, monkeypatch, block):
        monkeypatch.setattr(ordmed.exact, "ENUMERATION_BLOCK", block)
        for inst in enumeration_corpus():
            assert same_solution(solve_enumeration(inst),
                                 per_subset_enumeration(inst))

    def test_deep_prefixes_identical_to_per_subset_scan(self, monkeypatch):
        # at 1 and 7 a single prefix has more extensions than the block
        blocks = (1, 7, ordmed.exact.ENUMERATION_BLOCK)
        for inst in deep_corpus():
            expected = per_subset_enumeration(inst)
            for block in blocks:
                monkeypatch.setattr(ordmed.exact, "ENUMERATION_BLOCK", block)
                assert same_solution(solve_enumeration(inst), expected)

    @pytest.mark.parametrize("block", [1, 7, 100, ordmed.exact.ENUMERATION_BLOCK])
    @pytest.mark.parametrize("m, p", [(5, 1), (9, 1), (7, 3), (9, 9), (12, 4), (24, 4)])
    def test_blocks_are_bounded_and_cover_every_subset(self, monkeypatch, block, m, p):
        rows = []

        def scoring(d, weights):
            rows.append(len(d))
            return om_evaluate(d, weights)

        monkeypatch.setattr(ordmed.exact, "ENUMERATION_BLOCK", block)
        monkeypatch.setattr(ordmed.exact, "om_evaluate", scoring)
        solve_enumeration(Instance(generate_uniform(m, seed=m)[1],
                                   resolve_weights("median", m), p))
        assert max(rows) <= max(block, m)
        assert sum(rows) == math.comb(m, p)

    @pytest.mark.parametrize("coords, p, spec", ROUNDING_SENSITIVE)
    def test_rounding_sensitive_grids(self, coords, p, spec):
        dist = PointSet(np.array(coords, dtype=float)).distance_matrix()
        inst = Instance(dist, resolve_weights(spec, len(coords)), p)
        assert same_solution(solve_enumeration(inst), per_subset_enumeration(inst))

    def test_asymmetric_costs(self):
        # d[i, j] is the cost of serving point i from center j
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = int(rng.integers(4, 9))
            d = rng.uniform(1.0, 5.0, size=(m, m))
            np.fill_diagonal(d, 0.0)
            inst = matrix_instance(d, random_weights(rng, m), int(rng.integers(1, 4)))
            assert same_solution(solve_enumeration(inst), per_subset_enumeration(inst))

    def test_gap_below_the_near_tie_tolerance(self):
        # center 1 beats center 0 by 2e-12 (relative 1e-12), a gap no
        # scoring tolerance may swallow
        d = [[0.0, 0.5, 2.5], [0.5 + 2e-12, 0.0, 2.5], [0.5, 0.5, 0.0]]
        inst = matrix_instance(d, resolve_weights("median", 3), 1)
        assert solve_enumeration(inst).centers == (1,)

    def test_tie_in_a_later_block_keeps_the_first_set(self, monkeypatch):
        # every pair of corners of the unit square ties at value 2 under
        # median weights; with one subset per block each tie has its own block
        monkeypatch.setattr(ordmed.exact, "ENUMERATION_BLOCK", 1)
        square = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        inst = planar_instance(square, resolve_weights("median", 4), 2)
        assert solve_enumeration(inst).centers == (0, 1)

    def test_exact_tie_keeps_the_lexicographically_smaller_set(self):
        # centers (1, 5) and (1, 6) both cost 100 + 0.1 * 239 = 123.9; a dot
        # product over the descending sort rounds (1, 5) one ulp higher and
        # so returns (1, 6)
        pmed = floyd_warshall(parse_pmed(data_path("pmed1.txt")))
        inst = Instance(prefix_subsample(pmed, 8),
                        resolve_weights("centdian:0.1", 8), 2)
        tied = [closest_allocation(inst.dist, c, inst.weights).value
                for c in ((1, 5), (1, 6))]
        assert tied[0] == tied[1]
        assert solve_enumeration(inst).centers == (1, 5)

    @pytest.mark.parametrize("m, p, block", [(8, 2, 7), (7, 3, 35), (6, 3, 5)])
    def test_subset_count_a_multiple_of_the_block(self, monkeypatch, m, p, block):
        assert math.comb(m, p) % block == 0
        monkeypatch.setattr(ordmed.exact, "ENUMERATION_BLOCK", block)
        grid = PointSet(np.array([[i % 3, i // 3] for i in range(m)], dtype=float))
        for kind in ("center", "median"):
            inst = Instance(grid.distance_matrix(), resolve_weights(kind, m), p)
            assert same_solution(solve_enumeration(inst),
                                 per_subset_enumeration(inst))


class TestRecoveryStatus:
    def test_t1_median_recovers(self):
        rep = recovery_status(t1_instance("median", p=1))
        assert rep.recovered
        assert rep.vertex_integral
        assert rep.v_ip == pytest.approx(18.0)
        assert rep.v_lp == pytest.approx(18.0, abs=1e-7)
        assert rep.gap_lp == pytest.approx(0.0, abs=1e-7)

    def test_t1_center_gap(self):
        rep = recovery_status(t1_instance("center", p=1))
        assert not rep.recovered
        assert rep.v_ip == pytest.approx(7.0)
        assert rep.v_lp < 7.0 - 1e-6
        assert rep.gap_lp > 0.0

    def test_degenerate_full_opening(self):
        rep = recovery_status(t1_instance("median", p=5))
        assert rep.recovered
        assert rep.v_ip == pytest.approx(0.0)
        assert rep.gap_lp == 0.0

    def test_report_fields_are_consistent(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            inst = random_instance(rng, 6, int(rng.integers(1, 4)))
            rep = recovery_status(inst)
            assert rep.v_lp <= rep.v_ip + 1e-6
            assert rep.best_solution.value == pytest.approx(rep.v_ip)
            if rep.vertex_integral:
                assert rep.recovered
            assert rep.time_enumeration >= 0.0
            assert rep.time_lp >= 0.0
            expected_gap = (rep.v_ip - rep.v_lp) / rep.v_ip if rep.v_ip else 0.0
            assert rep.gap_lp == pytest.approx(max(0.0, expected_gap), abs=1e-12)

    def test_recovered_cells_report_zero_gap(self):
        # a recovered cell's v_ip - v_lp is round-off; it must not print as a gap
        recovered = 0
        for seed in range(6):
            for pts, dist in (generate_ball(8, 3, 0.5, 4.0, seed=seed),
                              generate_uniform(8, seed=seed)):
                for spec in ("median", "centdian:0.5"):
                    rep = recovery_status(
                        Instance(dist, resolve_weights(spec, 8), 3, pts))
                    if rep.recovered:
                        recovered += 1
                        assert rep.gap_lp == 0.0
        assert recovered > 0

    def test_one_solve_per_call(self, monkeypatch):
        # the certificate is read off the relaxation's duals, not re-solved
        calls = []
        for module in (ordmed.exact, ordmed.certificates):
            solve = module.solve_lp
            monkeypatch.setattr(module, "solve_lp",
                                lambda lp, start=None, solve=solve:
                                calls.append(lp) or solve(lp, start=start))
        for spec, p in (("median", 1), ("median", 2), ("center", 1)):
            inst = t1_instance(spec, p=p)
            for model in (None, build_ot(inst)):
                calls.clear()
                rep = recovery_status(inst, model=model)
                assert len(calls) == 1
                assert (rep.certificate is None) == (rep.verdict is None) \
                    == (not rep.recovered)

    def test_multi_center_recoveries_carry_holding_certificates(self):
        # with p >= 2 open centers a bound y <= 1 would break center equality
        instances = [Instance(dist, resolve_weights(spec, 8), p, pts)
                     for seed in range(4)
                     for pts, dist in (generate_ball(8, 3, 0.5, 4.0, seed=seed),
                                       generate_uniform(8, seed=seed))
                     for spec in ("median", "centdian:0.5", "ksum:auto")
                     for p in (2, 3)]
        held = 0
        for inst in instances:
            for model in (build_bep(inst), build_ot(inst)):
                rep = recovery_status(inst, model=model)
                assert (rep.verdict is not None) == rep.recovered
                if not rep.recovered:
                    continue
                assert rep.verdict.holds
                held += 1
                # omega is the level every center's contributions reach
                cert = rep.certificate
                for j in rep.best_solution.centers:
                    level = ordered_contribution(cert.alpha, cert.sigma, inst.dist,
                                                 inst.weights, j)
                    assert level == pytest.approx(cert.omega, abs=1e-9)
        assert held >= 30  # 36 of the 96 reports recover

    def test_coincident_points_read_an_excess_y_as_integral(self):
        # Points 0 and 3 coincide, as do 1 and 5. The BEP vertex opens y_0
        # twice; y is not clipped, and moving the excess to a closed point
        # gives a binary LP vector of the same value that keeps y <= 1.
        coords = [[0, 0], [1, 1], [1, 0], [0, 0], [0, 2], [1, 1]]
        inst = planar_instance(coords, resolve_weights("median", 6), 5)
        model = build_bep(inst)
        sol = solve_lp(model.lp)
        y = sol.x[model.y]
        assert y.tolist() == [2.0, 1.0, 1.0, 0.0, 1.0, 0.0]
        rep = recovery_status(inst)
        assert rep.recovered and rep.vertex_integral and rep.verdict.holds
        moved = sol.x.copy()
        moved[model.y] = [1.0, 1.0, 1.0, 1.0, 1.0, 0.0]
        a, rels, b = model.lp.dense()
        slack = a @ moved - b
        rels = np.array(rels)
        assert np.all(slack[rels == "<="] <= 0.0)
        assert np.all(slack[rels == "="] == 0.0)
        assert np.dot(model.lp.obj, moved) == np.dot(model.lp.obj, sol.x)

    @pytest.mark.parametrize("m", [8, 9])
    def test_model_of_another_instance_is_refused(self, m):
        # At m = 8 the (m, p) comparison let this model pass, and the report
        # read v_ip 2.661 against v_lp 1.811: numbers of two instances.
        points, dist = generate_ball(m, 2, 0.5, 4.0, seed=0)
        inst = Instance(dist, resolve_weights("median", m), 2, points)
        points, dist = generate_uniform(8, seed=1)
        other = Instance(dist, resolve_weights("median", 8), 2, points)
        for build in (build_bep, build_ot):
            with pytest.raises(ParameterError, match="different instance"):
                recovery_status(inst, model=build(other))

    def test_non_optimal_relaxation_is_no_verdict(self, monkeypatch):
        monkeypatch.setattr(ordmed.exact, "solve_lp",
                            lambda lp, start=None: LpSolution(UNBOUNDED, iterations=7))
        with pytest.raises(ConvergenceError) as info:
            recovery_status(t1_instance("median", p=1))
        assert str(info.value) == "relaxation solve ended Unbounded (after 7 iterations)"
        assert info.value.iterations == 7

    def test_model_of_an_equal_copy_is_refused(self):
        # a model knows the object it was built from, not its field values
        inst = t1_instance("median", p=1)
        copy = dataclasses.replace(inst)
        assert copy == inst and copy is not inst
        with pytest.raises(ParameterError, match="different instance"):
            recovery_status(copy, model=build_bep(inst))

    @pytest.mark.parametrize("build", [build_bep, build_ot])
    def test_tiny_weights_match_the_unit_weights(self, build):
        # At weights of ten 1e-6 a cold solve stopped at a vertex 3.7e-4 above
        # v_ip. Started at the integral optimum it recovers, as at ten 1s.
        points, dist = generate_ball(10, 3, 0.5, 4.0, seed=2)
        tiny, unit = (recovery_status(inst, model=build(inst)) for inst in
                      (Instance(dist, WeightVector(np.full(10, w)), 3, points)
                       for w in (1e-6, 1.0)))
        assert (tiny.recovered, tiny.vertex_integral, tiny.verdict.holds) \
            == (unit.recovered, unit.vertex_integral, unit.verdict.holds) \
            == (True, True, True)
        assert tiny.v_lp / 1e-6 == pytest.approx(unit.v_lp, rel=1e-9)

    @pytest.mark.parametrize("build", [build_bep, build_ot])
    def test_vertex_above_the_exact_optimum_raises(self, monkeypatch, build):
        # The integral optimum embeds as a feasible LP vector, so a vertex
        # above it is a solver failure, never a verdict.
        inst = t1_instance("median", p=1)
        inst = Instance(inst.dist, WeightVector(np.full(5, 1e-12)), 1)
        stop_above_the_optimum(monkeypatch, inst, build, (0,))
        with pytest.raises(ConvergenceError, match="exceeds the exact optimum"):
            recovery_status(inst, model=build(inst))

    def test_the_solve_starts_at_the_embedded_optimum(self, monkeypatch):
        # the enumeration optimum is feasible, so phase 1 takes no pivot
        seen = []
        solve = ordmed.exact.solve_lp

        def recording(lp, start=None):
            seen.append((start, solve(lp, start=start)))
            return seen[-1][1]

        monkeypatch.setattr(ordmed.exact, "solve_lp", recording)
        for seed in range(3):
            points, dist = generate_ball(8, 3, 0.5, 4.0, seed=seed)
            for spec in ("center", "median", "centdian:0.5"):
                inst = Instance(dist, resolve_weights(spec, 8), 3, points)
                for model in (build_bep(inst), build_ot(inst)):
                    seen.clear()
                    rep = recovery_status(inst, model=model)
                    [(start, sol)] = seen
                    assert np.array_equal(
                        start, embed_integral(model, rep.best_solution))
                    assert sol.phase1_iterations == 0

    @pytest.mark.parametrize("build", [build_bep, build_ot])
    def test_recovered_cell_returns_the_integral_optimum(self, build):
        # On the pmed1 prefix at m = 10 the cold vertex of this recovered
        # cell is fractional; started at the embedded optimum, phase 2 finds
        # no strictly better vertex and returns an integral one.
        dist = prefix_subsample(floyd_warshall(parse_pmed(data_path("pmed1.txt"))), 10)
        inst = Instance(dist, resolve_weights("centdian:0.5", 10), 3)
        model = build(inst)
        assert not fractionality_report(model, solve_lp(model.lp).x).integral
        rep = recovery_status(inst, model=model)
        assert rep.recovered and rep.vertex_integral and rep.verdict.holds

    def test_explicit_model_is_used(self):
        inst = t1_instance("median", p=1)
        rep = recovery_status(inst, model=build_ot(inst))
        assert rep.recovered
        assert rep.v_lp == pytest.approx(18.0, abs=1e-6)

    def test_residual_breach_raises_instead_of_a_verdict(self, monkeypatch):
        # A vertex whose duals no longer certify it must not yield a verdict,
        # even when its primal value still matches the exact optimum.
        solve = ordmed.exact.solve_lp

        def perturbed(lp, start=None):
            sol = solve(lp, start=start)
            return dataclasses.replace(sol, y=sol.y + 1e-6)

        monkeypatch.setattr(ordmed.exact, "solve_lp", perturbed)
        with pytest.raises(ConvergenceError, match="residual"):
            recovery_status(t1_instance("median", p=1))

    @pytest.mark.parametrize("field", ["x", "y"])
    def test_nan_solution_raises_instead_of_a_verdict(self, monkeypatch, field):
        # A NaN compares False against any tolerance, so the gate has to
        # reject it explicitly rather than let it pass as "not too large".
        solve = ordmed.exact.solve_lp

        def damaged(lp, start=None):
            sol = solve(lp, start=start)
            vec = getattr(sol, field).copy()
            vec[0] = np.nan
            return dataclasses.replace(sol, **{field: vec})

        monkeypatch.setattr(ordmed.exact, "solve_lp", damaged)
        with pytest.raises(ConvergenceError, match="residual"):
            recovery_status(t1_instance("median", p=1))

    def test_stored_value_never_reaches_v_lp(self, monkeypatch):
        # v_lp is obj . x at the checked vertex, so a stored value that
        # disagrees with the vertex changes no number and no verdict.
        solve = ordmed.exact.solve_lp

        def misvalued(lp, start=None):
            return dataclasses.replace(solve(lp, start=start), value=17.0)

        monkeypatch.setattr(ordmed.exact, "solve_lp", misvalued)
        report = recovery_status(t1_instance("median", p=1))
        assert report.v_lp == report.v_ip == 18.0
        assert report.recovered and report.gap_lp == 0.0


def scaled_cell(seed, spec, scale):
    """m = 10, p = 3: balls (radius 0.5, separation 4) at odd seeds, uniform
    points at even seeds, every coordinate multiplied by scale."""
    if seed % 2:
        points, _ = generate_ball(10, 3, 0.5, 4.0, seed=seed)
    else:
        points, _ = generate_uniform(10, seed=seed)
    points = PointSet(points.coords * scale)
    return Instance(points.distance_matrix(), resolve_weights(spec, 10), 3, points)


class TestUnitInvariance:
    # A verdict must not move when only the unit of distance does. The first
    # six cells flip or raise ConvergenceError under absolute tolerances; the
    # last two are controls.
    @pytest.mark.parametrize("seed, spec, scale", [
        (3, "median", 1e6), (3, "center", 1e5), (6, "ksum:3", 1e6),
        (9, "centdian:0.2", 1e5), (7, "centdian:0.5", 1e-4),
        (8, "centdian:0.5", 1e-4), (1, "median", 1e-4), (2, "ksum:3", 1e2)])
    def test_verdict_does_not_depend_on_the_unit(self, seed, spec, scale):
        base = recovery_status(scaled_cell(seed, spec, 1.0))
        report = recovery_status(scaled_cell(seed, spec, scale))
        assert report.recovered == base.recovered
        assert report.vertex_integral == base.vertex_integral
        assert report.v_lp == pytest.approx(base.v_lp * scale, rel=1e-9)
        assert report.v_ip == pytest.approx(base.v_ip * scale, rel=1e-12)
