"""Enumeration solver and LP recovery reports against brute-force oracles."""

import dataclasses

import numpy as np
import pytest

import ordmed.exact
from ordmed import (
    ConvergenceError,
    SizeGuardError,
    build_ot,
    make_weights,
    recovery_status,
    solve_enumeration,
)

from helpers import planar_instance, random_instance, random_points, t1_instance
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
        inst = planar_instance(square, make_weights("median", 4), 2)
        sol = solve_enumeration(inst)
        assert sol.value == pytest.approx(2.0)
        assert sol.centers == (0, 1)

    def test_subset_count_guard(self):
        xs = np.arange(40, dtype=float)[:, None]
        inst = planar_instance(xs, make_weights("median", 40), 20)
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

    def test_explicit_model_is_used(self):
        inst = t1_instance("median", p=1)
        rep = recovery_status(inst, model=build_ot(inst))
        assert rep.recovered
        assert rep.v_lp == pytest.approx(18.0, abs=1e-6)

    def test_residual_breach_raises_instead_of_a_verdict(self, monkeypatch):
        # A vertex whose duals no longer certify it must not yield a verdict,
        # even when its primal value still matches the exact optimum.
        solve = ordmed.exact.solve_lp

        def perturbed(lp):
            sol = solve(lp)
            return dataclasses.replace(sol, y=sol.y + 1e-6)

        monkeypatch.setattr(ordmed.exact, "solve_lp", perturbed)
        with pytest.raises(ConvergenceError, match="residual"):
            recovery_status(t1_instance("median", p=1))
