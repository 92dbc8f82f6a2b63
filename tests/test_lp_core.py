"""Two-phase simplex: statuses, duals, residual checks, oracle agreement."""

import dataclasses
import math

import numpy as np
import pytest

from ordmed import (ParameterError, build_bep, build_ot, lp_core,
                    resolve_weights)
from ordmed.lp_core import (
    INFEASIBLE,
    OPTIMAL,
    RESIDUAL_TOL,
    UNBOUNDED,
    LinearProgram,
    LpSolution,
    ResidualReport,
    check_solution,
    solve_lp,
)

from helpers import random_instance, t1_instance
from oracles import lp_vertex_oracle


def single_upper_bound_lp():
    lp = LinearProgram("box")
    x = lp.add_variable(obj=-1.0)
    lp.add_row({x: 1.0}, "<=", 3.0)
    return lp


class TestStatuses:
    def test_binding_row_and_dual(self):
        sol = solve_lp(single_upper_bound_lp())
        assert sol.status == OPTIMAL
        assert sol.x[0] == pytest.approx(3.0)
        assert sol.value == pytest.approx(-3.0)
        assert sol.y[0] == pytest.approx(-1.0)

    def test_equality_vertex(self):
        lp = LinearProgram()
        x = lp.add_variable(obj=1.0)
        y = lp.add_variable(obj=1.0)
        lp.add_row({x: 1.0, y: 1.0}, "=", 1.0)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.value == pytest.approx(1.0)
        assert sorted(sol.x) == pytest.approx([0.0, 1.0])

    def test_infeasible(self):
        lp = LinearProgram()
        x = lp.add_variable()
        lp.add_row({x: 1.0}, "<=", -1.0)
        sol = solve_lp(lp)
        assert sol.status == INFEASIBLE
        assert sol.x is None

    def test_unbounded(self):
        lp = LinearProgram()
        lp.add_variable(obj=-1.0)
        sol = solve_lp(lp)
        assert sol.status == UNBOUNDED

    def test_variable_upper_bound(self):
        lp = LinearProgram()
        lp.add_variable(obj=-1.0, upper=2.5)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.value == pytest.approx(-2.5)
        assert abs(sol.upper_duals[0]) == pytest.approx(1.0)
        assert check_solution(lp, sol).max_residual() <= 1e-7

    def test_free_variable_recombination(self):
        lp = LinearProgram()
        x = lp.add_free_variable(obj=1.0)
        lp.add_row({x: 1.0}, ">=", -5.0)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.x[0] == pytest.approx(-5.0)
        assert sol.y[0] == pytest.approx(1.0)

    def test_equality_dual(self):
        lp = LinearProgram()
        x = lp.add_variable(obj=-1.0)
        lp.add_row({x: 1.0}, "=", 2.0)
        sol = solve_lp(lp)
        assert sol.x[0] == pytest.approx(2.0)
        assert sol.y[0] == pytest.approx(-1.0)

    def test_bad_relation_rejected(self):
        lp = LinearProgram()
        lp.add_variable()
        with pytest.raises(ParameterError):
            lp.add_row({0: 1.0}, "<", 1.0)

    def test_unknown_variable_rejected(self):
        lp = LinearProgram()
        lp.add_variable()
        with pytest.raises(ParameterError):
            lp.add_row({3: 1.0}, "<=", 1.0)


class TestResidualReport:
    def test_clean_solution(self):
        lp = single_upper_bound_lp()
        sol = solve_lp(lp)
        rep = check_solution(lp, sol)
        assert rep.max_residual() <= 1e-7

    def test_primal_perturbation_detected(self):
        lp = single_upper_bound_lp()
        sol = solve_lp(lp)
        bad = dataclasses.replace(sol, x=sol.x + 0.1)
        rep = check_solution(lp, bad)
        assert rep.primal_infeasibility == pytest.approx(0.1, abs=1e-9)

    def test_zeroed_dual_opens_gap(self):
        lp = single_upper_bound_lp()
        sol = solve_lp(lp)
        bad = dataclasses.replace(sol, y=np.zeros_like(sol.y))
        rep = check_solution(lp, bad)
        assert rep.duality_gap == pytest.approx(3.0, abs=1e-6)

    # One damaged block per case; every vector is dyadic, so each residual
    # (primal, dual, complementary slackness, gap) is exact.
    @staticmethod
    def report(lower, rows, x, y, mu):
        lp = LinearProgram()
        lp.add_variable(obj=1.0, lower=lower)
        for coef, rel, rhs in rows:
            lp.add_row({0: coef}, rel, rhs)
        sol = LpSolution(OPTIMAL, x=np.array([x]), y=np.array(y),
                         upper_duals=np.array([mu]))
        return check_solution(lp, sol)

    def test_wrong_signed_dual_on_le_row(self):
        rep = self.report(0.0, [(-1.0, "<=", -2.0)], 2.0, [0.5], 0.0)
        assert rep == ResidualReport(0.0, 0.5, 3.0, 3.0)

    def test_wrong_signed_dual_on_ge_row(self):
        rep = self.report(0.0, [(1.0, ">=", 2.0)], 2.0, [-0.5], 0.0)
        assert rep == ResidualReport(0.0, 0.5, 3.0, 3.0)

    def test_upper_dual_without_finite_upper(self):
        rep = self.report(0.0, [(1.0, ">=", 2.0)], 2.0, [1.0], -0.25)
        assert rep == ResidualReport(0.0, 0.25, 0.5, 0.0)

    def test_negative_reduced_cost_at_nonzero_lower(self):
        rep = self.report(1.0, [(1.0, ">=", 0.5)], 1.0, [1.5], 0.0)
        assert rep == ResidualReport(0.0, 0.5, 0.75, 0.75)

    def test_reduced_cost_on_free_column(self):
        rep = self.report(-INF, [(1.0, ">=", 2.0)], 2.0, [0.75], 0.0)
        assert rep == ResidualReport(0.0, 0.25, 0.0, 0.5)

    def test_complementary_slackness_on_slack_row(self):
        rep = self.report(-INF, [(1.0, ">=", 2.0), (1.0, "<=", 5.0)], 2.0,
                          [1.25, -0.25], 0.0)
        assert rep == ResidualReport(0.0, 0.0, 0.75, 0.75)

    @pytest.mark.parametrize("block", range(4))
    def test_nan_block_makes_max_residual_nan(self, block):
        values = [0.0, 2.0, 1.0, 0.5]
        values[block] = math.nan
        assert math.isnan(ResidualReport(*values).max_residual())


class TestDeterminism:
    def test_same_model_same_pivots(self):
        def build():
            rng = np.random.default_rng(5)
            lp = LinearProgram()
            for j in range(4):
                lp.add_variable(obj=float(rng.uniform(-1, 1)), upper=4.0)
            for _ in range(5):
                coeffs = {j: float(rng.uniform(-1, 1)) for j in range(4)}
                lp.add_row(coeffs, "<=", float(rng.uniform(1, 3)))
            return solve_lp(lp)

        a, b = build(), build()
        assert np.array_equal(a.x, b.x)
        assert a.basis == b.basis
        assert a.iterations == b.iterations



class TestDense:
    def test_matches_entrywise_loop(self):
        rng = np.random.default_rng(43)
        lp = LinearProgram()
        for _ in range(6):
            lp.add_variable()
        for _ in range(9):
            cols = rng.choice(6, size=int(rng.integers(0, 7)), replace=False)
            coeffs = {int(j): float(rng.choice([-0.0, 0.0, -1.5, 2.25]))
                      for j in cols}
            lp.add_row(coeffs, ("<=", "=", ">=")[int(rng.integers(0, 3))],
                       float(rng.uniform(-1, 1)))
        ref = np.zeros((lp.n_rows, lp.n_vars))
        for i, (cmap, _, _) in enumerate(lp.rows):
            for j, coef in cmap.items():
                ref[i, j] += coef
        a, rels, b = lp.dense()
        assert np.array_equal(a, ref)
        assert np.array_equal(np.signbit(a), np.signbit(ref))  # -0.0 lands as 0.0
        assert rels == [rel for _, rel, _ in lp.rows]
        assert b.tolist() == [rhs for _, _, rhs in lp.rows]

def quarter(rng, lo, hi):
    # Dyadic grid values are exact in binary floats and in Fraction(float).
    return float(rng.integers(int(lo * 4), int(hi * 4) + 1)) / 4.0


def random_feasible_lp(rng, mixed_bounds=False):
    """LP made feasible through a dyadic interior point.

    Bounds are 0 <= x <= 5. With mixed_bounds each column instead draws a
    box [0, 5], a box [l, l + 3] with integer l in [-2, 2], or a fixed value
    l = u, and the point respects them.
    """
    n = int(rng.integers(2, 4))
    lower, upper = [0.0] * n, [5.0] * n
    if mixed_bounds:
        for j in range(n):
            kind = int(rng.integers(0, 3))
            if kind == 1:
                lower[j] = float(rng.integers(-2, 3))
                upper[j] = lower[j] + 3.0
            elif kind == 2:
                lower[j] = upper[j] = quarter(rng, -2, 2)
    point = np.array([quarter(rng, lo + 0.5, hi - 0.5) if lo < hi else lo
                      for lo, hi in zip(lower, upper)])
    c = [quarter(rng, -3, 3) for _ in range(n)]
    rows, rels, b = [], [], []
    for _ in range(int(rng.integers(1, 7))):
        coeffs = [quarter(rng, -2, 2) for _ in range(n)]
        activity = float(np.dot(coeffs, point))
        rel = ("<=", ">=", "=")[int(rng.integers(0, 3))] if not rels else \
            ("<=", ">=")[int(rng.integers(0, 2))]
        slack = 0.0 if rel == "=" else quarter(rng, 0.25, 2)
        rows.append(coeffs)
        rels.append(rel)
        b.append(activity + slack if rel == "<=" else activity - slack if rel == ">=" else activity)
    return c, rows, rels, b, lower, upper


def build_lp(c, rows, rels, b, lower, upper):
    lp = LinearProgram()
    for j, cj in enumerate(c):
        lp.add_variable(obj=cj, lower=lower[j], upper=upper[j])
    for coeffs, rel, rhs in zip(rows, rels, b):
        lp.add_row({j: a for j, a in enumerate(coeffs) if a != 0.0}, rel, rhs)
    return lp


def solve_against_oracle(c, rows, rels, b, lower, upper):
    """Solve, then require the oracle's value and residuals within RESIDUAL_TOL."""
    lp = build_lp(c, rows, rels, b, lower, upper)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    value, _ = lp_vertex_oracle(c, rows, rels, b, upper, lower)
    assert sol.value == pytest.approx(value, abs=1e-8)
    assert check_solution(lp, sol).max_residual() <= RESIDUAL_TOL
    return sol


class TestOracleAgreement:
    def test_random_lps_match_rational_vertex_search(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(200):
            c, rows, rels, b, lower, upper = random_feasible_lp(rng)
            sol = solve_lp(build_lp(c, rows, rels, b, lower, upper))
            assert sol.status == OPTIMAL
            expect = lp_vertex_oracle(c, rows, rels, b, upper)
            assert expect is not None
            value, _ = expect
            assert sol.value == pytest.approx(float(value), abs=1e-8)
            checked += 1
        assert checked == 200

    def test_vertex_support(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            c, rows, rels, b, lower, upper = random_feasible_lp(rng)
            lp = build_lp(c, rows, rels, b, lower, upper)
            sol = solve_lp(lp)
            interior = sum(
                1 for j, xj in enumerate(sol.x)
                if 1e-9 < xj < upper[j] - 1e-9
            )
            assert interior <= lp.n_rows

    def test_contradictory_rows_detected(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            lp = LinearProgram()
            for _ in range(n):
                lp.add_variable(upper=5.0)
            k = quarter(rng, 1, 3)
            lp.add_row({0: 1.0}, ">=", k)
            lp.add_row({0: 1.0}, "<=", k - 0.5)
            sol = solve_lp(lp)
            assert sol.status == INFEASIBLE

    def test_residuals_on_random_lps(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            c, rows, rels, b, lower, upper = random_feasible_lp(rng)
            lp = build_lp(c, rows, rels, b, lower, upper)
            sol = solve_lp(lp)
            assert check_solution(lp, sol).max_residual() <= 1e-7


INF = math.inf


class TestBoundedPaths:
    """Bounds met at the ratio test, fixed and free columns, redundant rows."""

    def test_mixed_bounds_match_oracle(self):
        rng = np.random.default_rng(41)
        at_upper = fixed = shifted = 0
        for _ in range(150):
            c, rows, rels, b, lower, upper = random_feasible_lp(rng, mixed_bounds=True)
            sol = solve_against_oracle(c, rows, rels, b, lower, upper)
            for j in range(len(c)):
                fixed += lower[j] == upper[j]
                shifted += lower[j] not in (0.0, upper[j])
                at_upper += (j not in sol.basis and lower[j] < upper[j]
                             and sol.x[j] == upper[j] and sol.upper_duals[j] < 0)
        assert min(at_upper, fixed, shifted) > 0

    def test_bound_flip_leaves_column_at_upper(self):
        # x enters first (steepest cost) and meets its own bound before the
        # row binds, so it flips and stays nonbasic at upper = 1.
        sol = solve_against_oracle([-2.0, -1.0], [[1.0, 1.0]], ["<="], [3.0],
                                   [0.0, 0.0], [1.0, 5.0])
        assert 0 not in sol.basis
        assert sol.x.tolist() == pytest.approx([1.0, 2.0])
        assert sol.upper_duals[0] == pytest.approx(-1.0)
        assert sol.y[0] == pytest.approx(-1.0)

    def test_fixed_column_and_shifted_lower(self):
        # x is fixed at 2 like a trimmed sorting dual pinned to 0; y >= 0.5.
        sol = solve_against_oracle([-1.0, 1.0], [[1.0, 1.0]], [">="], [3.0],
                                   [2.0, 0.5], [2.0, INF])
        assert sol.x.tolist() == pytest.approx([2.0, 1.0])
        assert sol.upper_duals[0] == pytest.approx(-2.0)
        # at y's lower bound 0.5 instead: the fixed column must stay put
        sol = solve_against_oracle([-1.0, 1.0], [[1.0, 1.0]], [">="], [1.0],
                                   [2.0, 0.5], [2.0, INF])
        assert sol.x.tolist() == pytest.approx([2.0, 0.5])

    def test_free_column_ends_basic(self):
        sol = solve_against_oracle([1.0, 0.0], [[1.0, 1.0]], [">="], [1.0],
                                   [0.0, -INF], [INF, INF])
        assert 1 in sol.basis
        assert sol.x.tolist() == pytest.approx([0.0, 1.0])

    def test_free_column_ends_nonbasic_at_zero(self):
        # w never prices in: its only row keeps a basic slack and a zero dual.
        sol = solve_against_oracle([-1.0, 0.0], [[1.0, 0.0], [1.0, 1.0]],
                                   ["<=", "<="], [2.0, 10.0],
                                   [0.0, -INF], [INF, INF])
        assert 1 not in sol.basis
        assert sol.x[1] == 0.0
        assert sol.x[0] == pytest.approx(2.0)

    def test_dependent_equality_rows(self):
        rows = [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]
        rels = ["=", "=", "=", "="]
        sol = solve_against_oracle([1.0, 0.0, -1.0], rows, rels, [2.0, 4.0, 2.0, 0.5],
                                   [0.0] * 3, [5.0] * 3)
        assert sol.value == pytest.approx(-1.0)
        inconsistent = build_lp([1.0, 0.0], [[1.0, 1.0], [2.0, 2.0]], ["=", "="],
                                [2.0, 5.0], [0.0] * 2, [5.0] * 2)
        assert solve_lp(inconsistent).status == INFEASIBLE

    def test_bland_rule_after_the_degenerate_budget(self, monkeypatch):
        # With no budget the first degenerate pivot switches to Bland's rule.
        # The degenerate ordered-median models must still reach the values
        # and residuals of the default pricing.
        models = [build(inst).lp
                  for inst in [t1_instance(spec, p) for spec in
                               ("center", "ksum:2", "centdian:0.5")
                               for p in (1, 2)]
                  + [random_instance(np.random.default_rng(seed), 7, 3,
                                     weights=resolve_weights("ksum:auto", 7))
                     for seed in range(4)]
                  for build in (build_bep, build_ot)]
        expected = [solve_lp(lp).value for lp in models]
        switched = []

        class NoBudgetSimplex(lp_core._BoundedSimplex):
            def __init__(self, lp):
                super().__init__(lp)
                self.bland_budget = 0

            def run(self, costs):
                status = super().run(costs)
                switched.append(self.bland)
                return status

        monkeypatch.setattr(lp_core, "_BoundedSimplex", NoBudgetSimplex)
        for lp, value in zip(models, expected):
            sol = solve_lp(lp)
            assert sol.status == OPTIMAL
            assert sol.value == pytest.approx(value, rel=1e-12, abs=1e-12)
            assert check_solution(lp, sol).max_residual() <= RESIDUAL_TOL
        assert any(switched)

    def test_bland_rule_from_the_first_pivot(self, monkeypatch):
        # The anti-cycling fallback normally engages only after thousands of
        # degenerate pivots; start it at once and require the same answers.
        class BlandSimplex(lp_core._BoundedSimplex):
            def __init__(self, lp):
                super().__init__(lp)
                self.bland = True

        monkeypatch.setattr(lp_core, "_BoundedSimplex", BlandSimplex)
        rng = np.random.default_rng(43)
        for _ in range(60):
            solve_against_oracle(*random_feasible_lp(rng, mixed_bounds=True))
