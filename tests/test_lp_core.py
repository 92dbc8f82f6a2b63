"""Two-phase simplex: statuses, duals, residual checks, oracle agreement."""

import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

from ordmed import (ConvergenceError, Instance, ParameterError, build_bep, build_ot,
                    closest_allocation, embed_integral, generate_ball,
                    generate_uniform, lp_core, resolve_weights,
                    search_certificate, solve_enumeration)
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

from helpers import add_row, add_variable, random_instance, t1_instance
from oracles import lp_vertex_oracle


def single_upper_bound_lp():
    lp = LinearProgram("box")
    x = add_variable(lp, obj=-1.0)
    add_row(lp, {x: 1.0}, "<=", 3.0)
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
        x = add_variable(lp, obj=1.0)
        y = add_variable(lp, obj=1.0)
        add_row(lp, {x: 1.0, y: 1.0}, "=", 1.0)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.value == pytest.approx(1.0)
        assert sorted(sol.x) == pytest.approx([0.0, 1.0])

    def test_infeasible(self):
        lp = LinearProgram()
        x = add_variable(lp)
        add_row(lp, {x: 1.0}, "<=", -1.0)
        sol = solve_lp(lp)
        assert sol.status == INFEASIBLE
        assert sol.x is None

    def test_unbounded(self):
        lp = LinearProgram()
        add_variable(lp, obj=-1.0)
        sol = solve_lp(lp)
        assert sol.status == UNBOUNDED

    def test_variable_upper_bound(self):
        lp = LinearProgram()
        add_variable(lp, obj=-1.0, upper=2.5)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.value == pytest.approx(-2.5)
        assert abs(sol.upper_duals[0]) == pytest.approx(1.0)
        assert check_solution(lp, sol).max_residual() <= 1e-7

    def test_free_variable_recombination(self):
        lp = LinearProgram()
        x = add_variable(lp, obj=1.0, lower=-math.inf)
        add_row(lp, {x: 1.0}, ">=", -5.0)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.x[0] == pytest.approx(-5.0)
        assert sol.y[0] == pytest.approx(1.0)

    def test_equality_dual(self):
        lp = LinearProgram()
        x = add_variable(lp, obj=-1.0)
        add_row(lp, {x: 1.0}, "=", 2.0)
        sol = solve_lp(lp)
        assert sol.x[0] == pytest.approx(2.0)
        assert sol.y[0] == pytest.approx(-1.0)

    def test_bad_relation_rejected(self):
        lp = LinearProgram()
        add_variable(lp)
        with pytest.raises(ParameterError):
            add_row(lp, {0: 1.0}, "<", 1.0)

    def test_unknown_variable_rejected(self):
        lp = LinearProgram()
        add_variable(lp)
        with pytest.raises(ParameterError):
            add_row(lp, {3: 1.0}, "<=", 1.0)

    def test_iteration_cap_raises(self, monkeypatch):
        lp = build_bep(t1_instance("center", p=2)).lp
        assert solve_lp(lp).iterations > 3
        monkeypatch.setattr(lp_core, "ITERATION_CAP", 3)
        with pytest.raises(ConvergenceError, match="iteration cap") as info:
            solve_lp(lp)
        assert info.value.iterations == 3


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
        add_variable(lp, obj=1.0, lower=lower)
        for coef, rel, rhs in rows:
            add_row(lp, {0: coef}, rel, rhs)
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

    @pytest.mark.parametrize("status", [INFEASIBLE, UNBOUNDED])
    def test_non_optimal_solution_refused(self, status):
        lp = single_upper_bound_lp()
        with pytest.raises(ParameterError) as info:
            check_solution(lp, LpSolution(status=status))
        assert str(info.value) == "check_solution needs an Optimal solution"

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
                add_variable(lp, obj=float(rng.uniform(-1, 1)), upper=4.0)
            for _ in range(5):
                coeffs = {j: float(rng.uniform(-1, 1)) for j in range(4)}
                add_row(lp, coeffs, "<=", float(rng.uniform(1, 3)))
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
            add_variable(lp)
        rows = []
        for _ in range(9):
            cols = rng.choice(6, size=int(rng.integers(0, 7)), replace=False)
            coeffs = {int(j): float(rng.choice([-0.0, 0.0, -1.5, 2.25]))
                      for j in cols}
            rows.append((coeffs, ("<=", "=", ">=")[int(rng.integers(0, 3))],
                         float(rng.uniform(-1, 1))))
            add_row(lp, *rows[-1])
        ref = np.zeros((lp.n_rows, lp.n_vars))
        for i, (cmap, _, _) in enumerate(rows):
            for j, coef in cmap.items():
                ref[i, j] += coef
        a, rels, b = lp.dense()
        assert np.array_equal(a, ref)
        assert np.array_equal(np.signbit(a), np.signbit(ref))  # -0.0 lands as 0.0
        assert rels.tolist() == [rel for _, rel, _ in rows]
        assert b.tolist() == [rhs for _, _, rhs in rows]

        # the same rows as one block of triples, in shuffled order
        block = LinearProgram()
        block.add_variables(np.zeros(6))
        triples = np.array([(i, j, coef) for i, (cmap, _, _) in enumerate(rows)
                            for j, coef in cmap.items()]).reshape(-1, 3)
        triples = triples[rng.permutation(len(triples))]
        block.add_rows(triples[:, 0], triples[:, 1], triples[:, 2],
                       [rel for _, rel, _ in rows], [rhs for _, _, rhs in rows])
        got = block.dense()
        assert np.array_equal(got[0], ref)
        assert np.array_equal(np.signbit(got[0]), np.signbit(ref))
        assert got[1].tolist() == rels.tolist() and np.array_equal(got[2], b)

    def test_repeated_pairs_add_up(self):
        lp = LinearProgram()
        lp.add_variables([0.0, 0.0])
        lp.add_rows([0, 0, 0, 1], [1, 1, 0, 0], [1.5, 2.0, -1.0, 3.0], ">=", [0.0, 1.0])
        a, _, _ = lp.dense()
        assert a.tolist() == [[-1.0, 3.5], [3.0, 0.0]]

    def test_each_call_assembles_fresh_arrays(self):
        # the rows live only as triples: a caller owns what dense() returns,
        # and writing into it changes neither the model nor a later solve
        lp = LinearProgram()
        x = add_variable(lp, obj=1.0)
        add_row(lp, {x: 2.0}, ">=", 1.0)
        first = lp.dense()
        again = lp.dense()
        assert not any(np.shares_memory(u, v) for u, v in zip(first, again))
        for array in first:
            array[0] = 0.0 if array.dtype.kind == "f" else "<="
        assert [v.tolist() for v in lp.dense()] == [[[2.0]], [">="], [1.0]]
        sol = solve_lp(lp)
        assert sol.x.tolist() == [0.5]
        assert check_solution(lp, sol).max_residual() == 0.0
        add_row(lp, {x: 1.0}, "<=", 4.0)  # an addition after a solve is seen
        a, rels, b = lp.dense()
        assert (a.tolist(), rels.tolist(), b.tolist()) == \
            ([[2.0], [1.0]], [">=", "<="], [1.0, 4.0])

    @pytest.mark.parametrize("args", [
        ([0], [0], [1.0], "<", [1.0]),
        ([0], [0], [1.0], ">=", [math.inf]),
        ([0], [3], [1.0], ">=", [1.0]),
        ([1], [0], [1.0], ">=", [1.0]),
        ([-1], [0], [1.0], ">=", [1.0]),
        ([0], [-1], [1.0], ">=", [1.0]),
        ([0, 0], [0], [1.0], ">=", [1.0]),
        ([0], [0], [math.nan], ">=", [1.0]),
    ])
    def test_malformed_block_rejected(self, args):
        lp = LinearProgram()
        lp.add_variables([0.0, 0.0])
        with pytest.raises(ParameterError):
            lp.add_rows(*args)

    @pytest.mark.parametrize("lower, upper", [(1.0, 0.0), (-math.inf, 1.0)])
    def test_malformed_column_block_rejected(self, lower, upper):
        with pytest.raises(ParameterError):
            LinearProgram().add_variables([0.0, 1.0], [0.0, lower], [1.0, upper])


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
        add_variable(lp, obj=cj, lower=lower[j], upper=upper[j])
    for coeffs, rel, rhs in zip(rows, rels, b):
        add_row(lp, {j: a for j, a in enumerate(coeffs) if a != 0.0}, rel, rhs)
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
                add_variable(lp, upper=5.0)
            k = quarter(rng, 1, 3)
            add_row(lp, {0: 1.0}, ">=", k)
            add_row(lp, {0: 1.0}, "<=", k - 0.5)
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
            def __init__(self, lp, start):
                super().__init__(lp, start)
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
            def __init__(self, lp, start):
                super().__init__(lp, start)
                self.bland = True

        monkeypatch.setattr(lp_core, "_BoundedSimplex", BlandSimplex)
        rng = np.random.default_rng(43)
        for _ in range(60):
            solve_against_oracle(*random_feasible_lp(rng, mixed_bounds=True))


def rests_or_is_basic(lp, sol):
    """No nonbasic column lies strictly inside its bounds (a free one rests at 0)."""
    nonbasic = np.setdiff1d(np.arange(lp.n_vars), sorted(sol.basis))
    x = sol.x[nonbasic]
    lo = np.array(lp.lower)[nonbasic]
    hi = np.array(lp.upper)[nonbasic]
    return bool(np.all((x == lo) | (x == hi) | (np.isinf(lo) & (x == 0.0))))


def start_corpus():
    """Ball at m = 6 and 8, uniform at m = 7 and 9; four families; p = 1-3."""
    for m in range(6, 10):
        points, dist = (generate_ball(m, 2, 0.5, 4.0, seed=m) if m % 2 == 0
                        else generate_uniform(m, seed=m))
        for spec in ("center", "median", "ksum:2", "centdian:0.5"):
            for p in (1, 2, 3):
                yield Instance(dist, resolve_weights(spec, m), p, points)


class TestStart:
    """solve_lp(lp, start=x): a crash into the basis, then the usual phases."""

    def test_every_embedded_allocation_reaches_the_cold_optimum(self):
        # Every p-subset's closest allocation, optimal or not, lifts to a
        # feasible start; the warm solve skips phase 1 and ends at a basic
        # solution of the cold solve's value.
        solves = 0
        for inst in start_corpus():
            unit = inst.unit
            for build in (build_bep, build_ot):
                model = build(inst)
                cold = solve_lp(model.lp)
                for centers in combinations(range(inst.m), inst.p):
                    sol = closest_allocation(inst.dist, centers, inst.weights)
                    warm = solve_lp(model.lp, start=embed_integral(model, sol))
                    assert warm.status == cold.status == OPTIMAL
                    assert abs(warm.value - cold.value) <= RESIDUAL_TOL * unit
                    assert check_solution(model.lp, warm).max_residual() \
                        <= RESIDUAL_TOL * unit
                    assert rests_or_is_basic(model.lp, warm)
                    assert warm.phase1_iterations == 0
                    solves += 1
        assert solves == 2600

    def test_random_infeasible_starts_still_solve(self):
        # Starts off the rows and off the bounds: the artificials absorb the
        # residuals, phase 1 runs, and the optimum is the cold one.
        rng = np.random.default_rng(47)
        for spec in ("center", "centdian:0.5"):
            inst = random_instance(rng, 7, 2, weights=resolve_weights(spec, 7))
            for build in (build_bep, build_ot):
                lp = build(inst).lp
                cold = solve_lp(lp)
                for _ in range(5):
                    warm = solve_lp(lp, start=rng.normal(0.0, 3.0, lp.n_vars))
                    assert warm.status == OPTIMAL
                    assert warm.phase1_iterations > 0
                    assert warm.value == pytest.approx(cold.value, rel=1e-9)
                    assert check_solution(lp, warm).max_residual() <= RESIDUAL_TOL
                    assert rests_or_is_basic(lp, warm)
        for _ in range(40):
            c, rows, rels, b, lower, upper = random_feasible_lp(rng, mixed_bounds=True)
            lp = build_lp(c, rows, rels, b, lower, upper)
            warm = solve_lp(lp, start=rng.uniform(-6.0, 6.0, lp.n_vars))
            value, _ = lp_vertex_oracle(c, rows, rels, b, upper, lower)
            assert warm.status == OPTIMAL
            assert warm.value == pytest.approx(value, abs=1e-8)
            assert check_solution(lp, warm).max_residual() <= RESIDUAL_TOL
            assert rests_or_is_basic(lp, warm)

    def test_infeasible_lp_from_a_start(self):
        lp = LinearProgram()
        x = add_variable(lp)
        add_row(lp, {x: 1.0}, "<=", -1.0)
        assert solve_lp(lp, start=[0.5]).status == INFEASIBLE

    def test_free_column_off_zero_is_crashed(self):
        # w = 3 is free and nonzero, so it enters the basis at no step; the
        # start is feasible, so phase 1 takes no pivot.
        lp = build_lp([1.0, 0.0], [[1.0, 1.0]], [">="], [1.0],
                      [0.0, -INF], [INF, INF])
        sol = solve_lp(lp, start=[0.0, 3.0])
        assert sol.phase1_iterations == 0
        assert sol.x.tolist() == pytest.approx([0.0, 1.0])
        assert 1 in sol.basis

    @pytest.mark.parametrize("start", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]],
                                       [0.0, math.nan], [math.inf, 0.0]])
    def test_malformed_start_rejected(self, start):
        lp = LinearProgram()
        add_variable(lp)
        add_variable(lp)
        with pytest.raises(ParameterError, match="start"):
            solve_lp(lp, start=start)


class TestKernelInvariants:
    """The kept inverse stays the inverse of the basis, pivot after pivot."""

    def test_every_swap_keeps_the_inverse(self, monkeypatch):
        # After each swap, crash swaps included, binvt.T @ B is I within
        # 1e-9, and a refactor at that moment moves no basic value by more
        # than RESIDUAL_TOL * (1 + max |x|); the refactor is undone, so the
        # solve keeps its own path.
        worst = {"inverse": 0.0, "drift": 0.0}
        swaps = {"crash": 0, "run": 0}

        class CheckedSimplex(lp_core._BoundedSimplex):
            def _crash(self):
                self.crashing = True
                super()._crash()
                self.crashing = False

            def _swap(self, j, r, alpha):
                super()._swap(j, r, alpha)
                swaps["crash" if getattr(self, "crashing", False) else "run"] += 1
                basis = np.zeros((self.k, self.k))
                for pos, col in enumerate(self.basis):
                    if col < self.n:
                        basis[:, pos] = self.a_user[:, col]
                    else:
                        basis[self.unit_rows[col - self.n], pos] = \
                            self.unit_sign[col - self.n]
                error = np.abs(self.binvt.T @ basis - np.eye(self.k)).max()
                worst["inverse"] = max(worst["inverse"], error)
                kept = self.binvt.copy(), self.x.copy(), self.stale
                self.refactor()
                drift = np.abs(self.x - kept[1]).max() / (1.0 + np.abs(kept[1]).max())
                worst["drift"] = max(worst["drift"], drift)
                self.binvt, self.x, self.stale = kept

        monkeypatch.setattr(lp_core, "_BoundedSimplex", CheckedSimplex)
        for seed in range(3):
            for gen in ("ball", "uniform"):
                points, dist = (generate_ball(8, 3, 0.1, 1.0, seed=seed) if gen == "ball"
                                else generate_uniform(8, seed=seed))
                for spec in ("center", "median", "ksum:auto", "centdian:0.5"):
                    inst = Instance(dist, resolve_weights(spec, 8), 3, points)
                    best = solve_enumeration(inst)
                    for build in (build_bep, build_ot):
                        model = build(inst)
                        assert solve_lp(model.lp).is_optimal()
                        warm = solve_lp(model.lp, start=embed_integral(model, best))
                        assert warm.is_optimal()
                    for strict in (False, True):
                        search_certificate(inst, best, strict=strict)
        assert swaps["crash"] > 0 and swaps["run"] > 0
        assert worst["inverse"] <= 1e-9
        assert worst["drift"] <= RESIDUAL_TOL
