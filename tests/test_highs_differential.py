"""The simplex against HiGHS on the package's own LPs, model by model."""

import math

import numpy as np
import pytest

optimize = pytest.importorskip("scipy.optimize")

import ordmed.certificates
from ordmed import (Instance, build_bep, build_ot, data_path, floyd_warshall,
                    generate_ball, generate_uniform, lp_core, parse_pmed,
                    prefix_subsample, resolve_weights, search_certificate,
                    solve_enumeration)
from ordmed.lp_core import (INFEASIBLE, OPTIMAL, RESIDUAL_TOL, UNBOUNDED,
                            check_solution, solve_lp)

HIGHS_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
FAMILIES = ("center", "median", "ksum:auto", "centdian:0.5")
VALUE_RTOL = 1e-7


def highs(lp):
    a, rels, b = lp.dense()
    rels = np.array(rels)
    le, ge, eq = rels == "<=", rels == ">=", rels == "="
    a_ub = np.vstack([a[le], -a[ge]])
    b_ub = np.concatenate([b[le], -b[ge]])
    bounds = [(None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
              for lo, hi in zip(lp.lower, lp.upper)]
    return optimize.linprog(
        lp.obj,
        A_ub=a_ub if len(b_ub) else None, b_ub=b_ub if len(b_ub) else None,
        A_eq=a[eq] if eq.any() else None, b_eq=b[eq] if eq.any() else None,
        bounds=bounds, method="highs")


def assert_agrees(lp, start=None):
    ours = solve_lp(lp, start=start)
    ref = highs(lp)
    assert ours.status == HIGHS_STATUS[ref.status], lp.name
    if ours.is_optimal():
        assert abs(ours.value - ref.fun) <= VALUE_RTOL * max(1.0, abs(ref.fun))
        assert check_solution(lp, ours).max_residual() <= RESIDUAL_TOL
    return ours


def generated(gen, m):
    if gen == "ball":
        return generate_ball(m, 3, 0.1, 1.0, seed=m)
    return generate_uniform(m, seed=m)


@pytest.mark.parametrize("gen", ["ball", "uniform"])
@pytest.mark.parametrize("m", [6, 8, 10])
def test_relaxations_match_highs(gen, m):
    points, dist = generated(gen, m)
    for family in FAMILIES:
        inst = Instance(dist, resolve_weights(family, m), 3, points)
        assert_agrees(build_bep(inst).lp)
        assert_agrees(build_ot(inst).lp)


def test_tied_pmed_prefix_matches_highs():
    dist = prefix_subsample(floyd_warshall(parse_pmed(data_path("pmed1.txt"))), 12)
    for family in FAMILIES:
        inst = Instance(dist, resolve_weights(family, 12), 3)
        assert_agrees(build_bep(inst).lp)
        assert_agrees(build_ot(inst).lp)


@pytest.mark.parametrize("strict", [False, True])
def test_certificate_searches_match_highs(monkeypatch, strict):
    statuses = []

    def checked(lp, start=None):
        sol = assert_agrees(lp, start=start)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(ordmed.certificates, "solve_lp", checked)
    for gen in ("ball", "uniform"):
        for m in (6, 8):
            points, dist = generated(gen, m)
            for family in ("center", "median", "ksum:auto"):
                for p in (1, 2, 3):
                    inst = Instance(dist, resolve_weights(family, m), p, points)
                    search_certificate(inst, solve_enumeration(inst), strict=strict)
    assert OPTIMAL in statuses and INFEASIBLE in statuses


@pytest.mark.parametrize("gen", ["ball", "uniform"])
def test_small_pivot_refactor_keeps_the_answer(monkeypatch, gen):
    # PIVOT_SAFETY = 2 calls most pivots on a stale inverse small: each one
    # refactors and re-selects first, and the answer stays the default's
    points, dist = generated(gen, 8)
    refactors = [0]
    refactor = lp_core._BoundedSimplex.refactor

    def counted(self):
        refactors[0] += 1
        refactor(self)

    monkeypatch.setattr(lp_core._BoundedSimplex, "refactor", counted)
    for family in FAMILIES:
        inst = Instance(dist, resolve_weights(family, 8), 3, points)
        for build in (build_bep, build_ot):
            lp = build(inst).lp
            refactors[0] = 0
            default = solve_lp(lp)
            plain = refactors[0]
            with monkeypatch.context() as patch:
                patch.setattr(lp_core, "PIVOT_SAFETY", 2.0)
                refactors[0] = 0
                safe = solve_lp(lp)
            assert refactors[0] > plain
            ref = highs(lp)
            assert safe.status == default.status == HIGHS_STATUS[ref.status] == OPTIMAL
            assert np.abs(safe.x - default.x).max() <= 1e-9
            assert abs(safe.value - default.value) <= 1e-9
            assert abs(safe.value - ref.fun) <= 1e-9
