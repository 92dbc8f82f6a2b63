"""Exact optimum by subset enumeration and the exact-vs-relaxed recovery verdict."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations

from .errors import ConvergenceError, SizeGuardError
from .formulations import DompModel, build_bep, fractionality_report
from .instance import CenterSolution, Instance
from .lp_core import RESIDUAL_TOL, check_solution, solve_lp
from .ordered_median import closest_allocation

ENUMERATION_CAP = 10**7
RECOVERY_RTOL = 1e-7


@dataclass(frozen=True)
class RecoveryReport:
    """Exact value, relaxation value, and how they compare.

    recovered means the relaxation value matches the exact optimum to
    relative tolerance; vertex_integral is the stronger statement that the
    returned LP vertex itself has a binary location/allocation block.
    gap_lp is (v_ip - v_lp) / v_ip clamped to [0, 1], with 0/0 read as 0.
    """

    v_ip: float
    v_lp: float
    best_solution: CenterSolution
    gap_lp: float
    recovered: bool
    vertex_integral: bool
    time_enumeration: float
    time_lp: float


def solve_enumeration(inst: Instance) -> CenterSolution:
    """Best closest-allocation solution over all p-subsets of points.

    Subsets are scanned in lexicographic order and ties kept strictly, so
    the reported optimum always carries the lexicographically smallest
    center set among value ties.
    """
    m, p = inst.m, inst.p
    n_subsets = math.comb(m, p)
    if n_subsets > ENUMERATION_CAP:
        raise SizeGuardError(
            f"enumerating C({m},{p}) = {n_subsets} center sets exceeds the "
            f"{ENUMERATION_CAP} cap; shrink the instance or p")
    best: CenterSolution | None = None
    for centers in combinations(range(m), p):
        sol = closest_allocation(inst.dist, centers, inst.weights)
        if best is None or sol.value < best.value:
            best = sol
    return best


def recovery_status(inst: Instance, *, model: DompModel | None = None) -> RecoveryReport:
    """Solve both ways and report whether the relaxation is exact here.

    A prebuilt relaxed model for the same instance may be passed to avoid
    rebuilding; values are still recomputed from scratch. Raises
    ConvergenceError when the relaxation is not solved to optimality or its
    check_solution residual exceeds RESIDUAL_TOL.
    """
    t0 = time.perf_counter()
    best = solve_enumeration(inst)
    time_enumeration = time.perf_counter() - t0
    if model is None:
        model = build_bep(inst)
    t0 = time.perf_counter()
    sol = solve_lp(model.lp)
    time_lp = time.perf_counter() - t0
    if not sol.is_optimal():
        raise ConvergenceError(f"relaxation solve ended {sol.status}",
                               sol.iterations)
    # a verdict never rests on a vertex that fails its own optimality check
    residual = check_solution(model.lp, sol).max_residual()
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"relaxation residual {residual:.3e} exceeds {RESIDUAL_TOL:g}",
            sol.iterations)
    v_ip = float(best.value)
    v_lp = float(sol.value)
    tol = RECOVERY_RTOL * (1.0 + abs(v_ip))
    # the integral optimum embeds as a feasible LP vector, so the bound is hard
    if v_lp > v_ip + tol:
        raise AssertionError(
            f"relaxation value {v_lp!r} exceeds the exact optimum {v_ip!r}")
    if v_ip == 0.0:
        gap = 0.0
    else:
        gap = min(1.0, max(0.0, (v_ip - v_lp) / v_ip))
    return RecoveryReport(
        v_ip=v_ip,
        v_lp=v_lp,
        best_solution=best,
        gap_lp=gap,
        recovered=bool(abs(v_ip - v_lp) <= tol),
        vertex_integral=fractionality_report(model, sol).integral,
        time_enumeration=time_enumeration,
        time_lp=time_lp,
    )
