"""Exact optimum by subset enumeration and the exact-vs-relaxed recovery verdict."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .certificates import (CertificateVerdict, DualCertificate,
                           make_certificate, verify_certificate)
from .errors import ConvergenceError, SizeGuardError
from .formulations import (DompModel, build_bep, embed_integral,
                           fractionality_report, location_duals)
from .instance import CenterSolution, Instance
from .lp_core import RESIDUAL_TOL, check_solution, solve_lp
from .ordered_median import closest_allocation, om_evaluate, sorting_permutation

ENUMERATION_CAP = 10**7
ENUMERATION_BLOCK = 4096    # rows per vectorised block of subsets
RECOVERY_RTOL = 1e-7


@dataclass(frozen=True)
class RecoveryReport:
    """Exact value, relaxation value, and how they compare.

    recovered means the relaxation value matches the exact optimum to
    relative tolerance; vertex_integral is the stronger statement that the
    returned LP vertex itself has a binary location/allocation block, read
    to the nearest integer: at coincident points y_j may be 2 (y = [2, 1,
    1, 0, 1, 0] at m = 6, p = 5), and moving the excess to closed points
    gives a binary vector of equal value with y <= 1, so y is not clipped.
    The solve starts at the embedded exact optimum, so a recovered cell
    returns that integral vertex unless phase 2 finds a strictly better
    one within the tolerance.
    gap_lp is (v_ip - v_lp) / v_ip clamped to [0, 1], and exactly 0 when
    recovered (so round-off inside the tolerance never prints as a gap) or
    when v_ip is 0. When recovered, certificate is read off the relaxation's
    duals and verdict is its check at best_solution; else both are None.
    """

    v_ip: float
    v_lp: float
    best_solution: CenterSolution
    gap_lp: float
    recovered: bool
    vertex_integral: bool
    time_enumeration: float
    time_lp: float
    certificate: DualCertificate | None
    verdict: CertificateVerdict | None


def _subset_minima(cols: np.ndarray, p: int):
    """Blocks of the rows min(cols[S]), S over the p-subsets of range(m) in lex order.

    Level k extends each (k-1)-prefix ending at a by every b with
    a < b <= m-p+k-1 (a later b leaves no room for the rest), in order, and
    its row by np.minimum(prefix row, cols[b]). A level extends
    ENUMERATION_BLOCK // (m-p+k) prefixes at a time, or one, so no block
    has more than max(ENUMERATION_BLOCK, m) rows.
    """
    m = len(cols)
    idx = np.arange(m)

    def extend(last, minima, k):  # k-subsets; last[r] is the largest member of row r
        if k == p:
            yield minima
            return
        step = max(1, ENUMERATION_BLOCK // (m - p + k + 1))
        for lo in range(0, len(last), step):
            rep, b = np.nonzero(last[lo:lo + step, None] < idx[:m - p + k + 1])
            block = minima[lo:lo + step].take(rep, axis=0)
            yield from extend(b, np.minimum(block, cols.take(b, axis=0), out=block), k + 1)

    yield from extend(idx[:m - p + 1], cols[:m - p + 1], 1)


def _lex_subset(m: int, p: int, rank: int) -> list[int]:
    """The p-subset of range(m) at position rank in lexicographic order."""
    subset, a = [], 0
    while len(subset) < p:
        n = math.comb(m - a - 1, p - len(subset) - 1)  # subsets whose next member is a
        if rank < n:
            subset.append(a)
        else:
            rank -= n
        a += 1
    return subset


def solve_enumeration(inst: Instance) -> CenterSolution:
    """Best closest-allocation solution over all p-subsets of points.

    Subsets are scanned in lexicographic order and ties kept strictly, so
    the reported optimum always carries the lexicographically smallest
    center set among value ties. Cost vectors are built by extending
    prefixes (_subset_minima), and a minimum rounds nothing; each block is
    scored at once by om_evaluate, which gives every subset the bits that
    closest_allocation gives it alone.
    """
    m, p = inst.m, inst.p
    n_subsets = math.comb(m, p)
    if n_subsets > ENUMERATION_CAP:
        raise SizeGuardError(
            f"enumerating C({m},{p}) = {n_subsets} center sets exceeds the "
            f"{ENUMERATION_CAP} cap; shrink the instance or p")
    # row j of cols is the cost of serving every point from center j
    cols = np.ascontiguousarray(inst.dist.d.T)
    best_value, best_rank, rank = math.inf, 0, 0
    for minima in _subset_minima(cols, p):
        scores = om_evaluate(minima, inst.weights)
        k = int(np.argmin(scores))  # first minimum: lexicographically smallest
        if scores[k] < best_value:
            best_value, best_rank = scores[k], rank + k
        rank += len(scores)
    return closest_allocation(inst.dist, _lex_subset(m, p, best_rank), inst.weights)


def recovery_status(inst: Instance, *, model: DompModel | None = None) -> RecoveryReport:
    """Solve both ways and report whether the relaxation is exact here.

    The enumeration runs first, and the simplex starts at its optimum
    lifted by embed_integral: the start is feasible, so phase 1 is skipped
    and phase 2 walks down from v_ip. A model built from this very instance
    object may be passed to avoid rebuilding (any other raises
    ParameterError). Both tolerances follow inst.unit, max(1, lam_1 * max d):
    v_lp is obj . x at a vertex whose check_solution residual is at most
    RESIDUAL_TOL * unit, and it recovers v_ip within RECOVERY_RTOL * |v_ip|,
    or RECOVERY_RTOL * unit when v_ip is 0. A vertex over the residual
    bound, or with v_lp above v_ip by more than the recovery tolerance,
    raises ConvergenceError.

    When recovered, the certificate is read off the same solve: alpha is
    the assignment rows' duals and omega minus the cardinality row's. With
    beta_ij >= 0 minus the dual of z_ij <= y_j, y_j's reduced cost is
    omega - sum_i beta_ij >= 0; best_solution is then an LP optimum, so
    complementary slackness sets it to 0 at each of its centers: centers
    share omega and no point exceeds it. The verdict also checks that the
    sorting rows price point i at lam_rank(i) * d_ij.
    """
    if model is not None:
        model.require(inst)
    t0 = time.perf_counter()
    best = solve_enumeration(inst)
    time_enumeration = time.perf_counter() - t0
    if model is None:
        model = build_bep(inst)
    t0 = time.perf_counter()
    sol = solve_lp(model.lp, start=embed_integral(model, best))
    time_lp = time.perf_counter() - t0
    if not sol.is_optimal():
        raise ConvergenceError(f"relaxation solve ended {sol.status}",
                               sol.iterations)
    unit = inst.unit
    # a verdict never rests on a vertex that fails its own optimality check;
    # written so that a NaN residual fails too
    residual = check_solution(model.lp, sol).max_residual()
    if not residual <= RESIDUAL_TOL * unit:
        raise ConvergenceError(
            f"relaxation residual {residual:.3e} exceeds "
            f"{RESIDUAL_TOL * unit:g}", sol.iterations)
    v_ip = float(best.value)
    # the value of the checked vertex, whatever value the solver stored
    v_lp = float(np.dot(model.lp.obj, sol.x))
    tol = RECOVERY_RTOL * (abs(v_ip) or unit)
    # the integral optimum embeds as a feasible LP vector, so a vertex above
    # it is a solver failure, not a verdict
    if v_lp > v_ip + tol:
        raise ConvergenceError(
            f"relaxation value {v_lp!r} exceeds the exact optimum {v_ip!r}",
            sol.iterations)
    recovered = abs(v_ip - v_lp) <= tol
    if recovered or v_ip == 0.0:
        gap = 0.0
    else:
        gap = min(1.0, max(0.0, (v_ip - v_lp) / v_ip))
    cert = verdict = None
    if recovered:
        cert = make_certificate(inst, sorting_permutation(best.distances),
                                *location_duals(model, sol.y))
        verdict = verify_certificate(inst, best, cert)
    return RecoveryReport(
        v_ip=v_ip,
        v_lp=v_lp,
        best_solution=best,
        gap_lp=gap,
        recovered=recovered,
        vertex_integral=fractionality_report(model, sol.x).integral,
        time_enumeration=time_enumeration,
        time_lp=time_lp,
        certificate=cert,
        verdict=verdict,
    )
