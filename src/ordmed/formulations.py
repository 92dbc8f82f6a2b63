"""Builders mapping instances to LP models over the center/assignment polytope."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .instance import CenterSolution, Instance
from .lp_core import INTEGRALITY_TOL, LinearProgram, LpSolution
from .ordered_median import sorting_permutation

BEP = "BEP"
OT = "OT"


@dataclass(frozen=True)
class DompModel:
    """A built model plus maps from named variables to LP column indices.

    Exactly one of the (u, v) and (t, q) pairs is populated, matching the
    formulation tag; v, t and each q[i] hold one column per weight step (see
    _steps), and u is empty when there is no step. All maps together cover
    every LP column once.
    """

    lp: LinearProgram
    tag: str
    m: int
    p: int
    y: tuple[int, ...]
    z: tuple[tuple[int, ...], ...]
    u: tuple[int, ...] | None = None
    v: tuple[int, ...] | None = None
    t: tuple[int, ...] | None = None
    q: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class FractionalityReport:
    """How far the location/allocation block of an LP vector is from binary."""

    max_y_fractionality: float
    max_z_fractionality: float
    fractional_y: tuple[int, ...]
    integral: bool


def _steps(inst: Instance) -> np.ndarray:
    """0-based positions s < m - 1 where lam drops; each ends a run above lam_m."""
    return np.flatnonzero(inst.weights.deltas()[:-1])


def _location_allocation(name: str, inst: Instance):
    """The y and z columns and the shared rows: assignment, z <= y, cardinality.

    Every sort position carries at least the last weight lam_m, so z_ij costs
    lam_m * d_ij and the sorting rows price only the weights above lam_m.
    """
    m = inst.m
    cost = inst.weights.lam[-1] * inst.dist.d
    lp = LinearProgram(name)
    y = tuple(lp.add_variable(f"y_{j + 1}", 0.0, upper=1.0) for j in range(m))
    z = tuple(
        tuple(lp.add_variable(f"z_{i + 1}_{j + 1}", float(cost[i, j]), upper=1.0)
              for j in range(m))
        for i in range(m)
    )
    for i in range(m):
        lp.add_row({z[i][j]: 1.0 for j in range(m)}, "=", 1.0, f"assign_{i + 1}")
    for i in range(m):
        for j in range(m):
            lp.add_row({z[i][j]: 1.0, y[j]: -1.0}, "<=", 0.0, f"zy_{i + 1}_{j + 1}")
    lp.add_row({y[j]: 1.0 for j in range(m)}, "=", float(inst.p), "card")
    return lp, y, z


def build_bep(inst: Instance) -> DompModel:
    """Build the sorting-by-duals model over the location/allocation polytope.

    With mu = lam - lam_m, the run of equal mu > 0 ending at step s gets one
    free v_s costing its length, and each point i the row
    u_i + v_s - mu_s * sum_j d_ij z_ij >= 0, with u_i >= 0 costing 1. The
    per-position model on mu (free u, a v_r and a row per (i, r)) has the
    same value for every (y, z): each v_r can drop to its run's minimum, and
    shifting (u, v) by min u makes u >= 0, so the zero tail needs v_r = 0
    and no rows. Without a step, u and v are empty: the p-median LP.
    """
    m = inst.m
    lam = inst.weights.lam
    d = inst.dist.d
    steps = _steps(inst)
    lp, y, z = _location_allocation("bep", inst)
    u = tuple(lp.add_variable(f"u_{i + 1}", 1.0) for i in range(m)) if steps.size else ()
    runs = np.diff(steps, prepend=-1)
    v = tuple(lp.add_free_variable(f"v_{s + 1}", float(n))
              for s, n in zip(steps, runs))
    for i in range(m):
        for k, s in enumerate(steps):
            coeffs = {z[i][j]: -(lam[s] - lam[-1]) * d[i, j] for j in range(m)}
            coeffs[u[i]] = 1.0
            coeffs[v[k]] = 1.0
            lp.add_row(coeffs, ">=", 0.0, f"sort_{i + 1}_{s + 1}")
    return DompModel(lp=lp, tag=BEP, m=m, p=inst.p,
                     y=y, z=z, u=u, v=v)


def build_ot(inst: Instance) -> DompModel:
    """Build the telescoped-threshold model over largest-sum linearizations.

    The sorted objective is sum_s deltas_s * (top-s sum). The top-m sum is
    priced on z; each step s < m adds t_s, q_is >= 0, the cost
    deltas_s * (s * t_s + sum_i q_is) and rows q_is + t_s - sum_j d_ij z_ij
    >= 0. A zero delta's block costs nothing and holds for every z.
    """
    m = inst.m
    deltas = inst.weights.deltas()
    d = inst.dist.d
    steps = _steps(inst)
    lp, y, z = _location_allocation("ot", inst)
    t = tuple(lp.add_free_variable(f"t_{s + 1}", float(deltas[s] * (s + 1)))
              for s in steps)
    q = tuple(
        tuple(lp.add_variable(f"q_{i + 1}_{s + 1}", float(deltas[s])) for s in steps)
        for i in range(m)
    )
    for i in range(m):
        for k, s in enumerate(steps):
            coeffs = {z[i][j]: -d[i, j] for j in range(m)}
            coeffs[q[i][k]] = 1.0
            coeffs[t[k]] = 1.0
            lp.add_row(coeffs, ">=", 0.0, f"tail_{i + 1}_{s + 1}")
    return DompModel(lp=lp, tag=OT, m=m, p=inst.p,
                     y=y, z=z, t=t, q=q)


def embed_integral(inst: Instance, sol: CenterSolution,
                   model: DompModel) -> np.ndarray:
    """Lift a center solution to a feasible LP vector of equal objective.

    y and z are the indicators of sol. With allocation distances sorted
    canonically as a_1 >= ... >= a_m and mu = lam - lam_m, the per-position
    duals are v_m = 0, v_r = v_{r+1} + a_{r+1} * (mu_r - mu_{r+1}), and u at
    the point sorted r-th is a_r * mu_r - v_r >= 0; v is constant on each run
    and 0 on the tail, so v_s takes its run's value. Every row
    u_i + v_r >= mu_r * d_i holds (with equality at r = sort position of i,
    by a telescoping comparison against the monotone a), and the objective
    collapses to sum_r a_r * (lam_m + mu_r), the ordered median value.
    """
    if model.tag != BEP:
        raise ParameterError("integral embeddings are defined for the BEP model")
    if model.m != inst.m or model.p != inst.p:
        raise ParameterError("model was built from a different instance")
    m = inst.m
    lam = inst.weights.lam
    mu = lam - lam[-1]
    x = np.zeros(model.lp.n_vars)
    for j in sol.centers:
        x[model.y[j]] = 1.0
    for i in range(m):
        x[model.z[i][sol.assignment[i]]] = 1.0
    order = list(sorting_permutation(sol.distances).order)
    a = sol.distances[order]
    v_sorted = np.zeros(m)
    for r in range(m - 2, -1, -1):
        v_sorted[r] = v_sorted[r + 1] + a[r + 1] * (mu[r] - mu[r + 1])
    u = np.empty(m)
    u[order] = a * mu - v_sorted
    if model.u:
        x[list(model.u)] = u
        x[list(model.v)] = v_sorted[_steps(inst)]
    scale = 1e-9 * (1.0 + float(a[0]) * (1.0 + float(lam[0])))
    # the tail column r = m (mu = v = 0) reads u >= 0
    worst = float((u[:, None] + v_sorted - np.outer(sol.distances, mu)).min())
    if worst < -scale:
        raise AssertionError(f"embedding violates a sorting row by {-worst:.3e}")
    value = float(u.sum() + v_sorted.sum() + lam[-1] * a.sum())
    if abs(value - sol.value) > 1e-9 * (1.0 + abs(sol.value)):
        raise AssertionError("embedding objective drifted from the solution value")
    return x


def fractionality_report(model: DompModel, sol) -> FractionalityReport:
    """Distance of the (y, z) block from binary, with fractional y indices."""
    x = sol.x if isinstance(sol, LpSolution) else np.asarray(sol, dtype=float)
    y_vals = x[list(model.y)]
    z_vals = np.array([[x[model.z[i][j]] for j in range(model.m)]
                       for i in range(model.m)])
    y_frac = np.abs(y_vals - np.round(y_vals))
    z_frac = np.abs(z_vals - np.round(z_vals))
    fractional = tuple(int(j) for j in np.nonzero(y_frac > INTEGRALITY_TOL)[0])
    integral = bool(y_frac.max(initial=0.0) <= INTEGRALITY_TOL
                    and z_frac.max(initial=0.0) <= INTEGRALITY_TOL)
    return FractionalityReport(
        max_y_fractionality=float(y_frac.max(initial=0.0)),
        max_z_fractionality=float(z_frac.max(initial=0.0)),
        fractional_y=fractional,
        integral=integral,
    )
