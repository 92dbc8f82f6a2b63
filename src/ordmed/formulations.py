"""Builders mapping instances to LP models over the center/assignment polytope."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .instance import CenterSolution, Instance, _frozen_array
from .lp_core import INTEGRALITY_TOL, RESIDUAL_TOL, LinearProgram
from .ordered_median import sorting_permutation


# compared and hashed by identity, as its LinearProgram is; arrays have no bool ==
@dataclass(frozen=True, eq=False)
class DompModel:
    """A built model, the Instance it was built from, and its LP column indices.

    The indices are read-only int arrays. y (m,) and z (m, m) hold the
    location and allocation columns. A BEP model (lp.name "bep") fills u (m,)
    and v (S,), an OT model (lp.name "ot") fills t (S,) and q (m, S), and the
    other pair stays None. S counts the weight steps (see _steps); without a
    step u is empty too. All arrays together cover every LP column once.
    """

    lp: LinearProgram
    inst: Instance
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray | None = None
    v: np.ndarray | None = None
    t: np.ndarray | None = None
    q: np.ndarray | None = None

    def require(self, inst: Instance) -> None:
        """Refuse inst unless it is the very object this model was built from."""
        if inst is not self.inst:
            raise ParameterError("model was built from a different instance")


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

    The rows come in that order, m, m * m and 1 of them (location_duals
    reads them there). Every sort position carries at least the last weight
    lam_m, so z_ij costs lam_m * d_ij and the sorting rows price only the
    weights above lam_m. No upper bound 1 would change the value: z <= 1
    follows from the assignment row, and a y_j > 1 can move its excess to
    some y_k < 1 (sum y = p <= m) at no cost, keeping every row. The dual of
    a bound y_j <= 1 would absorb the differences between open centers.
    """
    m = inst.m
    cost = inst.weights.lam[-1] * inst.dist.d
    lp = LinearProgram(name)
    y = [lp.add_variable(0.0) for _ in range(m)]
    z = [[lp.add_variable(c) for c in row] for row in cost.tolist()]
    for zi in z:
        lp.add_row(dict.fromkeys(zi, 1.0), "=", 1.0)
    for zi in z:
        for zij, yj in zip(zi, y):
            lp.add_row({zij: 1.0, yj: -1.0}, "<=", 0.0)
    lp.add_row(dict.fromkeys(y, 1.0), "=", float(inst.p))
    return lp, _frozen_array(y, np.intp), _frozen_array(z, np.intp)


def location_duals(model: DompModel, row_duals: np.ndarray) -> tuple[np.ndarray, float]:
    """alpha, the assignment rows' duals, and omega, minus the cardinality row's."""
    return row_duals[:model.y.size], -float(row_duals[model.y.size + model.z.size])


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
    lam = inst.weights.lam
    steps = _steps(inst)
    lp, y, z = _location_allocation("bep", inst)
    u = [lp.add_variable(1.0) for _ in range(inst.m if steps.size else 0)]
    v = [lp.add_free_variable(n) for n in np.diff(steps, prepend=-1).tolist()]
    mu = lam[steps] - lam[-1]
    for i, (zi, ui) in enumerate(zip(z.tolist(), u)):
        for mu_s, vs in zip(mu, v):
            coeffs = dict(zip(zi, (-mu_s * inst.dist.d[i]).tolist()))
            coeffs[ui] = 1.0
            coeffs[vs] = 1.0
            lp.add_row(coeffs, ">=", 0.0)
    return DompModel(lp=lp, inst=inst, y=y, z=z, u=_frozen_array(u, np.intp),
                     v=_frozen_array(v, np.intp))


def build_ot(inst: Instance) -> DompModel:
    """Build the telescoped-threshold model over largest-sum linearizations.

    The sorted objective is sum_s deltas_s * (top-s sum). The top-m sum is
    priced on z; each step s < m adds t_s, q_is >= 0, the cost
    deltas_s * (s * t_s + sum_i q_is) and rows q_is + t_s - sum_j d_ij z_ij
    >= 0. A zero delta's block costs nothing and holds for every z.
    """
    steps = _steps(inst)
    deltas = inst.weights.deltas()[steps]
    lp, y, z = _location_allocation("ot", inst)
    t = [lp.add_free_variable(c) for c in (deltas * (steps + 1)).tolist()]
    q = [[lp.add_variable(c) for c in deltas.tolist()] for _ in range(inst.m)]
    for i, (zi, qi) in enumerate(zip(z.tolist(), q)):
        tail = dict(zip(zi, (-inst.dist.d[i]).tolist()))
        for qis, ts in zip(qi, t):
            coeffs = dict(tail)
            coeffs[qis] = 1.0
            coeffs[ts] = 1.0
            lp.add_row(coeffs, ">=", 0.0)
    return DompModel(lp=lp, inst=inst, y=y, z=z, t=_frozen_array(t, np.intp),
                     q=_frozen_array(q, np.intp))


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
    collapses to sum_r a_r * (lam_m + mu_r), the ordered median value. Both
    are checked to RESIDUAL_TOL * max(1, lam_1 * max d), recovery_status's
    unit; only a solution of another instance can fail them.
    """
    if model.lp.name != "bep":
        raise ParameterError("integral embeddings are defined for the BEP model")
    model.require(inst)
    m = inst.m
    lam = inst.weights.lam
    mu = lam - lam[-1]
    x = np.zeros(model.lp.n_vars)
    x[model.y[list(sol.centers)]] = 1.0
    x[model.z[np.arange(m), list(sol.assignment)]] = 1.0
    order = list(sorting_permutation(sol.distances).order)
    a = sol.distances[order]
    v_sorted = np.zeros(m)
    for r in range(m - 2, -1, -1):
        v_sorted[r] = v_sorted[r + 1] + a[r + 1] * (mu[r] - mu[r + 1])
    u = np.empty(m)
    u[order] = a * mu - v_sorted
    if model.u.size:
        x[model.u] = u
        x[model.v] = v_sorted[_steps(inst)]
    tol = RESIDUAL_TOL * max(1.0, inst.max_term)
    # the tail column r = m (mu = v = 0) reads u >= 0
    worst = float((u[:, None] + v_sorted - np.outer(sol.distances, mu)).min())
    drift = abs(float(u.sum() + v_sorted.sum() + lam[-1] * a.sum()) - sol.value)
    if worst < -tol or drift > tol:
        raise ParameterError(f"sol is no solution of this instance: sorting row "
                             f"violation {max(0.0, -worst):.3e}, value drift "
                             f"{drift:.3e}")
    return x


def fractionality_report(model: DompModel, x: np.ndarray) -> FractionalityReport:
    """Distance of the (y, z) block from binary, with fractional y indices.

    x is a full LP vector, such as LpSolution.x or an embed_integral result.
    """
    y_vals = x[model.y]
    z_vals = x[model.z]
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
