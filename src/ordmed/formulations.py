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
    The three blocks are one add_rows of index arrays: assignment row i
    holds z[i, :], linking row m + i * m + j holds z[i, j] and y[j], and
    the cardinality row holds y.
    """
    m = inst.m
    lp = LinearProgram(name)
    cost = inst.weights.lam[-1] * inst.dist.d
    yz = lp.add_variables(np.concatenate([np.zeros(m), cost.ravel()]))
    y, z = yz[:m], yz[m:].reshape(m, m)
    link = np.arange(m * m)
    lp.add_rows(np.concatenate([link // m, m + link, m + link, np.full(m, m + m * m)]),
                np.concatenate([z.ravel(), z.ravel(), y[link % m], y]),
                np.concatenate([np.ones(2 * m * m), -np.ones(m * m), np.ones(m)]),
                np.repeat(["=", "<=", "="], [m, m * m, 1]),
                np.concatenate([np.ones(m), np.zeros(m * m), [inst.p]]))
    return lp, _frozen_array(y, np.intp), _frozen_array(z, np.intp)


def _sorting_block(model: DompModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The own, shared and scale arrays of model's sorting rows.

    Row i * S + s reads own[i * S + s] + shared[s] - scale[s] * d[i] . z[i]
    >= 0, with S = len(shared) steps. BEP: own u_i, shared v_s, scale
    mu_s = lam_s - lam_m. OT: own q_is, shared t_s, scale 1.
    """
    steps = _steps(model.inst)
    if model.lp.name == "bep":
        lam = model.inst.weights.lam
        return np.repeat(model.u, steps.size), model.v, lam[steps] - lam[-1]
    return model.q.ravel(), model.t, np.ones(steps.size)


def _sorting_rows(model: DompModel) -> DompModel:
    """Add the rows of _sorting_block in one add_rows (none for S = 0); return model."""
    own, shared, scale = _sorting_block(model)
    d, z = model.inst.dist.d, model.z
    m, n_steps = len(d), shared.size
    rows = np.arange(m * n_steps)
    model.lp.add_rows(np.concatenate([rows.repeat(m), rows, rows]),
                      np.concatenate([z.repeat(n_steps, axis=0).ravel(), own,
                                      shared[rows % n_steps]]),
                      np.concatenate([(-scale[:, None] * d[:, None, :]).ravel(),
                                      np.ones(2 * rows.size)]), ">=", np.zeros(rows.size))
    return model


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
    steps = _steps(inst)
    lp, y, z = _location_allocation("bep", inst)
    u = lp.add_variables(np.ones(inst.m if steps.size else 0))
    v = lp.add_variables(steps - np.concatenate([[-1], steps[:-1]]), lower=-np.inf)
    return _sorting_rows(DompModel(lp=lp, inst=inst, y=y, z=z, u=_frozen_array(u, np.intp),
                                   v=_frozen_array(v, np.intp)))


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
    t = lp.add_variables(deltas * (steps + 1), lower=-np.inf)
    q = lp.add_variables(np.tile(deltas, inst.m)).reshape(inst.m, steps.size)
    return _sorting_rows(DompModel(lp=lp, inst=inst, y=y, z=z, t=_frozen_array(t, np.intp),
                                   q=_frozen_array(q, np.intp)))


def embed_integral(model: DompModel, sol: CenterSolution) -> np.ndarray:
    """Lift a center solution of model.inst to a feasible LP vector of equal objective.

    y and z are the indicators of sol; sort its allocation distances
    canonically as a_1 >= ... >= a_m. Each sorting block's shared column
    takes its value from the proof. In BEP, with mu = lam - lam_m, the
    per-position duals are v_m = 0 and v_r = v_{r+1} + a_{r+1} * (mu_r -
    mu_{r+1}); v is constant on each run, so v_s takes its run's value. In
    OT, t_s is a_{s+1}, the (s+1)-th largest distance. Every own column (u_i
    in BEP, q_is in OT) then takes the least value its sorting rows and its
    bound 0 allow, max(0, max_s(scale_s * d_i - shared_s)), so every row
    holds by construction. BEP's u_i comes out as a_r * mu_r - v_r at the
    sort position r of i (a telescoping comparison against the monotone a),
    and OT's q_is as max(0, d_i - t_s), so step s prices the top-(s+1) sum
    exactly; either objective collapses to the ordered median value. That
    value is checked to RESIDUAL_TOL * inst.unit, recovery_status's bound;
    only a solution of another instance of m points can fail it, and one of
    another point count is refused before the lift.
    """
    inst = model.inst
    sol.check_points(inst.m)
    lam, d, steps = inst.weights.lam, sol.distances, _steps(inst)
    x = np.zeros(model.lp.n_vars)
    x[model.y[list(sol.centers)]] = 1.0
    x[model.z[np.arange(inst.m), list(sol.assignment)]] = 1.0
    a = d[list(sorting_permutation(d).order)]
    own, shared, scale = _sorting_block(model)
    if model.lp.name == "bep":
        mu = lam - lam[-1]
        # v_r for r < m - 1, summed from v_m = 0 in the recurrence's order
        x[shared] = np.cumsum((a[1:] * (mu[:-1] - mu[1:]))[::-1])[::-1][steps]
    else:
        x[shared] = a[steps]
    # own starts at its bound 0; the rows of point i and step s raise it
    np.maximum.at(x, own, (scale * d[:, None] - x[shared]).ravel())
    drift = abs(float(np.dot(model.lp.obj, x)) - sol.value)
    if drift > RESIDUAL_TOL * inst.unit:
        raise ParameterError(f"sol is no solution of this instance: value drift "
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
