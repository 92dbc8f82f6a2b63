"""Self-contained bounded-variable revised simplex.

The model is minimization with rows of relation <=, =, or >= and simple
variable bounds (default lower 0; free variables allowed). Bounds are
enforced at the ratio test (Dantzig 1955; Chvatal, Linear Programming,
ch. 8), so no bound becomes a row and no free column is split. Each
inequality row gets one slack. Artificials are added only for equality
rows and rows whose slack cannot start within its bounds, each signed by
the row's starting residual, so no row is ever flipped. Phase 1 minimizes
the artificials; phase 2 pins them at zero and leaves any still basic in
place, which also covers redundant equality rows.

A solve starts at a point: by default every column at its finite lower
bound, else its finite upper bound, else 0 (its resting value), or at a
given start clipped to the bounds. The artificials absorb the start's row
residuals. A column the start leaves off its resting value and its bounds
is crashed into the basis (Bixby, ORSA J. Computing 1992): a zero-step
swap with the basic that sits at a bound and has the largest pivot entry,
or, where no such basic exists, a ratio-test step toward its resting
value. One refactor follows, so every solve begins at a basic solution.
Phase 1 runs only when the artificials' sum exceeds PHASE1_TOL times the
right-hand-side scale, which is read at the default point whatever the
start: a feasible start goes straight to phase 2, and a default start
keeps every pivot of a solve without one.

The solver keeps an explicit dense basis inverse with a rank-1 update per
pivot, rebuilds it (and the basic values) from the original columns every
REFACTOR_EVERY steps and before declaring a phase optimal, prices by the
largest improving reduced cost, and switches to Bland's rule after a
budget of degenerate pivots to guarantee termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConvergenceError, ParameterError

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"

PIVOT_TOL = 1e-9
PIVOT_SAFETY = 1e-7
RATIO_TIE_TOL = 1e-9
ITERATION_CAP = 10**6
REFACTOR_EVERY = 50
INTEGRALITY_TOL = 1e-6
RESIDUAL_TOL = 1e-9  # largest check_solution residual a verdict may rest on
PHASE1_TOL = 1e-7  # phase-1 value, over the rhs scale, above which an LP is infeasible


class LinearProgram:
    """Builder for a minimization LP: columns and rows are plain indices.

    name labels the model (for example "bep", "ot" or "certificate"); a
    column or row carries no name of its own.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self.obj: list[float] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.rows: list[tuple[dict[int, float], str, float]] = []

    @property
    def n_vars(self) -> int:
        return len(self.obj)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def add_variable(self, obj: float = 0.0, lower: float = 0.0,
                     upper: float = math.inf) -> int:
        if not (lower <= upper):
            raise ParameterError(f"variable bounds [{lower}, {upper}] are empty")
        if math.isinf(lower) and lower < 0 and math.isfinite(upper):
            raise ParameterError("free variables may not carry a finite upper bound")
        self.obj.append(float(obj))
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        return len(self.obj) - 1

    def add_free_variable(self, obj: float = 0.0) -> int:
        return self.add_variable(obj, lower=-math.inf)

    def add_row(self, coeffs, rel: str, rhs: float) -> int:
        """Add a row; coeffs is a {var index: coefficient} map or pair iterable."""
        if rel not in ("<=", "=", ">="):
            raise ParameterError(f"relation must be <=, =, or >=, got {rel!r}")
        if not math.isfinite(rhs):
            raise ParameterError("row rhs must be finite")
        cmap = dict(coeffs)
        for j, a in cmap.items():
            if not (0 <= j < self.n_vars):
                raise ParameterError(f"row references unknown variable {j}")
            if not math.isfinite(a):
                raise ParameterError("row coefficients must be finite")
        self.rows.append((cmap, rel, float(rhs)))
        return len(self.rows) - 1

    def dense(self) -> tuple[np.ndarray, list[str], np.ndarray]:
        """Rows as (A, relations, b) with A dense of shape (n_rows, n_vars)."""
        maps = [cmap for cmap, _, _ in self.rows]
        i = np.repeat(np.arange(len(maps)), [len(cmap) for cmap in maps])
        j = np.fromiter(chain.from_iterable(maps), dtype=np.intp, count=len(i))
        a = np.zeros((self.n_rows, self.n_vars))
        # += (not =) stores a -0.0 coefficient as +0.0; (i, j) pairs are unique
        a[i, j] += np.fromiter(chain.from_iterable(cmap.values() for cmap in maps),
                               dtype=float, count=len(i))
        rels = [rel for _, rel, _ in self.rows]
        b = np.array([rhs for _, _, rhs in self.rows], dtype=float)
        return a, rels, b


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Primal/dual basic solution of a LinearProgram.

    Dual sign convention under minimization: <= rows yield duals <= 0,
    >= rows yield duals >= 0, equality rows are unrestricted. upper_duals
    holds one multiplier per variable (0 unless its finite upper binds).
    iterations counts simplex pivots plus bound flips over both phases, and
    the crash's swaps and steps; phase1_iterations counts those of phase 1.
    """

    status: str
    x: np.ndarray | None = None
    value: float | None = None
    y: np.ndarray | None = None
    upper_duals: np.ndarray | None = None
    basis: frozenset[int] = frozenset()
    iterations: int = 0
    phase1_iterations: int = 0

    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


@dataclass(frozen=True)
class ResidualReport:
    """Worst violation of each optimality block for a proposed solution."""

    primal_infeasibility: float
    dual_infeasibility: float
    complementary_slackness: float
    duality_gap: float

    def max_residual(self) -> float:
        """Largest block residual; NaN when any block is NaN."""
        return float(np.max([self.primal_infeasibility, self.dual_infeasibility,
                             self.complementary_slackness, self.duality_gap]))


class _BoundedSimplex:
    """Revised simplex over [A | slacks | artificials] x = b, lo <= x <= hi.

    Columns are the user columns, one slack per inequality row (coefficient
    +1, bounds [0, inf) for <= and (-inf, 0] for >=), then one artificial
    per row whose slack cannot start within its bounds, signed by that
    row's starting residual. A column rests at a finite lower bound, else
    at a finite upper bound, else at 0; user columns start at start (their
    resting values when None), and _crash leaves no nonbasic column off
    its bounds and its resting value.
    """

    def __init__(self, lp: LinearProgram, start: np.ndarray | None = None):
        a_user, rels, b = lp.dense()
        k, n = a_user.shape
        ineq = np.array([i for i, rel in enumerate(rels) if rel != "="], dtype=int)
        le = np.array([rels[i] == "<=" for i in ineq], dtype=bool)
        lo = np.concatenate([lp.lower, np.where(le, 0.0, -np.inf)])
        hi = np.concatenate([lp.upper, np.where(le, np.inf, 0.0)])
        rest = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        x = rest.copy()
        if start is not None:
            x[:n] = np.clip(start, lo[:n], hi[:n])

        # the degeneracy and phase-1 thresholds read the default point's scale
        self.b_scale = 1.0 + float(np.max(np.abs(b - a_user @ rest[:n]), initial=0.0))
        resid = b - a_user @ x[:n]
        slack_ok = (lo[n:] <= resid[ineq]) & (resid[ineq] <= hi[n:])
        basis = np.full(k, -1, dtype=int)
        basis[ineq[slack_ok]] = n + np.nonzero(slack_ok)[0]
        art_rows = np.nonzero(basis < 0)[0]
        art_start = n + len(ineq)
        basis[art_rows] = art_start + np.arange(len(art_rows))
        # slack and artificial columns are signed unit vectors of these rows
        self.unit_rows = np.concatenate([ineq, art_rows])
        self.unit_sign = np.concatenate(
            [np.ones(len(ineq)), np.where(resid[art_rows] < 0.0, -1.0, 1.0)])
        self.n = n
        self.a_user = a_user
        self.A = np.hstack([a_user, np.eye(k)[:, self.unit_rows] * self.unit_sign])
        self.b = b
        self.k, total = self.A.shape
        self.lo = np.concatenate([lo, np.zeros(len(art_rows))])
        self.hi = np.concatenate([hi, np.full(len(art_rows), np.inf)])
        self.x = np.concatenate([x, np.zeros(len(art_rows))])
        self.rest = np.concatenate([rest, np.zeros(len(art_rows))])
        self.art = slice(art_start, total)
        self.c1 = np.zeros(total)
        self.c1[self.art] = 1.0
        self.c2 = np.zeros(total)
        self.c2[:n] = lp.obj
        self.basis = basis
        self.is_basic = np.zeros(total, dtype=bool)
        self.is_basic[basis] = True
        self.iterations = 0
        self.degenerate_pivots = 0
        self.bland = False
        self.bland_budget = 5 * (self.k + total)
        self.refactor()
        self._crash()

    def refactor(self) -> None:
        """Rebuild B^-1 from the original columns and x_B from b - A_N x_N.

        Basic slacks and artificials are signed unit columns, so only the
        block of structural basic columns on the rows no unit column covers
        is inverted; the rest of B^-1 follows by block elimination.
        """
        n = self.n
        pos_u = np.nonzero(self.basis >= n)[0]
        pos_s = np.nonzero(self.basis < n)[0]
        rows_u = self.unit_rows[self.basis[pos_u] - n]
        sign_u = self.unit_sign[self.basis[pos_u] - n]
        rows_s = np.setdiff1d(np.arange(self.k), rows_u)
        cols = self.a_user[:, self.basis[pos_s]]
        try:
            if len(rows_s) != len(pos_s):
                raise np.linalg.LinAlgError("two unit columns share a row")
            g = np.linalg.inv(cols[rows_s])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"basis matrix became singular: {exc}", self.iterations
            )
        self.binv = np.zeros((self.k, self.k))
        self.binv[np.ix_(pos_s, rows_s)] = g
        self.binv[np.ix_(pos_u, rows_s)] = -sign_u[:, None] * (cols[rows_u] @ g)
        self.binv[pos_u, rows_u] = sign_u
        x_nonbasic = np.where(self.is_basic, 0.0, self.x)
        self.x[self.basis] = self.binv @ (self.b - self.A @ x_nonbasic)
        self.stale = 0

    def _crash(self) -> None:
        """Bring each nonbasic column off its bounds and resting value into the basis.

        In column order: a zero-step swap with the basic that sits at a
        bound (within the degenerate step) and has the largest pivot entry
        of at least PIVOT_SAFETY, whatever its sign. A column no such basic
        can take moves toward its resting value by a ratio-test step instead,
        entering the basis or landing there. Each counts as an iteration.
        """
        off = (self.lo < self.x) & (self.x < self.hi) & (self.x != self.rest)
        for j in np.nonzero(off[:self.n] & ~self.is_basic[:self.n])[0].tolist():
            col = self.A[:, j]
            nz = np.nonzero(col)[0]
            alpha = self.binv[:, nz] @ col[nz]
            xb, lo, hi = self.x[self.basis], self.lo[self.basis], self.hi[self.basis]
            at_bound = np.minimum(xb - lo, hi - xb) <= PIVOT_TOL * self.b_scale
            pivots = np.where(at_bound, np.abs(alpha), 0.0)
            r = int(np.argmax(pivots))
            if pivots[r] >= PIVOT_SAFETY:
                leaving = self.basis[r]
                self.x[leaving] = lo[r] if xb[r] - lo[r] <= hi[r] - xb[r] else hi[r]
                self._swap(j, r, alpha)
                self.iterations += 1
                self.stale += 1
                continue
            sign = 1.0 if self.x[j] < self.rest[j] else -1.0
            r, theta = self._ratio_test(j, sign, alpha)
            self._step(j, sign, r, theta, alpha)
        if self.stale:
            self.refactor()

    def _entering(self) -> tuple[int, float] | None:
        """Improving nonbasic column and its direction (+1 up, -1 down)."""
        cb = self.costs[self.basis]
        nz = np.nonzero(cb)[0]
        self.y = cb[nz] @ self.binv[nz]
        self.d = self.costs - np.concatenate(
            [self.y @ self.a_user, self.y[self.unit_rows] * self.unit_sign])
        nonbasic = ~self.is_basic
        up = nonbasic & (self.d < -PIVOT_TOL) & (self.x < self.hi)
        down = nonbasic & (self.d > PIVOT_TOL) & (self.x > self.lo)
        cand = np.nonzero(up | down)[0]
        if not cand.size:
            return None
        if self.bland:
            j = int(cand[0])
        else:
            j = int(cand[np.argmax(np.abs(self.d[cand]))])
        return j, (1.0 if up[j] else -1.0)

    def _stop(self, j: int, sign: float) -> float:
        """Where column j, moving in direction sign, meets a bound or its rest."""
        if (self.rest[j] - self.x[j]) * sign > 0.0:
            return self.rest[j]
        return self.hi[j] if sign > 0 else self.lo[j]

    def _ratio_test(self, j: int, sign: float,
                    alpha: np.ndarray) -> tuple[int, float]:
        """Blocking basis row and step length; row -1 means j flips bounds.

        The basic values change at rate -sign * alpha per unit step, and a
        flip is measured from j's current value to _stop(j, sign).
        """
        delta = -sign * alpha
        xb = self.x[self.basis]
        lo = self.lo[self.basis]
        hi = self.hi[self.basis]
        ratios = np.full(self.k, np.inf)
        dec = delta < -PIVOT_TOL
        inc = delta > PIVOT_TOL
        ratios[dec] = (xb[dec] - lo[dec]) / -delta[dec]
        ratios[inc] = (hi[inc] - xb[inc]) / delta[inc]
        np.maximum(ratios, 0.0, out=ratios)
        theta = float(ratios.min(initial=np.inf))
        flip = abs(self._stop(j, sign) - self.x[j])
        if flip <= theta:
            return -1, flip
        ties = np.nonzero(ratios <= theta + RATIO_TIE_TOL * (1.0 + theta))[0]
        if self.bland:
            # the smallest basic-variable id among the ties keeps Bland valid
            r = int(ties[np.argmin(self.basis[ties])])
        else:
            # the largest pivot entry among the ties; a pivot barely above
            # PIVOT_TOL amplifies round-off by its reciprocal
            r = int(ties[np.argmax(np.abs(delta[ties]))])
        if theta <= PIVOT_TOL * self.b_scale:
            self.degenerate_pivots += 1
            if self.degenerate_pivots > self.bland_budget:
                self.bland = True
        return r, theta

    def _step(self, j: int, sign: float, r: int, theta: float,
              alpha: np.ndarray) -> None:
        delta = -sign * alpha
        self.x[self.basis] += theta * delta
        if r < 0:
            self.x[j] = self._stop(j, sign)
        else:
            self.x[j] += sign * theta
            leaving = self.basis[r]
            self.x[leaving] = self.lo[leaving] if delta[r] < 0 else self.hi[leaving]
            self._swap(j, r, alpha)
        self.iterations += 1
        self.stale += 1
        if self.stale >= REFACTOR_EVERY:
            self.refactor()

    def _swap(self, j: int, r: int, alpha: np.ndarray) -> None:
        """Column j replaces the basic of row r; alpha is B^-1 times j's column."""
        leaving = self.basis[r]
        self.is_basic[leaving] = False
        self.is_basic[j] = True
        self.basis[r] = j
        row = self.binv[r] / alpha[r]
        # the update touches only rows where alpha and columns where
        # row are nonzero; both stay sparse on the ordered-median models
        rows = np.nonzero(alpha)[0]
        cols = np.nonzero(row)[0]
        self.binv[np.ix_(rows, cols)] -= np.outer(alpha[rows], row[cols])
        self.binv[r] = row

    def run(self, costs: np.ndarray) -> str:
        """Iterate under costs until optimal on a fresh B^-1, or unbounded."""
        self.costs = costs
        while True:
            if self.iterations >= ITERATION_CAP:
                raise ConvergenceError("simplex hit the iteration cap", self.iterations)
            entering = self._entering()
            if entering is None:
                if not self.stale:
                    return OPTIMAL
                self.refactor()
                continue
            j, sign = entering
            col = self.A[:, j]
            nz = np.nonzero(col)[0]
            alpha = self.binv[:, nz] @ col[nz]
            r, theta = self._ratio_test(j, sign, alpha)
            if math.isinf(theta):
                return UNBOUNDED
            # A near-zero pivot on a stale inverse is usually accumulated
            # round-off; rebuild from original data and re-select.
            if r >= 0 and abs(alpha[r]) < PIVOT_SAFETY and self.stale:
                self.refactor()
                continue
            self._step(j, sign, r, theta, alpha)


def solve_lp(lp: LinearProgram, start: np.ndarray | None = None) -> LpSolution:
    """Two-phase bounded-variable simplex; statuses are values, never exceptions.

    start, when given, is a finite vector of lp.n_vars column values to
    begin from (clipped to the bounds; it need not satisfy the rows), such
    as embed_integral's lift of a known integral solution. A feasible start
    skips phase 1, and phase 2 walks down from its value. None begins at
    every column's resting value. Either way the result is a basic
    solution: no nonbasic column lies strictly inside its bounds.
    """
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (lp.n_vars,) or not np.all(np.isfinite(start)):
            raise ParameterError(f"start must be {lp.n_vars} finite values")
    sim = _BoundedSimplex(lp, start)
    crashed = sim.iterations

    def infeasible() -> bool:
        return float(sim.c1 @ sim.x) > PHASE1_TOL * sim.b_scale

    # the phase-1 objective is bounded below by zero; unbounded is numerical
    if infeasible() and sim.run(sim.c1) == UNBOUNDED:
        raise ConvergenceError("phase 1 reported unbounded", sim.iterations)
    phase1 = sim.iterations - crashed
    if infeasible():
        return LpSolution(status=INFEASIBLE, iterations=sim.iterations,
                          phase1_iterations=phase1)

    # Pin the artificials at zero; a basic one leaves at the first pivot
    # that would move it, and one on a redundant row never moves.
    sim.hi[sim.art] = 0.0
    if sim.run(sim.c2) == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, iterations=sim.iterations,
                          phase1_iterations=phase1)

    n = lp.n_vars
    x = sim.x[:n].copy()
    # a fixed column's positive reduced cost belongs to its lower bound
    at_upper = ~sim.is_basic[:n] & (x == sim.hi[:n])
    return LpSolution(
        status=OPTIMAL,
        x=x,
        value=float(np.dot(lp.obj, x)),
        y=sim.y,
        upper_duals=np.where(at_upper, np.minimum(sim.d[:n], 0.0), 0.0),
        basis=frozenset(int(j) for j in sim.basis if j < n),
        iterations=sim.iterations,
        phase1_iterations=phase1,
    )


def _worst(violations: np.ndarray) -> float:
    """Largest entry, floored at 0 (a satisfied block reports no residual)."""
    return float(np.max(violations, initial=0.0))


def check_solution(lp: LinearProgram, sol: LpSolution) -> ResidualReport:
    """Report worst primal, dual, complementary-slackness, and gap residuals.

    Works from the user-facing vectors only, so hand-perturbed copies of a
    solution report exactly the damage done to them.
    """
    if not sol.is_optimal():
        raise ParameterError("check_solution needs an Optimal solution")
    a, rels, b = lp.dense()
    x = np.asarray(sol.x, dtype=float)
    y = np.asarray(sol.y, dtype=float)
    mu = np.asarray(sol.upper_duals, dtype=float)
    lower = np.array(lp.lower)
    upper = np.array(lp.upper)

    rel = np.array(rels)
    le, ge = rel == "<=", rel == ">="
    finite_lo = np.isfinite(lower)
    finite_up = np.isfinite(upper)

    slack = b - a @ x
    primal = max(
        _worst(np.where(le, -slack, np.where(ge, slack, np.abs(slack)))),
        _worst(lower[finite_lo] - x[finite_lo]),
        _worst(x[finite_up] - upper[finite_up]))

    # reduced costs implied by (y, mu): rc = c - A^T y - mu
    rc = np.array(lp.obj) - a.T @ y - mu
    dual = max(
        _worst(y[le]),   # must be <= 0
        _worst(-y[ge]),  # must be >= 0
        _worst(mu[finite_up]),  # must be <= 0
        _worst(np.abs(mu[~finite_up])),
        _worst(-rc[finite_lo]),  # must be >= 0
        _worst(np.abs(rc[~finite_lo])))
    comp = max(
        _worst(np.abs(y * slack)),
        _worst(np.abs(rc[finite_lo] * (x[finite_lo] - lower[finite_lo]))),
        _worst(np.abs(mu[finite_up] * (upper[finite_up] - x[finite_up]))))

    bound_terms = float(np.sum(mu[finite_up] * upper[finite_up])) \
        + float(np.sum(rc[finite_lo] * lower[finite_lo]))
    gap = abs(float(np.dot(lp.obj, x)) - (float(np.dot(y, b)) + bound_terms))
    return ResidualReport(primal, dual, comp, gap)
