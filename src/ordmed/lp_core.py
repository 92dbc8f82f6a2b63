"""Self-contained bounded-variable revised simplex.

Minimization over rows of relation <=, = or >= and column bounds (default
lower 0; free columns allowed). Bounds are enforced at the ratio test
(Dantzig 1955; Chvatal, Linear Programming, ch. 8): no bound becomes a
row and no free column is split. Each inequality row gets a slack; each
equality row, and each row whose slack cannot start within its bounds,
gets an artificial signed by its starting residual, so no row is flipped.
Phase 1 minimizes the artificials; phase 2 pins them at zero and leaves
any still basic in place, which covers redundant equality rows. A solve
starts at every column's resting value (finite lower bound, else finite
upper, else 0) or at a given start, whose columns off their bounds and
resting values are crashed into the basis (_crash; Bixby, ORSA J.
Computing 1992), then refactors: every solve begins at a basic solution.
Phase 1 runs only when the artificials' sum exceeds PHASE1_TOL times the
right-hand-side scale read at the default point, so a feasible start
goes straight to phase 2 and a default start keeps every pivot.

The dense basis inverse is kept transposed (binvt row i is B^-1 column
i): FTRAN sums the rows where the entering column is nonzero, a pivot's
rank-1 update rewrites the rows where the new pivot row is nonzero, and
BTRAN gathers the columns of nonzero basic costs. It and x_B are rebuilt
from the solve's own LinearProgram.dense() copy every REFACTOR_EVERY
steps and before a phase is declared optimal. Pricing takes the largest
improving reduced cost; Bland's rule after a budget of degenerate pivots
guarantees termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    Columns and rows come as blocks; a row block is triples
    (row, column, coefficient), the only storage of every row, and a
    repeated pair adds up. dense() assembles fresh arrays on every call, so
    each caller owns its copy and nothing outlives it. name labels the
    model ("bep", "ot", "certificate"); columns and rows carry no names.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self.obj, self.lower, self.upper = np.empty(0), np.empty(0), np.empty(0)
        self.n_rows = 0
        # (row, column, coefficient, relation, rhs) arrays; the first block is
        # empty and gives every field its dtype
        self._blocks = [(np.empty(0, np.intp),) * 2 + (np.empty(0), np.empty(0, "<U2"),
                                                       np.empty(0))]

    @property
    def n_vars(self) -> int:
        return self.obj.size

    def add_variables(self, obj, lower=0.0, upper=math.inf) -> np.ndarray:
        """Add a block of columns; lower and upper broadcast to obj's length."""
        obj = np.array(obj, dtype=float).ravel()
        lower, upper = (np.full(obj.size, v, dtype=float) for v in (lower, upper))
        if not ((lower <= upper) & ((lower > -math.inf) | np.isinf(upper))).all():
            raise ParameterError("bounds must be nonempty, a free column's upper infinite")
        first = self.n_vars
        self.obj, self.lower, self.upper = (np.concatenate(pair) for pair in (
            (self.obj, obj), (self.lower, lower), (self.upper, upper)))
        return np.arange(first, self.n_vars)

    def add_rows(self, row, col, coef, rel, rhs) -> None:
        """Add len(rhs) rows of triples (row within the block, col, coef); rel: one or per row."""
        rhs, coef = (np.array(v, dtype=float).ravel() for v in (rhs, coef))
        row, col = (np.array(v, dtype=np.intp).ravel() for v in (row, col))
        rels = np.full(rhs.size, rel)
        if not ((rels == "<=") | (rels == "=") | (rels == ">=")).all():
            raise ParameterError(f"relation must be <=, =, or >=, got {rel!r}")
        if not (row.shape == col.shape == coef.shape and np.isfinite(coef).all()
                and np.isfinite(rhs).all()):
            raise ParameterError("row triples must align; coefficients and rhs be finite")
        # read as unsigned, a negative index is out of range too
        if row.size and (row.view(np.uintp).max() >= rhs.size
                         or col.view(np.uintp).max() >= self.n_vars):
            raise ParameterError("row triples must name block rows and known variables")
        self._blocks.append((row + self.n_rows, col, coef, rels, rhs))
        self.n_rows += rhs.size

    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows as new arrays (A, relations, b), A dense of shape (n_rows, n_vars)."""
        row, col, coef, rels, b = (np.concatenate(f) for f in zip(*self._blocks))
        # bincount adds from +0.0, so a -0.0 coefficient lands as +0.0
        a = np.bincount(row * self.n_vars + col, weights=coef,
                        minlength=self.n_rows * self.n_vars)
        return a.reshape(self.n_rows, self.n_vars), rels, b


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
    its bounds and its resting value. Slack or artificial c is the unit
    vector of row unit_rows[c] times unit_sign[c].
    """

    def __init__(self, lp: LinearProgram, start: np.ndarray | None = None):
        a_user, rels, b = lp.dense()
        k, n = a_user.shape
        ineq = np.flatnonzero(rels != "=")
        le = rels[ineq] == "<="
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
        self.unit_rows = np.concatenate([ineq, art_rows])
        self.unit_sign = np.concatenate(
            [np.ones(len(ineq)), np.where(resid[art_rows] < 0.0, -1.0, 1.0)])
        self.n, self.k = n, k
        self.a_user = a_user
        self.b = b
        total = art_start + len(art_rows)
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
        block G of structural basic columns on the rows no unit column covers
        is inverted; the rest of B^-1 follows by block elimination.
        """
        n, k = self.n, self.k
        pos_u = np.flatnonzero(self.basis >= n)
        pos_s = np.flatnonzero(self.basis < n)
        rows_u = self.unit_rows[self.basis[pos_u] - n]
        sign_u = self.unit_sign[self.basis[pos_u] - n]
        rows_s = np.flatnonzero(np.bincount(rows_u, minlength=k) == 0)
        cols = self.a_user[:, self.basis[pos_s]]
        try:
            if len(rows_s) != len(pos_s):
                raise np.linalg.LinAlgError("two unit columns share a row")
            g = np.linalg.inv(cols[rows_s])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"basis matrix became singular: {exc}", self.iterations)
        # the transposes of B^-1's blocks: g on (pos_s, rows_s), -sign_u *
        # (cols[rows_u] @ g) on (pos_u, rows_s), sign_u on (pos_u, rows_u)
        top = np.empty((len(rows_s), k))
        top[:, pos_s] = g.T
        top[:, pos_u] = (-sign_u[:, None] * (cols[rows_u] @ g)).T
        self.binvt = np.zeros((k, k))
        self.binvt[rows_s] = top
        self.binvt[rows_u, pos_u] = sign_u
        xn = np.where(self.is_basic, 0.0, self.x)
        r = self.b - self.a_user @ xn[:n] \
            - np.bincount(self.unit_rows, self.unit_sign * xn[n:], minlength=k)
        self.x[self.basis] = r @ self.binvt
        self.stale = 0

    def _ftran(self, j: int) -> np.ndarray:
        """alpha = B^-1 times column j, from the rows where that column is nonzero."""
        if j >= self.n:
            return self.unit_sign[j - self.n] * self.binvt[self.unit_rows[j - self.n]]
        col = self.a_user[:, j]
        nz = col.nonzero()[0]
        return col[nz] @ self.binvt[nz]

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
            alpha = self._ftran(j)
            xb, lo, hi = self.x[self.basis], self.lo[self.basis], self.hi[self.basis]
            at_bound = np.minimum(xb - lo, hi - xb) <= PIVOT_TOL * self.b_scale
            pivots = np.where(at_bound, np.abs(alpha), 0.0)
            r = int(np.argmax(pivots))
            if pivots[r] >= PIVOT_SAFETY:
                self.x[self.basis[r]] = lo[r] if xb[r] - lo[r] <= hi[r] - xb[r] else hi[r]
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
        """Improving nonbasic column (largest |d|, lowest index) and its direction."""
        cb = self.costs[self.basis]
        nz = cb.nonzero()[0]
        self.y = self.binvt[:, nz] @ cb[nz]
        d = self.d = self.costs - np.concatenate(
            [self.y @ self.a_user, self.y[self.unit_rows] * self.unit_sign])
        # |d| when the column has room in its improving direction, else <= 0
        score = np.maximum(np.where(self.x < self.hi, -d, 0.0),
                           np.where(self.x > self.lo, d, 0.0))
        score[self.basis] = 0.0
        improving = score > PIVOT_TOL
        j = int(improving.argmax() if self.bland else score.argmax())
        return (j, 1.0 if d[j] < 0.0 else -1.0) if improving[j] else None

    def _stop(self, j: int, sign: float) -> float:
        """Where column j, moving in direction sign, meets a bound or its rest."""
        if (self.rest[j] - self.x[j]) * sign > 0.0:
            return self.rest[j]
        return self.hi[j] if sign > 0 else self.lo[j]

    def _ratio_test(self, j: int, sign: float,
                    alpha: np.ndarray) -> tuple[int, float]:
        """Blocking basis row and step length; row -1 means j flips bounds.

        The basic values change at rate -sign * alpha per unit step; only
        rows with |alpha| > PIVOT_TOL can block. A flip is measured from j's
        current value to _stop(j, sign).
        """
        rows = (np.abs(alpha) > PIVOT_TOL).nonzero()[0]
        basic = self.basis[rows]
        delta = -sign * alpha[rows]
        xb = self.x[basic]
        room = np.where(delta < 0.0, xb - self.lo[basic], self.hi[basic] - xb)
        ratios = np.maximum(room / np.abs(delta), 0.0)
        theta = float(ratios.min(initial=np.inf))
        flip = abs(self._stop(j, sign) - self.x[j])
        if flip <= theta:
            return -1, flip
        ties = (ratios <= theta + RATIO_TIE_TOL * (1.0 + theta)).nonzero()[0]
        if self.bland:
            # the smallest basic-variable id among the ties keeps Bland valid
            r = int(rows[ties[basic[ties].argmin()]])
        else:
            # the largest pivot entry among the ties; a pivot barely above
            # PIVOT_TOL amplifies round-off by its reciprocal
            r = int(rows[ties[np.abs(delta[ties]).argmax()]])
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
        """Column j replaces the basic of row r; alpha is B^-1 times j's column.

        Pivot row r of B^-1 is binvt's column r; binvt row c loses row[c] * alpha.
        """
        self.is_basic[self.basis[r]] = False
        self.is_basic[j] = True
        self.basis[r] = j
        row = self.binvt[:, r] / alpha[r]
        cols = row.nonzero()[0]
        self.binvt[cols] -= row[cols, None] * alpha
        self.binvt[:, r] = row

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
            alpha = self._ftran(j)
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
    return LpSolution(status=OPTIMAL, x=x, value=float(np.dot(lp.obj, x)), y=sim.y,
                      upper_duals=np.where(at_upper, np.minimum(sim.d[:n], 0.0), 0.0),
                      basis=frozenset(int(j) for j in sim.basis if j < n),
                      iterations=sim.iterations, phase1_iterations=phase1)


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
    x, y, mu = (np.asarray(v, dtype=float) for v in (sol.x, sol.y, sol.upper_duals))
    lower, upper = lp.lower, lp.upper

    le, ge = rels == "<=", rels == ">="
    finite_lo, finite_up = np.isfinite(lower), np.isfinite(upper)

    slack = b - a @ x
    primal = max(
        _worst(np.where(le, -slack, np.where(ge, slack, np.abs(slack)))),
        _worst(lower[finite_lo] - x[finite_lo]),
        _worst(x[finite_up] - upper[finite_up]))

    # reduced costs implied by (y, mu): rc = c - A^T y - mu
    rc = lp.obj - a.T @ y - mu
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
