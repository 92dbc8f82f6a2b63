"""Independent reference implementations used only to check the package.

Everything here is deliberately written with different algorithms and
different libraries than the code under test: sorting-based evaluation,
telescoped partial sums and a max over all permutations for the ordered
median, the two-vector probe of its convexity boundary, exhaustive
assignment search for the exact optimum, a per-anchor collinearity scan,
rational basis enumeration for LP minima, per-mode linear programs
(scipy) for the dip statistic, and one dip per replicate for the dip
p-value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from ordmed import ParameterError, SizeGuardError, dip_statistic

from helpers import add_row, add_variable


def om_oracle(values, lam) -> float:
    """Ordered median by literal definition: sort descending, dot with lam."""
    v = sorted((float(t) for t in values), reverse=True)
    return float(sum(a * b for a, b in zip(v, np.asarray(lam, dtype=float))))


def om_max_perm_bruteforce(d, weights) -> float:
    """Max over all permutations of the weighted pairing; m <= 8 only.

    For non-increasing weights this equals the ordered median
    (rearrangement inequality); the tests assert it rather than assume it.
    """
    d = np.asarray(d, dtype=float)
    lam = weights.lam
    if d.size != lam.size:
        raise ParameterError(f"cost length {d.size} != weight length {lam.size}")
    if d.size > 8:
        raise SizeGuardError(f"brute force limited to m <= 8, got {d.size}")
    return max(
        float(sum(lam[r] * d[i] for r, i in enumerate(perm)))
        for perm in permutations(range(d.size))
    )


def om_telescoped(d, weights) -> float:
    """Ordered median through partial sums: sum_r delta_r * (sum of r largest).

    One shared sort yields every partial sum via a cumulative sum.
    """
    d = np.asarray(d, dtype=float)
    if d.size != weights.m:
        raise ParameterError(f"cost length {d.size} != weight length {weights.m}")
    theta = np.cumsum(np.sort(d)[::-1])
    return float(np.dot(weights.deltas(), theta))


def subadditivity_gap(lam, s: int) -> float:
    """OM(c+d) - OM(c) - OM(d) for the canonical two-vector construction.

    c has ones in the first s positions; d has ones in the first s-1
    positions and in position s+1 (1-based s). The gap always equals
    lam_{s+1} - lam_s, so it is nonpositive exactly when the weights are
    non-increasing across positions s, s+1. Accepts any finite weight
    vector, including increasing ones.
    """
    lam = np.asarray(lam, dtype=float)
    m = lam.size
    if not (1 <= s < m):
        raise ParameterError(f"s must satisfy 1 <= s < {m}, got {s}")
    c = np.zeros(m)
    c[:s] = 1.0
    d = np.zeros(m)
    d[: s - 1] = 1.0
    d[s] = 1.0

    def om_any(v):
        # direct sorted dot; lam here need not be a valid WeightVector
        return float(np.dot(lam, np.sort(v)[::-1]))

    return om_any(c + d) - om_any(c) - om_any(d)


def domp_oracle(dist, lam, p) -> tuple[tuple[int, ...], float]:
    """Exact optimum over subsets, allocating each point to a nearest center.

    Independent of the package's enumeration: scans subsets in a different
    order (reverse lexicographic) and evaluates with om_oracle.
    """
    d = np.asarray(dist, dtype=float)
    m = d.shape[0]
    best_value = np.inf
    best_centers = None
    for centers in combinations(range(m - 1, -1, -1), p):
        centers = tuple(sorted(centers))
        alloc = [min((d[i, j], j) for j in centers)[0] for i in range(m)]
        value = om_oracle(alloc, lam)
        if value < best_value - 1e-15 or (
                abs(value - best_value) <= 1e-15 and centers < best_centers):
            best_value = value
            best_centers = centers
    return best_centers, float(best_value)


def assignment_beats_closest(dist, lam, p) -> bool:
    """True if any non-closest 0/1 assignment beats every closest allocation.

    Brute force over all center subsets and all assignment maps; used to
    back the claim that closest allocation is never beaten under
    non-increasing nonnegative weights. Only sane for tiny m.
    """
    d = np.asarray(dist, dtype=float)
    m = d.shape[0]
    best_closest = domp_oracle(dist, lam, p)[1]
    for centers in combinations(range(m), p):
        for alloc in product(centers, repeat=m):
            value = om_oracle([d[i, alloc[i]] for i in range(m)], lam)
            if value < best_closest - 1e-9:
                return True
    return False


def collinear_triple_oracle(coords, rtol) -> bool:
    """has_collinear_triple as one loop over anchors: the reference scan.

    For each anchor a, the edge vectors to every later point and their
    squared 2x2 minors, summed over dimension pairs by np.outer, decide
    every triple (a, b, t) with a < b < t.
    """
    c = np.asarray(coords, dtype=float)
    m = len(c)
    if m < 3:
        return False
    c = c.reshape(m, -1)
    s = float(np.max(np.abs(c - c.mean(axis=0))))
    tol = rtol * s * s
    dims = list(combinations(range(c.shape[1]), 2))
    later = np.triu(np.ones((m, m), dtype=bool), 1)
    for a in range(m - 2):
        e = c[a + 1:] - c[a]  # edge vectors from anchor a to every later point
        wedge = np.zeros((m - a - 1, m - a - 1))
        for k, l in dims:
            wedge += np.square(np.outer(e[:, k], e[:, l])
                               - np.outer(e[:, l], e[:, k]))
        if np.any(np.sqrt(wedge[later[a + 1:, a + 1:]]) <= tol):
            return True
    return False


def full_bep_lp(inst):
    """The per-position sorting-duals model, whatever the weights.

    Free u_i and v_r at cost 1, costless y and z, the shared assignment,
    linking and cardinality rows, and one row
    u_i + v_r - lam_r * sum_j d_ij z_ij >= 0 for every point i and sort
    position r: m^2 sorting rows, against which the compact builders,
    which price lam_m on z and keep one sorting block per weight step, are
    checked.
    """
    from ordmed import LinearProgram

    m, lam, d = inst.m, inst.weights.lam, inst.dist.d
    lp = LinearProgram("full_bep")
    y = [add_variable(lp, 0.0, upper=1.0) for _ in range(m)]
    z = [[add_variable(lp, 0.0, upper=1.0) for _ in range(m)] for _ in range(m)]
    u = [add_variable(lp, 1.0, lower=-np.inf) for _ in range(m)]
    v = [add_variable(lp, 1.0, lower=-np.inf) for _ in range(m)]
    for i in range(m):
        add_row(lp, {z[i][j]: 1.0 for j in range(m)}, "=", 1.0)
        for j in range(m):
            add_row(lp, {z[i][j]: 1.0, y[j]: -1.0}, "<=", 0.0)
    add_row(lp, {y[j]: 1.0 for j in range(m)}, "=", float(inst.p))
    for i in range(m):
        for r in range(m):
            coeffs = {z[i][j]: -lam[r] * d[i, j] for j in range(m)}
            coeffs[u[i]] = 1.0
            coeffs[v[r]] = 1.0
            add_row(lp, coeffs, ">=", 0.0)
    return lp


def full_certificate_lp(inst, sol, margin):
    """The certificate program with every row spelled out, whatever the box.

    Columns 0..m-1 are the free budgets alpha and column m is omega (cost
    1). One equality row per center, one single-variable row per bound of
    each alpha's box, and for every non-center i a surplus column
    s_ti >= alpha_t - w_t d_ti for every point t with one cap row
    sum_t s_ti - omega <= -margin: the program search_certificate prunes,
    kept here as its differential reference.
    """
    from ordmed import LinearProgram, sorting_permutation

    m, d = inst.m, inst.dist.d
    w = inst.weights.lam[sorting_permutation(sol.distances).rank_of()]
    centers = list(sol.centers)
    lp = LinearProgram("full_certificate")
    a_cols = [add_variable(lp, lower=-np.inf) for _ in range(m)]
    omega = add_variable(lp, obj=1.0, lower=-np.inf)
    for j in centers:
        members = [i for i in range(m) if sol.assignment[i] == j]
        coeffs = {a_cols[i]: 1.0 for i in members}
        coeffs[omega] = -1.0
        rhs = float(sum(w[i] * d[i, j] for i in members))
        add_row(lp, coeffs, "=", rhs)
    for i in range(m):
        j = sol.assignment[i]
        add_row(lp, {a_cols[i]: 1.0}, ">=", float(w[i] * d[i, j]) + margin)
        for jp in centers:
            if jp != j:
                add_row(lp, {a_cols[i]: 1.0}, "<=", float(w[i] * d[i, jp]) - margin)
    for i in range(m):
        if i in sol.centers:
            continue
        s_cols = [add_variable(lp) for _ in range(m)]
        for t in range(m):
            add_row(lp, {s_cols[t]: 1.0, a_cols[t]: -1.0}, ">=",
                       -float(w[t] * d[t, i]))
        coeffs = dict.fromkeys(s_cols, 1.0)
        coeffs[omega] = -1.0
        add_row(lp, coeffs, "<=", -margin)
    return lp


def lp_vertex_oracle(c, rows, rels, b, upper, lower=None):
    """Exact LP minimum over lower <= x <= upper by rational active-set search.

    lower defaults to all zeros; an infinite bound adds no constraint.
    Enumerates all choices of n active constraints among rows and bounds,
    always including a linearly independent subset of the equality rows,
    solves each square system in Fractions, keeps feasible points, and
    returns (min objective, argmin) or None when nothing is feasible.
    Intended for n <= 4 variables.
    """
    c = [Fraction(t).limit_denominator(10**9) for t in c]
    n = len(c)
    if lower is None:
        lower = [0.0] * n
    cons = []  # (coeffs, rel, rhs) with rel normalized to <= or =
    for row, rel, rhs in zip(rows, rels, b):
        coeffs = [Fraction(t).limit_denominator(10**9) for t in row]
        rhs = Fraction(rhs).limit_denominator(10**9)
        if rel == ">=":
            coeffs = [-t for t in coeffs]
            rhs = -rhs
            rel = "<="
        cons.append((coeffs, rel, rhs))
    for j in range(n):
        for sign, bound in ((-1, lower[j]), (1, upper[j])):
            if math.isinf(bound):
                continue
            e = [Fraction(0)] * n
            e[j] = Fraction(sign)
            cons.append((e, "<=", sign * Fraction(bound).limit_denominator(10**9)))
    eq_idx = []
    for i, (coeffs, rel, _) in enumerate(cons):
        if rel == "=" and _rank([cons[t][0] for t in eq_idx] + [coeffs]) > len(eq_idx):
            eq_idx.append(i)
    ineq_idx = [i for i, (_, rel, _) in enumerate(cons) if rel == "<="]
    best = None
    argbest = None
    for extra in combinations(ineq_idx, n - len(eq_idx)):
        active = list(eq_idx) + list(extra)
        a = [list(cons[i][0]) for i in active]
        rhs = [cons[i][2] for i in active]
        x = _solve_exact(a, rhs)
        if x is None:
            continue
        ok = True
        for coeffs, rel, r in cons:
            lhs = sum(t * xi for t, xi in zip(coeffs, x))
            if rel == "=" and lhs != r:
                ok = False
                break
            if rel == "<=" and lhs > r:
                ok = False
                break
        if not ok:
            continue
        val = sum(t * xi for t, xi in zip(c, x))
        if best is None or val < best:
            best = val
            argbest = x
    if best is None:
        return None
    return float(best), [float(t) for t in argbest]


def _rank(vectors) -> int:
    """Rank of Fraction row vectors by exact elimination."""
    m = [list(v) for v in vectors]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [t - f * s for t, s in zip(m[r], m[rank])]
        rank += 1
    return rank


def _solve_exact(a, b):
    """Gaussian elimination over Fractions; None when singular."""
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [t / inv for t in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [t - f * s for t, s in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def dip_lp_oracle(sample) -> float:
    """Reference dip: minimize sup-deviation over piecewise-linear unimodal CDFs.

    One small LP per mode placement (at each knot, and inside each segment
    with either neighbor chain allowed to own the bridge), solved by scipy.
    The universal floor of 1/(2n) is applied at the end, matching the
    convention under test.
    """
    from scipy.optimize import linprog

    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    knots, counts = np.unique(x, return_counts=True)
    big_k = len(knots)
    if big_k == 1:
        return 0.5 / n
    f_hi = np.cumsum(counts) / n
    f_lo = np.concatenate([[0.0], f_hi[:-1]])
    lens = np.diff(knots)
    best = np.inf

    def run(n_vars, a_ub, b_ub, d_col):
        cost = np.zeros(n_vars)
        cost[d_col] = 1.0
        res = linprog(cost, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                      bounds=[(None, None)] * n_vars, method="highs")
        return res.fun if res.status == 0 else np.inf

    def bands(a_ub, b_ub, col_of, d_col, n_cols):
        # |G(knot) - F| <= D on both sides of every jump, plus CDF range
        for i in range(big_k):
            for is_left, target in ((False, f_hi[i]), (True, f_lo[i])):
                col = col_of(i, is_left)
                row = [0.0] * n_cols
                row[col] = 1.0
                row[d_col] = -1.0
                a_ub.append(row[:])
                b_ub.append(target)
                row = [0.0] * n_cols
                row[col] = -1.0
                row[d_col] = -1.0
                a_ub.append(row)
                b_ub.append(-target)

    # mode at a knot: left limit h may sit below the value v at the knot
    for mu in range(big_k):
        n_cols = big_k + 2  # g_0..g_{K-1}, h, D
        h_col = big_k
        d_col = big_k + 1

        def col_of(i, is_left):
            return h_col if (i == mu and is_left) else i

        a_ub: list = []
        b_ub: list = []
        bands(a_ub, b_ub, col_of, d_col, n_cols)
        rows_le = []
        # h <= v_mu; 0 <= g; g <= 1
        rows_le.append(({h_col: 1.0, mu: -1.0}, 0.0))
        for i in range(big_k):
            rows_le.append(({i: -1.0}, 0.0))
            rows_le.append(({i: 1.0}, 1.0))
        rows_le.append(({h_col: -1.0}, 0.0))
        # convex chain into (w_mu, h): slopes nondecreasing, first one >= 0
        def left_val(i):
            return h_col if i == mu else i
        for i in range(mu - 1):
            s_lo = {left_val(i): -1.0, left_val(i + 1): 1.0}
            s_hi = {left_val(i + 1): -1.0, left_val(i + 2): 1.0}
            row = {}
            for k, t in s_lo.items():
                row[k] = row.get(k, 0.0) + t / lens[i]
            for k, t in s_hi.items():
                row[k] = row.get(k, 0.0) - t / lens[i + 1]
            rows_le.append((row, 0.0))
        if mu >= 1:
            rows_le.append(({left_val(0): 1.0, left_val(1): -1.0}, 0.0))  # slope_0 >= 0
        # concave chain out of (w_mu, g_mu): slopes nonincreasing, last >= 0
        for i in range(mu, big_k - 2):
            row = {}
            for k, t in ((i, -1.0), (i + 1, 1.0)):
                row[k] = row.get(k, 0.0) - t / lens[i]
            for k, t in ((i + 1, -1.0), (i + 2, 1.0)):
                row[k] = row.get(k, 0.0) + t / lens[i + 1]
            rows_le.append((row, 0.0))
        if mu <= big_k - 2:
            rows_le.append(({big_k - 2: 1.0, big_k - 1: -1.0}, 0.0))  # last slope >= 0
        for row, rhs in rows_le:
            dense = [0.0] * n_cols
            for k, t in row.items():
                dense[k] = t
            a_ub.append(dense)
            b_ub.append(rhs)
        best = min(best, run(n_cols, a_ub, b_ub, d_col))

    # mode strictly inside segment seg (or in a tail for seg = -1 / K-1)
    for seg in range(-1, big_k):
        for owner in ("left", "right"):
            if seg in (-1, big_k - 1) and owner == "right":
                continue  # tails need a single chain only
            n_cols = big_k + 1
            d_col = big_k

            def col_of(i, _is_left):
                return i

            a_ub = []
            b_ub = []
            bands(a_ub, b_ub, col_of, d_col, n_cols)
            rows_le = []
            for i in range(big_k):
                rows_le.append(({i: -1.0}, 0.0))
                rows_le.append(({i: 1.0}, 1.0))
            # convex chain over knots 0..seg, concave chain over seg+1..K-1
            for i in range(max(seg, 0)):
                if i + 2 <= seg:
                    row = {}
                    for k, t in ((i, -1.0), (i + 1, 1.0)):
                        row[k] = row.get(k, 0.0) + t / lens[i]
                    for k, t in ((i + 1, -1.0), (i + 2, 1.0)):
                        row[k] = row.get(k, 0.0) - t / lens[i + 1]
                    rows_le.append((row, 0.0))
            if seg >= 1:
                rows_le.append(({0: 1.0, 1: -1.0}, 0.0))
            for i in range(seg + 1, big_k - 2):
                row = {}
                for k, t in ((i, -1.0), (i + 1, 1.0)):
                    row[k] = row.get(k, 0.0) - t / lens[i]
                for k, t in ((i + 1, -1.0), (i + 2, 1.0)):
                    row[k] = row.get(k, 0.0) + t / lens[i + 1]
                rows_le.append((row, 0.0))
            if seg <= big_k - 3:
                rows_le.append(({big_k - 2: 1.0, big_k - 1: -1.0}, 0.0))
            if 0 <= seg <= big_k - 2:
                # bridge rise >= 0, owned by one neighbor chain's final slope
                rows_le.append(({seg: 1.0, seg + 1: -1.0}, 0.0))
                if owner == "left" and seg >= 1:
                    # rise >= (incoming slope) * len: the convex side extends
                    ratio = lens[seg] / lens[seg - 1]
                    rows_le.append(({seg - 1: -ratio, seg: 1.0 + ratio,
                                     seg + 1: -1.0}, 0.0))
                if owner == "right" and seg <= big_k - 3:
                    # rise >= (outgoing slope) * len: the concave side extends
                    ratio = lens[seg] / lens[seg + 1]
                    rows_le.append(({seg: 1.0, seg + 1: -(1.0 + ratio),
                                     seg + 2: ratio}, 0.0))
            for row, rhs in rows_le:
                dense = [0.0] * n_cols
                for k, t in row.items():
                    dense[k] = t
                a_ub.append(dense)
                b_ub.append(rhs)
            best = min(best, run(n_cols, a_ub, b_ub, d_col))

    return float(max(best, 0.5 / n))


def dip_pvalue_reference(sample, bootstrap: int, seed: int) -> float:
    """Bootstrap dip p-value with one full dip_statistic call per replicate.

    The loop `dip_pvalue` ran before it settled replicates by a bound; the
    two must agree to the bit. It shares the dip itself with the package,
    so it checks the batching and the bound, not the corner walk.
    """
    observed = dip_statistic(sample).dip
    n = len(sample)
    hits = 0
    for rep in range(bootstrap):
        u = np.random.default_rng([seed, rep]).random(n)
        if dip_statistic(u).dip >= observed:
            hits += 1
    return (1 + hits) / (bootstrap + 1)
