"""Output checks that share no code with the functions they check.

Each function returns a list of problems (empty when the output is right).
The exact optimum is recomputed by a vectorised enumeration written here,
LP values and statuses are compared with HiGHS through scipy, certificates
are re-verified from their definition, and dip values are checked against
the bounds every dip obeys. The one package function used here is
`check_solution`, the package's own residual report, as a gate on every
optimal solve.
"""

from __future__ import annotations

from itertools import combinations, islice

import numpy as np

LP_RTOL = 1e-7          # v_lp against HiGHS, BEP against OT
RESIDUAL_MAX = 1e-9     # check_solution.max_residual()
VALUE_RTOL = 1e-9       # v_ip against the independent enumeration
CERT_RTOL = 1e-9        # certificate conditions, relative to max |w d|
ENUM_CHUNK = 4096       # subsets per vectorised block


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def ordered_value(costs, lam) -> float:
    """Ordered median of one cost vector: sort non-increasingly, dot lam."""
    return float(np.dot(np.sort(np.asarray(costs, dtype=float))[::-1], lam))


def best_value(d: np.ndarray, lam: np.ndarray, p: int) -> float:
    """Minimum ordered median over all p-subsets, by blocks of subsets."""
    subsets = combinations(range(d.shape[0]), p)
    best = np.inf
    while block := list(islice(subsets, ENUM_CHUNK)):
        nearest = d[:, np.array(block)].min(axis=2)      # (m, subsets)
        costs = -np.sort(-nearest, axis=0)               # non-increasing
        best = min(best, float((lam @ costs).min()))
    return float(best)


def allocation_problems(d: np.ndarray, lam: np.ndarray, p: int, sol) -> list[str]:
    """The returned solution is a closest allocation whose value is right."""
    out = []
    centers = list(sol.centers)
    if len(set(centers)) != p or sorted(centers) != centers:
        return [f"centers {centers} are not {p} sorted distinct indices"]
    assign = np.asarray(sol.assignment)
    if not np.isin(assign, centers).all():
        return ["a point is assigned to a closed center"]
    own = d[np.arange(d.shape[0]), assign]
    if (own > d[:, centers].min(axis=1)).any():
        out.append("a point is not assigned to a nearest open center")
    if not np.array_equal(np.asarray(sol.distances), own):
        out.append("reported distances differ from the assignment")
    value = ordered_value(own, lam)
    if not close(value, float(sol.value), VALUE_RTOL):
        out.append(f"value {sol.value!r} != ordered median {value!r} of the allocation")
    return out


def highs(lp):
    """(status, value) of a LinearProgram solved by HiGHS."""
    from scipy.optimize import linprog

    a, rels, b = lp.dense()
    rels = np.asarray(rels)
    le, ge, eq = rels == "<=", rels == ">=", rels == "="
    a_ub = np.vstack([a[le], -a[ge]])
    b_ub = np.concatenate([b[le], -b[ge]])
    bounds = [(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
              for lo, hi in zip(lp.lower, lp.upper)]
    res = linprog(np.asarray(lp.obj), A_ub=a_ub if b_ub.size else None,
                  b_ub=b_ub if b_ub.size else None,
                  A_eq=a[eq] if eq.any() else None,
                  b_eq=b[eq] if eq.any() else None,
                  bounds=bounds, method="highs")
    status = {0: "Optimal", 2: "Infeasible", 3: "Unbounded"}.get(res.status,
                                                                 f"highs-{res.status}")
    return status, (float(res.fun) if res.status == 0 else None)


def lp_problems(lp, sol, check_solution) -> tuple[list[str], float]:
    """Status and value against HiGHS, and the residual of an optimal solve.

    Returns (problems, residual); the residual is 0 for non-optimal solves.
    """
    out = []
    status, value = highs(lp)
    if status != sol.status:
        out.append(f"{lp.name}: status {sol.status} but HiGHS says {status}")
    residual = 0.0
    if sol.is_optimal():
        residual = check_solution(lp, sol).max_residual()
        if not residual <= RESIDUAL_MAX:
            out.append(f"{lp.name}: residual {residual:.3e} > {RESIDUAL_MAX:g}")
        if value is not None and not close(sol.value, value, LP_RTOL):
            out.append(f"{lp.name}: value {sol.value!r} but HiGHS {value!r}")
    return out, residual


def bound_problems(v_lp: float, v_ip: float) -> list[str]:
    if v_lp > v_ip + LP_RTOL * max(1.0, abs(v_ip)):
        return [f"relaxation {v_lp!r} above the exact optimum {v_ip!r}"]
    return []


def formulation_problems(v_bep: float, v_ot: float) -> list[str]:
    if not close(v_bep, v_ot, LP_RTOL):
        return [f"BEP value {v_bep!r} != OT value {v_ot!r}"]
    return []


def certificate_problems(d, lam, sol, cert) -> list[str]:
    """Re-verify a contribution certificate from its definition.

    Points are ranked by non-increasing allocation distance (ties by index);
    point i carries weight w_i = lam[rank i]. With surplus alpha_i - w_i d_ij,
    every center collects the same positive surplus omega, no other point
    collects more, every point clears its own center and no other center.
    """
    m = d.shape[0]
    dist = np.asarray(sol.distances, dtype=float)
    order = np.argsort(-dist, kind="stable")
    if tuple(int(i) for i in order) != tuple(cert.sigma.order):
        return ["certificate sort order differs from the allocation's"]
    rank = np.empty(m, dtype=int)
    rank[order] = np.arange(m)
    w = lam[rank]
    surplus = np.asarray(cert.alpha, dtype=float)[:, None] - w[:, None] * d
    tol = CERT_RTOL * (1.0 + float(np.abs(w[:, None] * d).max()))
    out = []
    if not np.allclose(cert.beta, np.maximum(surplus, 0.0), rtol=0.0, atol=tol):
        out.append("beta is not the positive part of the surplus")
    collected = np.maximum(surplus, 0.0).sum(axis=0)
    centers = np.asarray(sol.centers)
    level = collected[centers]
    if np.abs(level - cert.omega).max() > tol:
        out.append("centers do not collect omega")
    others = np.setdiff1d(np.arange(m), centers)
    if others.size and collected[others].max() > level.min() + tol:
        out.append("a non-center collects more than the centers")
    assign = np.asarray(sol.assignment)
    if surplus[np.arange(m), assign].min() < -tol:
        out.append("a point does not clear its own center")
    foreign = surplus[:, centers].copy()
    foreign[np.arange(m), np.searchsorted(centers, assign)] = -np.inf
    if foreign.max() > tol:
        out.append("a point clears a center it is not assigned to")
    return out


def dip_problems(dip: float, n: int) -> list[str]:
    if not 0.5 / n - 1e-12 <= dip <= 0.25 + 1e-12:
        return [f"dip {dip!r} outside [1/(2n), 1/4] for n={n}"]
    return []


def pvalue_problems(pval: float, bootstrap: int) -> list[str]:
    k = pval * (bootstrap + 1)
    if abs(k - round(k)) > 1e-9 or not 1 <= round(k) <= bootstrap + 1:
        return [f"p-value {pval!r} is not k/(B+1) for B={bootstrap}"]
    return []
