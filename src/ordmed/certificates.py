"""Dual certificates of relaxation exactness and structural non-recovery predicates."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ParameterError
from .instance import (CenterSolution, DistanceMatrix, Instance, WeightVector,
                       _frozen_array, classify_weights,
                       is_free_of_equidistance)
from .lp_core import INFEASIBLE, LinearProgram, solve_lp
from .ordered_median import SortPermutation, sorting_permutation

NEVER_RECOVERS = "NeverRecovers"
MEDIAN_SINGLE_RECOVERS = "MedianSingleRecovers"
UNKNOWN = "Unknown"

EQUALITY_TOL = 1e-9
STRICT_MARGIN_RTOL = 1e-6  # strict slacks must clear this times lam_1 * max d
COLLINEAR_RTOL = 1e-9  # |u x v| / s**2 below which a triple counts as collinear
SINGLE_CENTER_RTOL = 1e-12  # weighted-sum gap, over max |sum|, that still ties
COLLINEAR_BLOCK = 16384  # doubles per temporary of has_collinear_triple


def strictness_margin(inst: Instance) -> float:
    """Margin for strict certificate inequalities, in the unit of lam * d."""
    return STRICT_MARGIN_RTOL * inst.max_term


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """A contribution certificate: point budgets alpha, center level omega.

    sigma is the sorting permutation of the certified solution's allocation
    distances. beta, the positive part of alpha_i - lam_{rank(i)} * d_ij,
    is stored but always derived from alpha and sigma by make_certificate.
    """

    alpha: np.ndarray
    omega: float
    sigma: SortPermutation
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frozen_array(self.alpha))
        object.__setattr__(self, "beta", _frozen_array(self.beta))


@dataclass(frozen=True)
class CertificateVerdict:
    """Worst slack of each certificate condition at a candidate solution.

    holds: centers share one contribution level, no point out-contributes
    them, and every alpha clears (resp. stays under) the weighted distance
    to its own (resp. any other) center. strict additionally requires the
    three inequality blocks to clear a positive margin, which pins the
    relaxation optimum to this solution uniquely; strict implies holds.
    """

    holds: bool
    strict: bool
    center_equality_deviation: float
    noncenter_slack: float
    member_slack: float
    nonmember_slack: float


@dataclass(frozen=True)
class Prediction:
    """Structural verdict on relaxation exactness, decided before any solve."""

    kind: str
    item: int | None
    reason: str
    checks: dict


def _weighted_distances(weights: WeightVector, sigma: SortPermutation,
                        dist: DistanceMatrix) -> np.ndarray:
    """wd[i, j] = lam_{rank(i)} * d_ij, with rank(i) point i's place in sigma."""
    return weights.lam[sigma.rank_of()][:, None] * dist.d


def make_certificate(inst: Instance, sigma: SortPermutation, alpha,
                     omega: float) -> DualCertificate:
    """Assemble a certificate, deriving beta from alpha and sigma."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (inst.m,):
        raise ParameterError(f"alpha must have length {inst.m}")
    wd = _weighted_distances(inst.weights, sigma, inst.dist)
    beta = np.maximum(alpha[:, None] - wd, 0.0)
    return DualCertificate(alpha=alpha, omega=float(omega), sigma=sigma, beta=beta)


def ordered_contribution(alpha, sigma: SortPermutation, dist: DistanceMatrix,
                         lam: WeightVector, j: int) -> float:
    """Total positive surplus alpha_i - lam_{rank(i)} * d_ij received by point j."""
    wd = _weighted_distances(lam, sigma, dist)
    alpha = np.asarray(alpha, dtype=float)
    return float(np.maximum(alpha - wd[:, j], 0.0).sum())


def verify_certificate(inst: Instance, sol: CenterSolution,
                       cert: DualCertificate) -> CertificateVerdict:
    """Check the four certificate conditions at sol and report worst slacks.

    Slacks are judged against EQUALITY_TOL * max |wd|, and strict ones
    against strictness_margin(inst), so a verdict depends on the unit of
    neither the distances nor the weights.
    """
    sol.check_points(inst.m)
    margin = strictness_margin(inst)
    m = inst.m
    wd = _weighted_distances(inst.weights, cert.sigma, inst.dist)
    tol = EQUALITY_TOL * float(np.abs(wd).max())
    surplus = cert.alpha[:, None] - wd
    contributions = np.maximum(surplus, 0.0).sum(axis=0)
    centers = np.array(sol.centers, dtype=int)
    c_centers = contributions[centers]
    center_dev = float(c_centers.max() - c_centers.min())
    # an empty block (no non-center, no other center) keeps the identity +inf
    non_centers = np.setdiff1d(np.arange(m), centers)
    noncenter_slack = float(c_centers.min()
                            - contributions[non_centers].max(initial=-np.inf))
    member_slack = float(surplus[np.arange(m), sol.assignment].min())
    others = np.ones((m, len(centers)), dtype=bool)
    others[np.arange(m), np.searchsorted(centers, sol.assignment)] = False
    nonmember_slack = float((-surplus[:, centers])[others].min(initial=np.inf))
    holds = bool(center_dev <= tol
                 and min(noncenter_slack, member_slack, nonmember_slack) >= -tol)
    strict = bool(holds and margin > 0 and min(noncenter_slack, member_slack,
                                               nonmember_slack) >= margin - tol)
    return CertificateVerdict(holds=holds, strict=strict,
                              center_equality_deviation=center_dev,
                              noncenter_slack=noncenter_slack,
                              member_slack=member_slack,
                              nonmember_slack=nonmember_slack)


def search_certificate(inst: Instance, sol: CenterSolution, *, strict: bool = False
                       ) -> tuple[DualCertificate | None, CertificateVerdict | None]:
    """Search a certificate for sol by LP feasibility; None when none exists.

    alpha_i's box (at least its weighted distance wd to its own center, at
    most that to any other) is a column bound; an empty box answers None
    before any solve. One equality row per center ties its members'
    contribution to omega. A surplus column s_ti >= alpha_t - wd[t, i] and
    its row exist only where the box lets that surplus be positive, and a
    cap row keeps non-center i's surplus sum at most omega - margin; the
    bound omega >= margin stands in for a cap with no surplus column.
    Minimizing omega makes the certificate deterministic; strict=True sets
    the margin to strictness_margin(inst), else it is 0.

    The solve starts where every bound, surplus row and cap row holds:
    each alpha at the bottom of its box, each surplus column at its least
    value max(0, alpha_t - wd[t, i]), and omega at the largest cap row's
    surplus sum plus the margin, so phase 1 has only the center rows left.
    found, holds and strict do not depend on the start, and omega only by
    round-off; alpha is one point of the face that minimizes omega, so
    another start may return another alpha there.
    """
    sol.check_points(inst.m)
    margin = strictness_margin(inst) if strict else 0.0
    sigma = sorting_permutation(sol.distances)
    wd = _weighted_distances(inst.weights, sigma, inst.dist)
    centers = np.array(sol.centers, dtype=int)
    assign = np.asarray(sol.assignment, dtype=int)
    lower = wd[np.arange(inst.m), assign] + margin
    upper = np.where(centers == assign[:, None], np.inf,
                     wd[:, centers]).min(axis=1) - margin
    if (lower > upper).any():
        return None, None
    lp = LinearProgram("certificate")
    a_cols = lp.add_variables(np.zeros(inst.m), lower, upper)
    non_centers = np.setdiff1d(np.arange(inst.m), centers)
    omega = lp.add_variables([1.0], margin if non_centers.size else -np.inf)[0]
    # center row c: the alphas of its members minus omega, at their wd sum
    lp.add_rows(np.concatenate([np.searchsorted(centers, assign), np.arange(centers.size)]),
                np.concatenate([a_cols, np.full(centers.size, omega)]),
                np.concatenate([np.ones(inst.m), -np.ones(centers.size)]), "=",
                [wd[assign == j, j].sum() for j in centers])
    # surplus column s_p >= alpha_t - wd[t, i] for each pair p = (non-center
    # non_centers[k], point t); each non-center's rows, then its cap row
    k, t = np.nonzero(wd[:, non_centers].T < upper)
    capped, block = np.unique(k, return_inverse=True)
    s_rows = np.arange(k.size) + block
    cap_rows = np.searchsorted(k, capped, side="right") + np.arange(capped.size)
    s_cols = lp.add_variables(np.zeros(k.size))
    rels = np.full(k.size + capped.size, ">=")
    rels[cap_rows] = "<="
    rhs = np.full(rels.size, -margin)
    rhs[s_rows] = -wd[t, non_centers[k]]
    lp.add_rows(np.concatenate([s_rows, s_rows, cap_rows[block], cap_rows]),
                np.concatenate([s_cols, a_cols[t], s_cols, np.full(capped.size, omega)]),
                np.concatenate([np.ones(k.size), -np.ones(k.size), np.ones(k.size),
                                -np.ones(capped.size)]), rels, rhs)
    # the rows read s_p >= alpha_t + rhs and omega >= surplus sum + margin
    start = np.zeros(lp.n_vars)
    start[a_cols] = lower
    start[s_cols] = np.maximum(lower[t] + rhs[s_rows], 0.0)
    start[omega] = np.bincount(block, start[s_cols]).max(initial=0.0) + margin
    lp_sol = solve_lp(lp, start=start)
    if lp_sol.status == INFEASIBLE:
        return None, None
    if not lp_sol.is_optimal():
        raise ParameterError(f"certificate search ended {lp_sol.status}")
    cert = make_certificate(inst, sigma, lp_sol.x[a_cols], float(lp_sol.x[omega]))
    return cert, verify_certificate(inst, sol, cert)


def check_single_center(inst: Instance, j: int) -> bool:
    """True when point j's weighted distance sum is minimal over all points.

    The weights are applied in the order that sorts the distances to j
    non-increasingly. On inputs with pairwise-distinct distances this is
    equivalent to single-center exactness of the relaxation; with ties it
    remains sufficient, and a warning flags the weaker reading.
    """
    if not (0 <= j < inst.m):
        raise ParameterError(f"center index {j} out of range")
    if not is_free_of_equidistance(inst.dist):
        warnings.warn("tied distances: the single-center test keeps its "
                      "sufficient direction only", stacklevel=2)
    d = inst.dist.d
    w = inst.weights.lam[sorting_permutation(d[:, j]).rank_of()]
    totals = w @ d
    return bool(totals[j] <= totals.min() + SINGLE_CENTER_RTOL * np.abs(totals).max())


def has_collinear_triple(coords) -> bool:
    """Whether some triple is collinear up to a scale-relative tolerance.

    A triple (a, b, t) is collinear when |u x v| <= COLLINEAR_RTOL * s**2,
    with u = c_b - c_a, v = c_t - c_a and s the largest centred coordinate
    magnitude. |u x v| is the square root of the Gram determinant
    |u|^2 |v|^2 - (u.v)^2, summed here from the 2x2 minors u_k v_l - u_l v_k
    (Lagrange's identity), which keeps the cancellation out: in the plane it
    is the cross product, and on the real line it is 0. The triples of
    COLLINEAR_BLOCK // m**2 anchors (at least one) are scored at once, so
    up to m = 128 no temporary exceeds COLLINEAR_BLOCK doubles (128 KiB);
    larger ones measured slower at m = 60.
    """
    c = np.asarray(coords, dtype=float)
    m = len(c)
    if m < 3:
        return False
    c = c.reshape(m, -1)
    s = float(np.max(np.abs(c - c.mean(axis=0))))
    tol = COLLINEAR_RTOL * s * s
    idx = np.arange(m)
    step = max(1, COLLINEAR_BLOCK // m**2)
    for lo in range(0, m - 2, step):
        anchors, later = idx[lo:min(lo + step, m - 2)], idx[lo + 1:]
        e = c[later] - c[anchors, None]  # e[a, b] = c_b - c_a
        wedge = np.zeros((len(anchors), len(later), len(later)))
        for k, l in combinations(range(c.shape[1]), 2):
            wedge += np.square(e[:, :, k, None] * e[:, None, :, l]
                               - e[:, :, l, None] * e[:, None, :, k])
        triples = (anchors[:, None, None] < later[:, None]) & (later[:, None] < later)
        if np.any(np.sqrt(wedge[triples]) <= tol):
            return True
    return False


def predict_non_recovery(inst: Instance) -> Prediction:
    """Structural exactness verdict from weights and point geometry alone.

    Items are tried in fixed numeric order, except that a weight family
    named by its own item is routed there (a centdian below the threshold
    reports the centdian item, not the generic strict-inequality one, and
    one at the threshold, gamma == 1 / (m - 1), the balanced-head item).
    Geometric hypotheses are audited in checks: pairwise-distinct
    distances, and collinearity, which is decided only when coordinates are
    available.
    """
    m, p = inst.m, inst.p
    lam = inst.weights.lam
    wc = classify_weights(inst.weights)
    foe = is_free_of_equidistance(inst.dist)
    if inst.points is None:
        collinearity = "unavailable"
    else:
        collinearity = ("present" if has_collinear_triple(inst.points.coords)
                        else "none")
    checks = {
        "family": wc.family,
        "param": wc.param,
        "free_of_equidistance": foe,
        "collinearity": collinearity,
    }
    if p >= m:
        return Prediction(UNKNOWN, None,
                          "every point is a center, so the relaxation is exact "
                          "for trivial reasons", checks)
    if wc.scale == 0.0:
        return Prediction(UNKNOWN, None, "all-zero weights rank nothing", checks)
    if wc.family == "median" and p == 1:
        return Prediction(MEDIAN_SINGLE_RECOVERS, 3,
                          "a single median center is always recovered, ties "
                          "or not", checks)
    head = float(lam[0])
    tail = float(lam[1:].sum())
    if wc.family == "centdian":
        gamma = wc.param
        threshold = gamma * (m - 1)
        if gamma == 1.0 / (m - 1) or threshold == 1.0:
            # the formula says tail == head, whatever the float product or sum
            tail = head
        elif threshold < 1.0:
            if foe:
                return Prediction(
                    NEVER_RECOVERS, 6,
                    f"centdian tail {gamma:g}*({m}-1) = {threshold:g} < 1",
                    checks)
            return Prediction(UNKNOWN, None,
                              "centdian threshold met but distances carry "
                              "ties", checks)
        else:
            return Prediction(UNKNOWN, None,
                              f"centdian tail {threshold:g} > 1 is outside the "
                              "non-recovery regime", checks)
    if wc.family == "ksum" and wc.param == 2:
        if not foe:
            return Prediction(UNKNOWN, None,
                              "2-sum item needs pairwise-distinct distances",
                              checks)
        if collinearity == "unavailable":
            return Prediction(UNKNOWN, None,
                              "2-sum item needs coordinates to rule out "
                              "collinear triples", checks)
        if collinearity == "present":
            return Prediction(UNKNOWN, None,
                              "a collinear triple blocks the 2-sum item",
                              checks)
        return Prediction(NEVER_RECOVERS, 4,
                          "2-sum weights with points in general position "
                          "never recover", checks)
    if tail < head:
        if foe:
            return Prediction(NEVER_RECOVERS, 1,
                              f"trailing weight mass {tail:g} < leading "
                              f"weight {head:g}", checks)
        return Prediction(UNKNOWN, None,
                          "strict head-heavy weights but distances carry "
                          "ties", checks)
    if tail == head:
        if foe and collinearity == "none":
            return Prediction(NEVER_RECOVERS, 2,
                              f"trailing weight mass equals the leading "
                              f"weight {head:g} with no collinear triple",
                              checks)
        return Prediction(UNKNOWN, None,
                          "balanced head weight needs distinct distances and "
                          "a collinearity-free point set", checks)
    return Prediction(UNKNOWN, None, "no structural item applies", checks)


def conic_combine(w1: WeightVector, w2: WeightVector) -> WeightVector:
    """Componentwise sum of two weight vectors (a conic combination ray)."""
    if len(w1.lam) != len(w2.lam):
        raise ParameterError("weight vectors must have equal length")
    return WeightVector(w1.lam + w2.lam)
