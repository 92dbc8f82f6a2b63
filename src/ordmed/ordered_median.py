"""The ordered median operator: sort costs non-increasingly, dot with weights.

Evaluation by a direct sort, the closest allocation that turns a center
set into a solution, and the restriction of an instance to one allocation
group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .instance import (CenterSolution, DistanceMatrix, Instance, PointSet,
                       WeightVector)


@dataclass(frozen=True)
class SortPermutation:
    """Descending order of a cost vector, stored position -> index.

    Ties are broken by ascending index, so the permutation is canonical.
    """

    order: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.order)

    def rank_of(self) -> np.ndarray:
        """Inverse map: rank_of()[i] is the sorted position of index i."""
        inv = np.empty(self.m, dtype=int)
        inv[np.array(self.order)] = np.arange(self.m)
        return inv


def sorting_permutation(d) -> SortPermutation:
    """Canonical descending sort order of d (stable, ties by ascending index)."""
    d = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(d)):
        raise ParameterError("cost vector must be finite")
    order = np.argsort(-d, kind="stable")
    return SortPermutation(tuple(int(i) for i in order))


def om_evaluate(d, weights: WeightVector) -> float | np.ndarray:
    """Sum of lam_r * (r-th largest cost): a float, or an array per row of a (..., m) stack.

    The one ordered-median kernel. Rows are sorted ascending and dotted with
    the reversed weights by einsum, which (optimize off) calls no BLAS, so
    row k of a stack gets exactly the bits it gets alone. With only lam_1
    nonzero the other terms are 0 * cost, so lam_1 times the columns'
    elementwise maximum gives the same bits on finite costs, unsorted.
    """
    d = np.asarray(d, dtype=float)
    if d.shape[-1:] != (weights.m,):
        raise ParameterError(f"cost shape {d.shape} does not end in weight length {weights.m}")
    rows = d.reshape(-1, weights.m)
    if weights.lam[1:].any():
        values = np.einsum("ij,j->i", np.sort(rows, axis=1), weights.lam[::-1])
    else:  # + 0.0 makes a -0.0 product the +0.0 that the sum starts from
        values = weights.lam[0] * np.ascontiguousarray(rows.T).max(axis=0) + 0.0
    return float(values[0]) if d.ndim == 1 else values.reshape(d.shape[:-1])


def closest_allocation(dist: DistanceMatrix, centers, weights: WeightVector) -> CenterSolution:
    """Assign every point to its nearest center (ties to the lowest index).

    Centers are kept in ascending order; the objective value is the ordered
    median of the resulting cost vector under the given weights.
    """
    q = sorted(int(j) for j in centers)
    if not q:
        raise ParameterError("center set must be nonempty")
    if q[0] < 0 or q[-1] >= dist.m:
        raise ParameterError(f"center indices must lie in [0, {dist.m - 1}]")
    cols = dist.d[:, q]
    pick = np.argmin(cols, axis=1)  # first minimum = lowest center index
    assignment = tuple(q[k] for k in pick)
    distances = cols[np.arange(dist.m), pick]
    value = om_evaluate(distances, weights)
    return CenterSolution(tuple(q), assignment, distances, value)


def restrict_instance(inst: Instance, sol: CenterSolution, j: int) -> Instance:
    """Single-center sub-instance on the points served by center j.

    The sub-weights are the weight entries at the sorted positions that the
    members of j's group occupy in sorting_permutation(sol.distances); they
    inherit non-increasing order because positions are taken ascending.
    Sub-points keep ascending original index order.
    """
    sol.check_points(inst.m)
    if j not in sol.centers:
        raise ParameterError(f"{j} is not a center of the given solution")
    idx = np.array(sol.group(j))
    positions = np.sort(sorting_permutation(sol.distances).rank_of()[idx])
    sub_d = inst.dist.d[np.ix_(idx, idx)]
    sub_points = None
    if inst.points is not None:
        sub_points = PointSet(inst.points.coords[idx])
    return Instance(DistanceMatrix(sub_d), WeightVector(inst.weights.lam[positions]),
                    1, sub_points)
