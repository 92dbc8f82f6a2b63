"""The ordered median operator: sort costs non-increasingly, dot with weights.

Evaluation by a direct sort, plus the closest allocation that turns a
center set into a solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .instance import CenterSolution, DistanceMatrix, WeightVector


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
    row k of a stack gets exactly the bits it gets alone.
    """
    d = np.asarray(d, dtype=float)
    if d.shape[-1:] != (weights.m,):
        raise ParameterError(f"cost shape {d.shape} does not end in weight length {weights.m}")
    rows = np.sort(d.reshape(-1, weights.m), axis=1)
    values = np.einsum("ij,j->i", rows, weights.lam[::-1])
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
