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


def _check_lengths(d: np.ndarray, weights: WeightVector) -> None:
    if d.size != weights.m:
        raise ParameterError(f"cost length {d.size} != weight length {weights.m}")


def om_evaluate(d, weights: WeightVector) -> float:
    """Sum of lam_r * (r-th largest cost)."""
    d = np.asarray(d, dtype=float)
    _check_lengths(d, weights)
    order = np.argsort(-d, kind="stable")
    return float(np.dot(weights.lam, d[order]))


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
