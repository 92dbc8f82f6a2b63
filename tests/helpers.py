"""Shared fixture builders for the test suite."""

import numpy as np

from ordmed import DistanceMatrix, Instance, PointSet, WeightVector, resolve_weights

# Five points on a line; every pairwise distance is distinct.
T1_COORDS = (0.0, 1.0, 3.0, 7.0, 12.0)


def t1_instance(spec="median", p=1) -> Instance:
    pts = np.array([[x] for x in T1_COORDS])
    return planar_instance(pts, resolve_weights(spec, len(T1_COORDS)), p)


def planar_instance(coords, weights, p) -> Instance:
    coords = np.asarray(coords, dtype=float)
    pts = PointSet(coords)
    return Instance(pts.distance_matrix(), weights, p, points=pts)


def random_points(rng, m, dim=2, scale=10.0):
    return rng.uniform(0.0, scale, size=(m, dim))


def random_weights(rng, m) -> WeightVector:
    lam = np.sort(rng.uniform(0.0, 3.0, size=m))[::-1]
    return WeightVector(lam)


def random_instance(rng, m, p, weights=None, dim=2) -> Instance:
    coords = random_points(rng, m, dim=dim)
    w = weights if weights is not None else random_weights(rng, m)
    return planar_instance(coords, w, p)


def matrix_instance(d, weights, p) -> Instance:
    return Instance(DistanceMatrix(np.asarray(d, dtype=float)), weights, p)
