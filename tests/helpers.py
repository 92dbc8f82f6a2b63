"""Shared fixture builders for the test suite."""

import dataclasses
import math

import numpy as np

import ordmed.exact
from ordmed import (DistanceMatrix, Instance, PointSet, WeightVector,
                    closest_allocation, embed_integral, fixture_t1,
                    generate_uniform, resolve_weights, solve_enumeration)

# Five points on a line; every pairwise distance is distinct.
T1_COORDS = tuple(fixture_t1().coords[:, 0].tolist())


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


def other_size_pairs():
    """(instance, solution) pairs of unequal point counts: t1's median
    optimum, 5 points, on uniform instances of 8 and of 4 points."""
    sol = solve_enumeration(t1_instance("median", p=1))
    for m in (8, 4):
        pts, dist = generate_uniform(m, seed=0)
        yield Instance(dist, resolve_weights("median", m), 1, points=pts), sol


def stop_above_the_optimum(monkeypatch, inst, build, centers):
    """Make recovery_status's solve report the lift of a worse center set.

    The real solve still runs, and its duals stay; only x becomes the
    embedding of centers in build(inst), whose layout every model of inst's
    shape and weights shares. At weights far below unit 1 that vertex passes
    the residual gate, which is absolute there.
    """
    model = build(inst)
    worse = closest_allocation(inst.dist, centers, inst.weights)
    x = embed_integral(model, worse)
    solve = ordmed.exact.solve_lp

    def above(lp, start=None):
        return dataclasses.replace(solve(lp, start=start), x=x)

    monkeypatch.setattr(ordmed.exact, "solve_lp", above)


def add_variable(lp, obj=0.0, lower=0.0, upper=math.inf) -> int:
    """Add one column to lp; return its index."""
    return int(lp.add_variables([obj], lower, upper)[0])


def add_row(lp, coeffs, rel, rhs) -> int:
    """Add one row to lp from a {column: coefficient} map; return its index."""
    cmap = dict(coeffs)
    lp.add_rows(np.zeros(len(cmap)), list(cmap), list(cmap.values()), rel, [rhs])
    return lp.n_rows - 1
