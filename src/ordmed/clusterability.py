"""Dip unimodality statistic, bootstrap p-values, 1-D MDS, and quantile labels."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeGuardError
from .instance import DistanceMatrix

MDS_THRESHOLD = 60
DIP_BOUND_TOL = 1e-12  # round-off a dip may show outside [1/(2n), 1/4]
MDS_CLAMP_RTOL = 1e-9  # a leading eigenvalue below -this * norm(B) warns
MIN_BOOTSTRAP = 100  # fewest resamples dip_pvalue accepts
HIGH = "High"
LOW = "Low"
MIDDLE = "Middle"


@dataclass(frozen=True)
class DipResult:
    """Dip statistic of a sample with the modal interval it certifies."""

    dip: float
    n: int
    modal_low: float
    modal_high: float


def dip_statistic(sample) -> DipResult:
    """Sup-distance between the sample ECDF and the nearest unimodal CDF.

    Corner-walk over the greatest convex minorant and least concave majorant
    of the sorted sample, shrinking to the modal interval until the gap
    stops growing. Values are in [1/(2n), 1/4]; samples of size up to 3 and
    constant samples sit exactly on the lower bound.

    The walk is scalar code, so it runs on Python lists: indexing a numpy
    array boxes a new scalar on every read. Lists hold the same doubles and
    ints, so every dip and modal interval is bit-identical.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n < 2:
        raise SizeGuardError("the dip statistic needs at least 2 values")
    if not np.isfinite(x).all():
        raise ParameterError("sample values must be finite")
    if n <= 3 or x[0] == x[-1]:
        return DipResult(dip=0.5 / n, n=n, modal_low=float(x[0]),
                         modal_high=float(x[-1]))

    x = x.tolist()
    low, high = 0, n - 1
    dip_value = 1.0  # in 2n * dip units; enforces the 1/(2n) floor

    # for each j, mn[j] starts the chord ending at j on the convex minorant
    mn = [0] * n
    for j in range(1, n):
        mn[j] = j - 1
        while True:
            mnj = mn[j]
            mnmnj = mn[mnj]
            if mnj == 0 or (x[j] - x[mnj]) * (mnj - mnmnj) < (x[mnj] - x[mnmnj]) * (j - mnj):
                break
            mn[j] = mnmnj
    # mirrored chords for the concave majorant
    mj = [0] * n
    mj[n - 1] = n - 1
    for k in range(n - 2, -1, -1):
        mj[k] = k + 1
        while True:
            mjk = mj[k]
            mjmjk = mj[mjk]
            if mjk == n - 1 or (x[k] - x[mjk]) * (mjk - mjmjk) < (x[mjk] - x[mjmjk]) * (k - mjk):
                break
            mj[k] = mjmjk

    gcm = [0] * n
    lcm = [0] * n
    while True:
        gcm[0] = high
        i = 0
        while gcm[i] > low:
            gcm[i + 1] = mn[gcm[i]]
            i += 1
        ig = i
        l_gcm = i
        ix = ig - 1
        lcm[0] = low
        i = 0
        while lcm[i] < high:
            lcm[i + 1] = mj[lcm[i]]
            i += 1
        ih = i
        l_lcm = i
        iv = 1

        d = 0.0
        if l_gcm != 1 or l_lcm != 1:
            # walk both corner lists, tracking the largest minorant/majorant gap
            while True:
                gcmix = gcm[ix]
                lcmiv = lcm[iv]
                if gcmix > lcmiv:
                    gcmil = gcm[ix + 1]
                    dx = (lcmiv - gcmil + 1) - (x[lcmiv] - x[gcmil]) * (gcmix - gcmil) / (x[gcmix] - x[gcmil])
                    iv += 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv - 1
                else:
                    lcmivl = lcm[iv - 1]
                    dx = (x[gcmix] - x[lcmivl]) * (lcmiv - lcmivl) / (x[lcmiv] - x[lcmivl]) - (gcmix - lcmivl - 1)
                    ix -= 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv
                if ix < 0:
                    ix = 0
                if iv > l_lcm:
                    iv = l_lcm
                if gcm[ix] == lcm[iv]:
                    break
        if d < dip_value:
            break

        # largest deviation inside each remaining minorant segment
        dip_l = 0.0
        for j in range(ig, l_gcm):
            jb = gcm[j + 1]
            je = gcm[j]
            max_t = 1.0
            if je - jb > 1 and x[je] != x[jb]:
                c = (je - jb) / (x[je] - x[jb])
                for jj in range(jb, je + 1):
                    t = (jj - jb + 1) - (x[jj] - x[jb]) * c
                    if max_t < t:
                        max_t = t
            if dip_l < max_t:
                dip_l = max_t
        # and inside each majorant segment
        dip_u = 0.0
        for j in range(ih, l_lcm):
            jb = lcm[j]
            je = lcm[j + 1]
            max_t = 1.0
            if je - jb > 1 and x[je] != x[jb]:
                c = (je - jb) / (x[je] - x[jb])
                for jj in range(jb, je + 1):
                    t = (x[jj] - x[jb]) * c - (jj - jb - 1)
                    if max_t < t:
                        max_t = t
            if dip_u < max_t:
                dip_u = max_t

        dip_new = dip_u if dip_u > dip_l else dip_l
        if dip_value < dip_new:
            dip_value = dip_new
        if low == gcm[ig] and high == lcm[ih]:
            break
        low = gcm[ig]
        high = lcm[ih]

    dip = dip_value / (2 * n)
    if not 0.5 / n - DIP_BOUND_TOL <= dip <= 0.25 + DIP_BOUND_TOL:
        raise AssertionError(f"dip {dip} escaped [1/(2n), 1/4]")
    return DipResult(dip=dip, n=n, modal_low=x[low], modal_high=x[high])


def dip_pvalue(sample, bootstrap: int = 1000, seed: int = 0) -> float:
    """Monte-Carlo p-value of the dip against standard-uniform samples.

    Each replicate draws from its own (seed, replicate) substream, so the
    result is deterministic and independent of evaluation order. Uses the
    add-one correction: p = (1 + #{replicate dip >= observed}) / (bootstrap + 1).
    The seed must be non-negative.
    """
    if bootstrap < MIN_BOOTSTRAP:
        raise ParameterError(f"bootstrap count must be at least {MIN_BOOTSTRAP}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    x = np.asarray(sample, dtype=float)
    observed = dip_statistic(x).dip
    n = len(x)
    hits = 0
    for rep in range(bootstrap):
        u = np.random.default_rng([seed, rep]).random(n)
        if dip_statistic(u).dip >= observed:
            hits += 1
    return (1 + hits) / (bootstrap + 1)


def mds_1d(dist: DistanceMatrix) -> np.ndarray:
    """Project a distance matrix to the line by classical scaling.

    Double-centers the entrywise-squared matrix and takes its leading
    eigenpair (the algebraically largest eigenvalue) from a symmetric
    eigendecomposition. Coordinates are sqrt(lambda_1) times the
    eigenvector, sign-fixed so the largest-magnitude coordinate is positive.
    A negative lambda_1 is clamped to 0 with a warning; that needs a matrix
    both asymmetric and with a nonzero diagonal, since symmetry gives B 1 = 0
    (0 is an eigenvalue) and a zero diagonal gives trace B = sum d^2 / 2m.
    """
    d = dist.d
    m = d.shape[0]
    sq = d * d
    row = sq.mean(axis=1, keepdims=True)
    col = sq.mean(axis=0, keepdims=True)
    b = -0.5 * (sq - row - col + sq.mean())
    scale = float(np.linalg.norm(b))
    if scale == 0.0:
        return np.zeros(m)
    eigenvalues, eigenvectors = np.linalg.eigh(b)
    lam1, vec = float(eigenvalues[-1]), eigenvectors[:, -1]
    if lam1 < -MDS_CLAMP_RTOL * scale:
        warnings.warn(f"leading eigenvalue {lam1:.3e} clamped to 0; the matrix "
                      "is not Euclidean-embeddable", stacklevel=2)
    coords = np.sqrt(max(lam1, 0.0)) * vec
    anchor = int(np.argmax(np.abs(coords)))
    if coords[anchor] < 0:
        coords = -coords
    return coords


def clusterability_sample(dist: DistanceMatrix) -> np.ndarray:
    """The 1-D sample whose modality stands in for the matrix's clusterability.

    Up to m = MDS_THRESHOLD (60) the upper-triangle distances, beyond that
    the 1-D classical projection mds_1d.
    """
    if dist.m <= MDS_THRESHOLD:
        return dist.upper_triangle()
    return mds_1d(dist)


def classify_collection(values, basis: str = "dip-stat") -> list[str]:
    """Label each value against the collection quantiles: High, Low or Middle.

    dip-stat basis (values are dips): at or above the 95% quantile is High,
    at or below the 5% quantile is Low. dip-pvalue basis (values are
    p-values) mirrors this with the tails swapped. Values caught by both
    tails (possible when the quantiles coincide) stay Middle.
    """
    values = np.array(values, dtype=float)
    if len(values) < 2:
        raise ParameterError("need at least 2 values to classify")
    if basis not in ("dip-stat", "dip-pvalue"):
        raise ParameterError(f"unknown basis {basis!r}")
    hi_is_high = basis == "dip-stat"
    lo = float(np.quantile(values, 0.05))
    hi = float(np.quantile(values, 0.95))
    labels = []
    for value in values:
        upper_tail = value >= hi
        lower_tail = value <= lo
        if upper_tail and lower_tail:
            label = MIDDLE
        elif upper_tail:
            label = HIGH if hi_is_high else LOW
        elif lower_tail:
            label = LOW if hi_is_high else HIGH
        else:
            label = MIDDLE
        labels.append(label)
    return labels
