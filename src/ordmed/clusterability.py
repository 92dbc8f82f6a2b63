"""Dip unimodality statistic, bootstrap p-values, 1-D MDS, and quantile labels."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeGuardError
from .instance import DistanceMatrix, _integer

MDS_THRESHOLD = 60
DIP_BOUND_TOL = 1e-12  # round-off a computed dip, or its uniform-CDF bound, may carry
DIP_BLOCK = 65536  # doubles per block of replicates dip_pvalue sorts and bounds at once
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

    Values are in [1/(2n), 1/4]; samples of size up to 3 and constant
    samples sit exactly on the lower bound. The sample is checked, sorted
    and handed to the corner walk `_sorted_dip`, the one dip implementation
    that `dip_pvalue` also runs on its replicates.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n < 2:
        raise SizeGuardError("the dip statistic needs at least 2 values")
    if not np.isfinite(x).all():
        raise ParameterError("sample values must be finite")
    x = x.tolist()
    dip, low, high = _sorted_dip(x)
    return DipResult(dip=dip, n=n, modal_low=x[low], modal_high=x[high])


def _sorted_dip(x: list) -> tuple[float, int, int]:
    """(dip, low, high) of a sorted list of n >= 2 finite values.

    x[low] and x[high] bound the modal interval. Sizes up to 3 and constant
    samples return the 1/(2n) floor at once. Otherwise the walk runs over
    the greatest convex minorant and least concave majorant of x, shrinking
    to the modal interval until the gap stops growing.

    The walk is scalar code, so it runs on Python lists: indexing a numpy
    array boxes a new scalar on every read. Lists hold the same doubles and
    ints, so every dip and modal interval is bit-identical.
    """
    n = len(x)
    if n <= 3 or x[0] == x[-1]:
        return 0.5 / n, 0, n - 1

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
    return dip, low, high


def dip_pvalue(sample, bootstrap: int = 1000, seed: int = 0) -> float:
    """Monte-Carlo p-value of the dip against standard-uniform samples.

    Each replicate draws from its own (seed, replicate) substream, so the
    result is deterministic and independent of evaluation order. Uses the
    add-one correction: p = (1 + #{replicate dip >= observed}) / (bootstrap + 1).
    bootstrap and seed must be integers (numpy's included), the seed
    non-negative.

    Most replicates are settled without a dip. The uniform CDF on a
    replicate's own range [u_(1), u_(n)] is unimodal, so the replicate's dip
    is at most that CDF's sup-distance to the ECDF, `_uniform_distance`.
    The dip's 1/(2n) floor does not break this: the distance is at least 1/n,
    the ECDF's jump at u_(1). A replicate whose distance is below
    observed - DIP_BOUND_TOL therefore has a smaller dip, whatever round-off
    either value carries, and counts as a miss. The rest go through the
    corner walk, so the p-value is the one a dip per replicate gives, to the
    bit. Replicates are drawn, sorted and bounded in blocks of at most
    DIP_BLOCK doubles.
    """
    bootstrap = _integer(bootstrap, "bootstrap")
    seed = _integer(seed, "seed")
    if bootstrap < MIN_BOOTSTRAP:
        raise ParameterError(f"bootstrap count must be at least {MIN_BOOTSTRAP}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    x = np.asarray(sample, dtype=float)
    observed = dip_statistic(x).dip
    n = len(x)
    rows = max(1, DIP_BLOCK // n)
    hits = 0
    for first in range(0, bootstrap, rows):
        block = np.empty((min(rows, bootstrap - first), n))
        for rep, row in enumerate(block, start=first):
            np.random.default_rng([seed, rep]).random(out=row)
        block.sort(axis=1)
        for row in block[_uniform_distance(block) >= observed - DIP_BOUND_TOL]:
            hits += _sorted_dip(row.tolist())[0] >= observed
    return (1 + hits) / (bootstrap + 1)


def _uniform_distance(x: np.ndarray) -> np.ndarray:
    """Per row of a row-sorted array, the sup-distance from its ECDF to the
    uniform CDF on [row min, row max]: max_i max(i/n - t_i, t_i - (i-1)/n)
    with t the row mapped onto [0, 1]. A constant row maps to t = 0 and
    gets distance 1, which bounds every dip.
    """
    n = x.shape[1]
    span = x[:, -1:] - x[:, :1]
    t = (x - x[:, :1]) / np.where(span > 0.0, span, 1.0)
    steps = np.arange(n + 1) / n
    return np.maximum(steps[1:] - t, t - steps[:-1]).max(axis=1)


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
