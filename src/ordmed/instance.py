"""Input data model: distance matrices, weight vectors, instances, solutions.

Everything here is immutable after construction and safe to share across
threads; the classes that hold arrays compare and hash by identity, since
an array has no single truth value under ==. Weight families are named by
spec strings only (WEIGHT_GRAMMAR). Metric validity (symmetry, zero
diagonal, triangle inequality) is checked explicitly through
:func:`validate_metric`, never assumed silently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ParseError

METRIC_RTOL = 1e-9  # metric violations below this times max |d| are round-off


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _integer(value, name: str) -> int:
    """value as a Python int, else a ParameterError naming the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Square matrix of pairwise costs d[i][j].

    Construction only enforces shape and finiteness so that
    :func:`validate_metric` can report on arbitrary square inputs.
    """

    d: np.ndarray

    def __post_init__(self):
        d = _frozen_array(self.d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ParameterError(f"distance matrix must be square, got shape {d.shape}")
        if d.shape[0] < 1:
            raise ParameterError("distance matrix must have at least one point")
        if not np.all(np.isfinite(d)):
            raise ParameterError("distance matrix entries must be finite")
        object.__setattr__(self, "d", d)

    @property
    def m(self) -> int:
        return self.d.shape[0]

    def upper_triangle(self) -> np.ndarray:
        """Strict upper-triangle entries in row-major order (length m(m-1)/2)."""
        iu = np.triu_indices(self.m, k=1)
        return self.d[iu]


@dataclass(frozen=True, eq=False)
class PointSet:
    """Points in n-dimensional real space; rows of coords are points."""

    coords: np.ndarray

    def __post_init__(self):
        c = _frozen_array(self.coords)
        if c.ndim != 2:
            raise ParameterError(f"coords must be a 2-d array, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ParameterError("coordinates must be finite")
        object.__setattr__(self, "coords", c)

    @property
    def m(self) -> int:
        return self.coords.shape[0]

    @property
    def n(self) -> int:
        return self.coords.shape[1]

    def distance_matrix(self) -> DistanceMatrix:
        """Euclidean distances between all point pairs, exactly symmetric."""
        diff = self.coords[:, None, :] - self.coords[None, :, :]
        d = np.sqrt(np.sum(diff * diff, axis=2))
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        return DistanceMatrix(d)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Sorting weights applied to the non-increasingly sorted cost vector."""

    lam: np.ndarray

    def __post_init__(self):
        lam = _frozen_array(self.lam)
        if lam.ndim != 1 or lam.size < 1:
            raise ParameterError("weights must be a nonempty 1-d vector")
        if not np.all(np.isfinite(lam)):
            raise ParameterError("weights must be finite")
        if lam[-1] < 0:
            raise ParameterError("weights must be nonnegative (last entry is negative)")
        if np.any(lam[:-1] < lam[1:]):
            r = int(np.argmax(lam[:-1] < lam[1:]))
            raise ParameterError(
                f"weights must be non-increasing (positions {r + 1}, {r + 2})"
            )
        object.__setattr__(self, "lam", lam)

    @property
    def m(self) -> int:
        return self.lam.size

    def deltas(self) -> np.ndarray:
        """Successive differences: delta_r = lam_r - lam_{r+1}, delta_m = lam_m."""
        out = np.empty(self.m)
        out[:-1] = self.lam[:-1] - self.lam[1:]
        out[-1] = self.lam[-1]
        return out


@dataclass(frozen=True)
class Instance:
    """A full problem input: distances, weights, and the number of centers p."""

    dist: DistanceMatrix
    weights: WeightVector
    p: int
    points: PointSet | None = None

    def __post_init__(self):
        if self.weights.m != self.dist.m:
            raise ParameterError(
                f"weight length {self.weights.m} != point count {self.dist.m}"
            )
        object.__setattr__(self, "p", _integer(self.p, "p"))
        if not (1 <= self.p <= self.dist.m):
            raise ParameterError(f"p must be in [1, {self.dist.m}], got {self.p}")
        if self.points is not None:
            if self.points.m != self.dist.m:
                raise ParameterError("coordinate count != distance matrix size")
            induced = self.points.distance_matrix().d
            d = self.dist.d
            if np.max(np.abs(induced - d)) > METRIC_RTOL * np.max(np.abs(d)):
                raise ParameterError("coordinates do not reproduce the distance "
                                     "matrix within METRIC_RTOL * max |d|")

    @property
    def m(self) -> int:
        return self.dist.m

    @property
    def max_term(self) -> float:
        """lam_1 * max d, which bounds every sorted term lam_r * d_ij."""
        return float(self.weights.lam[0]) * float(self.dist.d.max())

    @property
    def unit(self) -> float:
        """max(1, max_term): the unit of the relaxation's values, residuals and duals."""
        return max(1.0, self.max_term)


@dataclass(frozen=True, eq=False)
class CenterSolution:
    """p centers, nearest-center assignment, per-point costs, objective value."""

    centers: tuple[int, ...]
    assignment: tuple[int, ...]
    distances: np.ndarray
    value: float

    def __post_init__(self):
        object.__setattr__(self, "distances", _frozen_array(self.distances))

    def group(self, j: int) -> tuple[int, ...]:
        """Points assigned to center j, in ascending index order."""
        return tuple(i for i, a in enumerate(self.assignment) if a == j)

    def check_points(self, m: int) -> None:
        """Raise ParameterError unless the solution assigns exactly m points."""
        if len(self.assignment) != m:
            raise ParameterError(f"a solution of {len(self.assignment)} points "
                                 f"for an instance of {m}")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the metric checks, one witness per violated class."""

    symmetry_ok: bool
    diagonal_ok: bool
    triangle_ok: bool
    # (i, j, |d_ij - d_ji|) for the worst asymmetric pair
    symmetry_witness: tuple[int, int, float] | None = None
    # (i, d_ii) for the worst nonzero diagonal entry
    diagonal_witness: tuple[int, float] | None = None
    # (i, k, j, d_ij - (d_ik + d_kj)) for the worst triangle violation
    triangle_witness: tuple[int, int, int, float] | None = None

    @property
    def ok(self) -> bool:
        return self.symmetry_ok and self.diagonal_ok and self.triangle_ok

    def violations(self) -> list[str]:
        out = []
        if not self.symmetry_ok:
            i, j, mag = self.symmetry_witness
            out.append(f"symmetry violated at ({i},{j}), magnitude {mag:.6g}")
        if not self.diagonal_ok:
            i, val = self.diagonal_witness
            out.append(f"diagonal violated at {i}, value {val:.6g}")
        if not self.triangle_ok:
            i, k, j, mag = self.triangle_witness
            out.append(f"triangle violated at ({i},{k},{j}), magnitude {mag:.6g}")
        return out


def validate_metric(dist: DistanceMatrix | np.ndarray) -> ValidationReport:
    """Check symmetry, zero diagonal, and the triangle inequality.

    Every check allows METRIC_RTOL * max |d|, so float-built metrics
    (Euclidean coordinates, shortest-path completion) pass exactly when they
    should, in any unit. An empty violation list is equivalent to a valid
    metric.
    """
    d = dist.d if isinstance(dist, DistanceMatrix) else np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1] or not d.size:
        raise ParameterError(f"validate_metric needs a nonempty square matrix, got {d.shape}")
    scale = METRIC_RTOL * float(np.max(np.abs(d)))

    def worst(excess):  # (within scale?, position of the largest entry)
        at = np.unravel_index(int(np.argmax(excess)), excess.shape)
        return bool(excess[at] <= scale), tuple(int(x) for x in at)

    # best[i, j] = min_k (d_ik + d_kj), relaxing one k at a time as
    # floyd_warshall does, so only m x m values are held
    best = np.full_like(d, np.inf)
    for k in range(d.shape[0]):
        np.minimum(best, d[:, k, None] + d[None, k, :], out=best)
    asym, viol = np.abs(d - d.T), d - best
    symmetry_ok, (si, sj) = worst(asym)
    diagonal_ok, (di,) = worst(np.abs(np.diag(d)))
    triangle_ok, (ti, tj) = worst(viol)
    return ValidationReport(
        symmetry_ok, diagonal_ok, triangle_ok,
        None if symmetry_ok else (si, sj, float(asym[si, sj])),
        None if diagonal_ok else (di, float(d[di, di])),
        None if triangle_ok else
        (ti, int(np.argmin(d[ti] + d[:, tj])), tj, float(viol[ti, tj])),
    )


def is_free_of_equidistance(dist: DistanceMatrix) -> bool:
    """True iff all strict upper-triangle entries are pairwise distinct.

    The comparison is exact: the property is combinatorial.
    """
    entries = dist.upper_triangle()
    return len(set(entries.tolist())) == entries.size


WEIGHT_GRAMMAR = "median | center | ksum:K | centdian:G | file:PATH"


def parse_weight_spec(spec: str) -> tuple[str, int | float | str | None]:
    """Split a weight spec into its family and parameter, checking what needs no m.

    Grammar: WEIGHT_GRAMMAR, blanks around either part ignored. The
    parameter is None for median and center, an int or "auto" for ksum, a
    float for centdian and the path for file; checks against m and reading
    the file wait for resolve_weights.
    """
    name, _, arg = spec.partition(":")
    name = name.strip()
    arg = arg.strip()
    if name == "median" or name == "center":
        if arg:
            raise ParameterError(f"{name} takes no parameter, got {spec!r}")
        return name, None
    if name == "ksum":
        try:
            return name, arg if arg == "auto" else int(arg)
        except ValueError:
            raise ParameterError(
                f"ksum parameter must be an integer or 'auto', got {spec!r}"
            ) from None
    if name == "centdian":
        try:
            return name, float(arg)
        except ValueError:
            raise ParameterError(
                f"centdian parameter must be a number, got {spec!r}") from None
    if name == "file":
        if not arg:
            raise ParameterError("file spec needs a path, e.g. file:weights.txt")
        return name, arg
    raise ParameterError(f"unknown weight spec {spec!r}; use {WEIGHT_GRAMMAR}")


def resolve_weights(spec: str, m: int) -> WeightVector:
    """Build the weight vector of length m that a spec string names.

    median -> (1,...,1); center -> (1,0,...,0); ksum:K -> K ones then zeros,
    where `ksum:auto` takes K = ceil(m / 4); centdian:G -> (1, G, ..., G);
    file:PATH -> the m whitespace-separated numbers in the file. Any other
    vector is WeightVector(values).
    """
    name, arg = parse_weight_spec(spec)
    if name == "file":
        with open(arg, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
        try:
            lam = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise ParameterError(f"{arg}: {exc}") from None
    if m < 1:
        raise ParameterError(f"m must be positive, got {m}")
    if name == "file":
        if len(lam) != m:
            raise ParameterError(f"explicit weights have length {len(lam)}, expected {m}")
        return WeightVector(lam)
    if name == "ksum":
        arg = max(1, math.ceil(m / 4)) if arg == "auto" else arg
        if not 1 <= arg <= m:
            raise ParameterError(f"ksum needs 1 <= k <= {m}, got {arg}")
    if name == "centdian" and not 0.0 <= arg <= 1.0:
        raise ParameterError(f"centdian needs 0 <= gamma <= 1, got {arg}")
    return WeightVector(_family(name, arg, m))


def _family(name: str, arg, m: int) -> np.ndarray:
    """The family's vector of length m: median (1,...,1), center (1,0,...,0),
    ksum k ones then zeros, centdian (1,g,...,g). arg is k or g, unchecked."""
    if name == "median":
        return np.ones(m)
    lam = np.full(m, arg if name == "centdian" else 0.0)
    lam[:arg if name == "ksum" else 1] = 1.0
    return lam


@dataclass(frozen=True)
class WeightClass:
    """Detected weight family, up to positive scaling."""

    family: str  # median | center | ksum | centdian | general
    param: float | None = None  # k for ksum, gamma for centdian
    scale: float = 1.0


def classify_weights(weights: WeightVector) -> WeightClass:
    """Detect the weight family after normalizing by the first entry.

    Scaling by c > 0 never changes the class; the all-zero vector counts
    as a median of scale 0. Families are tried in a fixed order (median,
    center, ksum, centdian) and the first match wins.
    """
    lam = weights.lam
    scale = float(lam[0])
    if scale == 0.0:
        return WeightClass("median", None, 0.0)
    v = lam / scale
    # the only k and g that can match: the count of ones, and the last entry
    k = int(np.sum(v == 1.0))
    for family, param in ("median", None), ("center", None), ("ksum", k), ("centdian", v[-1]):
        if np.array_equal(v, _family(family, param, v.size)):
            return WeightClass(family, None if param is None else float(param), scale)
    return WeightClass("general", None, scale)


def fixture_t1() -> PointSet:
    """Line points {0, 1, 3, 7, 12}: all ten pairwise distances distinct."""
    return PointSet(np.array([[0.0], [1.0], [3.0], [7.0], [12.0]]))


def read_instance(path) -> tuple[DistanceMatrix, PointSet | None, int, WeightVector | None]:
    """Read an instance file; returns (dist, points, declared p, weights or None).

    Matrix format: line 1 `m p`; line 2 the m weights; then m matrix rows.
    Coordinate format: line 1 `m n p`; then m rows of n coordinates (the
    matrix is derived as Euclidean and no weight line is present). Blank
    and `#` comment lines are skipped anywhere; any other line after the
    data is a ParseError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = [ln.strip() for ln in fh]
    lines = [(no + 1, ln) for no, ln in enumerate(raw) if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty instance file")
    no, header = lines[0]
    parts = header.split()
    if len(parts) not in (2, 3):
        raise ParseError("header must be `m p` or `m n p`", no)
    counts = _parse_ints(parts, no)
    if min(counts[:-1]) < 1:
        raise ParseError("point and coordinate counts must be positive", no)
    matrix = len(parts) == 2
    m, p = counts[0], counts[-1]
    width = m if matrix else counts[1]
    kind, first = ("matrix", 2) if matrix else ("coordinate", 1)
    if len(lines) < first + m:
        need = f"weight line plus {m}" if matrix else m
        raise ParseError(f"expected {need} {kind} rows", no)
    lam = _read_row(lines[1], m, "weights") if matrix else None
    rows = np.array([_read_row(line, width, "entries" if matrix else "coordinates")
                     for line in lines[first:first + m]])
    if len(lines) > first + m:
        raise ParseError(f"trailing row after the {m} {kind} rows", lines[first + m][0])
    if matrix:
        return DistanceMatrix(rows), None, p, WeightVector(lam)
    points = PointSet(rows)
    return points.distance_matrix(), points, p, None


def write_instance(path, dist: DistanceMatrix | None = None,
                   points: PointSet | None = None, p: int = 1,
                   weights: WeightVector | None = None) -> None:
    """Write an instance file (coordinate or matrix format) to a path or stream."""
    if hasattr(path, "write"):
        _write_instance(path, dist, points, p, weights)
        return
    with open(path, "w", encoding="utf-8") as fh:
        _write_instance(fh, dist, points, p, weights)


def _write_instance(fh, dist, points, p, weights) -> None:
    if points is not None:
        header, rows = f"{points.m} {points.n} {p}", points.coords
    elif dist is None:
        raise ParameterError("write_instance needs a matrix or points")
    else:
        if weights is None:
            weights = resolve_weights("median", dist.m)
        header, rows = f"{dist.m} {p}", [weights.lam, *dist.d]
    fh.write(header + "\n")
    for row in rows:
        fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def _parse_ints(tokens, line_no: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"expected integers, got {tokens!r}", line_no) from exc


def _read_row(line: tuple[int, str], width: int, what: str) -> list[float]:
    """The finite numbers of one numbered file line, exactly width of them."""
    no, text = line
    tokens = text.split()
    try:
        row = [float(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"expected numbers, got {tokens!r}", no) from exc
    if not all(math.isfinite(x) for x in row):
        raise ParseError("non-finite number", no)
    if len(row) != width:
        raise ParseError(f"expected {width} {what}, got {len(row)}", no)
    return row
