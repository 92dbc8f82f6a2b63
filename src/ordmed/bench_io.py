"""Benchmark ingestion, synthetic generators, and the experiment harness.

Covers the full loop around the core solvers: read the classic p-median
benchmark files and complete them to all-pairs distance matrices, generate
clustered (stochastic-ball) and uniform control instances, run a batch of
(instance, weight family, p) cells with per-row fault isolation, and emit
the results as a fixed-schema CSV table.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, fields
from importlib import resources

import numpy as np

from .clusterability import clusterability_sample, dip_pvalue, dip_statistic, \
    classify_collection
from .errors import OrdmedError, ParameterError, ParseError
from .exact import recovery_status
from .instance import DistanceMatrix, Instance, PointSet, classify_weights, \
    is_free_of_equidistance, parse_weight_spec, resolve_weights

PLACEMENT_CAP = 10**5


@dataclass(frozen=True)
class EdgeGraph:
    """Undirected weighted graph in benchmark form.

    Vertices are 1-indexed in the file format and 0-indexed here; edges is
    deduplicated (minimum cost kept) and sorted by endpoint pair. p is the
    center count the file declares.
    """

    n: int
    p: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for i, j, cost in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ParameterError(f"edge ({i}, {j}) out of range for n={self.n}")
            if cost <= 0:
                raise ParameterError(f"edge cost must be positive, got {cost}")


def parse_pmed(path) -> EdgeGraph:
    """Parse a p-median benchmark file: header `n edges p`, then cost triples.

    Tokens are whitespace-separated integers; line breaks carry no meaning
    beyond error reporting. Vertices are 1-indexed in the file. Duplicate
    edges keep the minimum cost, so the stored edge list may be shorter than
    the declared count; the declared count is checked against the number of
    triples present.
    """
    tokens: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for no, line in enumerate(fh, start=1):
            tokens.extend((no, tok) for tok in line.split())

    pos = 0

    def take(what: str) -> tuple[int, int]:
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1][0] if tokens else 1
            raise ParseError(f"unexpected end of file: missing {what}", last)
        no, tok = tokens[pos]
        pos += 1
        try:
            return int(tok), no
        except ValueError:
            raise ParseError(f"{what} must be an integer, got {tok!r}", no) from None

    n, no = take("vertex count")
    if n < 1:
        raise ParseError(f"vertex count must be positive, got {n}", no)
    declared, no = take("edge count")
    if declared < 0:
        raise ParseError(f"edge count must be nonnegative, got {declared}", no)
    p, no = take("center count")
    if not (1 <= p <= n):
        raise ParseError(f"center count must be in [1, {n}], got {p}", no)
    best: dict[tuple[int, int], int] = {}
    for _ in range(declared):
        i, no_i = take("edge endpoint")
        j, no_j = take("edge endpoint")
        cost, no_c = take("edge cost")
        if not (1 <= i <= n):
            raise ParseError(f"vertex {i} out of range [1, {n}]", no_i)
        if not (1 <= j <= n):
            raise ParseError(f"vertex {j} out of range [1, {n}]", no_j)
        if cost <= 0:
            raise ParseError(f"edge cost must be positive, got {cost}", no_c)
        key = (min(i, j) - 1, max(i, j) - 1)
        if key not in best or cost < best[key]:
            best[key] = cost
    if pos != len(tokens):
        raise ParseError(f"trailing data after {declared} declared edges",
                         tokens[pos][0])
    edges = tuple((i, j, best[(i, j)]) for i, j in sorted(best))
    return EdgeGraph(n=n, p=p, edges=edges)


def floyd_warshall(g: EdgeGraph) -> DistanceMatrix:
    """All-pairs shortest paths of an EdgeGraph; requires connectivity.

    The output is symmetric with a zero diagonal and satisfies the triangle
    inequality by construction, so it passes validate_metric.
    """
    n = g.n
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, cost in g.edges:
        if cost < d[i, j]:
            d[i, j] = d[j, i] = float(cost)
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    if np.isinf(d[0]).any():
        missing = int(np.argmax(np.isinf(d[0])))
        raise ParameterError(
            f"graph is disconnected: vertex {missing + 1} is unreachable "
            "from vertex 1; all-pairs distances are undefined")
    return DistanceMatrix(d)


def generate_ball(m: int, p_clusters: int, radius: float, separation: float,
                  dim: int = 2, seed: int = 0) -> tuple[PointSet, DistanceMatrix]:
    """Points drawn uniformly in balls around well-separated random centers.

    Centers are rejection-sampled in a cube until pairwise distances reach
    `separation` (at most 10^5 draws); the m points split across clusters as
    evenly as possible. Deterministic per seed. separation > 4 * radius makes
    every within-cluster distance smaller than every between-cluster one.
    """
    if not (1 <= p_clusters <= m):
        raise ParameterError(f"need 1 <= clusters <= m, got {p_clusters}, {m}")
    if not all(np.isfinite(v) and v >= 0 for v in (radius, separation)):
        raise ParameterError("radius and separation must be finite and "
                             f"nonnegative, got {radius}, {separation}")
    if dim < 1:
        raise ParameterError(f"dim must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    side = max(1.0, separation * p_clusters)
    if not np.isfinite(side):
        raise ParameterError(f"separation {separation} times {p_clusters} "
                             "clusters overflows the placement cube")
    centers: list[np.ndarray] = []
    tries = 0
    while len(centers) < p_clusters:
        tries += 1
        if tries > PLACEMENT_CAP:
            raise ParameterError(
                f"could not place {p_clusters} centers at separation "
                f"{separation} in {tries - 1} draws; reduce the separation "
                "or raise the dimension")
        cand = rng.uniform(0.0, side, size=dim)
        if all(float(np.linalg.norm(cand - c)) >= separation for c in centers):
            centers.append(cand)
    counts = [m // p_clusters + (1 if c < m % p_clusters else 0)
              for c in range(p_clusters)]
    rows = []
    for center, count in zip(centers, counts):
        for _ in range(count):
            direction = rng.normal(size=dim)
            norm = float(np.linalg.norm(direction))
            while norm == 0.0:
                direction = rng.normal(size=dim)
                norm = float(np.linalg.norm(direction))
            dist_from_center = radius * float(rng.uniform()) ** (1.0 / dim)
            rows.append(center + direction * (dist_from_center / norm))
    points = PointSet(np.array(rows))
    return points, points.distance_matrix()


def generate_uniform(m: int, dim: int = 2, seed: int = 0) -> tuple[PointSet, DistanceMatrix]:
    """i.i.d. uniform points in the unit cube; deterministic per seed."""
    if m < 2:
        raise ParameterError(f"need m >= 2, got {m}")
    if dim < 1:
        raise ParameterError(f"dim must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    points = PointSet(rng.uniform(0.0, 1.0, size=(m, dim)))
    return points, points.distance_matrix()


def prefix_subsample(dist: DistanceMatrix, m_prime: int) -> DistanceMatrix:
    """Restrict to the first m' vertices in index order.

    This is the deterministic shrink rule for benchmark graphs whose full
    size exceeds the enumeration guard; a principal submatrix of a metric
    stays a metric.
    """
    if not (2 <= m_prime <= dist.m):
        raise ParameterError(f"need 2 <= m' <= {dist.m}, got {m_prime}")
    return DistanceMatrix(dist.d[:m_prime, :m_prime].copy())


def data_path(name: str):
    """Path of a vendored data file shipped inside the package."""
    return resources.files("ordmed").joinpath("data", name)


@dataclass(frozen=True)
class ExperimentRow:
    """One harness cell: an instance solved under one weight family and p.

    Failed cells carry their message in `error` and leave the numeric fields
    empty.
    """

    instance: str
    m: int
    p: int
    family: str
    param: float | None = None
    v_ip: float | None = None
    v_lp: float | None = None
    gap_lp: float | None = None
    recovered: bool | None = None
    vertex_integral: bool | None = None
    time_enumeration: float | None = None
    time_lp: float | None = None
    dip: float | None = None
    dip_pvalue: float | None = None
    label_dip: str = ""
    label_pvalue: str = ""
    free_of_equidistance: bool | None = None
    error: str = ""


def profile_instances(dists, *, bootstrap: int, seed: int) -> list[tuple]:
    """(dip, dip p-value, dip-stat label, dip-pvalue label) per distance matrix.

    Instance k bootstraps its p-value with seed + k, so the clusterability
    and experiment commands give equal inputs equal p-values. An instance
    whose dip cannot be computed (a sample of fewer than 2 values, a negative
    seed) gets None for both values and blank labels. Labels rank each
    instance against the others that have a dip; with fewer than two such
    instances they stay blank.
    """
    profiles = []
    for k, dist in enumerate(dists):
        try:
            sample = clusterability_sample(dist)
            profiles.append((dip_statistic(sample).dip,
                             dip_pvalue(sample, bootstrap=bootstrap, seed=seed + k)))
        except OrdmedError:
            profiles.append((None, None))
    labels = [("", "")] * len(profiles)
    scored = [k for k, (dip, _) in enumerate(profiles) if dip is not None]
    if len(scored) >= 2:
        dips, pvalues = zip(*(profiles[k] for k in scored))
        for k, by_dip, by_pvalue in zip(
                scored, classify_collection(dips, basis="dip-stat"),
                classify_collection(pvalues, basis="dip-pvalue")):
            labels[k] = (by_dip, by_pvalue)
    return [profile + label for profile, label in zip(profiles, labels)]


def _run_cell(dist, points, spec, p):
    """Solve one cell and return the fields it fills in."""
    weights = resolve_weights(spec, dist.m)
    detected = classify_weights(weights)
    inst = Instance(dist, weights, p, points)
    report = recovery_status(inst)
    return {
        "family": detected.family,
        "param": detected.param,
        "v_ip": report.v_ip,
        "v_lp": report.v_lp,
        "gap_lp": report.gap_lp,
        "recovered": report.recovered,
        "vertex_integral": report.vertex_integral,
        "time_enumeration": report.time_enumeration,
        "time_lp": report.time_lp,
    }


def run_experiment(instances, families, p_values, *, seed: int = 0,
                   bootstrap: int = 1000) -> list[ExperimentRow]:
    """Solve every (instance, family, p) cell and tabulate the outcomes.

    instances: sequence of (name, DistanceMatrix, PointSet | None) triples.
    families: weight spec strings for resolve_weights. Cell failures are
    caught and recorded in-row, under the spec's family name (blank when the
    spec does not parse); the batch always completes. Rows come back in
    input order (instance, then family, then p). The dip columns and labels
    come from profile_instances and repeat on each of an instance's rows.
    """
    shared = [  # the fields every row of one instance repeats
        {"dip": dip, "dip_pvalue": pval, "label_dip": label_dip,
         "label_pvalue": label_pvalue,
         "free_of_equidistance": is_free_of_equidistance(dist)}
        for (_, dist, _), (dip, pval, label_dip, label_pvalue) in zip(
            instances, profile_instances([dist for _, dist, _ in instances],
                                         bootstrap=bootstrap, seed=seed))]

    def solve(idx, name, dist, points, spec, p):
        family = ""
        try:
            family = parse_weight_spec(spec)[0]
            cell = _run_cell(dist, points, spec, p)
        except Exception as exc:  # per-row fault isolation, batch never dies
            cell = {"family": family,
                    "error": f"{type(exc).__name__}: {exc}".splitlines()[0]}
        return ExperimentRow(instance=name, m=dist.m, p=p, **shared[idx], **cell)

    return [solve(idx, name, dist, points, spec, p)
            for idx, (name, dist, points) in enumerate(instances)
            for spec in families
            for p in p_values]


def format_cell(value) -> str:
    """One report value as text: None blank, booleans true/false, floats %.9g.

    Sequences print space-separated, each item formatted the same way.
    """
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.9g" % float(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return " ".join(format_cell(v) for v in value)
    return str(value)


def format_csv(header, rows) -> str:
    """A header line and one line per row of values, each through format_cell."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_cell(v) for v in row] for row in rows)
    return out.getvalue()


def row_values(row: ExperimentRow, *, include_times: bool = False) -> dict:
    """A row's fields in header order, the time columns None unless included."""
    return {name: None if name.startswith("time_") and not include_times
            else value for name, value in asdict(row).items()}


def rows_to_csv(rows, *, include_times: bool = False) -> str:
    """Render rows as a UTF-8 CSV with the fixed field order as header.

    Floats print with 9 significant digits. The two time columns hold
    wall-clock perf_counter seconds; they stay in the header but print empty
    unless include_times is set, so that default output is byte-identical
    across reruns with equal seeds and flags.
    """
    return format_csv(
        [f.name for f in fields(ExperimentRow)],
        (row_values(row, include_times=include_times).values() for row in rows))
