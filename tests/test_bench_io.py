"""Benchmark parsing, shortest paths, generators, and the experiment harness."""

import math
from collections import Counter

import numpy as np
import pytest

import ordmed.bench_io
from ordmed import (
    OrdmedError,
    ParameterError,
    ParseError,
    is_free_of_equidistance,
    validate_metric,
)
from ordmed.bench_io import (
    EdgeGraph,
    ExperimentRow,
    data_path,
    floyd_warshall,
    generate_ball,
    generate_uniform,
    parse_pmed,
    prefix_subsample,
    resolve_weights,
    rows_to_csv,
    run_experiment,
)

HEADER = ("instance,m,p,family,param,v_ip,v_lp,gap_lp,recovered,"
          "vertex_integral,time_enumeration,time_lp,dip,dip_pvalue,label_dip,"
          "label_pvalue,free_of_equidistance,error")


class TestParsePmed:
    def test_toy_graph(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("3 2 1\n1 2 5\n2 3 7\n")
        graph = parse_pmed(path)
        assert (graph.n, graph.p) == (3, 1)
        assert graph.edges == ((0, 1, 5.0), (1, 2, 7.0))

    def test_path_completion(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("3 2 1\n1 2 5\n2 3 7\n")
        d = floyd_warshall(parse_pmed(path))
        assert d.d[0, 2] == pytest.approx(12.0)
        assert validate_metric(d).ok

    def test_single_edge(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("2 1 1\n1 2 5\n")
        d = floyd_warshall(parse_pmed(path))
        assert d.d.tolist() == [[0.0, 5.0], [5.0, 0.0]]

    def test_shortcut_beats_heavy_edge(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("3 3 1\n1 2 9\n1 3 1\n2 3 1\n")
        d = floyd_warshall(parse_pmed(path))
        assert d.d[0, 1] == pytest.approx(2.0)

    def test_duplicate_edges_keep_minimum(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("2 2 1\n1 2 5\n2 1 3\n")
        graph = parse_pmed(path)
        assert graph.edges == ((0, 1, 3.0),)

    def test_vertex_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1 1\n0 2 5\n")
        with pytest.raises(ParseError) as exc:
            parse_pmed(path)
        assert exc.value.line == 2

    def test_nonpositive_cost(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 1\n1 2 0\n")
        with pytest.raises(ParseError):
            parse_pmed(path)

    def test_truncated_edge_list(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3 2 1\n1 2 5\n")
        with pytest.raises(ParseError):
            parse_pmed(path)

    def test_trailing_tokens(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("2 1 1\n1 2 5\n9 9 9\n")
        with pytest.raises(ParseError) as exc:
            parse_pmed(path)
        assert exc.value.line == 3

    def test_p_out_of_range(self, tmp_path):
        path = tmp_path / "badp.txt"
        path.write_text("2 1 3\n1 2 5\n")
        with pytest.raises(ParseError):
            parse_pmed(path)

    def test_disconnected_graph_named_vertex(self, tmp_path):
        path = tmp_path / "disc.txt"
        path.write_text("3 1 1\n1 2 5\n")
        with pytest.raises(OrdmedError) as exc:
            floyd_warshall(parse_pmed(path))
        assert "3" in str(exc.value)

    def test_edge_graph_invariants(self):
        with pytest.raises(ParameterError):
            EdgeGraph(n=2, p=1, edges=((0, 2, 1.0),))
        with pytest.raises(ParameterError):
            EdgeGraph(n=2, p=1, edges=((0, 1, -1.0),))

    def test_shipped_fixture(self):
        graph = parse_pmed(data_path("pmed1.txt"))
        assert graph.n == 100
        assert graph.p == 5
        assert len(graph.edges) == 200
        d = floyd_warshall(graph)
        assert validate_metric(d).ok


    @pytest.mark.parametrize("text, message", [
        ("", "line 1: unexpected end of file: missing vertex count"),
        ("3 x 1\n", "line 1: edge count must be an integer, got 'x'"),
        ("0 0 1\n", "line 1: vertex count must be positive, got 0"),
        ("3 -1 1\n", "line 1: edge count must be nonnegative, got -1"),
        ("3 1 1\n1\n4 5\n", "line 3: vertex 4 out of range [1, 3]"),
    ], ids=["empty", "token", "vertices", "edges", "endpoint"])
    def test_malformed_file_refused(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            parse_pmed(path)
        assert str(info.value) == message


class TestGenerators:
    @pytest.mark.parametrize("generate", [
        lambda: generate_ball(6, 2, 0.5, 4.0, dim=0),
        lambda: generate_uniform(6, dim=0),
    ], ids=["ball", "uniform"])
    def test_zero_dimensions_refused(self, generate):
        with pytest.raises(ParameterError) as info:
            generate()
        assert str(info.value) == "dim must be positive, got 0"

    def test_ball_separation(self):
        pts, dist = generate_ball(12, 3, 0.2, 10.0, seed=1)
        assert pts.m == 12 and dist.m == 12
        assert validate_metric(dist).ok
        gaps = np.sort(dist.upper_triangle())
        # Intra-cluster distances stay below 2r; inter-cluster above s - 2r.
        assert gaps[0] <= 0.4
        assert gaps[-1] >= 9.6
        assert not np.any((0.4 < gaps) & (gaps < 9.6))

    def test_ball_cluster_sizes_balanced(self):
        pts, _ = generate_ball(10, 3, 0.01, 10.0, seed=2)
        # With separation >> radius the clusters are recoverable by rounding.
        d = pts.distance_matrix().d
        sizes = sorted(np.sum(d[i] < 1.0) for i in range(10))
        assert sizes.count(3) == 6 and sizes.count(4) == 4

    def test_ball_determinism(self):
        a, _ = generate_ball(8, 2, 0.5, 6.0, seed=3)
        b, _ = generate_ball(8, 2, 0.5, 6.0, seed=3)
        c, _ = generate_ball(8, 2, 0.5, 6.0, seed=4)
        assert np.array_equal(a.coords, b.coords)
        assert not np.array_equal(a.coords, c.coords)

    def test_ball_dimension(self):
        pts, _ = generate_ball(6, 2, 0.1, 5.0, dim=3, seed=0)
        assert pts.coords.shape == (6, 3)

    def test_ball_placement_cap(self):
        with pytest.raises(ParameterError) as exc:
            generate_ball(30, 30, 0.0, 1.0, dim=1, seed=0)
        assert "separation" in str(exc.value)

    def test_ball_parameter_checks(self):
        with pytest.raises(ParameterError):
            generate_ball(5, 0, 0.1, 1.0)
        with pytest.raises(ParameterError):
            generate_ball(3, 4, 0.1, 1.0)

    @pytest.mark.parametrize("radius, separation", [
        (0.1, np.inf), (0.1, np.nan), (np.inf, 1.0), (np.nan, 1.0)])
    def test_ball_sizes_must_be_finite(self, radius, separation):
        # an infinite separation overflowed the center draw; NaN spent the
        # whole placement cap; an infinite radius failed only at the points
        with pytest.raises(ParameterError,
                           match="must be finite and nonnegative"):
            generate_ball(6, 2, radius, separation)

    def test_ball_separation_overflowing_the_cube(self):
        # 1e308 is finite, but 3 clusters times it is not
        with pytest.raises(ParameterError, match="overflows"):
            generate_ball(6, 3, 0.1, 1e308)

    def test_uniform_basic(self):
        pts, dist = generate_uniform(9, seed=5)
        assert pts.m == 9
        assert validate_metric(dist).ok
        other, _ = generate_uniform(9, seed=6)
        assert not np.array_equal(pts.coords, other.coords)

    def test_uniform_minimum_size(self):
        with pytest.raises(ParameterError):
            generate_uniform(1)

    def test_uniform_tie_free(self):
        for seed in range(100):
            _, dist = generate_uniform(12, seed=seed)
            assert is_free_of_equidistance(dist)

    def test_prefix_subsample(self):
        _, dist = generate_uniform(8, seed=7)
        sub = prefix_subsample(dist, 3)
        assert np.array_equal(sub.d, dist.d[:3, :3])
        with pytest.raises(ParameterError):
            prefix_subsample(dist, 1)
        with pytest.raises(ParameterError):
            prefix_subsample(dist, 9)


class TestResolveWeights:
    def test_families(self):
        assert resolve_weights("median", 4).lam.tolist() == [1.0] * 4
        assert resolve_weights("center", 3).lam.tolist() == [1.0, 0.0, 0.0]
        assert resolve_weights("ksum:2", 4).lam.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert resolve_weights("centdian:0.5", 3).lam.tolist() == [1.0, 0.5, 0.5]

    def test_ksum_auto_scales(self):
        assert resolve_weights("ksum:auto", 12).lam.sum() == math.ceil(12 / 4)
        assert resolve_weights("ksum:auto", 4).lam.sum() == 1

    def test_file_spec(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2.0 0.5\n")
        assert resolve_weights(f"file:{path}", 2).lam.tolist() == [2.0, 0.5]

    def test_file_spec_wrong_length(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("3.0 2.0 1.0\n")
        with pytest.raises(ParameterError):
            resolve_weights(f"file:{path}", 2)

    def test_file_spec_names_a_non_numeric_token(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1.0 abc 0.5\n")
        with pytest.raises(ParameterError) as info:
            resolve_weights(f"file:{path}", 3)
        assert str(path) in str(info.value)
        assert "'abc'" in str(info.value)

    @pytest.mark.parametrize("spec", ["ksum", "ksum:0", "ksum:9",
                                      "centdian:2", "centdian:x", "blah"])
    def test_bad_specs(self, spec):
        with pytest.raises(ParameterError):
            resolve_weights(spec, 5)


def ball_instances(count, m=8, seed0=100):
    out = []
    for k in range(count):
        pts, dist = generate_ball(m, 2, 0.2, 8.0, seed=seed0 + k)
        out.append((f"ball{k}", dist, pts))
    return out


class TestRunExperiment:
    def test_grid_shape_and_order(self):
        rows = run_experiment(ball_instances(3), ["median", "center"], [1, 2],
                              bootstrap=100)
        assert len(rows) == 12
        key = [(r.instance, r.family, r.p) for r in rows]
        expect = [(f"ball{i}", fam, p)
                  for i in range(3) for fam in ("median", "center") for p in (1, 2)]
        assert key == expect
        for row in rows:
            assert row.m == 8
            assert row.error == ""
            assert row.v_lp <= row.v_ip + 1e-7
            assert row.free_of_equidistance is True

    def test_labels_need_two_instances(self):
        rows = run_experiment(ball_instances(1), ["median"], [2], bootstrap=100)
        assert rows[0].label_dip == ""
        assert rows[0].label_pvalue == ""
        two = run_experiment(ball_instances(2), ["median"], [2], bootstrap=100)
        assert {r.label_dip for r in two} <= {"High", "Low", "Middle"}
        assert all(r.label_dip for r in two)

    def test_cell_errors_are_caught(self):
        _, dist = generate_uniform(4, seed=9)
        rows = run_experiment([("tiny", dist, None)], ["ksum:9"], [1],
                              bootstrap=100)
        assert len(rows) == 1
        assert rows[0].error.startswith("ParameterError")
        assert rows[0].v_ip is None
        assert rows[0].family == "ksum"
        assert rows[0].param is None

    def test_error_row_family_comes_from_the_parser(self):
        _, dist = generate_uniform(4, seed=9)
        rows = run_experiment([("tiny", dist, None)], [" ksum:9", "blah"], [1],
                              bootstrap=100)
        assert [row.family for row in rows] == ["ksum", ""]
        assert all(row.error.startswith("ParameterError") for row in rows)

    def test_family_and_param_recorded(self):
        rows = run_experiment(ball_instances(1), ["centdian:0.5", "ksum:3"], [2],
                              bootstrap=100)
        assert rows[0].family == "centdian"
        assert rows[0].param == pytest.approx(0.5)
        assert rows[1].family == "ksum"
        assert rows[1].param == pytest.approx(3.0)

    def test_negative_seed_blanks_the_dip_instead_of_dying(self):
        rows = run_experiment(ball_instances(2), ["median"], [2], seed=-1,
                              bootstrap=100)
        assert [row.error for row in rows] == ["", ""]
        assert (rows[0].dip, rows[0].dip_pvalue) == (None, None)
        assert rows[1].dip is not None  # instance 1 is seeded with -1 + 1
        assert [row.label_dip for row in rows] == ["", ""]

    def test_calls_per_instance_and_per_row(self, monkeypatch):
        calls = Counter()
        for name in ("is_free_of_equidistance", "dip_statistic",
                     "recovery_status"):
            real = getattr(ordmed.bench_io, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(ordmed.bench_io, name, counted)
        run_experiment(ball_instances(2), ["median", "center"], [1, 2],
                       bootstrap=100)
        assert calls == {"is_free_of_equidistance": 2, "dip_statistic": 2,
                         "recovery_status": 8}


class TestCsvRendering:
    @pytest.fixture(scope="class")
    @staticmethod
    def rows():
        return run_experiment(ball_instances(2), ["median"], [2], bootstrap=100)

    def test_header_and_shape(self, rows):
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == HEADER
        assert len(lines) == 3

    def test_byte_identity_across_reruns(self, rows):
        again = run_experiment(ball_instances(2), ["median"], [2], bootstrap=100)
        assert rows_to_csv(rows) == rows_to_csv(again)

    def test_times_blank_by_default(self, rows):
        lines = rows_to_csv(rows).strip().split("\n")
        cols = lines[1].split(",")
        idx_enum = HEADER.split(",").index("time_enumeration")
        idx_lp = HEADER.split(",").index("time_lp")
        assert cols[idx_enum] == ""
        assert cols[idx_lp] == ""
        with_times = rows_to_csv(rows, include_times=True).strip().split("\n")
        cols_t = with_times[1].split(",")
        assert float(cols_t[idx_enum]) >= 0.0
        assert float(cols_t[idx_lp]) > 0.0
