"""End-to-end tests for the command-line interface, run in-process."""

import csv
import io
import json
import shutil

import numpy as np
import pytest

from ordmed import (Instance, PointSet, WeightVector, build_bep, build_ot,
                    generate_ball, resolve_weights, write_instance)
from ordmed.cli import build_parser, main
from ordmed.instance import WEIGHT_GRAMMAR

from helpers import T1_COORDS, stop_above_the_optimum


@pytest.fixture(scope="module")
def t1_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "t1.txt"
    coords = np.array(T1_COORDS).reshape(-1, 1)
    write_instance(path, points=PointSet(coords), p=1)
    return str(path)


@pytest.fixture(scope="module")
def ball_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ball.txt"
    code = main(["generate", "ball", "--m", "12", "--clusters", "3",
                 "--radius", "0.1", "--sep", "10", "--seed", "7",
                 "-o", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def center_matrix_path(tmp_path_factory):
    """Matrix-format file, m = 8, that stores center weights."""
    path = tmp_path_factory.mktemp("cli") / "m8.txt"
    pts = PointSet(np.random.default_rng(5).uniform(size=(8, 2)))
    write_instance(path, dist=pts.distance_matrix(), p=2,
                   weights=resolve_weights("center", 8))
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def pairs(text):
    out = {}
    for line in text.strip().split("\n"):
        key, _, val = line.partition(" ")
        out[key] = val
    return out


class TestSolve:
    def test_center_single(self, capsys, t1_path):
        code, out, _ = run(capsys, "solve", "--instance", t1_path,
                           "--weights", "center", "--p", "1")
        assert code == 0
        got = pairs(out)
        assert got["v_ip"] == "7"
        assert got["centers"] == "3"
        assert got["assignment"] == "3 3 3 3 3"

    def test_median_single(self, capsys, t1_path):
        code, out, _ = run(capsys, "solve", "--instance", t1_path,
                           "--weights", "median", "--p", "1")
        assert code == 0
        got = pairs(out)
        assert got["v_ip"] == "18"
        assert got["centers"] == "2"

    def test_p_defaults_to_file(self, capsys, t1_path):
        code, out, _ = run(capsys, "solve", "--instance", t1_path,
                           "--weights", "median")
        assert code == 0
        assert pairs(out)["v_ip"] == "18"


class TestRelax:
    def test_median_recovers(self, capsys, t1_path):
        code, out, err = run(capsys, "relax", "--instance", t1_path,
                             "--weights", "median", "--p", "1")
        assert code == 0
        got = pairs(out)
        assert got["v_ip"] == "18"
        assert got["v_lp"] == "18"
        assert got["gap_lp"] == "0"
        assert got["recovered"] == "true"
        assert got["vertex_integral"] == "true"
        assert "matches" in err

    def test_center_gap(self, capsys, t1_path):
        code, out, err = run(capsys, "relax", "--instance", t1_path,
                             "--weights", "center", "--p", "1")
        assert code == 0
        got = pairs(out)
        assert got["recovered"] == "false"
        assert float(got["v_lp"]) < float(got["v_ip"])
        assert "below" in err

    def test_ot_formulation_agrees(self, capsys, t1_path):
        base = run(capsys, "relax", "--instance", t1_path,
                   "--weights", "median", "--p", "1")[1]
        code, out, _ = run(capsys, "relax", "--instance", t1_path,
                           "--weights", "median", "--p", "1",
                           "--formulation", "ot")
        assert code == 0
        assert float(pairs(out)["v_lp"]) == pytest.approx(
            float(pairs(base)["v_lp"]), rel=1e-9)

    def test_json_output(self, capsys, t1_path):
        code, out, _ = run(capsys, "relax", "--instance", t1_path,
                           "--weights", "median", "--p", "1", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["v_ip"] == 18.0
        assert rec["v_lp"] == 18.0
        assert rec["recovered"] is True

    @staticmethod
    def weighted_ball(tmp_path, weight):
        """ball seed 2 at m = 10, and a file: weights spec of ten weight."""
        path = tmp_path / "ball.txt"
        assert main(["generate", "ball", "--m", "10", "--clusters", "3",
                     "--radius", "0.5", "--sep", "4", "--seed", "2",
                     "-o", str(path)]) == 0
        weights = tmp_path / f"w{weight}.txt"
        weights.write_text(f"{weight} " * 10)
        return str(path), f"file:{weights}"

    @pytest.mark.parametrize("form", ["bep", "ot"])
    def test_tiny_weights_match_the_unit_weights(self, capsys, tmp_path, form):
        # At weights of ten 1e-6 a cold solve stopped 3.7e-4 above v_ip and
        # the command failed; the warm start recovers there as at ten 1s.
        got = {}
        for weight in (1e-6, 1):
            path, spec = self.weighted_ball(tmp_path, weight)
            capsys.readouterr()
            code, out, _ = run(capsys, "relax", "--formulation", form,
                               "--instance", path, "--weights", spec, "--p", "3")
            assert code == 0
            got[weight] = pairs(out)
        tiny, unit = got[1e-6], got[1]
        for flag in ("recovered", "vertex_integral"):
            assert tiny[flag] == unit[flag] == "true"
        assert float(tiny["v_lp"]) / 1e-6 == pytest.approx(float(unit["v_lp"]),
                                                          rel=1e-9)

    @pytest.mark.parametrize("form", ["bep", "ot"])
    def test_vertex_above_the_exact_optimum_is_one_error_line(
            self, capsys, tmp_path, monkeypatch, form):
        path, spec = self.weighted_ball(tmp_path, 1e-12)
        points, dist = generate_ball(10, 3, 0.5, 4.0, seed=2)
        inst = Instance(dist, WeightVector(np.full(10, 1e-12)), 3, points)
        stop_above_the_optimum(monkeypatch, inst,
                               build_bep if form == "bep" else build_ot, (0, 1, 2))
        capsys.readouterr()
        code, out, err = run(capsys, "relax", "--formulation", form,
                             "--instance", path, "--weights", spec, "--p", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: relaxation value ")
        assert err.count("\n") == 1

    def test_output_file(self, capsys, t1_path, tmp_path):
        dest = tmp_path / "relax.txt"
        code, out, err = run(capsys, "relax", "--instance", t1_path,
                             "--weights", "median", "--p", "1",
                             "-o", str(dest))
        assert code == 0
        assert out == ""
        assert f"wrote {dest}" in err
        assert pairs(dest.read_text())["v_lp"] == "18"


class TestSubsampleWeights:
    def test_stored_weights_refuse_a_shorter_prefix(self, capsys,
                                                    center_matrix_path):
        code, out, err = run(capsys, "relax", "--instance", center_matrix_path,
                             "--subsample", "6")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "8" in err and "6" in err and "--weights" in err

    def test_explicit_weights_apply_to_the_prefix(self, capsys,
                                                  center_matrix_path):
        code, out, _ = run(capsys, "relax", "--instance", center_matrix_path,
                           "--subsample", "6", "--weights", "center")
        assert code == 0
        assert pairs(out)["recovered"] == "false"

    def test_full_length_prefix_keeps_stored_weights(self, capsys,
                                                     center_matrix_path):
        whole = run(capsys, "solve", "--instance", center_matrix_path)[1]
        code, out, _ = run(capsys, "solve", "--instance", center_matrix_path,
                           "--subsample", "8")
        assert code == 0
        assert out == whole


class TestCertify:
    def test_center_infeasible_still_succeeds(self, capsys, t1_path):
        code, out, err = run(capsys, "certify", "--instance", t1_path,
                             "--weights", "center", "--p", "1")
        assert code == 0
        got = pairs(out)
        assert got["found"] == "false"
        assert got["v_ip"] == "7"
        assert err == "no certificate exists for this solution\n"

    def test_empty_alpha_box_reports_no_certificate(self, capsys, tmp_path):
        # center weights give every point but the farthest weight 0, so a
        # strict margin empties the alpha box before any program is built
        path = tmp_path / "line.txt"
        path.write_text("3 1 2\n0\n1\n2\n")
        code, out, err = run(capsys, "certify", "--instance", str(path),
                             "--weights", "center", "--strict")
        assert code == 0
        assert pairs(out)["found"] == "false"
        assert err == "no strict certificate exists for this solution\n"

    def test_median_found_and_holds(self, capsys, t1_path):
        code, out, _ = run(capsys, "certify", "--instance", t1_path,
                           "--weights", "median", "--p", "1")
        assert code == 0
        got = pairs(out)
        assert got["found"] == "true"
        assert got["holds"] == "true"
        assert got["centers"] == "2"
        assert len(got["alpha"].split()) == 5

    def test_strict_search(self, capsys, t1_path):
        code, out, _ = run(capsys, "certify", "--instance", t1_path,
                           "--weights", "median", "--p", "1", "--strict")
        assert code == 0
        got = pairs(out)
        assert got["found"] == "true"
        assert got["strict"] == "true"


class TestClusterability:
    def test_no_instance_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "clusterability")
        assert code == 1
        assert out == ""
        assert err == "error: clusterability needs at least one --instance\n"

    def test_csv_and_labels(self, capsys, t1_path, ball_path):
        code, out, _ = run(capsys, "clusterability",
                           "--instance", ball_path, "--instance", t1_path,
                           "--bootstrap", "100", "--seed", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "instance,dip,dip_pvalue,label_dip,label_pvalue"
        assert len(lines) == 3
        ball_row = lines[1].split(",")
        t1_row = lines[2].split(",")
        assert ball_row[0] == ball_path
        assert float(ball_row[1]) > float(t1_row[1])
        assert ball_row[3] == "High"
        assert t1_row[3] == "Low"

    def test_single_instance_blank_labels(self, capsys, t1_path):
        code, out, _ = run(capsys, "clusterability", "--instance", t1_path,
                           "--bootstrap", "100")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[3] == ""
        assert row[4] == ""

    def test_json_lines(self, capsys, t1_path, ball_path):
        code, out, _ = run(capsys, "clusterability",
                           "--instance", ball_path, "--instance", t1_path,
                           "--bootstrap", "100", "--json")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().split("\n")]
        assert len(recs) == 2
        assert set(recs[0]) == {"instance", "dip", "dip_pvalue",
                                "label_dip", "label_pvalue"}

    def test_comma_in_a_path_stays_one_field(self, capsys, t1_path, tmp_path):
        path = tmp_path / "a,b" / "x.txt"
        path.parent.mkdir()
        shutil.copy(t1_path, path)
        code, out, _ = run(capsys, "clusterability", "--instance", str(path),
                           "--bootstrap", "100")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [len(row) for row in rows] == [5, 5]
        assert rows[1][0] == str(path)

    def test_p_values_match_the_experiment(self, capsys, tmp_path):
        # both commands bootstrap instance k with seed + k
        paths = [str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
        assert main(["generate", "ball", "--m", "10", "--clusters", "3",
                     "--radius", "0.1", "--sep", "1", "--seed", "3",
                     "-o", paths[0]]) == 0
        assert main(["generate", "uniform", "--m", "10", "--seed", "4",
                     "-o", paths[1]]) == 0
        flags = ["--instance", paths[0], "--instance", paths[1],
                 "--bootstrap", "200", "--seed", "5"]
        code, out, _ = run(capsys, "clusterability", *flags)
        assert code == 0
        clus = [row["dip_pvalue"] for row in csv.DictReader(io.StringIO(out))]
        code, out, _ = run(capsys, "experiment", *flags, "--p", "2")
        assert code == 0
        expt = [row["dip_pvalue"] for row in csv.DictReader(io.StringIO(out))]
        assert clus == expt
        assert clus[0] != clus[1]


class TestGenerate:
    def test_chain_recovers(self, capsys, ball_path):
        code, out, _ = run(capsys, "relax", "--instance", ball_path,
                           "--weights", "median", "--p", "3")
        assert code == 0
        assert pairs(out)["recovered"] == "true"

    def test_declared_header(self, capsys, ball_path):
        with open(ball_path) as fh:
            assert fh.readline().split() == ["12", "2", "3"]

    def test_stdout_when_no_output(self, capsys):
        code, out, _ = run(capsys, "generate", "uniform", "--m", "8",
                           "--seed", "1")
        assert code == 0
        assert out.split("\n")[0].split() == ["8", "2", "1"]

    def test_seeded_reruns_identical(self, capsys):
        first = run(capsys, "generate", "ball", "--m", "10", "--clusters", "2",
                    "--sep", "5", "--seed", "4")[1]
        second = run(capsys, "generate", "ball", "--m", "10", "--clusters", "2",
                     "--sep", "5", "--seed", "4")[1]
        assert first == second
        assert first != run(capsys, "generate", "ball", "--m", "10",
                            "--clusters", "2", "--sep", "5", "--seed", "5")[1]

    def test_p_above_m_writes_no_file(self, capsys, tmp_path):
        dest = tmp_path / "gp.txt"
        code, out, err = run(capsys, "generate", "uniform", "--m", "3",
                             "--p", "7", "-o", str(dest))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "7" in err and "3" in err
        assert not dest.exists()


class TestExperiment:
    def test_csv_schema_and_rows(self, capsys, t1_path, ball_path):
        code, out, err = run(capsys, "experiment",
                             "--instance", t1_path, "--instance", ball_path,
                             "--weights", "median", "--weights", "center",
                             "--p", "1", "--bootstrap", "100")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("instance,m,p,family,param,v_ip,v_lp,gap_lp")
        assert len(lines) == 5
        assert "4 rows, 0 failed" in err
        assert lines[1].split(",")[0] == "t1.txt"
        assert lines[3].split(",")[0] == "ball.txt"

    def test_byte_identical_reruns(self, capsys, t1_path, ball_path):
        args = ("experiment", "--instance", t1_path, "--instance", ball_path,
                "--weights", "median", "--p", "2", "--bootstrap", "100",
                "--seed", "9")
        assert run(capsys, *args)[1] == run(capsys, *args)[1]

    def test_json_rows(self, capsys, t1_path):
        code, out, _ = run(capsys, "experiment", "--instance", t1_path,
                           "--weights", "median", "--p", "1",
                           "--bootstrap", "100", "--json")
        assert code == 0
        rec = json.loads(out.strip().split("\n")[0])
        assert len(rec) == 18
        assert rec["recovered"] is True
        assert rec["time_lp"] is None

    def test_include_times(self, capsys, t1_path):
        code, out, _ = run(capsys, "experiment", "--instance", t1_path,
                           "--weights", "median", "--p", "1",
                           "--bootstrap", "100", "--json", "--include-times")
        assert code == 0
        rec = json.loads(out.strip().split("\n")[0])
        assert rec["time_lp"] >= 0.0
        assert rec["time_enumeration"] >= 0.0

    def test_subsample(self, capsys, ball_path):
        code, out, _ = run(capsys, "experiment", "--instance", ball_path,
                           "--weights", "median", "--p", "2",
                           "--subsample", "6", "--bootstrap", "100")
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[1] == "6"


class TestParserCache:
    def test_back_to_back_calls_match_fresh_ones(self, capsys, t1_path, ball_path):
        # one cached parser serves every call; repeatable flags must not
        # carry values from one call into the next
        calls = [["experiment", "--instance", t1_path, "--instance", ball_path,
                  "--weights", "median", "--weights", "center", "--p", "1",
                  "--bootstrap", "100"],
                 ["experiment", "--instance", ball_path, "--weights", "ksum:2",
                  "--p", "2", "--bootstrap", "100", "--seed", "3"],
                 ["solve", "--instance", t1_path, "--weights", "center"],
                 ["frobnicate"]]
        calls += calls[:2]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        build_parser.cache_clear()
        assert [run(capsys, *argv) for argv in calls] == fresh
        assert build_parser.cache_info().misses == 1
        assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0, 0]


class TestExitCodes:
    def test_p_exceeds_m(self, capsys, t1_path):
        code, _, err = run(capsys, "solve", "--instance", t1_path, "--p", "9")
        assert code == 1
        assert err.startswith("error:")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "relax", "--instance", "/nonexistent/x.txt")
        assert code == 1
        assert err.startswith("error:")

    def test_separation_overflowing_the_placement_cube(self, capsys):
        # a finite --sep times --clusters overflowed to inf in the center draw
        code, out, err = run(capsys, "generate", "ball", "--m", "6",
                             "--clusters", "3", "--sep", "1e308")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "overflows" in err

    def test_experiment_without_inputs(self, capsys):
        code, _, err = run(capsys, "experiment", "--weights", "median")
        assert code == 1
        assert "needs" in err

    def test_bad_weight_spec(self, capsys, t1_path):
        code = run(capsys, "relax", "--instance", t1_path,
                   "--weights", "blah")[0]
        assert code == 2

    def test_missing_required_argument(self, capsys):
        assert run(capsys, "relax")[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_bad_ksum_parameter_text(self, capsys, t1_path):
        assert run(capsys, "relax", "--instance", t1_path,
                   "--weights", "ksum:x")[0] == 2

    @pytest.mark.parametrize("spec", ["ksum: 3", " median"])
    def test_blanks_in_a_spec_parse_as_in_the_library(self, capsys, t1_path, spec):
        assert run(capsys, "relax", "--instance", t1_path, "--weights", spec)[0] == 0

    def test_non_ascii_digit_is_a_usage_error(self, capsys, t1_path):
        # str.isdigit accepts a superscript two, int() does not
        assert run(capsys, "relax", "--instance", t1_path,
                   "--weights", "ksum:\u00b2")[0] == 2

    @pytest.mark.parametrize("argv", [
        ["clusterability", "--instance", "{t1}", "--bootstrap", "100"],
        ["experiment", "--instance", "{t1}", "--bootstrap", "100"],
        ["generate", "uniform", "--m", "5"],
    ])
    def test_negative_seed_is_a_usage_error(self, capsys, t1_path, argv):
        code, _, err = run(capsys, *[a.format(t1=t1_path) for a in argv],
                           "--seed", "-1")
        assert code == 2
        assert "--seed" in err

    @pytest.mark.parametrize("sub", ["clusterability", "experiment"])
    def test_bootstrap_below_the_floor_is_a_usage_error(self, capsys, t1_path,
                                                         sub):
        # below the floor dip_pvalue refuses, so experiment would print
        # every dip cell blank
        code, out, err = run(capsys, sub, "--instance", t1_path,
                             "--bootstrap", "99")
        assert code == 2
        assert out == ""
        assert "--bootstrap" in err and "100" in err

    @pytest.mark.parametrize("argv, expected", [
        (["generate", "uniform", "--m", "x"], "a positive integer"),
        (["generate", "uniform", "--m", "5", "--seed", "x"],
         "a non-negative integer"),
        (["experiment", "--instance", "{t1}", "--p", "two"],
         "a positive integer"),
        (["clusterability", "--instance", "{t1}", "--bootstrap", "abc"],
         "an integer of at least 100"),
    ])
    def test_unparsable_number_names_the_expected_value(self, capsys, t1_path,
                                                        argv, expected):
        code, out, err = run(capsys, *[a.format(t1=t1_path) for a in argv])
        assert code == 2
        assert out == ""
        assert f"must be {expected}, got '{argv[-1]}'" in err
        assert "invalid" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--sep", "inf"), ("--sep", "nan"), ("--sep", "-1"),
        ("--radius", "inf"), ("--radius", "nan"), ("--radius", "-1")])
    def test_ball_sizes_must_be_finite_and_nonnegative(self, capsys, flag,
                                                       value):
        code, out, err = run(capsys, "generate", "ball", "--m", "6",
                             flag, value)
        assert code == 2
        assert out == ""
        assert f"must be a finite non-negative number, got '{value}'" in err

    def test_weights_file_with_a_non_numeric_token(self, capsys, t1_path,
                                                   tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1 1 x 1 1\n")
        code, out, err = run(capsys, "solve", "--instance", t1_path,
                             "--weights", f"file:{path}")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert str(path) in err and "'x'" in err

    def test_closest_assignment_flag_is_gone(self, capsys, t1_path):
        code, _, err = run(capsys, "relax", "--instance", t1_path,
                           "--closest-assignment")
        assert code == 2
        assert "--closest-assignment" in err

    @pytest.mark.parametrize("argv", [
        ["certify", "--instance", "{t1}", "--strict", "--eps", "1e-3"],
        ["clusterability", "--instance", "{t1}", "--bootstrap", "100",
         "--sample-mode", "mds"]])
    def test_tolerance_and_mode_flags_are_gone(self, capsys, t1_path, argv):
        # the strict margin and the 1-D sample follow fixed rules
        code, out, err = run(capsys, *[a.format(t1=t1_path) for a in argv])
        assert code == 2
        assert out == ""
        assert argv[-2] in err

    def test_clusterability_takes_no_weights(self, capsys, t1_path):
        # the dip diagnostics never read weights, so the flag is not offered
        code, _, err = run(capsys, "clusterability", "--instance", t1_path,
                           "--bootstrap", "100", "--weights", "center")
        assert code == 2
        assert "--weights" in err


HELP_FLAGS = {
    "solve": ["--instance", "--weights", "--subsample", "--output", "--json",
              "--p"],
    "relax": ["--instance", "--weights", "--subsample", "--output", "--json",
              "--p", "--formulation"],
    "certify": ["--instance", "--weights", "--subsample", "--output",
                "--json", "--p", "--strict"],
    "clusterability": ["--instance", "--subsample", "--output", "--json",
                       "--bootstrap", "--seed"],
    "generate": ["--m", "--clusters", "--radius", "--sep", "--dim", "--seed",
                 "--p", "--output"],
    "experiment": ["--instance", "--pmed", "--weights", "--p", "--subsample",
                   "--seed", "--bootstrap", "--include-times", "--output",
                   "--json"],
}


class TestHelp:
    def test_top_level(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        for name in HELP_FLAGS:
            assert name in out

    @pytest.mark.parametrize("sub", sorted(HELP_FLAGS))
    def test_subcommand_documents_flags(self, capsys, sub):
        code, out, _ = run(capsys, sub, "--help")
        assert code == 0
        for flag in HELP_FLAGS[sub]:
            assert flag in out, f"{sub} help is missing {flag}"

    def test_weights_help_quotes_the_grammar(self, capsys):
        code, out, _ = run(capsys, "relax", "--help")
        assert code == 0
        assert WEIGHT_GRAMMAR in " ".join(out.split())
