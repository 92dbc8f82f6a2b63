"""Distance validation, weight families, and instance restriction."""

import copy
import io
import tracemalloc

import numpy as np
import pytest

from ordmed import (
    CenterSolution,
    DistanceMatrix,
    Instance,
    LinearProgram,
    ParameterError,
    ParseError,
    PointSet,
    WeightVector,
    classify_weights,
    closest_allocation,
    is_free_of_equidistance,
    read_instance,
    resolve_weights,
    restrict_instance,
    search_certificate,
    solve_enumeration,
    solve_lp,
    validate_metric,
    write_instance,
)
from ordmed.instance import METRIC_RTOL, WEIGHT_GRAMMAR, parse_weight_spec

from helpers import (T1_COORDS, add_variable, other_size_pairs, planar_instance,
                     random_points, t1_instance)


def line_matrix(xs):
    xs = np.asarray(xs, dtype=float)
    return DistanceMatrix(np.abs(xs[:, None] - xs[None, :]))


class TestValidateMetric:
    def test_line_points_pass(self):
        rep = validate_metric(line_matrix([0.0, 1.0, 3.0]))
        assert rep.ok
        assert rep.symmetry_ok and rep.diagonal_ok and rep.triangle_ok
        assert rep.violations() == []

    def test_asymmetry_witness(self):
        rep = validate_metric(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert not rep.symmetry_ok
        i, j, mag = rep.symmetry_witness
        assert (i, j) == (0, 1)
        assert mag == pytest.approx(1.0)
        assert not rep.ok
        assert any("symmetr" in v for v in rep.violations())

    def test_triangle_witness(self):
        d = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        rep = validate_metric(d)
        assert rep.symmetry_ok and rep.diagonal_ok
        assert not rep.triangle_ok
        i, k, j, mag = rep.triangle_witness
        assert (i, k, j) == (0, 2, 1)
        assert mag == pytest.approx(3.0)

    def test_triangle_witness_on_asymmetric_input(self):
        # d_01 = 5 > d_02 + d_21 = 2; no path through k = i is a violation
        d = np.array([[0.0, 5.0, 1.0], [7.0, 0.0, 10.0], [1.0, 1.0, 0.0]])
        assert validate_metric(d).triangle_witness == (0, 2, 1, 3.0)

    def test_triangle_witness_matches_every_path(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m = int(rng.integers(2, 7))
            d = rng.uniform(0.0, 10.0, size=(m, m))
            rep = validate_metric(d)
            through = d[:, :, None] + d[None, :, :]  # [i, k, j] = d_ik + d_kj
            viol = d - through.min(axis=1)
            assert rep.triangle_ok == (viol.max() <= METRIC_RTOL * d.max())
            if not rep.triangle_ok:
                i, k, j, mag = rep.triangle_witness
                assert mag == viol.max() == d[i, j] - through[i, k, j]

    def test_audit_holds_quadratic_memory(self):
        # an m x m x m tensor of float64 at m = 300 is 216 MB
        d = PointSet(random_points(np.random.default_rng(0), 300)).distance_matrix()
        tracemalloc.start()
        try:
            assert validate_metric(d).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_diagonal_witness(self):
        d = np.array([[0.5, 1.0], [1.0, 0.0]])
        rep = validate_metric(d)
        assert not rep.diagonal_ok
        assert rep.diagonal_witness[0] == 0
        assert rep.diagonal_witness[1] == pytest.approx(0.5)

    def test_diagonal_violation_message(self):
        rep = validate_metric(np.array([[0.5, 1.0], [1.0, 0.0]]))
        assert rep.violations() == ["diagonal violated at 0, value 0.5"]

    def test_tolerance_scales_with_magnitude(self):
        # asymmetry under METRIC_RTOL * max |d| is round-off, at any unit
        for unit in (1e-6, 1.0, 1e6):
            for skew, ok in ((0.5 * METRIC_RTOL, True), (2 * METRIC_RTOL, False)):
                d = np.array([[0.0, 1.0], [1.0 + skew, 0.0]]) * unit
                assert validate_metric(d).symmetry_ok == ok

    @pytest.mark.parametrize("unit", [1e-10, 1e-9, 1.0, 1e6])
    def test_violations_are_found_at_any_unit(self, unit):
        triangle = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        assert not validate_metric(triangle * unit).triangle_ok
        assert not validate_metric(np.array([[0.0, 1.0], [1.5, 0.0]]) * unit).symmetry_ok
        assert not validate_metric(np.array([[0.5, 1.0], [1.0, 0.0]]) * unit).diagonal_ok

    def test_non_square_rejected(self):
        with pytest.raises(ParameterError):
            validate_metric(DistanceMatrix(np.zeros((2, 3))))

    def test_empty_matrix_rejected(self):
        # the maxima over a 0 x 0 matrix have no identity element
        with pytest.raises(ParameterError, match="nonempty square"):
            validate_metric(np.zeros((0, 0)))


class TestFreeOfEquidistance:
    def test_t1_distinct(self):
        assert is_free_of_equidistance(line_matrix(T1_COORDS))

    def test_all_ones_tied(self):
        d = DistanceMatrix(np.ones((3, 3)) - np.eye(3))
        assert not is_free_of_equidistance(d)

    def test_unit_spacing_tied(self):
        assert not is_free_of_equidistance(line_matrix([0.0, 1.0, 2.0]))

    def test_near_ties_count_as_distinct(self):
        # the comparison is exact: 5e-13 apart is no tie
        assert is_free_of_equidistance(line_matrix([0.0, 1.0, 2.0 + 5e-13]))

    def test_random_planar_instances_generically_distinct(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pts = PointSet(random_points(rng, 8))
            assert is_free_of_equidistance(pts.distance_matrix())


class TestMakeWeights:
    def test_center(self):
        assert resolve_weights("center", 4).lam.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_ksum(self):
        assert resolve_weights("ksum:2", 5).lam.tolist() == [1, 1, 0, 0, 0]

    def test_centdian(self):
        assert resolve_weights("centdian:0.5", 3).lam.tolist() == [1.0, 0.5, 0.5]

    def test_median(self):
        assert resolve_weights("median", 3).lam.tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("spec", ["ksum:0", "ksum:6", "ksum",
                                      "centdian:1.5", "centdian:-0.1",
                                      "centdian", "nonesuch"])
    def test_invalid_parameters(self, spec):
        with pytest.raises(ParameterError):
            resolve_weights(spec, 5)

    def test_weight_vector_rejects_increasing(self):
        with pytest.raises(ParameterError):
            WeightVector((0.0, 1.0))

    def test_weight_vector_rejects_negative(self):
        with pytest.raises(ParameterError):
            WeightVector((1.0, -0.5))


class TestClassifyWeights:
    def test_examples(self):
        med = classify_weights(WeightVector((3.0, 3.0, 3.0)))
        assert (med.family, med.param, med.scale) == ("median", None, 3.0)
        cen = classify_weights(WeightVector((2.0, 0.0, 0.0, 0.0)))
        assert (cen.family, cen.scale) == ("center", 2.0)
        cd = classify_weights(WeightVector((1.0, 0.25, 0.25, 0.25)))
        assert (cd.family, cd.param) == ("centdian", 0.25)
        ks = classify_weights(WeightVector((1.0, 1.0, 0.0, 0.0, 0.0)))
        assert (ks.family, ks.param) == ("ksum", 2.0)
        assert classify_weights(WeightVector((1.0, 0.7, 0.3, 0.0))).family == "general"

    @pytest.mark.parametrize("m,spec,family,param", [
        (m, spec, spec.partition(":")[0], param)
        for m in (2, 5, 12)
        for spec, param in [("median", None), ("center", None)]
        + [(f"ksum:{k}", float(k)) for k in range(2, m)]
        + [(f"centdian:{g}", g) for g in (0.1, 0.5, 0.9)]
    ])
    def test_spec_round_trip(self, m, spec, family, param):
        wc = classify_weights(resolve_weights(spec, m))
        assert (wc.family, wc.param, wc.scale) == (family, param, 1.0)

    def test_unknown_spec_quotes_the_grammar(self):
        with pytest.raises(ParameterError) as info:
            resolve_weights("nonesuch", 5)
        assert WEIGHT_GRAMMAR in str(info.value)

    def test_all_zero_is_degenerate_median(self):
        wc = classify_weights(WeightVector((0.0, 0.0)))
        assert wc.scale == 0.0

    def test_ray_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            spec = str(rng.choice(["median", "center", "ksum", "centdian"]))
            if spec == "ksum":
                spec += f":{int(rng.integers(1, m + 1))}"
            if spec == "centdian":
                spec += f":{float(rng.uniform(0.05, 1.0))}"
            base = resolve_weights(spec, m)
            c = float(rng.uniform(0.1, 10.0))
            scaled = classify_weights(WeightVector(base.lam * c))
            orig = classify_weights(base)
            assert scaled.family == orig.family
            if orig.param is None:
                assert scaled.param is None
            else:
                assert scaled.param == pytest.approx(orig.param)
            assert scaled.scale == pytest.approx(orig.scale * c)


class TestRestrictInstance:
    def test_t1_median_enumeration_optimum(self):
        sol = solve_enumeration(t1_instance("median", p=2))
        assert sol.centers == (1, 3)
        assert sol.value == pytest.approx(8.0)

    def test_t1_median_two_centers(self):
        inst = t1_instance("median", p=2)
        sol = closest_allocation(inst.dist, (2, 4), inst.weights)
        assert sol.group(2) == (0, 1, 2, 3)
        sub = restrict_instance(inst, sol, 2)
        assert sub.m == 4
        assert sub.p == 1
        assert sub.weights.lam.tolist() == [1.0, 1.0, 1.0, 1.0]
        expected = line_matrix([0.0, 1.0, 3.0, 7.0]).d
        assert np.array_equal(sub.dist.d, expected)

    def test_single_center_restriction_is_whole_instance(self):
        inst = t1_instance("center", p=1)
        sol = solve_enumeration(inst)
        sub = restrict_instance(inst, sol, sol.centers[0])
        assert sub.m == inst.m
        assert np.array_equal(sub.dist.d, inst.dist.d)
        assert np.array_equal(sub.weights.lam, inst.weights.lam)

    def test_group_positions_select_weights(self):
        # Allocation distances (0, 0, 9, 0, 5); the group of center 1 sits at
        # descending-sort positions {2, 4, 5}, so it inherits weights (1, 0, 0).
        inst = planar_instance(
            [[0.0], [20.0], [-9.0], [20.0], [25.0]],
            WeightVector((1.0, 1.0, 0.0, 0.0, 0.0)),
            2,
        )
        sol = closest_allocation(inst.dist, (0, 1), inst.weights)
        assert sol.assignment == (0, 1, 0, 1, 1)
        assert sol.distances.tolist() == [0.0, 0.0, 9.0, 0.0, 5.0]
        sub = restrict_instance(inst, sol, 1)
        assert sub.weights.lam.tolist() == [1.0, 0.0, 0.0]
        assert np.array_equal(
            sub.dist.d, np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
        )

    def test_non_center_rejected(self):
        inst = t1_instance("median", p=2)
        sol = solve_enumeration(inst)
        with pytest.raises(ParameterError):
            restrict_instance(inst, sol, 0)

    def test_solution_of_another_size_rejected(self):
        for inst, sol in other_size_pairs():
            with pytest.raises(ParameterError,
                               match=f"^a solution of 5 points for an instance of {inst.m}$"):
                restrict_instance(inst, sol, sol.centers[0])

    def test_restriction_weights_stay_sorted(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = int(rng.integers(4, 9))
            p = int(rng.integers(2, m))
            pts = random_points(rng, m)
            lam = np.sort(rng.uniform(0.0, 2.0, size=m))[::-1]
            inst = planar_instance(pts, WeightVector(lam), p)
            sol = solve_enumeration(inst)
            for j in sol.centers:
                sub = restrict_instance(inst, sol, j)
                assert sub.m == len(sol.group(j))
                assert np.all(np.diff(sub.weights.lam) <= 0)
                assert sub.p == 1


class TestInstanceValidation:
    def test_weight_length_mismatch(self):
        with pytest.raises(ParameterError):
            Instance(line_matrix([0.0, 1.0]), WeightVector((1.0,)), 1)

    def test_p_out_of_range(self):
        d = line_matrix([0.0, 1.0, 3.0])
        w = resolve_weights("median", 3)
        with pytest.raises(ParameterError):
            Instance(d, w, 0)
        with pytest.raises(ParameterError):
            Instance(d, w, 4)

    @pytest.mark.parametrize("p", [2.5, 2.0, "2"])
    def test_p_must_be_an_integer(self, p):
        with pytest.raises(ParameterError, match="^p must be an integer, got "):
            Instance(line_matrix([0.0, 1.0, 3.0]), resolve_weights("median", 3), p)

    def test_numpy_integer_p_is_stored_as_int(self):
        inst = Instance(line_matrix([0.0, 1.0, 3.0]), resolve_weights("median", 3),
                        np.int64(2))
        assert type(inst.p) is int and inst.p == 2

    def test_points_must_reproduce_matrix(self):
        d = line_matrix([0.0, 1.0, 3.0])
        bad = PointSet(np.array([[0.0], [1.0], [4.0]]))
        with pytest.raises(ParameterError):
            Instance(d, resolve_weights("median", 3), 1, points=bad)

    def test_coordinates_of_a_zero_matrix_are_refused(self):
        # t1 at 1e-12 is within 1e-9 of an all-zero matrix, but not within
        # METRIC_RTOL * max |d|, which is 0 for that matrix
        tiny = PointSet(np.array(T1_COORDS).reshape(-1, 1) * 1e-12)
        with pytest.raises(ParameterError, match="METRIC_RTOL"):
            Instance(DistanceMatrix(np.zeros((5, 5))),
                     resolve_weights("median", 5), 1, points=tiny)

    def test_coordinates_at_a_large_unit_allow_round_off(self):
        # a matrix 1e-15 relative off its coordinates at 1e9 is off by 1e-5
        # in absolute terms, yet only round-off
        huge = PointSet(np.array(T1_COORDS).reshape(-1, 1) * 1e9)
        d = huge.distance_matrix().d * (1.0 + 1e-15)
        assert np.max(np.abs(d - huge.distance_matrix().d)) > 1e-9
        inst = Instance(DistanceMatrix(d), resolve_weights("median", 5), 1,
                        points=huge)
        assert inst.points is huge

    @pytest.mark.parametrize("make, message", [
        (lambda: DistanceMatrix(np.zeros((2, 3))),
         "distance matrix must be square, got shape (2, 3)"),
        (lambda: DistanceMatrix([[0.0, np.inf], [1.0, 0.0]]),
         "distance matrix entries must be finite"),
        (lambda: PointSet(np.zeros(3)), "coords must be a 2-d array, got shape (3,)"),
        (lambda: PointSet([[0.0], [np.nan]]), "coordinates must be finite"),
        (lambda: WeightVector(np.ones((2, 2))), "weights must be a nonempty 1-d vector"),
        (lambda: WeightVector([1.0, np.nan]), "weights must be finite"),
        (lambda: Instance(line_matrix([0.0, 1.0]), resolve_weights("median", 2), 1,
                          points=PointSet(np.zeros((3, 1)))),
         "coordinate count != distance matrix size"),
        (lambda: parse_weight_spec("median:3"), "median takes no parameter, got 'median:3'"),
        (lambda: parse_weight_spec("file:"), "file spec needs a path, e.g. file:weights.txt"),
        (lambda: resolve_weights("median", 0), "m must be positive, got 0"),
        (lambda: write_instance(io.StringIO()), "write_instance needs a matrix or points"),
    ], ids=["matrix-shape", "matrix-finite", "coords-shape", "coords-finite",
            "weights-shape", "weights-finite", "coordinate-count", "median-param",
            "file-path", "m-zero", "write-nothing"])
    def test_malformed_input_refused(self, make, message):
        with pytest.raises(ParameterError) as info:
            make()
        assert str(info.value) == message

    def test_solution_group(self):
        sol = CenterSolution((0,), (0, 0, 0), np.array([0.0, 1.0, 2.0]), 3.0)
        assert sol.group(0) == (0, 1, 2)
        assert sol.group(1) == ()


class TestInstanceFiles:
    def test_matrix_round_trip(self, tmp_path):
        path = tmp_path / "inst.txt"
        d = line_matrix(T1_COORDS)
        w = resolve_weights("centdian:0.25", 5)
        write_instance(path, dist=d, p=2, weights=w)
        rd, rpts, rp, rw = read_instance(path)
        assert rpts is None
        assert rp == 2
        assert np.array_equal(rd.d, d.d)
        assert np.array_equal(rw.lam, w.lam)

    def test_coordinate_round_trip(self, tmp_path):
        path = tmp_path / "pts.txt"
        pts = PointSet(np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]]))
        write_instance(path, points=pts, p=1)
        rd, rpts, rp, rw = read_instance(path)
        assert rw is None
        assert rp == 1
        assert np.allclose(rpts.coords, pts.coords)
        assert rd.d[0, 1] == pytest.approx(5.0)

    def test_stream_write(self):
        buf = io.StringIO()
        write_instance(buf, dist=line_matrix([0.0, 2.0]), p=1)
        assert buf.getvalue().startswith("2 1\n")

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n1 1 1\n0 1 2\n1 0 x\n2 1 0\n")
        with pytest.raises(Exception) as exc:
            read_instance(path)
        assert "4" in str(exc.value)

    @pytest.mark.parametrize("text, line", [
        ("3 2 1\n0 0\n1 0\n0 1\n5 5\n6 6\n", 5),
        ("2 1\n1 1\n0 1\n1 0\n\n# more\n9 9\n", 7),
    ], ids=["coordinates", "matrix"])
    def test_trailing_row_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "extra.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^line {line}: trailing row"):
            read_instance(path)

    POSITIVE = "point and coordinate counts must be positive"

    @pytest.mark.parametrize("text, line, message", [
        ("", None, "empty instance file"),
        ("# a comment\n\n", None, "empty instance file"),
        ("3 1\n1 1 1\n0 1 2\n", 1, "expected weight line plus 3 matrix rows"),
        ("3 2 1\n0 0\n1 1\n", 1, "expected 3 coordinate rows"),
        ("2 1\n1 1 1\n0 1\n1 0\n", 2, "expected 2 weights, got 3"),
        ("2 1\n1 1\n0 1\n1 0 2\n", 4, "expected 2 entries, got 3"),
        ("2 2 1\n0 0\n1\n", 3, "expected 2 coordinates, got 1"),
        ("2 2 1 1\n", 1, "header must be `m p` or `m n p`"),
        ("2\n", 1, "header must be `m p` or `m n p`"),
        ("2 x\n", 1, "expected integers"),
        ("2.5 1\n", 1, "expected integers"),
        ("2 1\n1 1\n0 inf\n1 0\n", 3, "non-finite number"),
        ("2 2 1\n0 nan\n1 1\n", 2, "non-finite number"),
        ("-1 2 1\n", 1, POSITIVE),
        ("-2 1\n1 1\n", 1, POSITIVE),
        ("0 1\n", 1, POSITIVE),
        ("3 0 1\n0 0\n", 1, POSITIVE),
    ], ids=["empty", "comments-only", "matrix-rows", "coordinate-rows",
            "weight-count", "matrix-row-width", "coordinate-row-width",
            "header-too-long", "header-too-short", "header-not-integer",
            "header-float", "matrix-inf", "coordinate-nan", "negative-m",
            "negative-m-matrix", "zero-m", "zero-n"])
    def test_each_parse_error(self, tmp_path, text, line, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            read_instance(path)
        assert exc.value.line == line
        assert message in str(exc.value)

    @pytest.mark.parametrize("text, line, message", [
        ("2 1\n1 1\n0 x\n1 0\n9 9\n", 3, "expected numbers"),
        ("2 1\n1 1\n0 1 2\n1 0\n9 9\n", 3, "expected 2 entries, got 3"),
        ("2 1 1\n0\nnan\n5\n", 3, "non-finite number"),
        ("2 1\n1 1 1\n0 x\n1 0\n", 2, "expected 2 weights, got 3"),
    ], ids=["malformed-before-trailing", "width-before-trailing",
            "coordinate-before-trailing", "weights-before-matrix-row"])
    def test_first_error_in_line_order_wins(self, tmp_path, text, line, message):
        path = tmp_path / "two-errors.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            read_instance(path)
        assert exc.value.line == line
        assert message in str(exc.value)

    def test_blank_and_comment_lines_after_the_data(self, tmp_path):
        path = tmp_path / "tail.txt"
        path.write_text("2 1\n1 1\n0 1\n1 0\n\n# end\n   \n")
        dist, _, p, _ = read_instance(path)
        assert dist.m == 2 and p == 1


def _lp_solution():
    lp = LinearProgram("tiny")
    add_variable(lp, 1.0, upper=1.0)
    return solve_lp(lp)


@pytest.mark.parametrize("make", [
    lambda: DistanceMatrix([[0.0, 1.0], [1.0, 0.0]]),
    lambda: PointSet([[0.0], [1.0]]),
    lambda: WeightVector((1.0, 0.5)),
    lambda: solve_enumeration(t1_instance()),
    lambda: search_certificate(t1_instance(), solve_enumeration(t1_instance()))[0],
    _lp_solution,
], ids=["DistanceMatrix", "PointSet", "WeightVector", "CenterSolution",
        "DualCertificate", "LpSolution"])
def test_array_holders_compare_and_hash_by_identity(make):
    a = make()
    assert a == a
    assert a != copy.copy(a)
    assert isinstance(hash(a), int)
    assert a in {a} and len({a, a}) == 1
