"""LP model builders: row/column structure, embeddings, equivalence."""

from itertools import product

import numpy as np
import pytest

from ordmed import (
    Instance,
    ParameterError,
    PointSet,
    WeightVector,
    build_bep,
    build_ot,
    closest_allocation,
    data_path,
    embed_integral,
    floyd_warshall,
    fractionality_report,
    generate_ball,
    generate_uniform,
    om_evaluate,
    parse_pmed,
    prefix_subsample,
    resolve_weights,
    solve_enumeration,
    solve_lp,
)

from helpers import (other_size_pairs, planar_instance, random_instance, random_points,
                     t1_instance)
from oracles import full_bep_lp


def lp_value(model):
    sol = solve_lp(model.lp)
    assert sol.status == "Optimal"
    return sol, float(sol.value)


# (3, 2, 2, 1, 1): lam_m = 1, and runs above it at positions 1 and 2-3
RUNS_ABOVE_TAIL = WeightVector([3.0, 2.0, 2.0, 1.0, 1.0])


def sorting_steps(lam):
    """Positions s < m (0-based) with lam_s > lam_s+1: one per run above lam_m."""
    return [s for s in range(len(lam) - 1) if lam[s] > lam[s + 1]]


def shape_cases():
    """t1 at p = 2 with S = 0, 1 and 2 runs of weights above lam_m."""
    yield t1_instance("median", p=2), 0
    yield t1_instance("center", p=2), 1
    yield planar_instance(t1_instance().points.coords, RUNS_ABOVE_TAIL, 2), 2


class TestModelShape:
    # The models price lam_m on z and keep one sorting block per run of
    # equal weights above lam_m, so the counts follow S, the number of runs.
    def test_bep_counts(self):
        m = 5
        for inst, S in shape_cases():
            model = build_bep(inst)
            assert model.lp.name == "bep"
            assert len(sorting_steps(inst.weights.lam)) == S
            assert model.lp.n_rows == m + m * m + 1 + m * S
            assert model.lp.n_vars == m + m * m + (m + S if S else 0)
            assert (len(model.u), len(model.v)) == ((m, S) if S else (0, 0))

    def test_ot_counts(self):
        m = 5
        for inst, S in shape_cases():
            model = build_ot(inst)
            assert model.lp.name == "ot"
            assert model.lp.n_rows == (m + m * m + 1) + m * S
            assert model.lp.n_vars == m + m * m + S + m * S

    def test_no_column_has_a_finite_upper_bound(self):
        # y <= 1 and z <= 1 never change the value, and the dual of y <= 1
        # would keep the duals from forming a certificate
        for inst, _ in shape_cases():
            for model in (build_bep(inst), build_ot(inst)):
                assert np.all(np.isinf(model.lp.upper))

    def test_index_maps_cover_columns(self):
        for model in (build_bep(t1_instance(p=2)), build_ot(t1_instance(p=2))):
            cols = set(model.y)
            for row in model.z:
                cols.update(row)
            for block in (model.u, model.v, model.t):
                if block is not None:
                    cols.update(block)
            if model.q is not None:
                for row in model.q:
                    cols.update(row)
            assert cols == set(range(model.lp.n_vars))

    def test_sort_row_z_coefficient(self):
        for weights in (resolve_weights("centdian:0.5", 5), RUNS_ABOVE_TAIL):
            inst = planar_instance(t1_instance().points.coords, weights, 1)
            model = build_bep(inst)
            lam = inst.weights.lam
            d = inst.dist.d
            steps = sorting_steps(lam)
            # Rows come in blocks: assignment, linking, cardinality, sorting,
            # the last one point by point with one row per run.
            base = 5 + 25 + 1
            assert model.lp.n_rows == base + 5 * len(steps)
            a, rels, b = model.lp.dense()
            for i in (0, 2, 4):
                for k, s in enumerate(steps):
                    row = base + i * len(steps) + k
                    assert rels[row] == ">="
                    assert b[row] == 0.0
                    for j in range(5):
                        got = a[row, model.z[i][j]]
                        assert got == pytest.approx(-(lam[s] - lam[-1]) * d[i, j])
                    assert a[row, model.u[i]] == 1.0
                    assert a[row, model.v[k]] == 1.0

    def test_objective_is_u_plus_v(self):
        # u costs 1, v the length of its run, z_ij costs lam_m * d_ij
        inst = planar_instance(t1_instance().points.coords, RUNS_ABOVE_TAIL, 2)
        model = build_bep(inst)
        obj = np.array(model.lp.obj)
        for i in model.u:
            assert obj[i] == 1.0
        assert [obj[k] for k in model.v] == [1.0, 2.0]
        for j in model.y:
            assert obj[j] == 0.0
        for i in range(5):
            for j in range(5):
                assert obj[model.z[i][j]] == pytest.approx(inst.dist.d[i, j])

    def test_ot_center_objective(self):
        inst = t1_instance("center", p=2)
        model = build_ot(inst)
        obj = np.array(model.lp.obj)
        assert len(model.t) == 1
        assert obj[model.t[0]] == pytest.approx(1.0)
        for i in range(5):
            assert obj[model.q[i][0]] == pytest.approx(1.0)
            for j in range(5):
                assert obj[model.z[i][j]] == 0.0

    def test_ot_median_objective(self):
        # the top-5 sum is sum_ij d_ij z_ij, priced on z with no threshold
        inst = t1_instance("median", p=2)
        model = build_ot(inst)
        obj = np.array(model.lp.obj)
        assert model.t.size == 0
        assert obj[model.z[2][4]] == pytest.approx(inst.dist.d[2, 4])
        assert obj[model.z[0][0]] == 0.0


class TestEmbedding:
    def test_median_embedding_value(self):
        inst = t1_instance("median", p=1)
        model = build_bep(inst)
        sol = closest_allocation(inst.dist, (2,), inst.weights)
        x = embed_integral(model, sol)
        assert np.dot(model.lp.obj, x) == pytest.approx(18.0, abs=1e-9)

    def test_center_embedding_value(self):
        inst = t1_instance("center", p=1)
        model = build_bep(inst)
        sol = closest_allocation(inst.dist, (3,), inst.weights)
        x = embed_integral(model, sol)
        assert np.dot(model.lp.obj, x) == pytest.approx(7.0, abs=1e-9)

    def test_full_opening_embeds_to_zero(self):
        inst = t1_instance("median", p=5)
        model = build_bep(inst)
        sol = closest_allocation(inst.dist, tuple(range(5)), inst.weights)
        x = embed_integral(model, sol)
        assert np.dot(model.lp.obj, x) == pytest.approx(0.0, abs=1e-12)

    def test_embedding_is_feasible(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            inst = random_instance(rng, 6, int(rng.integers(1, 4)))
            model = build_bep(inst)
            sol = solve_enumeration(inst)
            x = embed_integral(model, sol)
            a, rels, b = model.lp.dense()
            act = a @ x
            for i, rel in enumerate(rels):
                if rel == "<=":
                    assert act[i] <= b[i] + 1e-9
                elif rel == ">=":
                    assert act[i] >= b[i] - 1e-9
                else:
                    assert act[i] == pytest.approx(b[i], abs=1e-9)
            assert np.all(x >= np.array(model.lp.lower) - 1e-12)
            assert np.dot(model.lp.obj, x) == pytest.approx(sol.value, abs=1e-9)

    def test_embedding_reports_integral(self):
        inst = t1_instance("median", p=1)
        model = build_bep(inst)
        sol = closest_allocation(inst.dist, (2,), inst.weights)
        rep = fractionality_report(model, embed_integral(model, sol))
        assert rep.integral
        assert rep.max_y_fractionality <= 1e-12
        assert rep.fractional_y == ()

    def test_ot_embedding_is_integral_at_its_value(self):
        # t_s is the (s+1)-th largest allocation distance, q_is its excess
        for spec, (p, centers) in product(
                ("median", "center", "ksum:2", "centdian:0.5"),
                ((1, (2,)), (1, (0,)), (2, (1, 3)))):
            inst = t1_instance(spec, p=p)
            model = build_ot(inst)
            sol = closest_allocation(inst.dist, centers, inst.weights)
            x = embed_integral(model, sol)
            assert fractionality_report(model, x).integral
            assert np.dot(model.lp.obj, x) == pytest.approx(sol.value, rel=1e-12)
            assert np.all(x[model.q] >= 0.0)

    def test_solution_of_another_instance_rejected(self):
        # the center optimum of t1 has value 7, its median value is 22
        inst = t1_instance("median", p=1)
        sol = solve_enumeration(t1_instance("center", p=1))
        with pytest.raises(ParameterError, match="value drift 1.500e[+]01"):
            embed_integral(build_bep(inst), sol)

    def test_solution_of_another_size_rejected(self):
        for inst, sol in other_size_pairs():
            with pytest.raises(ParameterError,
                               match=f"^a solution of 5 points for an instance of {inst.m}$"):
                embed_integral(build_bep(inst), sol)


class TestFractionalityReport:
    def test_constructed_fractional_vector(self):
        inst = planar_instance([[0.0], [1.0], [3.0]], resolve_weights("median", 3), 2)
        model = build_bep(inst)
        x = np.zeros(model.lp.n_vars)
        for j, val in enumerate((0.5, 0.5, 1.0)):
            x[model.y[j]] = val
        for i in range(3):
            x[model.z[i][2]] = 1.0
        rep = fractionality_report(model, x)
        assert not rep.integral
        assert rep.fractional_y == (0, 1)
        assert rep.max_y_fractionality == pytest.approx(0.5)
        assert rep.max_z_fractionality == 0.0


class TestRelaxationValues:
    def test_full_opening_lp_is_zero(self):
        _, value = lp_value(build_bep(t1_instance("median", p=5)))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_formulations_agree(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            m = int(rng.integers(5, 9))
            spec = str(rng.choice(["median", "center", "ksum", "centdian"]))
            if spec == "ksum":
                spec += f":{int(rng.integers(1, m + 1))}"
            if spec == "centdian":
                spec += f":{float(rng.uniform(0.1, 1.0))}"
            inst = planar_instance(
                random_points(rng, m), resolve_weights(spec, m),
                int(rng.integers(1, 4)),
            )
            _, bep = lp_value(build_bep(inst))
            _, ot = lp_value(build_ot(inst))
            assert abs(bep - ot) <= 1e-6 * (1.0 + abs(bep))

    def test_relaxation_bounds_enumeration(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            inst = random_instance(rng, 6, int(rng.integers(1, 4)))
            _, lp_val = lp_value(build_bep(inst))
            v_ip = solve_enumeration(inst).value
            assert lp_val <= v_ip + 1e-7

    def test_embedding_matches_om_value(self):
        rng = np.random.default_rng(47)
        inst = random_instance(rng, 6, 2)
        sol = solve_enumeration(inst)
        assert sol.value == pytest.approx(
            om_evaluate(sol.distances, inst.weights), abs=1e-10
        )

    def test_wide_distance_scale_regression(self):
        # tight clusters far apart once drove the solver onto a noise-level
        # pivot and a singular basis; both relaxations must stay solvable
        from ordmed import Instance
        from ordmed.bench_io import generate_ball

        lam = np.full(9, 1.9)
        lam[0] = 2.0
        points, dist = generate_ball(9, 3, 0.2, 10.0, seed=15)
        inst = Instance(dist, WeightVector(lam), 3, points)
        _, bep = lp_value(build_bep(inst))
        _, ot = lp_value(build_ot(inst))
        assert abs(bep - ot) <= 1e-6 * (1.0 + abs(bep))
        assert bep <= solve_enumeration(inst).value + 1e-7


def oracle_corpus():
    """Integer-grid, pmed1-prefix, ball and uniform distances at m = 7 under
    the four families, a run of equal weights inside a zero tail and all-zero
    weights, each at p = 1, 2, 3."""
    rng = np.random.default_rng(59)
    m = 7
    dists = (
        PointSet(rng.integers(0, 4, size=(m, 2)).astype(float)).distance_matrix(),
        prefix_subsample(floyd_warshall(parse_pmed(data_path("pmed1.txt"))), m),
        generate_ball(m, 2, 0.1, 1.0, seed=5)[1],
        generate_uniform(m, seed=5)[1],
    )
    weights = [resolve_weights(spec, m)
               for spec in ("median", "center", "ksum:2", "centdian:0.5")]
    weights.append(WeightVector([3, 2, 2, 1, 1, 0, 0]))
    weights.append(WeightVector([0.0] * m))
    return [Instance(dist, w, p) for dist in dists for w in weights for p in (1, 2, 3)]


class TestFullModelOracle:
    # The per-position m^2 model is the reference the compact rows replace.
    def test_compact_models_match_the_full_model(self):
        for inst in oracle_corpus():
            full = solve_lp(full_bep_lp(inst))
            assert full.status == "Optimal"
            for model in (build_bep(inst), build_ot(inst)):
                _, value = lp_value(model)
                assert abs(value - full.value) <= 1e-9 * (1.0 + abs(full.value))

    def test_embedded_optimum_is_feasible_at_its_value(self):
        for inst in oracle_corpus():
            sol = solve_enumeration(inst)
            for model in (build_bep(inst), build_ot(inst)):
                x = embed_integral(model, sol)
                a, rels, b = model.lp.dense()
                slack = a @ x - b
                rels = np.array(rels)
                assert np.all(slack[rels == ">="] >= -1e-9)
                assert np.all(slack[rels == "<="] <= 1e-9)
                assert np.all(np.abs(slack[rels == "="]) <= 1e-9)
                assert np.all(x >= np.array(model.lp.lower) - 1e-12)
                assert np.all(x <= np.array(model.lp.upper) + 1e-12)
                value = float(np.dot(model.lp.obj, x))
                assert abs(value - sol.value) <= 1e-9 * (1.0 + abs(sol.value))
