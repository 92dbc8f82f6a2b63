"""Ordered median operator: sorting, evaluation, telescoping, allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordmed import (
    ParameterError,
    SizeGuardError,
    WeightVector,
    closest_allocation,
    om_evaluate,
    sorting_permutation,
)

from helpers import t1_instance
from oracles import (om_max_perm_bruteforce, om_oracle, om_telescoped,
                     subadditivity_gap)


def weights(*lam):
    return WeightVector(np.array(lam, dtype=float))


costs = st.lists(st.floats(0.0, 100.0), min_size=1, max_size=7)


@st.composite
def cost_weight_pairs(draw, max_m=7):
    d = draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=max_m))
    lam = sorted(
        draw(st.lists(st.floats(0.0, 10.0), min_size=len(d), max_size=len(d))),
        reverse=True,
    )
    return np.array(d), weights(*lam)


class TestSortingPermutation:
    def test_descending_order(self):
        assert sorting_permutation((3.0, 1.0, 2.0)).order == (0, 2, 1)

    def test_all_equal_keeps_index_order(self):
        assert sorting_permutation((0.0, 0.0, 0.0)).order == (0, 1, 2)

    def test_ties_broken_by_lower_index(self):
        assert sorting_permutation((5.0, 5.0, 1.0)).order == (0, 1, 2)

    def test_rank_inverts_order(self):
        perm = sorting_permutation((3.0, 9.0, 1.0, 7.0))
        ranks = perm.rank_of()
        for pos, idx in enumerate(perm.order):
            assert ranks[idx] == pos

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            sorting_permutation((1.0, float("nan")))


class TestOmEvaluate:
    def test_head_weighted_example(self):
        d = (3.0, 2.0, 0.0, 4.0, 9.0)
        assert om_evaluate(d, weights(1, 0.5, 0, 0, 0)) == pytest.approx(11.0)

    def test_median_weights_sum(self):
        d = (3.0, 2.0, 0.0, 4.0, 9.0)
        assert om_evaluate(d, weights(1, 1, 1, 1, 1)) == pytest.approx(sum(d))

    def test_center_weights_max(self):
        d = (3.0, 2.0, 0.0, 4.0, 9.0)
        assert om_evaluate(d, weights(1, 0, 0, 0, 0)) == pytest.approx(max(d))

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            om_evaluate((1.0, 2.0), weights(1.0))
        with pytest.raises(ParameterError):
            om_evaluate(np.zeros((3, 2)), weights(1.0, 1.0, 1.0))

    # odd lengths put the rows of a stack at every alignment
    @pytest.mark.parametrize("m", [1, 3, 8, 9, 17, 24, 33])
    @pytest.mark.parametrize("grid", [False, True], ids=["float", "grid"])
    def test_stack_rows_match_single_rows_bit_for_bit(self, m, grid):
        rng = np.random.default_rng(m)
        w = weights(*np.sort(rng.uniform(0.0, 1.0, m))[::-1])
        for n in (1, 7, 4096):
            if grid:  # integer costs: exact ties and sums that round differently
                d = rng.integers(0, 5, size=(n, m)).astype(float)
            else:
                d = rng.uniform(0.0, 10.0, size=(n, m))
            alone = [om_evaluate(row, w) for row in d]
            assert all(type(v) is float for v in alone)
            stacked = om_evaluate(d, w)
            assert stacked.shape == (n,)
            assert [v.hex() for v in stacked.tolist()] == [v.hex() for v in alone]
            if n == 7:
                assert np.array_equal(om_evaluate(d.reshape(1, n, m), w)[0], stacked)

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_center_weights_match_the_sort_path_bit_for_bit(self, scale):
        # Only lam_1 nonzero skips the sort; its value must be the bits of
        # the sorted dot product, on blocks with exact ties and with zeros
        # of either sign, alone and stacked.
        rng = np.random.default_rng(int(scale * 1e6) % 997)
        for m in (1, 2, 5, 24):
            lam = np.zeros(m)
            lam[0] = rng.uniform(0.1, 3.0) * scale
            w = weights(*lam)
            for n in (1, 7, 4096):
                d = rng.integers(0, 4, size=(n, m)) * rng.uniform(0.5, 2.0) * scale
                d[rng.uniform(size=d.shape) < 0.2] = -0.0
                ref = np.einsum("ij,j->i", np.sort(d, axis=1), lam[::-1])
                got = om_evaluate(d, w)
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in ref.tolist()]
                assert om_evaluate(d[0], w).hex() == ref[0].hex()

    @settings(max_examples=150, deadline=None)
    @given(cost_weight_pairs())
    def test_matches_sorted_dot_oracle(self, pair):
        d, w = pair
        assert om_evaluate(d, w) == pytest.approx(om_oracle(d, w.lam), abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(cost_weight_pairs(), st.floats(0.1, 5.0))
    def test_positive_homogeneity(self, pair, c):
        d, w = pair
        assert om_evaluate(c * d, w) == pytest.approx(c * om_evaluate(d, w), rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(cost_weight_pairs())
    def test_monotone_in_costs(self, pair):
        d, w = pair
        bumped = d.copy()
        bumped[0] += 1.0
        assert om_evaluate(bumped, w) >= om_evaluate(d, w) - 1e-9


class TestOmTelescoped:
    def test_staircase_example(self):
        assert om_telescoped((2.0, 1.0, 1.0, 0.0), weights(3, 2, 1, 0)) == pytest.approx(9.0)

    def test_constant_weights(self):
        d = (4.0, 1.0, 2.5)
        assert om_telescoped(d, weights(2, 2, 2)) == pytest.approx(2 * sum(d))

    def test_zero_costs(self):
        assert om_telescoped((0.0, 0.0), weights(5, 1)) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(cost_weight_pairs())
    def test_equals_direct_evaluation(self, pair):
        d, w = pair
        v = om_evaluate(d, w)
        assert om_telescoped(d, w) == pytest.approx(v, rel=1e-12, abs=1e-9)


class TestBruteforceMaximum:
    def test_small_example(self):
        assert om_max_perm_bruteforce((3.0, 1.0, 2.0), weights(2, 1, 0)) == pytest.approx(8.0)

    def test_single_point(self):
        assert om_max_perm_bruteforce((4.0,), weights(3.0)) == pytest.approx(12.0)

    def test_ties(self):
        assert om_max_perm_bruteforce((1.0, 1.0), weights(1, 0.5)) == pytest.approx(1.5)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            om_max_perm_bruteforce(tuple(range(9)), weights(*([1.0] * 9)))

    @settings(max_examples=120, deadline=None)
    @given(cost_weight_pairs(max_m=6))
    def test_rearrangement_equality(self, pair):
        # Non-increasing weights make the sorted pairing the maximizer.
        d, w = pair
        v = om_evaluate(d, w)
        assert om_max_perm_bruteforce(d, w) == pytest.approx(v, rel=1e-12, abs=1e-9)


class TestClosestAllocation:
    def test_t1_two_centers(self):
        inst = t1_instance("median", p=2)
        sol = closest_allocation(inst.dist, (2, 4), inst.weights)
        assert sol.centers == (2, 4)
        assert sol.assignment == (2, 2, 2, 2, 4)
        assert sol.distances.tolist() == [3.0, 2.0, 0.0, 4.0, 0.0]
        assert sol.value == pytest.approx(9.0)

    def test_all_centers(self):
        inst = t1_instance("median", p=5)
        sol = closest_allocation(inst.dist, tuple(range(5)), inst.weights)
        assert sol.value == 0.0
        assert sol.assignment == tuple(range(5))

    def test_exact_tie_prefers_lower_center(self):
        xs = np.array([[0.0], [2.0], [1.0]])
        inst_w = weights(1, 1, 1)
        from helpers import planar_instance

        inst = planar_instance(xs, inst_w, 2)
        sol = closest_allocation(inst.dist, (0, 1), inst_w)
        # Point 2 is exactly 1.0 from both centers.
        assert sol.assignment[2] == 0

    def test_value_matches_om(self):
        inst = t1_instance("centdian:0.25", p=2)
        sol = closest_allocation(inst.dist, (1, 4), inst.weights)
        assert sol.value == pytest.approx(om_evaluate(sol.distances, inst.weights))

    def test_empty_centers_rejected(self):
        inst = t1_instance()
        with pytest.raises(ParameterError):
            closest_allocation(inst.dist, (), inst.weights)

    @pytest.mark.parametrize("centers", [(-1,), (5,), (0, 5)])
    def test_out_of_range_center_rejected(self, centers):
        inst = t1_instance()
        with pytest.raises(ParameterError, match=r"lie in \[0, 4\]"):
            closest_allocation(inst.dist, centers, inst.weights)


class TestSubadditivityGap:
    def test_strictly_decreasing_weights(self):
        assert subadditivity_gap((3.0, 2.0, 1.0, 0.0), 2) == pytest.approx(-1.0)

    def test_flat_weights(self):
        assert subadditivity_gap((1.0, 1.0, 1.0), 1) == pytest.approx(0.0)

    def test_increasing_weights_positive_gap(self):
        assert subadditivity_gap((0.0, 1.0), 1) == pytest.approx(1.0)

    def test_s_out_of_range(self):
        with pytest.raises(ParameterError):
            subadditivity_gap((1.0, 0.5), 2)
        with pytest.raises(ParameterError):
            subadditivity_gap((1.0, 0.5), 0)

    def test_equals_weight_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            m = int(rng.integers(2, 9))
            lam = rng.integers(0, 8, size=m).astype(float)
            s = int(rng.integers(1, m))
            assert subadditivity_gap(lam, s) == lam[s] - lam[s - 1]

    def test_nonpositive_for_sorted_weights(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            m = int(rng.integers(2, 9))
            lam = np.sort(rng.uniform(0.0, 5.0, size=m))[::-1]
            s = int(rng.integers(1, m))
            assert subadditivity_gap(lam, s) <= 1e-12
