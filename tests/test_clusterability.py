"""Dip statistic, bootstrap p-values, 1-D embedding, collection labels."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordmed import (
    DistanceMatrix,
    ParameterError,
    SizeGuardError,
    classify_collection,
    clusterability_sample,
    dip_pvalue,
    dip_statistic,
    mds_1d,
)
from ordmed.bench_io import generate_ball, generate_uniform
import ordmed.clusterability
from ordmed.clusterability import (DIP_BOUND_TOL, HIGH, LOW, MDS_THRESHOLD,
                                   MIDDLE, _uniform_distance)

from oracles import dip_lp_oracle, dip_pvalue_reference


def line_matrix(xs):
    xs = np.asarray(xs, dtype=float)
    return DistanceMatrix(np.abs(xs[:, None] - xs[None, :]))


class TestDipStatistic:
    def test_two_points(self):
        assert dip_statistic([0.0, 1.0]).dip == pytest.approx(0.25)

    def test_three_points(self):
        assert dip_statistic([0.0, 0.0, 1.0]).dip == pytest.approx(1 / 6)

    def test_constant_sample(self):
        assert dip_statistic([2.0] * 7).dip == pytest.approx(0.5 / 7)

    def test_too_small(self):
        with pytest.raises(SizeGuardError):
            dip_statistic([1.0])

    def test_non_finite_refused(self):
        with pytest.raises(ParameterError) as info:
            dip_statistic([0.0, 1.0, np.nan])
        assert str(info.value) == "sample values must be finite"

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=60)
        base = dip_statistic(x).dip
        assert dip_statistic(3.5 * x - 2.0).dip == pytest.approx(base, abs=1e-12)
        assert dip_statistic(-1.0 * x).dip == pytest.approx(base, abs=1e-12)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=25)
        base = dip_statistic(x).dip
        doubled = dip_statistic(np.repeat(x, 2)).dip
        assert doubled == pytest.approx(base, abs=1e-12)

    def test_bimodal_exceeds_uniform(self):
        rng = np.random.default_rng(7)
        bimodal = np.concatenate([rng.normal(0.0, 0.05, 30),
                                  rng.normal(1.0, 0.05, 30)])
        uniform = rng.uniform(0.0, 1.0, 60)
        assert dip_statistic(bimodal).dip > dip_statistic(uniform).dip

    def test_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            x = rng.normal(size=n)
            res = dip_statistic(x)
            assert 0.5 / n - 1e-15 <= res.dip <= 0.25 + 1e-15

    def test_modal_interval_inside_range(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0.0, 5.0, 30)
        res = dip_statistic(x)
        assert res.modal_low <= res.modal_high
        assert x.min() <= res.modal_low and res.modal_high <= x.max()
        assert res.n == 30

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for k in range(40):
            n = int(rng.integers(2, 13))
            if k % 3 == 0:
                x = rng.integers(0, 4, size=n).astype(float)  # heavy ties
            else:
                x = rng.normal(size=n)
            got = dip_statistic(x).dip
            want = dip_lp_oracle(x)
            worst = max(worst, abs(got - want))
        assert worst <= 1e-9


# float.hex of (dip, modal_low, modal_high) and of 200-replicate p-values.
# A rewrite of the corner walk must reproduce every bit, not just agree to
# a tolerance as the LP oracle check does.
GOLDEN_DIPS = {
    ("normal", 2): ("0x1.0000000000000p-2", "-0x1.0ba5af0863ba3p-1", "0x1.832e6b6002ebdp-3"),
    ("normal", 3): ("0x1.5555555555555p-3", "-0x1.47200820833aap+1", "0x1.053cd67810b16p+1"),
    ("normal", 4): ("0x1.0000000000000p-3", "-0x1.4db791e89425fp-1", "-0x1.65d22e04add80p-3"),
    ("normal", 5): ("0x1.999999999999ap-4", "-0x1.530930ee62e3ep+0", "-0x1.9a96c17a324a9p-1"),
    ("normal", 12): ("0x1.a59087a3b7fc5p-4", "-0x1.b95ab19b2e27cp-4", "-0x1.bf665c4268e98p-8"),
    ("normal", 45): ("0x1.4a1e71f3d235fp-5", "-0x1.5af2fa58a358ep-1", "-0x1.d15645b2744ccp-3"),
    ("normal", 91): ("0x1.665a4aa2d9752p-5", "0x1.ec50f20e08621p-2", "0x1.7cd861ecf1d23p-1"),
    ("normal", 435): ("0x1.bf45b36c26e12p-7", "-0x1.2ea413b3f5fe1p-1", "-0x1.1eef27fd511a2p-4"),
    ("ties", 2): ("0x1.0000000000000p-2", "0x0.0p+0", "0x1.0000000000000p+0"),
    ("ties", 3): ("0x1.5555555555555p-3", "0x0.0p+0", "0x1.0000000000000p+0"),
    ("ties", 4): ("0x1.0000000000000p-3", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("ties", 5): ("0x1.999999999999ap-3", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("ties", 12): ("0x1.0000000000000p-3", "0x0.0p+0", "0x0.0p+0"),
    ("ties", 45): ("0x1.3333333333333p-4", "0x1.c000000000000p+2", "0x1.c000000000000p+2"),
    ("ties", 91): ("0x1.5b3a45ed836a9p-5", "0x1.6000000000000p+3", "0x1.8000000000000p+3"),
    ("ties", 435): ("0x1.b6add9fd4cbf9p-6", "0x0.0p+0", "0x1.1000000000000p+4"),
    ("bimodal", 2): ("0x1.0000000000000p-2", "0x1.35bebc4ccf231p-6", "0x1.e53c3b4bf6070p-1"),
    ("bimodal", 3): ("0x1.5555555555555p-3", "0x1.a1faf0c01ab57p-3", "0x1.0ab40d7751791p+0"),
    ("bimodal", 4): ("0x1.d48d9af1eed5dp-3", "-0x1.0af94186dceb3p-4", "-0x1.1e41be6a24acdp-6"),
    ("bimodal", 5): ("0x1.8647b989a9a86p-3", "0x1.f348acaf1a97dp-1", "0x1.1d1531ce60b26p+0"),
    ("bimodal", 12): ("0x1.6db5d06094d1dp-3", "0x1.bc61cd9b6cd57p-1", "0x1.19917f5b9a1cep+0"),
    ("bimodal", 45): ("0x1.5ad9a0867a2dap-3", "-0x1.97b3084db0839p-4", "0x1.59a999c24141ep-4"),
    ("bimodal", 91): ("0x1.45c9d77204234p-3", "-0x1.557f8488a6ec9p-4", "0x1.38ec4c3d66217p-3"),
    ("bimodal", 435): ("0x1.2c59b8971e53ap-3", "0x1.ace9ca61a265fp-1", "0x1.35718ee229742p+0"),
    ("constant", 2): ("0x1.0000000000000p-2", "0x1.4000000000000p+1", "0x1.4000000000000p+1"),
    ("constant", 3): ("0x1.5555555555555p-3", "0x1.4000000000000p+1", "0x1.4000000000000p+1"),
    ("constant", 4): ("0x1.0000000000000p-3", "0x1.4000000000000p+1", "0x1.4000000000000p+1"),
    ("constant", 5): ("0x1.999999999999ap-4", "0x1.4000000000000p+1", "0x1.4000000000000p+1"),
    ("constant", 12): ("0x1.5555555555555p-5", "0x1.4000000000000p+1", "0x1.4000000000000p+1"),
    ("constant", 45): ("0x1.6c16c16c16c17p-7", "0x1.4000000000000p+1", "0x1.4000000000000p+1"),
    ("constant", 91): ("0x1.6816816816817p-8", "0x1.4000000000000p+1", "0x1.4000000000000p+1"),
    ("constant", 435): ("0x1.2d50a012d50a0p-10", "0x1.4000000000000p+1", "0x1.4000000000000p+1"),
}
GOLDEN_PVALUES = {
    ("ball", 1): "0x1.832f1fd73e687p-4",
    ("ball", 2): "0x1.78feb9f34380ap-2",
    ("uniform", 1): "0x1.7b8ad36c423a9p-1",
    ("uniform", 2): "0x1.cd0e028c19790p-1",
}


def golden_sample(kind, n):
    rng = np.random.default_rng(n)
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "ties":
        return rng.integers(0, max(2, n // 3), size=n).astype(float)
    if kind == "bimodal":
        return np.concatenate([rng.normal(0.0, 0.1, n // 2),
                               rng.normal(1.0, 0.1, n - n // 2)])
    return np.full(n, 2.5)


def pvalue_sample(kind, seed):
    if kind == "ball":
        _, dist = generate_ball(10, 2, 0.4, 1.0, seed=seed)
    else:
        _, dist = generate_uniform(10, seed=seed)
    return clusterability_sample(dist)


class TestGoldenBits:
    @pytest.mark.parametrize("kind, n", sorted(GOLDEN_DIPS))
    def test_dip_and_modal_interval(self, kind, n):
        res = dip_statistic(golden_sample(kind, n))
        got = (res.dip.hex(), res.modal_low.hex(), res.modal_high.hex())
        assert got == GOLDEN_DIPS[kind, n]

    @pytest.mark.parametrize("kind, seed", sorted(GOLDEN_PVALUES))
    def test_pvalue(self, kind, seed):
        x = pvalue_sample(kind, seed)
        assert len(x) == 45
        assert dip_pvalue(x, bootstrap=200, seed=seed).hex() == GOLDEN_PVALUES[kind, seed]


class TestDipPvalue:
    def test_strong_bimodal_hits_floor(self):
        x = np.concatenate([np.zeros(25), np.ones(25)])
        assert dip_pvalue(x, bootstrap=100, seed=4) == pytest.approx(1 / 101)

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=30)
        assert dip_pvalue(x, bootstrap=120, seed=7) == dip_pvalue(x, bootstrap=120, seed=7)

    def test_seed_changes_resamples(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(size=40)
        values = {dip_pvalue(x, bootstrap=100, seed=s) for s in range(5)}
        assert len(values) > 1

    def test_null_calibration(self):
        rng = np.random.default_rng(29)
        ok = 0
        for s in range(100):
            x = rng.uniform(size=25)
            if dip_pvalue(x, bootstrap=100, seed=s) >= 0.01:
                ok += 1
        assert ok >= 95

    def test_bootstrap_budget_checked(self):
        with pytest.raises(ParameterError):
            dip_pvalue(np.array([0.0, 1.0, 2.0]), bootstrap=50)

    def test_negative_seed_checked(self):
        with pytest.raises(ParameterError, match="seed"):
            dip_pvalue(np.array([0.0, 1.0, 2.0]), bootstrap=100, seed=-1)

    def test_non_integer_seed_checked(self):
        with pytest.raises(ParameterError, match="seed must be an integer, got 1.5"):
            dip_pvalue(np.array([0.0, 1.0, 2.0]), bootstrap=100, seed=1.5)

    def test_non_integer_bootstrap_checked(self):
        with pytest.raises(ParameterError,
                           match="bootstrap must be an integer, got 150.0"):
            dip_pvalue(np.array([0.0, 1.0, 2.0]), bootstrap=150.0)

    def test_numpy_integers_accepted(self):
        x = pvalue_sample("ball", 1)
        assert (dip_pvalue(x, bootstrap=np.int64(100), seed=np.uint32(1))
                == dip_pvalue(x, bootstrap=100, seed=1))


@st.composite
def dip_samples(draw):
    """Samples with ties, clusters of any separation, or one value, at
    scales from 1e-8 to 1e8."""
    n = draw(st.integers(2, 60))
    kind = draw(st.sampled_from(["ties", "clusters", "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        x = rng.integers(0, draw(st.integers(1, 6)), n).astype(float)
    elif kind == "clusters":
        sep = draw(st.floats(0.0, 5.0))
        x = rng.normal(0.0, 0.1, n) + sep * (np.arange(n) % 2)
    else:
        x = np.full(n, 0.7)
    return draw(st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8])) * x


class TestBootstrapBound:
    """dip_pvalue settles replicates by the distance to the uniform CDF on
    their own range and must equal the one-dip-per-replicate loop."""

    def test_uniform_distance_by_hand(self):
        rows = np.array([[0.0, 0.5, 1.0], [2.0, 2.0, 2.0], [0.0, 0.0, 4.0]])
        assert _uniform_distance(rows) == pytest.approx([1 / 3, 1.0, 2 / 3], abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(x=dip_samples(), seed=st.integers(0, 2**31))
    def test_bound_holds_and_pvalue_is_unchanged(self, x, seed):
        # the bound holds in exact arithmetic; DIP_BOUND_TOL absorbs the
        # round-off on both sides, as in dip_pvalue's rule (equal-step ties
        # such as 0, 1, 1, 2, 2, 3 put the dip on the bound itself)
        dip = dip_statistic(x).dip
        assert _uniform_distance(np.sort(x)[None, :])[0] >= dip - DIP_BOUND_TOL
        assert dip_pvalue(x, bootstrap=100, seed=seed) == dip_pvalue_reference(x, 100, seed)

    def test_sample_that_is_a_replicate_counts_itself(self):
        # replicate 52 of seed 3 has the largest of the 100 dips, so it is
        # the one hit: its dip equals the observed one
        x = np.random.default_rng([3, 52]).random(45)
        assert dip_pvalue(x, bootstrap=100, seed=3) == 2 / 101
        assert dip_pvalue_reference(x, 100, 3) == 2 / 101

    @pytest.mark.parametrize("x", [[0.0, 1.0], [0.0, 0.0, 1.0], [4.0, -1.0, 2.5],
                                   [3.0] * 9], ids=["n2", "n3-tie", "n3", "constant"])
    def test_samples_on_the_floor_have_pvalue_one(self, x):
        # every replicate's dip is at least the observed 1/(2n) floor
        assert dip_pvalue(x, bootstrap=100, seed=5) == 1.0
        assert dip_pvalue_reference(np.asarray(x), 100, 5) == 1.0

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("kind", ["ball", "uniform"])
    def test_blocks_of_a_few_rows(self, monkeypatch, kind, rows):
        x = pvalue_sample(kind, 1)
        want = dip_pvalue_reference(x, 100, 1)
        monkeypatch.setattr(ordmed.clusterability, "DIP_BLOCK", rows * len(x))
        assert dip_pvalue(x, bootstrap=100, seed=1) == want

    def test_bound_settles_half_of_a_clustered_sample(self, monkeypatch):
        _, dist = generate_ball(10, 3, 0.1, 1.0, seed=0)
        x = clusterability_sample(dist)
        want = dip_pvalue_reference(x, 200, 0)
        calls, walk = [], ordmed.clusterability._sorted_dip
        monkeypatch.setattr(ordmed.clusterability, "_sorted_dip",
                            lambda row: calls.append(row) or walk(row))
        assert dip_pvalue(x, bootstrap=200, seed=0) == want
        # one walk for the observed dip, then 99 of the 200 replicates
        assert len(calls) == 1 + 99


class TestMds1d:
    def test_three_line_points(self):
        coords = mds_1d(line_matrix([0.0, 1.0, 3.0]))
        assert coords == pytest.approx([-4 / 3, -1 / 3, 5 / 3], abs=1e-8)

    def test_zero_matrix(self):
        coords = mds_1d(DistanceMatrix(np.zeros((4, 4))))
        assert coords == pytest.approx([0.0] * 4, abs=1e-12)

    def test_two_points(self):
        coords = mds_1d(line_matrix([0.0, 3.0]))
        assert np.abs(coords) == pytest.approx([1.5, 1.5], abs=1e-9)

    def test_recovers_line_configuration(self):
        rng = np.random.default_rng(31)
        xs = np.sort(rng.uniform(0.0, 10.0, 12))
        coords = mds_1d(line_matrix(xs))
        centered = xs - xs.mean()
        err = min(np.max(np.abs(coords - centered)),
                  np.max(np.abs(coords + centered)))
        assert err <= 1e-8

    @pytest.mark.parametrize("stretch", [1.001, 1.0001])
    def test_near_isotropic_ellipse(self, stretch):
        # the two leading eigenvalues differ by 0.2% or less, which stalled a
        # shifted power iteration; the long axis must come out all the same
        theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        coords = np.column_stack([np.cos(theta), stretch * np.sin(theta)])
        dist = DistanceMatrix(np.linalg.norm(coords[:, None] - coords[None],
                                             axis=2))
        got = mds_1d(dist)
        long_axis = coords[:, 1] - coords[:, 1].mean()
        err = min(np.max(np.abs(got - long_axis)),
                  np.max(np.abs(got + long_axis)))
        assert err <= 1e-6


    def test_negative_leading_eigenvalue_warns_and_clamps(self):
        # asymmetric with a nonzero diagonal: the only inputs that can reach
        # the clamp
        dist = DistanceMatrix([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.warns(UserWarning, match="-4.255e-02 clamped to 0"):
            coords = mds_1d(dist)
        assert np.all(coords == 0.0)

    def test_clamp_needs_asymmetry_and_a_nonzero_diagonal(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = rng.uniform(0.0, 1.0, (6, 6))
            symmetric = d + d.T
            hollow = d.copy()
            np.fill_diagonal(hollow, 0.0)
            for matrix in (symmetric, hollow):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    mds_1d(DistanceMatrix(matrix))

class TestClusterabilitySample:
    def test_small_instance_uses_distances(self):
        sample = clusterability_sample(line_matrix([0.0, 1.0, 3.0, 7.0, 12.0]))
        assert sample.shape == (10,)

    def test_explicit_mds_mode(self):
        # m = 61 takes the MDS branch, which recovers centred line points
        xs = np.linspace(0.0, 3.0, MDS_THRESHOLD + 1) ** 2
        dist = line_matrix(xs)
        sample = clusterability_sample(dist)
        np.testing.assert_array_equal(sample, mds_1d(dist))
        assert sample == pytest.approx(xs - xs.mean(), abs=1e-9)

    def test_auto_switches_above_threshold(self):
        m = MDS_THRESHOLD + 1
        xs = np.linspace(0.0, 1.0, m)
        sample = clusterability_sample(line_matrix(xs))
        assert sample.shape == (m,)


class TestClassifyCollection:
    def test_dip_tails(self):
        dips = [0.02 + 0.001 * k for k in range(20)]
        labels = classify_collection(dips)
        assert labels[-1] == HIGH
        assert labels[0] == LOW
        assert all(label == MIDDLE for label in labels[1:-1])

    def test_pvalue_basis_is_mirrored(self):
        pvals = [0.01 * (k + 1) for k in range(20)]
        labels = classify_collection(pvals, basis="dip-pvalue")
        assert labels[0] == HIGH  # smallest p-value: most clusterable
        assert labels[-1] == LOW

    def test_identical_entries_sit_in_the_middle(self):
        assert classify_collection([0.1, 0.1]) == [MIDDLE, MIDDLE]

    def test_two_distinct_entries_split(self):
        assert classify_collection([0.05, 0.2]) == [LOW, HIGH]

    def test_needs_two_entries(self):
        with pytest.raises(ParameterError):
            classify_collection([0.1])

    def test_bad_basis(self):
        with pytest.raises(ParameterError):
            classify_collection([0.1, 0.2], basis="mass")


class TestSeparationEffect:
    def test_mean_dip_monotone_in_separation(self):
        means = []
        for ratio in (1.0, 2.0, 4.0, 8.0):
            dips = []
            for seed in range(30):
                _, dist = generate_ball(12, 2, 1.0, ratio, seed=seed)
                dips.append(dip_statistic(clusterability_sample(dist)).dip)
            means.append(float(np.mean(dips)))
        assert means[0] < means[-1]
        assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))
