"""Dip statistic, bootstrap p-values, 1-D embedding, collection labels."""

import numpy as np
import pytest

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
from ordmed.bench_io import generate_ball
from ordmed.clusterability import HIGH, LOW, MDS_THRESHOLD, MIDDLE

from oracles import dip_lp_oracle


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


class TestClusterabilitySample:
    def test_small_instance_uses_distances(self):
        sample = clusterability_sample(line_matrix([0.0, 1.0, 3.0, 7.0, 12.0]))
        assert sample.shape == (10,)

    def test_explicit_mds_mode(self):
        sample = clusterability_sample(line_matrix([0.0, 1.0, 3.0, 7.0, 12.0]),
                                       mode="mds")
        assert sample.shape == (5,)

    def test_auto_switches_above_threshold(self):
        m = MDS_THRESHOLD + 1
        xs = np.linspace(0.0, 1.0, m)
        sample = clusterability_sample(line_matrix(xs))
        assert sample.shape == (m,)

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            clusterability_sample(line_matrix([0.0, 1.0]), mode="pca")


class TestClassifyCollection:
    def entries(self, dips, pvals=None):
        pvals = pvals if pvals is not None else [0.5] * len(dips)
        return [(f"i{k}", d, p) for k, (d, p) in enumerate(zip(dips, pvals))]

    def test_dip_tails(self):
        dips = [0.02 + 0.001 * k for k in range(20)]
        labels = classify_collection(self.entries(dips))
        assert labels[-1].label == HIGH
        assert labels[0].label == LOW
        assert all(l.label == MIDDLE for l in labels[1:-1])
        assert all(l.basis == "dip-stat" for l in labels)

    def test_pvalue_basis_is_mirrored(self):
        pvals = [0.01 * (k + 1) for k in range(20)]
        labels = classify_collection(self.entries([0.1] * 20, pvals),
                                     basis="dip-pvalue")
        assert labels[0].label == HIGH  # smallest p-value: most clusterable
        assert labels[-1].label == LOW

    def test_identical_entries_sit_in_the_middle(self):
        labels = classify_collection(self.entries([0.1, 0.1]))
        assert [l.label for l in labels] == [MIDDLE, MIDDLE]

    def test_two_distinct_entries_split(self):
        labels = classify_collection(self.entries([0.05, 0.2]))
        assert [l.label for l in labels] == [LOW, HIGH]

    def test_needs_two_entries(self):
        with pytest.raises(ParameterError):
            classify_collection(self.entries([0.1]))

    def test_bad_basis(self):
        with pytest.raises(ParameterError):
            classify_collection(self.entries([0.1, 0.2]), basis="mass")


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
