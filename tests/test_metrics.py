"""Metric arithmetic and aggregation tests."""

import math

import numpy as np
import pytest
from scipy import stats

from airbo.baselines import BaselineKind, BaselinePolicy, run_baseline
from airbo.data import Snapshot
from airbo.errors import DegenerateSnapshotError, InputError
from airbo.metrics import (
    exploration_curve,
    maximiser_distance_curve,
    maximum_ratio_curve,
    summarize_interval,
)
from airbo.traces import BoTrace


def snapshot(sid, values, locations):
    values = np.asarray(values, dtype=float)
    return Snapshot(
        id=sid, locations=np.asarray(locations, dtype=float),
        values_raw=np.exp(values), mask=np.ones(len(values), dtype=bool),
        values_pre=values,
    )


def trace_for(snap, sequence):
    """Build a trace visiting the given candidate indices in order."""
    t = BoTrace(snapshot_id=snap.id)
    for i, idx in enumerate(sequence):
        x, y = snap.locations[idx]
        t.append_observation(i + 1, x, y, float(snap.values_raw[idx]), float(snap.values_pre[idx]))
    return t


class TestSummarizeInterval:
    def test_zero_spread(self):
        assert summarize_interval([1, 1, 1, 1]) == (1.0, 1.0)

    def test_two_values(self):
        lo, hi = summarize_interval([0.0, 2.0])
        assert (lo, hi) == pytest.approx((0.0, 2.0), abs=1e-12)

    def test_five_values(self):
        lo, hi = summarize_interval([1, 2, 3, 4, 5])
        # sample sd = sqrt(2.5), sem = sqrt(0.5)
        assert lo == pytest.approx(3 - math.sqrt(0.5), abs=1e-9)
        assert hi == pytest.approx(3 + math.sqrt(0.5), abs=1e-9)

    def test_single_value_rejected(self):
        with pytest.raises(InputError):
            summarize_interval([1.0])


class TestMaximumRatioCurve:
    def test_perfect_estimator_contributes_one(self):
        snap = snapshot("a", [1.0, 3.0], [(0, 0), (1, 0)])
        curve = maximum_ratio_curve([trace_for(snap, [1, 0])], [snap])
        assert curve.mean[0] == 1.0

    def test_halfway_value(self):
        snap = snapshot("a", [1.0, 2.0, 4.0], [(0, 0), (1, 0), (2, 0)])
        curve = maximum_ratio_curve([trace_for(snap, [0, 1, 2])], [snap])
        np.testing.assert_allclose(curve.mean, [0.25, 0.5, 1.0], atol=1e-12)

    def test_zero_maximum_is_degenerate(self):
        snap = snapshot("z", [-1.0, 0.0], [(0, 0), (1, 0)])
        with pytest.raises(DegenerateSnapshotError):
            maximum_ratio_curve([trace_for(snap, [0, 1])], [snap])

    def test_negative_maximum_flagged(self):
        snap = snapshot("n", [-3.0, -1.0], [(0, 0), (1, 0)])
        curve = maximum_ratio_curve([trace_for(snap, [0, 1])], [snap])
        assert curve.flagged == ["n"]

    def test_snapshot_order_invariance(self):
        s1 = snapshot("a", [1.0, 2.0], [(0, 0), (1, 0)])
        s2 = snapshot("b", [1.0, 4.0], [(0, 0), (1, 0)])
        t1, t2 = trace_for(s1, [0, 1]), trace_for(s2, [1, 0])
        fwd = maximum_ratio_curve([t1, t2], [s1, s2])
        rev = maximum_ratio_curve([t2, t1], [s2, s1])
        np.testing.assert_array_equal(fwd.mean, rev.mean)
        np.testing.assert_array_equal(fwd.sem, rev.sem)

    def test_unknown_snapshot_rejected(self):
        snap = snapshot("a", [1.0, 2.0], [(0, 0), (1, 0)])
        with pytest.raises(InputError, match="unknown snapshot"):
            maximum_ratio_curve([trace_for(snap, [0, 1])], [])


class TestMaximiserDistanceCurve:
    def test_perfect_estimator_distance_zero(self):
        snap = snapshot("a", [1.0, 3.0], [(0, 0), (5, 5)])
        curve = maximiser_distance_curve([trace_for(snap, [1, 0])], [snap])
        np.testing.assert_allclose(curve.mean, [0.0, 0.0], atol=1e-12)

    def test_three_four_five_triangle(self):
        snap = snapshot("a", [2.0, 1.0], [(3, 4), (0, 0)])
        curve = maximiser_distance_curve([trace_for(snap, [1, 0])], [snap])
        np.testing.assert_allclose(curve.mean, [5.0, 0.0], atol=1e-12)

    def test_mean_across_snapshots(self):
        s1 = snapshot("a", [1.0, 9.0], [(2, 0), (0, 0)])  # distance 2 at step 1
        s2 = snapshot("b", [1.0, 9.0], [(4, 0), (0, 0)])  # distance 4 at step 1
        curve = maximiser_distance_curve(
            [trace_for(s1, [0, 1]), trace_for(s2, [0, 1])], [s1, s2]
        )
        assert curve.mean[0] == pytest.approx(3.0)

    def test_distance_and_ratio_use_same_best_indices(self):
        snap = snapshot("a", [0.5, 2.0, 1.0], [(0, 0), (3, 0), (7, 0)])
        trace = trace_for(snap, [0, 1, 2])
        # both curves read the rows' running best, which sits on row 0, 1, 1
        assert [r.best_so_far for r in trace.rows] == [0.5, 2.0, 2.0]
        assert [(r.best_x_km, r.best_y_km) for r in trace.rows] == [(0, 0), (3, 0), (3, 0)]
        ratio = maximum_ratio_curve([trace], [snap])
        dist = maximiser_distance_curve([trace], [snap])
        np.testing.assert_allclose(ratio.mean, [0.25, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(dist.mean, [3.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_array_equal(
            ratio.mean, [r.best_so_far / 2.0 for r in trace.rows]  # true maximum 2.0
        )


class TestExplorationCurve:
    def test_second_sample_distance(self):
        snap = snapshot("a", [1.0, 2.0], [(0, 0), (1, 0)])
        curve = exploration_curve([trace_for(snap, [0, 1])])
        assert list(curve.iterations) == [2]
        assert curve.mean[0] == pytest.approx(1.0)

    def test_minimum_over_predecessors(self):
        snap = snapshot("a", [1, 1, 1], [(0, 0), (5, 0), (2, 0)])
        # third sample: 2 km from first, 3 km from second -> min is 2
        curve = exploration_curve([trace_for(snap, [0, 1, 2])])
        np.testing.assert_allclose(curve.mean, [5.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("kind", list(BaselineKind))
    def test_matches_per_row_norm_loop(self, kind):
        # one masked pairwise-distance matrix must give the bytes of the
        # per-row loop; with replacement, traces revisit locations (score 0)
        rng = np.random.default_rng(3)
        locs = [(float(x), float(y)) for y in range(5) for x in range(5)]
        snap = snapshot("g", rng.normal(size=25), locs)
        traces = run_baseline(snap, BaselinePolicy(kind, n_runs=20, seed=7), n_iter=25)
        expected = []
        for t in traces:
            xy = np.array(t.locations())
            expected.append([
                float(np.linalg.norm(xy[i] - xy[:i], axis=1).min()) for i in range(1, len(xy))
            ])
        curve = exploration_curve(traces)
        np.testing.assert_array_equal(curve.mean, np.vstack(expected).mean(axis=0))
        if kind is BaselineKind.WITH_REPLACEMENT:
            assert min(min(row) for row in expected) == 0.0

    def test_without_replacement_trend_is_downward(self):
        rng = np.random.default_rng(0)
        g = 10
        locs = [(float(x), float(y)) for y in range(g) for x in range(g)]
        snap = snapshot("grid", rng.normal(size=g * g), locs)
        traces = run_baseline(
            snap, BaselinePolicy(BaselineKind.WITHOUT_REPLACEMENT, n_runs=100, seed=1),
            n_iter=g * g,
        )
        curve = exploration_curve(traces)
        rho = stats.spearmanr(curve.iterations, curve.mean).statistic
        assert rho < 0


class TestAggregation:
    def test_unequal_lengths_truncated_but_full_curves_kept(self):
        s1 = snapshot("a", [1.0, 2.0, 3.0], [(0, 0), (1, 0), (2, 0)])
        s2 = snapshot("b", [1.0, 2.0], [(0, 0), (1, 0)])
        curve = maximum_ratio_curve(
            [trace_for(s1, [0, 1, 2]), trace_for(s2, [0, 1])], [s1, s2]
        )
        assert len(curve.mean) == 2
        assert len(curve.per_snapshot["a"]) == 3
        assert len(curve.per_snapshot["b"]) == 2

    def test_multiple_runs_averaged_within_snapshot_first(self):
        snap = snapshot("a", [1.0, 3.0], [(0, 0), (1, 0)])
        hit = trace_for(snap, [1, 0])   # ratio 1, 1
        miss = trace_for(snap, [0, 1])  # ratio 1/3, 1
        curve = maximum_ratio_curve([hit, miss], [snap])
        assert curve.n == 1
        assert curve.mean[0] == pytest.approx((1.0 + 1.0 / 3.0) / 2)
        assert curve.sem[0] == 0.0  # single snapshot

    def test_csv_emission(self):
        snap = snapshot("a", [1.0, 2.0], [(0, 0), (1, 0)])
        curve = maximum_ratio_curve([trace_for(snap, [0, 1])], [snap])
        lines = curve.to_csv().strip().splitlines()
        assert lines[0] == "iteration,mean,sem,n"
        assert lines[1].startswith("1,0.5")
