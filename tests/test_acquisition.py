"""Acquisition tests: EI closed form vs Monte-Carlo integration, weight
arithmetic, per-sample acquisition oracle and the placement loop."""

import math

import numpy as np
import pytest

from airbo.acquisition import (
    BoConfig,
    _weighted_acquisition_batch,
    expected_improvement,
    log_importance_weights,
    run_bo,
    weighted_acquisition,
)
from airbo.data import Dataset, Snapshot, generate_synthetic, preprocess
from airbo.errors import InputError
from airbo.gp import GpSolve, Posterior, posterior_at
from airbo.kernels import ThetaVector, get_spec
from airbo.mcmc import PriorSampleSet, run_chain
from airbo.rng import stream

SPEC = get_spec("rbf_rbf")


def theta(s1=1.0, l1=1.0, s2=1.0, l2=4.0):
    return ThetaVector(values={"sigma_r1": s1, "l_r1": l1, "sigma_r2": s2, "l_r2": l2})


def prior_of(thetas):
    return PriorSampleSet(samples=list(thetas), provenance={"kernel": "rbf_rbf"})


#: 1e8 amplitudes on coincident points give a Gram matrix that is rank
#: one at every jitter rung (as in test_factorization_failure_raises)
BROKEN = theta(s1=1e8, s2=1e8)


def mc_expected_improvement(mean, variance, f_best, n=200_000, seed=0):
    """Monte-Carlo estimate of E[max(0, f - f_best)], f ~ N(mean, variance)."""
    rng = np.random.default_rng(seed)
    f = rng.normal(mean, math.sqrt(variance), size=n)
    return float(np.maximum(0.0, f - f_best).mean())


class TestExpectedImprovement:
    def test_at_incumbent_with_unit_sigma(self):
        ei = expected_improvement(Posterior(mean=0.0, variance=1.0), f_best=0.0)
        assert ei == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-9)

    def test_degenerate_no_improvement(self):
        assert expected_improvement(Posterior(mean=1.0, variance=0.0), f_best=2.0) == 0.0

    def test_degenerate_sure_improvement(self):
        assert expected_improvement(Posterior(mean=3.0, variance=0.0), f_best=2.0) == 1.0

    def test_one_sigma_above_incumbent(self):
        ei = expected_improvement(Posterior(mean=1.0, variance=1.0), f_best=0.0)
        phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        Phi1 = 0.5 * (1 + math.erf(1 / math.sqrt(2)))
        assert ei == pytest.approx(Phi1 + phi1, abs=1e-9)

    def test_negative_variance_rejected(self):
        with pytest.raises(InputError):
            expected_improvement(Posterior(mean=0.0, variance=-1.0), f_best=0.0)

    def test_matches_monte_carlo_integral(self):
        rng = np.random.default_rng(17)
        for i in range(5):
            mean = rng.uniform(-1, 1)
            sigma = rng.uniform(0.5, 2.0)
            f_best = mean - rng.uniform(-1.0, 2.0) * sigma
            closed = expected_improvement(Posterior(mean, sigma**2), f_best)
            estimate = mc_expected_improvement(mean, sigma**2, f_best, seed=i)
            assert closed == pytest.approx(estimate, rel=0.02)


class TestImportanceWeights:
    X = np.array([[0.0, 0.0], [2.0, 1.0]])
    y = np.array([0.5, -0.2])

    def test_single_sample_gets_unit_weight(self):
        iw = log_importance_weights(SPEC, prior_of([theta()]), self.X, self.y)
        np.testing.assert_allclose(iw.weights, [1.0])
        assert iw.ess == pytest.approx(1.0)

    def test_identical_samples_split_evenly(self):
        iw = log_importance_weights(SPEC, prior_of([theta(), theta()]), self.X, self.y)
        np.testing.assert_allclose(iw.weights, [0.5, 0.5])
        assert iw.ess == pytest.approx(2.0)

    def test_max_subtraction_arithmetic(self):
        # two samples whose log-likelihoods differ by exactly 1
        e = math.exp(-1)
        expected = np.array([1 / (1 + e), e / (1 + e)])
        iw_logs = np.array([-1000.0, -1001.0])
        shifted = np.exp(iw_logs - iw_logs.max())
        np.testing.assert_allclose(shifted / shifted.sum(), expected, atol=1e-12)

    def test_requires_observations(self):
        with pytest.raises(InputError):
            log_importance_weights(SPEC, prior_of([theta()]), np.empty((0, 2)), [])

    def test_weights_follow_marginal_likelihood(self):
        thetas = [theta(l1=0.3, l2=0.5), theta(l1=2.0, l2=6.0)]
        iw = log_importance_weights(SPEC, prior_of(thetas), self.X, self.y)
        logs = [GpSolve(SPEC, t, self.X, self.y).loglik for t in thetas]
        expected = np.exp(logs - np.max(logs))
        expected /= expected.sum()
        np.testing.assert_allclose(iw.weights, expected, atol=1e-12)

    def weights_on_coincident_points(self, prior):
        """Weights from both entry points, which must agree exactly."""
        X, y = np.zeros((3, 2)), np.zeros(3)
        iw = log_importance_weights(SPEC, prior, X, y)
        _, batch = _weighted_acquisition_batch(SPEC, prior, X, y, np.array([[1.0, 0.0]]))
        assert np.array_equal(iw.weights, batch.weights)
        assert np.array_equal(iw.failed, batch.failed)
        assert (iw.ess, iw.fallback_uniform) == (batch.ess, batch.fallback_uniform)
        return iw

    def test_failed_sample_gets_zero_weight(self):
        iw = self.weights_on_coincident_points(prior_of([theta(), BROKEN, theta(l1=2.0)]))
        np.testing.assert_array_equal(iw.failed, [False, True, False])
        assert iw.weights[1] == 0.0
        assert iw.weights.sum() == pytest.approx(1.0)
        assert not iw.fallback_uniform

    def test_all_failed_falls_back_to_uniform(self):
        iw = self.weights_on_coincident_points(prior_of([BROKEN] * 4))
        assert iw.failed.all() and iw.fallback_uniform
        np.testing.assert_array_equal(iw.weights, np.full(4, 0.25))
        assert iw.ess == 4.0

    @pytest.mark.parametrize("broken", [False, True])
    def test_single_sample(self, broken):
        iw = self.weights_on_coincident_points(prior_of([BROKEN if broken else theta()]))
        assert iw.weights.tolist() == [1.0]
        assert iw.ess == 1.0
        assert iw.failed.tolist() == [broken]
        assert iw.fallback_uniform is broken


class TestWeightedAcquisition:
    X = np.array([[0.0, 0.0], [3.0, 0.0]])
    y = np.array([0.4, 1.1])

    def test_identical_samples_collapse_to_plain_ei(self):
        t = theta()
        x_star = (1.5, 0.5)
        acq = weighted_acquisition(SPEC, prior_of([t, t, t]), self.X, self.y, x_star)
        plain = expected_improvement(
            posterior_at(SPEC, t, self.X, self.y, x_star), self.y.max()
        )
        assert acq == pytest.approx(plain, rel=1e-10)

    def test_zero_at_observed_points(self):
        prior = prior_of([theta(), theta(l1=0.5, l2=2.0)])
        for x_obs in self.X:
            assert weighted_acquisition(SPEC, prior, self.X, self.y, x_obs) <= 1e-6

    def test_three_sample_hand_rolled_oracle(self):
        thetas = [theta(l1=0.5, l2=1.0), theta(l1=1.0, l2=3.0), theta(l1=2.0, l2=8.0)]
        x_star = (1.0, 1.0)
        acq = weighted_acquisition(SPEC, prior_of(thetas), self.X, self.y, x_star)
        logs = np.array([GpSolve(SPEC, t, self.X, self.y).loglik for t in thetas])
        w = np.exp(logs - logs.max())
        w /= w.sum()
        eis = [
            expected_improvement(posterior_at(SPEC, t, self.X, self.y, x_star), self.y.max())
            for t in thetas
        ]
        assert acq == pytest.approx(float(w @ eis), rel=1e-10)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(8)
        prior = prior_of([theta(l1=rng.uniform(0.5, 3), l2=rng.uniform(3, 9)) for _ in range(4)])
        for _ in range(20):
            x_star = rng.uniform(-5, 8, size=2)
            assert weighted_acquisition(SPEC, prior, self.X, self.y, x_star) >= 0.0


def constant_snapshot(n=12, value=1.3):
    locs = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    snap = Snapshot(
        id="const",
        locations=locs,
        values_raw=np.full(n, math.e),
        mask=np.ones(n, dtype=bool),
        values_pre=np.full(n, value),
    )
    return snap


class TestRunBo:
    def make_problem(self, grid=8, n_snapshots=4, seed=3):
        t = ThetaVector(values={"sigma_r1": 1.0, "l_r1": 14.0, "sigma_r2": 1.0, "l_r2": 56.0})
        synth = generate_synthetic(SPEC, t, grid, n_snapshots, seed=seed)
        ds = Dataset(tuning=synth.snapshots[: n_snapshots // 2], test=synth.snapshots[n_snapshots // 2 :])
        preprocess(ds)
        return ds

    def small_prior(self, m=8):
        rng = np.random.default_rng(0)
        return prior_of(
            [theta(
                s1=rng.uniform(0.5, 1.5), l1=rng.uniform(5, 20),
                s2=rng.uniform(0.5, 1.5), l2=rng.uniform(30, 80),
            ) for _ in range(m)]
        )

    def test_forced_final_move(self):
        ds = self.make_problem()
        snap = ds.test[0]
        snap.mask = np.zeros_like(snap.mask)
        snap.mask[:4] = True  # candidate set of size n_init + 1
        config = BoConfig(n_init=3, n_iter=4, prior=self.small_prior(), seed=1)
        trace = run_bo(snap, SPEC, config)
        chosen = {tuple(r) for r in np.round(trace.locations(), 9)}
        expected = {tuple(r) for r in np.round(snap.locations[snap.mask], 9)}
        assert chosen == expected

    def test_constant_snapshot_ratio_one_every_iteration(self):
        from airbo.metrics import maximum_ratio_curve

        snap = constant_snapshot()
        config = BoConfig(n_init=2, n_iter=6, prior=self.small_prior(4), seed=2)
        trace = run_bo(snap, SPEC, config)
        curve = maximum_ratio_curve([trace], [snap])
        np.testing.assert_allclose(curve.mean, 1.0, atol=1e-12)

    def test_best_so_far_monotone_and_locations_distinct(self):
        ds = self.make_problem()
        config = BoConfig(n_init=4, n_iter=12, prior=self.small_prior(), seed=5)
        trace = run_bo(ds.test[0], SPEC, config)
        best = [r.best_so_far for r in trace.rows]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
        assert len(set(trace.locations())) == len(trace.rows)

    def test_all_failing_prior_flags_every_ei_iteration(self):
        ds = self.make_problem()
        # lengthscales this long make every pair of points look coincident
        broken = theta(s1=1e8, l1=1e150, s2=1e8, l2=1e150)
        config = BoConfig(n_init=3, n_iter=8, prior=prior_of([broken] * 3), seed=4)
        trace = run_bo(ds.test[0], SPEC, config)
        assert trace.flagged_iterations == [4, 5, 6, 7, 8]
        assert [r.ess for r in trace.rows[3:]] == [3.0] * 5
        assert len(set(trace.locations())) == len(trace.rows) == 8

    def test_too_few_candidates_rejected(self):
        ds = self.make_problem()
        snap = ds.test[0]
        snap.mask = np.zeros_like(snap.mask)
        snap.mask[:3] = True
        with pytest.raises(InputError, match="fewer than n_iter"):
            run_bo(snap, SPEC, BoConfig(n_init=2, n_iter=6, prior=self.small_prior(), seed=1))

    def test_single_theta_prior_reduces_to_plain_ei_bo(self):
        ds = self.make_problem()
        snap = ds.test[0]
        t = theta(l1=10.0, l2=50.0)
        config = BoConfig(n_init=3, n_iter=8, prior=prior_of([t]), seed=9)
        trace = run_bo(snap, SPEC, config)

        # independent single-theta reference loop
        candidates = list(snap.candidate_indices)
        rng = stream(9, "bo-init", snap.id)
        visited = [int(i) for i in rng.choice(snap.candidate_indices, size=3, replace=False)]
        for _ in range(5):
            open_idx = [c for c in candidates if c not in visited]
            f_best = snap.values_pre[visited].max()
            eis = [
                expected_improvement(
                    posterior_at(
                        SPEC, t, snap.locations[visited], snap.values_pre[visited],
                        snap.locations[c],
                    ),
                    f_best,
                )
                for c in open_idx
            ]
            visited.append(open_idx[int(np.argmax(eis))])
        expected = [tuple(snap.locations[i]) for i in visited]
        assert trace.locations() == expected

    def test_single_smooth_peak_found_in_most_seeded_runs(self):
        # deterministic bump, lengthscale 4 cells on a 16x16 unit grid;
        # enumeration of the grid confirms the true maximiser is the
        # bump centre
        g = 16
        axis = np.arange(g, dtype=float)
        X = np.array([(x, y) for y in axis for x in axis])
        centre = np.array([11.0, 5.0])
        values = 2.0 * np.exp(-((X - centre) ** 2).sum(axis=1) / (2 * 4.0**2))
        assert tuple(X[np.argmax(values)]) == tuple(centre)
        snap = Snapshot(
            id="bump", locations=X, values_raw=np.exp(values),
            mask=np.ones(len(X), dtype=bool), values_pre=values,
        )
        # prior trained on synthetic fields with a matching lengthscale
        t_gen = ThetaVector(values={"sigma_r1": 1.0, "l_r1": 4.0, "sigma_r2": 1.0, "l_r2": 16.0})
        synth = generate_synthetic(SPEC, t_gen, 16, 3, seed=7, cell_size_km=1.0)
        tune = Dataset(tuning=synth.snapshots, test=[])
        preprocess(tune)
        chain = run_chain(SPEC, tune.tuning, H=60, burn_in=20, B=5, seed=13)
        prior = chain.draw_prior(M=25, seed=13)

        hits = 0
        y_star = values.max()
        for seed in range(100):
            trace = run_bo(snap, SPEC, BoConfig(n_init=5, n_iter=15, prior=prior, seed=seed))
            if trace.best_so_far / y_star >= 0.95:
                hits += 1
        assert hits >= 90
