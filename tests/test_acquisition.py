"""Acquisition tests: EI closed form vs Monte-Carlo integration, weight
arithmetic, the batched GP state against a per-sample oracle, and the
placement loop."""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import airbo.acquisition as acquisition
from airbo.acquisition import (
    BoConfig,
    _ei_batch,
    _normalise_weights,
    _weighted_acquisition_batch,
    expected_improvement,
    log_importance_weights,
    run_bo,
    weighted_acquisition,
)
from airbo.data import Dataset, Snapshot, generate_synthetic, preprocess
from airbo.errors import InputError, NumericalError
from airbo.gp import GpBatch, GpSolve, Posterior, _stable_cholesky, posterior_at
from airbo.kernels import CovarianceBuilder, ThetaVector, get_spec
from airbo.mcmc import PriorSampleSet, run_chain
from airbo.rng import stream

SPEC = get_spec("rbf_rbf")
FAMILIES = ("rbf_rbf", "sum", "rbf_product")
#: agreement required between the batched state and the per-sample oracle
ORACLE_TOL = 1e-10


def per_sample_acquisition(spec, prior, X_obs, y_obs, X_star):
    """Reference weighted EI: one fresh :class:`GpSolve` per prior sample.

    This is the placement step as it was before the batched state: every
    sample refactorises its Gram matrix and rebuilds its cross-covariance.
    """
    X_obs, y_obs = np.asarray(X_obs, dtype=float), np.asarray(y_obs, dtype=float)
    f_best = float(y_obs.max())
    M = len(prior)
    logs = np.full(M, -math.inf)
    failed = np.zeros(M, dtype=bool)
    ei = np.zeros((M, len(X_star)))
    for i, th in enumerate(prior.samples):
        try:
            solve = GpSolve(spec, th, X_obs, y_obs)
            logs[i] = solve.loglik
            means, variances = solve.posterior(X_star)
        except NumericalError:
            failed[i] = True
            continue
        ei[i] = _ei_batch(means, variances, f_best)
    iw = _normalise_weights(logs, failed)
    return iw.weights @ np.where(failed[:, None], 0.0, ei), iw


def per_sample_run_bo(snapshot, spec, config, follow=None):
    """Reference placement loop over :func:`per_sample_acquisition`:
    visited snapshot indices plus each EI step's (acquisition, weights).

    With ``follow`` (snapshot indices) it places there instead of at its
    own argmax, to replay another run's path through near-ties.
    """
    candidates = snapshot.candidate_indices
    rng = stream(config.seed, "bo-init", snapshot.id)
    visited = [int(i) for i in rng.choice(candidates, size=config.n_init, replace=False)]
    steps = []
    for _ in range(config.n_iter - config.n_init):
        seen = set(visited)
        open_idx = np.array([c for c in candidates if c not in seen])
        acq, iw = per_sample_acquisition(
            spec, config.prior, snapshot.locations[visited], snapshot.values_pre[visited],
            snapshot.locations[open_idx],
        )
        steps.append((acq, iw))
        pick = int(open_idx[int(np.argmax(acq))])
        visited.append(pick if follow is None else int(follow[len(visited)]))
    return visited, steps


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
        """Weights from both entry points, which must agree exactly: the
        one-shot weights and a batch with one more candidate column."""
        X, y = np.zeros((3, 2)), np.zeros(3)
        iw = log_importance_weights(SPEC, prior, X, y)
        gp = GpBatch(SPEC, prior.samples, np.vstack([X, [[1.0, 0.0]]]), n_max=3)
        for col, value in enumerate(y):
            gp.add(col, value)
        _, batch = _weighted_acquisition_batch(gp, np.array([False, False, False, True]))
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


amplitude = st.floats(min_value=0.05, max_value=1.0)
lengthscale = st.floats(min_value=0.1, max_value=300.0)
angle = st.floats(min_value=0.0, max_value=math.pi - 1e-9)
coord = st.floats(min_value=-20.0, max_value=20.0)
near_offset = st.floats(min_value=-1e-9, max_value=1e-9)


@st.composite
def drawn_prior(draw, spec, max_m=4, lengthscales=lengthscale):
    thetas = []
    for _ in range(draw(st.integers(1, max_m))):
        values = {s.name: draw(amplitude if s.name.startswith("sigma") else lengthscales)
                  for s in spec.sampled_slots}
        thetas.append(ThetaVector(values=values, gamma=draw(angle) if spec.has_direction else None))
    return prior_of(thetas)


@st.composite
def points_with_near_duplicates(draw, min_n=1, max_n=8):
    """Points of which some repeat an earlier one up to 1e-9 km."""
    X = []
    for _ in range(draw(st.integers(min_n, max_n))):
        if X and draw(st.booleans()):
            x = X[draw(st.integers(0, len(X) - 1))]
            X.append((x[0] + draw(near_offset), x[1] + draw(near_offset)))
        else:
            X.append((draw(coord), draw(coord)))
    return np.array(X)


def field(X):
    """Smooth readings, so near-duplicate points read nearly the same."""
    return np.sin(X[:, 0] / 5.0) + np.cos(X[:, 1] / 7.0)


def oracle_tol(spec, prior, X):
    """ORACLE_TOL where double precision resolves every sample's fit to
    it, else the agreement any two factorisation orders can reach.

    Two orders of the same fit differ by up to ~4e-16 * cond(K) in the
    log-likelihood (measured over drawn inputs of all three families;
    at cond 1e8 the per-sample path itself is off from a 60-digit
    reference by up to ~1e-8), so the bound grows as 2e-15 * cond(K)
    past cond 5e4. Near-duplicate points reach cond ~ 2 k0 / noise.
    """
    cond = max(np.linalg.cond(CovarianceBuilder(spec, X).gram(t)) for t in prior.samples)
    return max(ORACLE_TOL, 2e-15 * cond)


def assert_matches_oracle(acq, iw, ref_acq, ref_iw, tol=ORACLE_TOL):
    """Weights and acquisitions within ``tol``, flags equal and the same
    argmax, unless the reference's best two are within ``tol`` of each
    other: then rounding order alone can pick either, and either is a
    maximiser. Returns whether the step was such a near-tie."""
    np.testing.assert_array_equal(iw.failed, ref_iw.failed)
    assert iw.fallback_uniform == ref_iw.fallback_uniform
    np.testing.assert_allclose(iw.weights, ref_iw.weights, rtol=0, atol=tol)
    np.testing.assert_allclose(acq, ref_acq, rtol=0, atol=tol)
    if len(acq) == 0:
        return False
    best = int(np.argmax(acq))
    top_two = np.sort(ref_acq)[-2:]
    near_tie = len(acq) > 1 and top_two[1] - top_two[0] <= tol
    if near_tie:
        assert ref_acq[best] >= top_two[1] - 2 * tol
    else:
        assert best == int(np.argmax(ref_acq))
    return near_tie


@contextmanager
def recorded_steps():
    """Every (acquisition, weights, GP state) of ``run_bo``'s EI steps."""
    steps = []
    original = acquisition._weighted_acquisition_batch

    def record(gp, open_cols):
        acq, iw = original(gp, open_cols)
        steps.append((acq, iw, gp))
        return acq, iw

    with mock.patch.object(acquisition, "_weighted_acquisition_batch", record):
        yield steps


def grid_snapshot(X, sid="grid"):
    values = field(X)
    return Snapshot(id=sid, locations=X, values_raw=np.exp(values),
                    mask=np.ones(len(X), dtype=bool), values_pre=values)


def assert_run_bo_matches_oracle(snapshot, spec, config, tol=ORACLE_TOL):
    """Replays ``run_bo``'s placements through the per-sample oracle and
    checks every step; without near-ties the oracle's own path is the same."""
    with recorded_steps() as steps:
        trace = run_bo(snapshot, spec, config)
    gp = steps[-1][2]
    visited = snapshot.candidate_indices[gp.obs[: gp.n]]
    assert trace.locations() == [tuple(snapshot.locations[i]) for i in visited]
    replayed, ref_steps = per_sample_run_bo(snapshot, spec, config, follow=visited)
    assert replayed == visited.tolist() and len(steps) == len(ref_steps)
    near_ties = [assert_matches_oracle(acq, iw, *ref, tol=tol)
                 for (acq, iw, _), ref in zip(steps, ref_steps)]
    if not any(near_ties):
        assert per_sample_run_bo(snapshot, spec, config)[0] == replayed
    return [(acq, iw) for acq, iw, _ in steps]


def needs_jitter(th, X):
    """Whether the Gram matrix of ``X`` factorises only after a jitter rung
    above 0."""
    K = CovarianceBuilder(SPEC, X).gram(th)
    try:
        scipy.linalg.cholesky(K, lower=True)
    except np.linalg.LinAlgError:
        try:
            _stable_cholesky(K)
            return True
        except NumericalError:
            pass
    return False


def needs_jitter_sigma():
    """An amplitude at which two coincident points factorise only after a
    jitter rung above 0 (which amplitudes do depends on LAPACK's rounding)."""
    for s in np.geomspace(3e4, 1.5e5, 4000):
        if needs_jitter(theta(s1=s, s2=s), np.zeros((2, 2))):
            return float(s)
    pytest.fail("no amplitude needs a jitter rung above 0 here")


class TestBatchedStateMatchesPerSampleOracle:
    """The stacked rank-one GP state against one fresh fit per sample."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), family=st.sampled_from(FAMILIES))
    def test_one_shot(self, data, family):
        spec = get_spec(family)
        prior = data.draw(drawn_prior(spec))
        X = data.draw(points_with_near_duplicates())
        X_star = data.draw(points_with_near_duplicates(max_n=6))
        acq, iw = acquisition._one_shot(spec, prior, X, field(X), X_star)
        ref = per_sample_acquisition(spec, prior, X, field(X), X_star)
        assert_matches_oracle(acq, iw, *ref, tol=oracle_tol(spec, prior, X))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), family=st.sampled_from(FAMILIES))
    def test_run_bo_visits_every_candidate(self, data, family):
        spec = get_spec(family)
        prior = data.draw(drawn_prior(spec, max_m=3, lengthscales=st.floats(0.5, 6.0)))
        axis = np.arange(4, dtype=float) * 3.0
        X = np.array([(x, y) for y in axis for x in axis])
        if data.draw(st.booleans()):  # a near-duplicate candidate
            twin = X[data.draw(st.integers(0, len(X) - 1))] + data.draw(
                st.tuples(near_offset, near_offset))
            X = np.vstack([X, twin])
        n_init = data.draw(st.integers(1, 3))
        config = BoConfig(n_init=n_init, n_iter=len(X), prior=prior, seed=data.draw(
            st.integers(0, 1000)))
        assert_run_bo_matches_oracle(grid_snapshot(X), spec, config, oracle_tol(spec, prior, X))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_near_duplicates_at_oracle_tol(self, family):
        spec = get_spec(family)
        gamma = 0.7 if spec.has_direction else None
        prior = prior_of([
            ThetaVector(values={s.name: 0.05 if s.name.startswith("sigma") else ls
                                for s in spec.sampled_slots}, gamma=gamma)
            for ls in (1.0, 3.0)
        ])
        X = np.array([[0.0, 0.0], [1e-9, -1e-9], [4.0, 1.0], [4.0, 1.0 + 1e-9], [-3.0, 2.0]])
        assert oracle_tol(spec, prior, X) == ORACLE_TOL
        X_star = np.array([[1.0, 1.0], [1.0 + 1e-9, 1.0], [-5.0, -5.0]])
        acq, iw = acquisition._one_shot(spec, prior, X, field(X), X_star)
        assert_matches_oracle(acq, iw, *per_sample_acquisition(spec, prior, X, field(X), X_star))
        config = BoConfig(n_init=2, n_iter=len(X), prior=prior, seed=7)
        assert_run_bo_matches_oracle(grid_snapshot(X), spec, config)

    def test_broken_sample_among_good_ones(self):
        X = np.array([(x, y) for y in range(4) for x in range(4)], dtype=float) * 5.0
        broken = theta(s1=1e8, l1=1e150, s2=1e8, l2=1e150)
        prior = prior_of([theta(l1=4.0, l2=12.0), broken, theta(l1=8.0, l2=20.0)])
        config = BoConfig(n_init=2, n_iter=10, prior=prior, seed=3)
        steps = assert_run_bo_matches_oracle(grid_snapshot(X), SPEC, config)
        for _, iw in steps:
            assert iw.failed.tolist() == [False, True, False]
            assert iw.weights[1] == 0.0 and not iw.fallback_uniform

    @pytest.mark.parametrize("m", [1, 3])
    def test_all_broken_falls_back_to_uniform(self, m):
        X = np.array([(x, y) for y in range(3) for x in range(3)], dtype=float) * 5.0
        broken = theta(s1=1e8, l1=1e150, s2=1e8, l2=1e150)
        config = BoConfig(n_init=2, n_iter=9, prior=prior_of([broken] * m), seed=1)
        steps = assert_run_bo_matches_oracle(grid_snapshot(X), SPEC, config)
        for acq, iw in steps:
            assert iw.fallback_uniform and iw.ess == m
            assert not acq.any()

    def test_jitter_rung_above_zero(self):
        s = needs_jitter_sigma()
        X = np.array([[0.0, 0.0], [0.0, 0.0], [30.0, 0.0], [0.0, 30.0], [30.0, 30.0]])
        jittery = theta(s1=s, s2=s)
        # a pivot of ~1e-13 of its diagonal: refactorised, and LAPACK takes rung 0
        tiny_pivot = theta(s1=3e3, s2=3e3)
        assert needs_jitter(jittery, X) and not needs_jitter(tiny_pivot, X)
        prior = prior_of([theta(l1=10.0, l2=40.0), jittery, tiny_pivot])
        acq, iw = acquisition._one_shot(SPEC, prior, X[:3], field(X[:3]), X[3:])
        assert_matches_oracle(acq, iw, *per_sample_acquisition(
            SPEC, prior, X[:3], field(X[:3]), X[3:]))
        # every run visits all five candidates: the refactorised samples are
        # extended by later rows, before or after the coincident pair
        snap = grid_snapshot(X)
        for seed in range(3):
            assert_run_bo_matches_oracle(snap, SPEC, BoConfig(
                n_init=2, n_iter=len(X), prior=prior, seed=seed))


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
