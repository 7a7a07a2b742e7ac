"""Hierarchical sampler tests: update-rule arithmetic, detailed-balance
checks against known stationary distributions, and chain invariants."""

import math

import numpy as np
import pytest
from scipy import stats

from airbo.data import Dataset, generate_synthetic, preprocess
from airbo.errors import InputError
from airbo.kernels import NOISE_VARIANCE, ThetaVector, get_spec
from airbo.mcmc import (
    ChainSample,
    EtaParams,
    ProposalWidths,
    diagnostics_csv,
    draw_prior_samples,
    eta_update,
    gamma_logpdf,
    load_prior,
    run_chain,
    sample_theta_from_eta,
    save_prior,
    theta_update,
)
from airbo.rng import ChainRngs

RBF_RBF = get_spec("rbf_rbf")
SUM = get_spec("sum")

FLAT = lambda theta: 0.0  # noqa: E731


def make_tuning(n_snapshots=3, grid=8, seed=11):
    theta = ThetaVector(values={"sigma_r1": 1.0, "l_r1": 14.0, "sigma_r2": 1.0, "l_r2": 56.0})
    synth = generate_synthetic(RBF_RBF, theta, grid, n_snapshots, seed=seed)
    ds = Dataset(tuning=synth.snapshots, test=[])
    preprocess(ds)
    return ds.tuning


class TestGammaLogpdf:
    def test_exponential_at_one(self):
        assert gamma_logpdf(1.0, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_exponential_scale_two(self):
        assert gamma_logpdf(2.0, 1.0, 2.0) == pytest.approx(math.log(0.5 * math.exp(-1)), abs=1e-12)

    def test_shape_two(self):
        assert gamma_logpdf(3.0, 2.0, 1.0) == pytest.approx(math.log(3 * math.exp(-3)), abs=1e-12)

    def test_domain_errors(self):
        for bad in [(0.0, 1, 1), (1, 0.0, 1), (1, 1, -1)]:
            with pytest.raises(InputError):
                gamma_logpdf(*bad)

    def test_vectorised_matches_scipy(self):
        x = np.array([0.2, 1.0, 4.5])
        ours = gamma_logpdf(x, 2.5, 0.7)
        np.testing.assert_allclose(ours, stats.gamma.logpdf(x, a=2.5, scale=0.7), atol=1e-12)


def theta_one():
    return ThetaVector(values={"sigma_r1": 1.0, "l_r1": 1.0, "sigma_r2": 1.0, "l_r2": 1.0})


class TestThetaUpdate:
    def test_flat_likelihood_always_accepts(self):
        rngs = ChainRngs(0)
        eta = EtaParams.ones(RBF_RBF)
        for _ in range(200):
            upd = theta_update(RBF_RBF, theta_one(), "l_r1", eta, FLAT, rngs, cur_loglik=0.0)
            assert upd.accepted

    def test_much_better_proposal_always_accepted(self):
        # any proposal's likelihood is e^2 larger than the current one
        rngs = ChainRngs(1)
        eta = EtaParams.ones(RBF_RBF)
        current = theta_one()
        better = lambda t: 0.0 if t.values["l_r1"] == current.values["l_r1"] else 2.0  # noqa: E731
        for _ in range(200):
            upd = theta_update(RBF_RBF, current, "l_r1", eta, better, rngs)
            assert upd.accepted

    def test_fixed_seed_reproducible(self):
        def sequence():
            rngs = ChainRngs(7)
            eta = EtaParams.ones(RBF_RBF)
            theta = theta_one()
            lik = lambda t: -0.5 * (t.values["l_r1"] - 2.0) ** 2  # noqa: E731
            out = []
            for _ in range(50):
                upd = theta_update(RBF_RBF, theta, "l_r1", eta, lik, rngs)
                theta = theta.with_value("l_r1", upd.value)
                out.append((upd.value, upd.accepted))
            return out

        assert sequence() == sequence()

    def test_numerical_failure_rejects_and_flags(self):
        from airbo.errors import NumericalError

        rngs = ChainRngs(2)
        eta = EtaParams.ones(RBF_RBF)

        def broken(theta):
            raise NumericalError("boom")

        upd = theta_update(RBF_RBF, theta_one(), "l_r1", eta, broken, rngs, cur_loglik=0.0)
        assert not upd.accepted
        assert upd.failed
        assert upd.value == 1.0

    def test_gamma_slot_proposes_uniform_angles(self):
        rngs = ChainRngs(3)
        eta = EtaParams.ones(SUM)
        theta = ThetaVector(
            values={"sigma_r1": 1, "l_r1": 1, "sigma_w2": 1, "l_w2": 1}, gamma=0.5
        )
        values = [
            theta_update(SUM, theta, "gamma", eta, FLAT, rngs, cur_loglik=0.0).value
            for _ in range(500)
        ]
        assert all(0 <= v < math.pi for v in values)
        assert stats.kstest(values, stats.uniform(0, math.pi).cdf).pvalue > 0.01


class _FixedNormal:
    """Stub generator: .normal returns a fixed offset."""

    def __init__(self, offset):
        self.offset = offset

    def normal(self, loc, scale):
        return self.offset


class TestEtaUpdate:
    def test_nonpositive_proposal_always_rejected(self):
        rngs = ChainRngs(0)
        rngs.eta_proposals = _FixedNormal(-5.0)  # proposal = 1 - 5 < 0
        eta = EtaParams.ones(RBF_RBF)
        upd = eta_update(RBF_RBF, "l_r1", "shape", eta, [theta_one()], rngs)
        assert not upd.accepted
        assert upd.value == 1.0

    def test_identical_density_always_accepted(self):
        rngs = ChainRngs(1)
        rngs.eta_proposals = _FixedNormal(0.0)  # proposal == current
        eta = EtaParams.ones(RBF_RBF)
        upd = eta_update(RBF_RBF, "l_r1", "scale", eta, [theta_one()], rngs)
        assert upd.accepted

    def test_shape_move_with_unit_ratio_always_accepted(self):
        # N=1, theta=1: density(1; shape 2, scale 1) == density(1; 1, 1)
        rngs = ChainRngs(2)
        rngs.eta_proposals = _FixedNormal(1.0)  # shape 1 -> 2
        eta = EtaParams.ones(RBF_RBF)
        for _ in range(100):
            upd = eta_update(RBF_RBF, "l_r1", "shape", eta, [theta_one()], rngs)
            assert upd.accepted
            assert upd.value == 2.0

    def test_no_snapshots_degenerates_to_positive_random_walk(self):
        rngs = ChainRngs(3)
        eta = EtaParams.ones(RBF_RBF)
        value = 1.0
        accepted_positive = 0
        for _ in range(2000):
            eta.shapes["l_r1"] = value
            upd = eta_update(RBF_RBF, "l_r1", "shape", eta, [], rngs)
            if upd.accepted:
                accepted_positive += 1
                assert upd.value > 0
            value = upd.value
        assert value > 0
        assert accepted_positive > 0


class TestRunChain:
    def test_bit_identical_repeat(self):
        tuning = make_tuning()
        a = run_chain(RBF_RBF, tuning, H=10, burn_in=2, B=2, seed=13)
        b = run_chain(RBF_RBF, tuning, H=10, burn_in=2, B=2, seed=13)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.eta.shapes == sb.eta.shapes
            assert sa.eta.scales == sb.eta.scales
            for ta, tb in zip(sa.theta_all, sb.theta_all):
                assert ta.values == tb.values

    def test_flat_likelihood_frozen_eta_recovers_prior(self):
        # with a constant likelihood every slot draw is a fresh sample
        # from the (frozen) Gamma(1, 1) prior
        tuning = make_tuning(n_snapshots=1, grid=2)
        result = run_chain(
            RBF_RBF, tuning, H=2500, burn_in=500, B=1, seed=13,
            loglik_fn=lambda n, t: 0.0, freeze_eta=True,
        )
        samples = [s.theta_all[0].values["l_r1"] for s in result.samples[500:]]
        assert stats.kstest(samples, stats.gamma(a=1.0, scale=1.0).cdf).pvalue > 0.01

    def test_gamma_factor_likelihood_gives_conjugate_product(self):
        # likelihood Gamma(x; 2, 1) against prior Gamma(1, 1) has
        # stationary law Gamma(2, 1/2): checks the accept/reject maths
        tuning = make_tuning(n_snapshots=1, grid=2)
        lik = lambda n, t: float(gamma_logpdf(t.values["l_r1"], 2.0, 1.0))  # noqa: E731
        result = run_chain(
            RBF_RBF, tuning, H=4000, burn_in=500, B=1, seed=13,
            loglik_fn=lik, freeze_eta=True,
        )
        samples = [s.theta_all[0].values["l_r1"] for s in result.samples[500:]]
        assert stats.kstest(samples, stats.gamma(a=2.0, scale=0.5).cdf).pvalue > 0.01

    def test_single_observation_thetas_track_eta_implied_gamma(self):
        # one observation makes the likelihood flat in lengthscales, so
        # chain lengthscales should match fresh draws from each
        # iteration's gamma (the direct-sampling oracle)
        theta = ThetaVector(values={"sigma_r1": 1, "l_r1": 1, "sigma_r2": 1, "l_r2": 1})
        synth = generate_synthetic(RBF_RBF, theta, grid_size=1, n_snapshots=3, seed=21)
        ds = Dataset(tuning=synth.snapshots, test=[])
        preprocess(ds)
        result = run_chain(RBF_RBF, ds.tuning, H=1500, burn_in=300, B=3, seed=13)
        chain_samples = []
        oracle = []
        rng = np.random.default_rng(99)
        for s in result.samples[300:]:
            eta = s.eta
            for t in s.theta_all:
                chain_samples.append(t.values["l_r1"])
                oracle.append(rng.gamma(eta.shapes["l_r1"], eta.scales["l_r1"]))
        p = stats.ks_2samp(chain_samples, oracle).pvalue
        assert p > 0.01

    def test_chain_samples_respect_domains(self):
        tuning = make_tuning(n_snapshots=2, grid=4)
        result = run_chain(SUM, tuning, H=40, burn_in=10, B=2, seed=13)
        for sample in result.samples:
            for t in sample.theta_all:
                assert all(v > 0 for v in t.values.values())
                assert 0 <= t.gamma < math.pi
                assert t.noise_variance == NOISE_VARIANCE
            assert all(v > 0 for v in sample.eta.shapes.values())
            assert all(v > 0 for v in sample.eta.scales.values())

    def test_diagnostics_csv_layout(self):
        # per iteration: eta rows sorted by slot.which, then theta rows
        # sorted by slot name; values and rates recomputed from the samples
        tuning = make_tuning(n_snapshots=3, grid=5)
        H, B, N = 5, 3, len(tuning)
        result = run_chain(SUM, tuning, H=H, burn_in=1, B=B, seed=13)
        text = diagnostics_csv(result)
        assert "np." not in text
        lines = text.splitlines()
        assert lines[0] == "iteration,slot,acceptance_rate,value"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == H * 13
        sampled = [s.name for s in SUM.sampled_slots]
        eta_names = sorted(f"eta.{s}.{w}" for s in sampled for w in ("shape", "scale"))
        theta_names = sorted([*sampled, "gamma"])
        theta_accepted = dict.fromkeys(theta_names, 0.0)
        for h, sample in enumerate(result.samples):
            block = rows[13 * h : 13 * (h + 1)]
            assert [r[0] for r in block] == [str(h + 1)] * 13
            assert [r[1] for r in block] == eta_names + theta_names
            for _, name, rate, value in block[:8]:
                _, slot, which = name.split(".")
                expected = sample.eta.shapes if which == "shape" else sample.eta.scales
                assert float(value) == expected[slot]
                assert float(rate) in {k / B for k in range(B + 1)}
            for _, slot, rate, value in block[8:]:
                assert float(value) == float(np.mean([t.slot(slot) for t in sample.theta_all]))
                assert float(rate) in {k / N for k in range(N + 1)}
                theta_accepted[slot] += float(rate) * N
        for slot, count in theta_accepted.items():
            assert result.theta_acceptance[slot] == pytest.approx(count / (H * N), abs=1e-12)

    def test_preconditions(self):
        tuning = make_tuning(n_snapshots=1)
        with pytest.raises(InputError):
            run_chain(RBF_RBF, [], H=5, burn_in=1)
        with pytest.raises(InputError):
            run_chain(RBF_RBF, tuning, H=5, burn_in=5)
        with pytest.raises(InputError):
            run_chain(RBF_RBF, tuning, H=5, burn_in=1, B=0)

    def test_unpreprocessed_snapshot_rejected(self):
        theta = theta_one()
        synth = generate_synthetic(RBF_RBF, theta, 3, 1, seed=0)
        with pytest.raises(InputError, match="not preprocessed"):
            run_chain(RBF_RBF, synth.snapshots, H=5, burn_in=1)


def fake_chain(length, shapes=None, scales=None, spec=RBF_RBF):
    eta = EtaParams.ones(spec)
    if shapes:
        eta.shapes.update(shapes)
    if scales:
        eta.scales.update(scales)
    theta = sample_theta_from_eta(spec, eta, np.random.default_rng(0))
    return [ChainSample(iteration=h + 1, eta=eta, theta_all=(theta,)) for h in range(length)]


class TestDrawPriorSamples:
    def test_published_defaults_yield_full_sample_set(self):
        chain = fake_chain(1200)
        prior = draw_prior_samples(RBF_RBF, chain, burn_in=200, M=100, seed=13)
        assert len(prior) == 100
        for t in prior.samples:
            t.validate(RBF_RBF)

    def test_concentrated_eta_pins_samples_near_one(self):
        chain = fake_chain(
            300,
            shapes={k: 1e6 for k in ("sigma_r1", "l_r1", "sigma_r2", "l_r2")},
            scales={k: 1e-6 for k in ("sigma_r1", "l_r1", "sigma_r2", "l_r2")},
        )
        prior = draw_prior_samples(RBF_RBF, chain, burn_in=100, M=50, seed=13)
        for t in prior.samples:
            for v in t.values.values():
                assert abs(v - 1.0) < 0.01

    def test_fixed_seed_reproducible(self):
        chain = fake_chain(300)
        a = draw_prior_samples(RBF_RBF, chain, 100, 20, seed=5)
        b = draw_prior_samples(RBF_RBF, chain, 100, 20, seed=5)
        assert [t.values for t in a.samples] == [t.values for t in b.samples]

    def test_input_errors(self):
        chain = fake_chain(10)
        with pytest.raises(InputError):
            draw_prior_samples(RBF_RBF, chain, 2, 0, seed=1)
        with pytest.raises(InputError):
            draw_prior_samples(RBF_RBF, chain, 10, 5, seed=1)


class TestPriorSerialisation:
    def test_round_trip(self, tmp_path):
        chain = fake_chain(50, spec=SUM)
        prior = draw_prior_samples(
            SUM, chain, 10, 8, seed=3, provenance={"kernel": "sum", "H": 50}
        )
        path = tmp_path / "prior.jsonl"
        save_prior(prior, path)
        loaded = load_prior(path, expected_spec=SUM)
        assert len(loaded) == 8
        assert loaded.provenance["H"] == 50
        for a, b in zip(loaded.samples, prior.samples):
            assert a.values == b.values
            assert a.gamma == b.gamma

    def test_spec_mismatch_names_both(self, tmp_path):
        from airbo.errors import SpecMismatchError

        chain = fake_chain(20)
        prior = draw_prior_samples(RBF_RBF, chain, 5, 3, seed=1, provenance={"kernel": "rbf_rbf"})
        path = tmp_path / "prior.jsonl"
        save_prior(prior, path)
        with pytest.raises(SpecMismatchError, match="rbf_rbf.*sum"):
            load_prior(path, expected_spec=SUM)


class TestProposalWidths:
    def test_published_defaults(self):
        w = ProposalWidths()
        assert (w.shape_lengthscale, w.scale_lengthscale) == (1.5, 0.5)
        assert (w.shape_amplitude, w.scale_amplitude) == (0.3, 0.1)
