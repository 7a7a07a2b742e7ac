"""Hierarchical sampler tests: update-rule arithmetic, detailed-balance
checks against known stationary distributions, and chain invariants."""

import math

import numpy as np
import pytest
from scipy import stats

from airbo.data import Dataset, generate_synthetic, preprocess
from airbo.errors import InputError, NumericalError
from airbo.gp import CachedMarginal
from airbo.kernels import NOISE_VARIANCE, ThetaVector, get_spec
from airbo.mcmc import (
    ChainSample,
    ProposalWidths,
    _mh_accept,
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
FAMILIES = ("rbf_rbf", "sum", "rbf_product")
L_R1 = RBF_RBF.layout.index("l_r1")

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
    """All-ones packed rbf_rbf theta."""
    return np.ones(len(RBF_RBF.layout))


def eta_one(spec=RBF_RBF):
    return np.ones((len(spec.sampled_slots), 2))


class TestThetaUpdate:
    def test_flat_likelihood_always_accepts(self):
        rngs = ChainRngs(0)
        for _ in range(200):
            _, accepted, _, _ = theta_update(theta_one(), L_R1, eta_one(), FLAT, rngs, 0.0)
            assert accepted

    def test_much_better_proposal_always_accepted(self):
        # any proposal's likelihood is e^2 larger than the current one
        rngs = ChainRngs(1)
        current = theta_one()
        better = lambda t: 0.0 if t[L_R1] == current[L_R1] else 2.0  # noqa: E731
        for _ in range(200):
            _, accepted, _, _ = theta_update(
                current, L_R1, eta_one(), better, rngs, better(current)
            )
            assert accepted

    def test_fixed_seed_reproducible(self):
        def sequence():
            rngs = ChainRngs(7)
            theta = theta_one()
            lik = lambda t: -0.5 * (t[L_R1] - 2.0) ** 2  # noqa: E731
            out = []
            for _ in range(50):
                value, accepted, _, _ = theta_update(
                    theta, L_R1, eta_one(), lik, rngs, lik(theta)
                )
                theta[L_R1] = value
                out.append((value, accepted))
            return out

        assert sequence() == sequence()

    def test_numerical_failure_rejects_and_flags(self):
        rngs = ChainRngs(2)

        def broken(theta):
            raise NumericalError("boom")

        value, accepted, loglik, failed = theta_update(
            theta_one(), L_R1, eta_one(), broken, rngs, 0.0
        )
        assert not accepted
        assert failed
        assert value == 1.0
        assert loglik == 0.0

    def test_gamma_slot_proposes_uniform_angles(self):
        rngs = ChainRngs(3)
        theta = np.array([1.0, 1.0, 1.0, 1.0, 0.5])
        j = SUM.layout.index("gamma")
        values = [
            theta_update(theta, j, eta_one(SUM), FLAT, rngs, 0.0)[0] for _ in range(500)
        ]
        assert all(0 <= v < math.pi for v in values)
        assert stats.kstest(values, stats.uniform(0, math.pi).cdf).pvalue > 0.01


class _FixedNormal:
    """Stub generator: .normal returns a fixed offset."""

    def __init__(self, offset):
        self.offset = offset

    def normal(self, loc, scale):
        return self.offset


SHAPE, SCALE = 0, 1
L_R1_WIDTH = ProposalWidths().array(RBF_RBF)[L_R1]


class TestEtaUpdate:
    def test_nonpositive_proposal_always_rejected(self):
        rngs = ChainRngs(0)
        rngs.eta_proposals = _FixedNormal(-5.0)  # proposal = 1 - 5 < 0
        value, accepted = eta_update(eta_one(), L_R1, SHAPE, np.ones(1), rngs, L_R1_WIDTH[SHAPE])
        assert not accepted
        assert value == 1.0

    def test_identical_density_always_accepted(self):
        rngs = ChainRngs(1)
        rngs.eta_proposals = _FixedNormal(0.0)  # proposal == current
        _, accepted = eta_update(eta_one(), L_R1, SCALE, np.ones(1), rngs, L_R1_WIDTH[SCALE])
        assert accepted

    def test_shape_move_with_unit_ratio_always_accepted(self):
        # N=1, theta=1: density(1; shape 2, scale 1) == density(1; 1, 1)
        rngs = ChainRngs(2)
        rngs.eta_proposals = _FixedNormal(1.0)  # shape 1 -> 2
        for _ in range(100):
            value, accepted = eta_update(
                eta_one(), L_R1, SHAPE, np.ones(1), rngs, L_R1_WIDTH[SHAPE]
            )
            assert accepted
            assert value == 2.0

    def test_no_snapshots_degenerates_to_positive_random_walk(self):
        rngs = ChainRngs(3)
        eta = eta_one()
        value = 1.0
        accepted_positive = 0
        for _ in range(2000):
            eta[L_R1, SHAPE] = value
            value, accepted = eta_update(
                eta, L_R1, SHAPE, np.empty(0), rngs, L_R1_WIDTH[SHAPE]
            )
            if accepted:
                accepted_positive += 1
                assert value > 0
        assert value > 0
        assert accepted_positive > 0


def reference_run_chain(spec, tuning_snapshots, H, B, seed, loglik_fn, freeze_eta=False):
    """The dict-keyed chain that the packed ``run_chain`` replaced: thetas
    are :class:`ThetaVector` s copied on every move, eta is two dicts keyed
    by slot name, and each eta move looks its width up by slot kind.
    Returns per-iteration eta ``(S, 2)`` and theta ``(N, p)`` arrays, the
    acceptance counts and the number of failed likelihood evaluations."""
    rngs = ChainRngs(seed)
    widths = ProposalWidths()
    names = [s.name for s in spec.sampled_slots]
    kinds = {s.name: s.kind.value for s in spec.sampled_slots}
    sweep = names + (["gamma"] if spec.has_direction else [])
    eta = {"shape": dict.fromkeys(names, 1.0), "scale": dict.fromkeys(names, 1.0)}

    def draw(slot):
        if slot == "gamma":
            return float(rngs.theta_proposals.uniform(0.0, math.pi))
        shape, scale = eta["shape"][slot], eta["scale"][slot]
        return max(float(rngs.theta_proposals.gamma(shape, scale)), 1e-12)

    thetas = []
    for _ in tuning_snapshots:
        values = {name: draw(name) for name in names}
        thetas.append(ThetaVector(values, draw("gamma") if spec.has_direction else None))
    cur = []
    for n, theta in enumerate(thetas):
        try:
            cur.append(loglik_fn(n, theta))
        except NumericalError:
            cur.append(-math.inf)

    out = {"eta": [], "theta": [], "theta_accepted": [], "eta_accepted": [], "failures": 0}
    for _ in range(H):
        theta_acc = dict.fromkeys(sweep, 0)
        for n in range(len(thetas)):
            for slot in sweep:
                proposal = thetas[n].with_value(slot, draw(slot))
                try:
                    loglik = loglik_fn(n, proposal)
                except NumericalError:
                    out["failures"] += 1
                    continue
                if _mh_accept(loglik - cur[n], rngs.accept):
                    thetas[n], cur[n] = proposal, loglik
                    theta_acc[slot] += 1
        eta_acc = {(name, which): 0 for name in names for which in ("shape", "scale")}
        for _ in range(0 if freeze_eta else B):
            for name, which in eta_acc:
                width = getattr(widths, f"{which}_{kinds[name]}")
                proposal = eta[which][name] + float(rngs.eta_proposals.normal(0.0, width))
                if proposal <= 0:
                    continue
                values = np.array([t.values[name] for t in thetas])
                new = {w: eta[w][name] for w in eta} | {which: proposal}
                log_ratio = float(
                    np.sum(gamma_logpdf(values, new["shape"], new["scale"]))
                    - np.sum(gamma_logpdf(values, eta["shape"][name], eta["scale"][name]))
                )
                if _mh_accept(log_ratio, rngs.accept):
                    eta[which][name] = proposal
                    eta_acc[name, which] += 1
        out["eta"].append(np.array([[eta["shape"][n], eta["scale"][n]] for n in names]))
        out["theta"].append(np.array([[t.slot(slot) for slot in sweep] for t in thetas]))
        out["theta_accepted"].append(list(theta_acc.values()))
        out["eta_accepted"].append(list(eta_acc.values()))
    return out


class TestReferenceChain:
    """The packed chain against the dict-keyed reference, exactly."""

    @pytest.mark.parametrize("mode", ["free", "frozen", "failing"])
    @pytest.mark.parametrize("n_snapshots", [1, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_identical_to_reference(self, family, n_snapshots, mode):
        spec = get_spec(family)
        tuning = make_tuning(n_snapshots=n_snapshots, grid=4)
        cached = [CachedMarginal(spec, s.locations[s.mask], s.values_pre[s.mask]) for s in tuning]

        def loglik(n, t):
            l_r1 = t.values["l_r1"] if isinstance(t, ThetaVector) else t[1]
            if mode == "failing" and l_r1 > 1.0:
                raise NumericalError("refused")
            return cached[n](t)

        frozen = mode == "frozen"
        result = run_chain(spec, tuning, H=6, burn_in=1, B=2, seed=5,
                           loglik_fn=loglik, freeze_eta=frozen)
        ref = reference_run_chain(spec, tuning, H=6, B=2, seed=5,
                                  loglik_fn=loglik, freeze_eta=frozen)
        for h, sample in enumerate(result.samples):
            assert np.array_equal(sample.eta, ref["eta"][h])
            assert np.array_equal(sample.theta, ref["theta"][h])
        assert np.array_equal(result.theta_accepted, ref["theta_accepted"])
        assert np.array_equal(result.eta_accepted, ref["eta_accepted"])
        assert result.n_numerical_failures == ref["failures"]
        assert (result.n_numerical_failures > 0) == (mode == "failing")


class TestRunChain:
    def test_bit_identical_repeat(self):
        tuning = make_tuning()
        a = run_chain(RBF_RBF, tuning, H=10, burn_in=2, B=2, seed=13)
        b = run_chain(RBF_RBF, tuning, H=10, burn_in=2, B=2, seed=13)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.eta, sb.eta)
            assert np.array_equal(sa.theta, sb.theta)
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
        lik = lambda n, t: float(gamma_logpdf(t[L_R1], 2.0, 1.0))  # noqa: E731
        result = run_chain(
            RBF_RBF, tuning, H=4000, burn_in=500, B=1, seed=13,
            loglik_fn=lik, freeze_eta=True,
        )
        samples = [s.theta[0, L_R1] for s in result.samples[500:]]
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
            shape, scale = s.eta[L_R1]
            for t in s.theta:
                chain_samples.append(t[L_R1])
                oracle.append(rng.gamma(shape, scale))
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
            assert np.all(sample.eta > 0)

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
                expected = sample.eta[sampled.index(slot), ("shape", "scale").index(which)]
                assert float(value) == expected
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
        theta = ThetaVector(values={"sigma_r1": 1.0, "l_r1": 1.0, "sigma_r2": 1.0, "l_r2": 1.0})
        synth = generate_synthetic(RBF_RBF, theta, 3, 1, seed=0)
        with pytest.raises(InputError, match="not preprocessed"):
            run_chain(RBF_RBF, synth.snapshots, H=5, burn_in=1)


def fake_chain(length, shapes=None, scales=None, spec=RBF_RBF):
    names = [s.name for s in spec.sampled_slots]
    eta = eta_one(spec)
    for name, value in (shapes or {}).items():
        eta[names.index(name), SHAPE] = value
    for name, value in (scales or {}).items():
        eta[names.index(name), SCALE] = value
    theta = sample_theta_from_eta(spec, eta, np.random.default_rng(0))
    return [ChainSample(h + 1, spec, eta, theta[None, :]) for h in range(length)]


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

    def test_array_follows_slot_kinds(self):
        # sum: sigma_r1, l_r1, sigma_w2, l_w2
        expected = [[0.3, 0.1], [1.5, 0.5], [0.3, 0.1], [1.5, 0.5]]
        assert ProposalWidths().array(SUM).tolist() == expected
