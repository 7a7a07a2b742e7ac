"""Kernel evaluation tests: analytic examples, an independent
double-loop Gram oracle, and algebraic invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airbo.errors import InputError
from airbo.kernels import (
    NOISE_VARIANCE,
    ThetaVector,
    composite_eval,
    correlation_at_distance,
    covariance_matrix,
    cross_covariance,
    directed_eval,
    get_spec,
    rbf_eval,
)

RBF_RBF = get_spec("rbf_rbf")
SUM = get_spec("sum")
RBF_PRODUCT = get_spec("rbf_product")


def theta_rbf_rbf(s1, l1, s2, l2):
    return ThetaVector(values={"sigma_r1": s1, "l_r1": l1, "sigma_r2": s2, "l_r2": l2})


def theta_sum(s1, l1, sw, lw, gamma):
    return ThetaVector(
        values={"sigma_r1": s1, "l_r1": l1, "sigma_w2": sw, "l_w2": lw}, gamma=gamma
    )


def theta_product(s1, l1, s2, l2, lw, gamma):
    return ThetaVector(
        values={"sigma_r1": s1, "l_r1": l1, "sigma_r2": s2, "l_r2": l2, "l_w3": lw},
        gamma=gamma,
    )


positive = st.floats(min_value=0.05, max_value=10.0, allow_nan=False)
lengthscale = st.floats(min_value=0.1, max_value=300.0, allow_nan=False)
angle = st.floats(min_value=0.0, max_value=math.pi - 1e-9, allow_nan=False)
coord = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)


@st.composite
def random_theta(draw, spec):
    values = {}
    for slot in spec.sampled_slots:
        values[slot.name] = draw(positive if slot.name.startswith("sigma") else lengthscale)
    gamma = draw(angle) if spec.has_direction else None
    return ThetaVector(values=values, gamma=gamma)


class TestRbfEval:
    def test_zero_displacement_returns_amplitude_squared(self):
        assert rbf_eval((0, 0), 3, 1) == pytest.approx(9.0, abs=1e-12)

    def test_unit_displacement(self):
        assert rbf_eval((1, 0), 1, 1) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_scaled_displacement(self):
        assert rbf_eval((2, 0), 2, 2) == pytest.approx(4 * math.exp(-1), abs=1e-12)

    @pytest.mark.parametrize("sigma,l", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_nonpositive_hyperparameters_rejected(self, sigma, l):
        with pytest.raises(InputError):
            rbf_eval((1, 0), sigma, l)


class TestDirectedEval:
    def test_blind_along_direction(self):
        assert directed_eval((5, 0), 1, 1, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_cross_direction_decay(self):
        assert directed_eval((5, 0), 1, 5, math.pi / 2) == pytest.approx(
            math.exp(-1), abs=1e-12
        )

    def test_displacement_parallel_to_direction(self):
        assert directed_eval((1, 1), 2, 1, math.pi / 4) == pytest.approx(4.0, abs=1e-9)

    def test_gamma_out_of_range_rejected(self):
        with pytest.raises(InputError):
            directed_eval((1, 0), 1, 1, math.pi)


class TestCompositeEval:
    def test_rbf_rbf_zero_lag_sums_variances(self):
        theta = theta_rbf_rbf(1, 1, 2, 10)
        assert composite_eval(RBF_RBF, theta, (0, 0)) == pytest.approx(5.0, abs=1e-12)

    def test_sum_zero_lag(self):
        theta = theta_sum(1, 1, 1, 1, 0.0)
        assert composite_eval(SUM, theta, (0, 0)) == pytest.approx(2.0, abs=1e-12)

    def test_product_zero_lag_with_unit_directed_amplitude(self):
        theta = theta_product(1, 1, 2, 1, 1, 0.0)
        assert composite_eval(RBF_PRODUCT, theta, (0, 0)) == pytest.approx(5.0, abs=1e-12)

    def test_layout_mismatch_rejected(self):
        with pytest.raises(InputError):
            composite_eval(SUM, theta_rbf_rbf(1, 1, 1, 1), (0, 0))

    def test_missing_gamma_rejected(self):
        theta = ThetaVector(values={"sigma_r1": 1, "l_r1": 1, "sigma_w2": 1, "l_w2": 1})
        with pytest.raises(InputError):
            composite_eval(SUM, theta, (0, 0))

    def test_hyperparameter_counts(self):
        assert RBF_RBF.n_hyperparameters == 5
        assert SUM.n_hyperparameters == 6
        assert RBF_PRODUCT.n_hyperparameters == 7


class TestPackedTheta:
    def test_layouts(self):
        assert RBF_RBF.layout == ("sigma_r1", "l_r1", "sigma_r2", "l_r2")
        assert SUM.layout == ("sigma_r1", "l_r1", "sigma_w2", "l_w2", "gamma")
        assert RBF_PRODUCT.layout == ("sigma_r1", "l_r1", "sigma_r2", "l_r2", "l_w3", "gamma")

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), spec=st.sampled_from([RBF_RBF, SUM, RBF_PRODUCT]))
    def test_packed_and_vector_forms_agree_exactly(self, data, spec):
        theta = data.draw(random_theta(spec))
        t = spec.pack(theta)
        assert spec.unpack(t) == theta
        X = np.random.default_rng(7).uniform(-20, 20, size=(6, 2))
        assert np.array_equal(covariance_matrix(spec, t, X), covariance_matrix(spec, theta, X))
        assert np.array_equal(
            cross_covariance(spec, t, X[:2], X), cross_covariance(spec, theta, X[:2], X)
        )
        assert composite_eval(spec, t, (1.0, 2.0)) == composite_eval(spec, theta, (1.0, 2.0))

    @pytest.mark.parametrize("values,gamma", [
        ({"sigma_r1": "1", "l_r1": 1, "sigma_w2": 1, "l_w2": 1}, 0.5),
        ({"sigma_r1": True, "l_r1": 1, "sigma_w2": 1, "l_w2": 1}, 0.5),
        ({"sigma_r1": None, "l_r1": 1, "sigma_w2": 1, "l_w2": 1}, 0.5),
        ({"sigma_r1": 1, "l_r1": 1, "sigma_w2": 1, "l_w2": 1}, "0.5"),
        ({"sigma_r1": 1, "l_r1": 1, "sigma_w2": 1, "l_w2": 1}, False),
        ([1, 1, 1, 1], 0.5),
    ])
    def test_pack_rejects_non_numeric_entries(self, values, gamma):
        with pytest.raises(InputError):
            SUM.pack(ThetaVector(values=values, gamma=gamma))


class TestCovarianceMatrix:
    def test_single_point_with_noise(self):
        K = covariance_matrix(RBF_RBF, theta_rbf_rbf(1, 1, 1, 1), [(0.0, 0.0)])
        np.testing.assert_allclose(K, [[2.0 + NOISE_VARIANCE]], rtol=0, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), spec=st.sampled_from([RBF_RBF, SUM, RBF_PRODUCT]))
    def test_exact_transpose_symmetry(self, data, spec):
        # the Gram build does no triangle mirroring, so every family must
        # come out exactly symmetric on its own
        rng = np.random.default_rng(5)
        X = rng.uniform(-10, 10, size=(12, 2))
        for fixed_spec, theta in [
            (RBF_RBF, theta_rbf_rbf(1.3, 2.0, 0.7, 9.0)),
            (SUM, theta_sum(1.1, 3.0, 0.9, 5.0, 1.1)),
            (RBF_PRODUCT, theta_product(1.0, 2.0, 1.2, 7.0, 4.0, 0.3)),
        ]:
            K = covariance_matrix(fixed_spec, theta, X)
            assert np.array_equal(K, K.T)
        theta = data.draw(random_theta(spec))
        points = np.array(data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=8)))
        # near-duplicates of the drawn points, and a copy ~1e3 km away
        # where the exps underflow to subnormals and zero
        tiny = st.floats(min_value=-1e-9, max_value=1e-9, allow_nan=False)
        nudge = np.array(data.draw(st.lists(st.tuples(tiny, tiny), min_size=len(points),
                                            max_size=len(points))))
        far = np.array(data.draw(st.tuples(st.floats(min_value=-1e3, max_value=1e3),
                                           st.floats(min_value=900.0, max_value=1100.0))))
        X = np.vstack([points, points + nudge, points + far])
        K = covariance_matrix(spec, theta, X)
        assert np.array_equal(K, K.T)

    def test_matches_double_loop_oracle(self):
        # independent scalar oracle: base kernels composed by hand per family
        rng = np.random.default_rng(42)
        X = rng.uniform(0, 20, size=(3, 2))
        theta = theta_product(1.4, 2.5, 0.8, 11.0, 6.0, 0.7)
        K = covariance_matrix(RBF_PRODUCT, theta, X, include_noise=True)
        for a in range(3):
            for b in range(3):
                tau = X[a] - X[b]
                expected = rbf_eval(tau, 1.4, 2.5) + rbf_eval(tau, 0.8, 11.0) * directed_eval(
                    tau, 1.0, 6.0, 0.7
                )
                if a == b:
                    expected += NOISE_VARIANCE
                assert K[a, b] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_cross_covariance_matches_composite(self):
        rng = np.random.default_rng(3)
        X1 = rng.uniform(0, 5, size=(4, 2))
        X2 = rng.uniform(0, 5, size=(3, 2))
        theta = theta_sum(1.0, 2.0, 1.5, 3.0, 0.4)
        C = cross_covariance(SUM, theta, X1, X2)
        for a in range(4):
            for b in range(3):
                assert C[a, b] == pytest.approx(
                    composite_eval(SUM, theta, X1[a] - X2[b]), rel=1e-12
                )


class TestCorrelationAtDistance:
    # mean prior hyperparameters reported for the urban NO2 data
    LONDON_MEAN = theta_rbf_rbf(2.05, 2.00, 2.04, 241.0)

    def test_zero_distance_is_one(self):
        assert correlation_at_distance(RBF_RBF, self.LONDON_MEAN, 0.0) == 1.0

    def test_ten_km_falls_to_half(self):
        corr = correlation_at_distance(RBF_RBF, self.LONDON_MEAN, 10.0)
        assert corr == pytest.approx(0.50, abs=0.02)

    def test_hundred_metres_close_to_one(self):
        corr = correlation_at_distance(RBF_RBF, self.LONDON_MEAN, 0.1)
        assert corr == pytest.approx(1.0, abs=0.01)

    def test_cross_wind_profile_decays_faster(self):
        theta = theta_sum(1.0, 50.0, 1.0, 2.0, 0.0)
        along = correlation_at_distance(SUM, theta, 5.0, direction=0.0)
        cross = correlation_at_distance(SUM, theta, 5.0, direction=math.pi / 2)
        assert cross < along

    def test_negative_distance_rejected(self):
        with pytest.raises(InputError):
            correlation_at_distance(RBF_RBF, self.LONDON_MEAN, -1.0)


class TestInvariants:
    @given(tau=st.tuples(coord, coord), sigma=positive, l=lengthscale)
    def test_rbf_even_in_tau(self, tau, sigma, l):
        t = np.array(tau)
        assert rbf_eval(t, sigma, l) == rbf_eval(-t, sigma, l)

    @given(tau=st.tuples(coord, coord), sigma=positive, l=lengthscale, gamma=angle)
    def test_directed_even_in_tau(self, tau, sigma, l, gamma):
        t = np.array(tau)
        assert directed_eval(t, sigma, l, gamma) == directed_eval(-t, sigma, l, gamma)

    @given(
        tau=st.tuples(coord, coord),
        sigma=positive,
        l=lengthscale,
        gamma=angle,
        c=st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    def test_directed_invariant_along_direction(self, tau, sigma, l, gamma, c):
        t = np.array(tau)
        shifted = t + c * np.array([math.cos(gamma), math.sin(gamma)])
        assert directed_eval(shifted, sigma, l, gamma) == pytest.approx(
            directed_eval(t, sigma, l, gamma), rel=1e-10, abs=1e-12
        )

    @given(theta=random_theta(RBF_RBF), tau=st.tuples(coord, coord))
    def test_rbf_rbf_component_swap_symmetry(self, theta, tau):
        swapped = theta_rbf_rbf(
            theta.values["sigma_r2"],
            theta.values["l_r2"],
            theta.values["sigma_r1"],
            theta.values["l_r1"],
        )
        assert composite_eval(RBF_RBF, theta, tau) == pytest.approx(
            composite_eval(RBF_RBF, swapped, tau), rel=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=20),
        spec=st.sampled_from([RBF_RBF, SUM, RBF_PRODUCT]),
    )
    def test_noise_covariance_positive_semidefinite(self, data, n, spec):
        theta = data.draw(random_theta(spec))
        X = data.draw(
            st.lists(st.tuples(coord, coord), min_size=n, max_size=n, unique=True)
        )
        K = covariance_matrix(spec, theta, np.array(X), include_noise=True)
        assert np.linalg.eigvalsh(K).min() >= -1e-8
