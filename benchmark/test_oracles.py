"""Tests of the benchmark's own oracles and generators.

Run from the repository root: ``python3 -m pytest -q benchmark``.
The analytic kernel values are the ones the package's acceptance suite
checks in ``test_criterion_analytic_kernel_and_ei_suite``.
"""

import math

import numpy as np
import pytest

import generate
import oracle

TOL = 1e-12
E = math.exp(-1)


def rr(s1, l1, s2, l2):
    return {"sigma_r1": s1, "l_r1": l1, "sigma_r2": s2, "l_r2": l2}


def at(family, theta, gamma, tau):
    return float(oracle.covariance(family, theta, gamma, np.array([tau], dtype=float),
                                   np.zeros((1, 2)))[0, 0])


def test_kernel_formulas_match_analytic_values():
    assert oracle.rbf((0, 0), 3, 1) == pytest.approx(9.0, abs=TOL)
    assert oracle.rbf((1, 0), 1, 1) == pytest.approx(E, abs=TOL)
    assert oracle.rbf((2, 0), 2, 2) == pytest.approx(4 * E, abs=TOL)
    assert oracle.directed((5, 0), 1, 1, 0.0) == pytest.approx(1.0, abs=TOL)
    assert oracle.directed((5, 0), 1, 5, math.pi / 2) == pytest.approx(E, abs=TOL)
    assert oracle.directed((1, 1), 2, 1, math.pi / 4) == pytest.approx(4.0, abs=TOL)
    assert at("rbf_rbf", rr(1, 1, 2, 10), None, (0, 0)) == pytest.approx(5.0, abs=TOL)
    unit_sum = {"sigma_r1": 1, "l_r1": 1, "sigma_w2": 1, "l_w2": 1}
    assert at("sum", unit_sum, 0.0, (0, 0)) == pytest.approx(2.0, abs=TOL)


def test_covariance_is_the_sum_of_its_terms():
    theta = {"sigma_r1": 1.3, "l_r1": 4.0, "sigma_w2": 0.7, "l_w2": 2.0}
    gamma = 0.9
    for tau in [(1.0, 2.0), (-3.0, 0.5), (0.0, -4.0)]:
        want = oracle.rbf(tau, 1.3, 4.0) + oracle.directed(tau, 0.7, 2.0, gamma)
        assert at("sum", theta, gamma, tau) == pytest.approx(want, rel=1e-14)
    X = np.random.default_rng(0).uniform(0, 30, size=(8, 2))
    K = oracle.covariance("rbf_rbf", rr(1.2, 2.0, 0.8, 9.0), None, X, X)
    np.testing.assert_allclose(K, K.T, rtol=0, atol=1e-15)


def test_ei_closed_forms():
    assert oracle.expected_improvement(0.0, 1.0, 0.0) == pytest.approx(
        1 / math.sqrt(2 * math.pi), abs=TOL)
    assert oracle.expected_improvement(1.0, 0.0, 2.0) == 0.0
    phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
    Phi1 = 0.5 * (1 + math.erf(1 / math.sqrt(2)))
    assert oracle.expected_improvement(1.0, 1.0, 0.0) == pytest.approx(Phi1 + phi1, abs=TOL)
    # variance at the noise clamp counts as none: EI is the plain improvement
    assert oracle.expected_improvement(3.0, oracle.NOISE_VARIANCE, 1.0) == 2.0
    # EI of N(m, s^2) over f equals s * EI of N(0, 1) over (f - m) / s
    assert oracle.expected_improvement(0.5, 4.0, 1.5) == pytest.approx(
        2.0 * oracle.expected_improvement(0.0, 1.0, 0.5), abs=TOL)


def test_weighted_ei_reduces_to_one_sample_and_to_the_prior_far_away():
    theta = rr(1.0, 1.5, 1.0, 5.0)
    X = np.array([[0.0, 0.0], [3.0, 0.0]])
    y = np.array([0.4, 1.1])
    C = np.array([[1.5, 0.5], [900.0, 900.0]])
    one = oracle.weighted_ei("rbf_rbf", [(theta, None)], X, y, C)
    three = oracle.weighted_ei("rbf_rbf", [(theta, None)] * 3, X, y, C)
    np.testing.assert_allclose(three, one, rtol=1e-14)
    # far from every observation the posterior is the prior N(0, 2)
    assert one[1] == pytest.approx(oracle.expected_improvement(0.0, 2.0, 1.1), abs=1e-12)
    # one observation: mean k/(k0 + noise) * y at the candidate, by hand
    k0 = 2.0
    k = oracle.rbf((1.0, 0.0), 1.0, 1.5) + oracle.rbf((1.0, 0.0), 1.0, 5.0)
    mean = k / (k0 + oracle.NOISE_VARIANCE) * 0.4
    var = k0 - k * k / (k0 + oracle.NOISE_VARIANCE)
    got = oracle.weighted_ei("rbf_rbf", [(theta, None)], X[:1], y[:1], np.array([[1.0, 0.0]]))
    assert got[0] == pytest.approx(oracle.expected_improvement(mean, var, 0.4), rel=1e-10)


def test_weighted_ei_weights_follow_the_likelihood():
    good = rr(1.0, 5.0, 0.1, 1.0)
    bad = rr(0.01, 0.1, 0.01, 0.1)  # nearly no prior variance: tiny likelihood of y
    X = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    y = np.array([0.5, 0.9, 0.3])
    C = np.array([[1.0, 1.0], [3.0, -1.0]])
    mixed = oracle.weighted_ei("rbf_rbf", [(good, None), (bad, None)], X, y, C)
    alone = oracle.weighted_ei("rbf_rbf", [(good, None)], X, y, C)
    np.testing.assert_allclose(mixed, alone, rtol=1e-9)


def test_log_standardise_uses_tuning_statistics_only():
    tuning = [np.array([1.0, math.e, math.nan]), np.array([math.e**2])]
    test = [np.array([math.e**3])]
    mean, sd, pre = oracle.log_standardise(tuning, tuning + test)
    assert mean == pytest.approx(1.0, abs=TOL)
    assert sd == pytest.approx(1.0, abs=TOL)
    np.testing.assert_allclose(pre[0], [-1.0, 0.0, math.nan], atol=TOL)
    np.testing.assert_allclose(pre[2], [2.0], atol=TOL)


def test_best_so_far_curves():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    ratio, _ = oracle.best_so_far_curves(np.array([1.0, 2.0, 4.0]), pts, 4.0, pts[2])
    np.testing.assert_allclose(ratio, [0.25, 0.5, 1.0])
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    _, dist = oracle.best_so_far_curves(np.array([1.0, 9.0]), pts, 9.0, pts[1])
    np.testing.assert_allclose(dist, [5.0, 0.0])
    # ties keep the first occurrence
    _, dist = oracle.best_so_far_curves(np.array([2.0, 2.0]), pts, 2.0, pts[0])
    np.testing.assert_allclose(dist, [0.0, 0.0])


@pytest.mark.parametrize("make", [
    lambda s: generate.grid_inputs(s, 10, 3),
    lambda s: generate.station_inputs(s, 10, 4),
])
def test_generators_repeat_for_a_seed_and_differ_across_seeds(make):
    a, b, c = make(5), make(5), make(6)
    assert a.csv_text == b.csv_text
    assert a.csv_text != c.csv_text
    for x, y in zip(a.tuning + a.test, b.tuning + b.test):
        assert x.id == y.id
        np.testing.assert_array_equal(x.points, y.points)
        np.testing.assert_array_equal(x.readings, y.readings)


def test_grid_sizes_do_not_depend_on_the_seed():
    for seed in (1, 2, 3):
        inputs = generate.grid_inputs(seed, 10, 3)
        assert len(inputs.tuning) == 10 and len(inputs.test) == 3
        assert len(inputs.excluded) == 1
        for r in inputs.tuning + inputs.test:
            assert int(np.isnan(r.readings).sum()) == generate.GRID_BLANK
        rows = inputs.csv_text.splitlines()[1:]
        blanks = sum(1 for line in rows if line.startswith(inputs.excluded[0] + ",")
                     and line.endswith(","))
        assert blanks == generate.GRID_BLANK_EXCLUDED


def test_station_days_and_rows():
    inputs = generate.station_inputs(4, 10, 4)
    assert len(inputs.tuning) == 10 and len(inputs.test) == 4 and len(inputs.excluded) == 2
    rows = [line.split(",") for line in inputs.csv_text.splitlines()[1:]]
    for day in inputs.excluded:
        roadside = [r for r in rows if r[0] == day and r[4] == "Roadside"]
        assert len(roadside) < generate.STATION_MIN_READINGS < len(
            [r for r in rows if r[0] == day])
    for r in inputs.tuning + inputs.test:
        assert len(r.readings) == generate.STATION_PER_DAY
        roadside = [x for x in rows if x[0] == r.id and x[4] == "Roadside"]
        assert len(roadside) == generate.STATION_PER_DAY + generate.STATION_DUPLICATES
    assert {r[4] for r in rows} == {"Roadside", *generate.OTHER_CLASSES}
