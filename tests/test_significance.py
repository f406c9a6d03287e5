import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnsig.exceptions import ConfigurationError, InputError
from nnsig.network import init_glorot, input_gradient_batch, linear_network
from nnsig.significance import (
    RateConstants,
    StatConfig,
    all_statistics,
    column_statistics,
    empirical_test_statistic,
    normalization_factor,
)

RATE_CFG = StatConfig(
    normalization_mode="rate",
    rate_constants=RateConstants(h_n=10, lipschitz=1.0, depth=2, s_over_d=1.0),
)


class TestEmpiricalStatistic:
    def test_linear_case_identity(self):
        net = linear_network([2.0, 0.0, 1.0])
        X = np.random.default_rng(0).uniform(-1, 1, (137, 3))
        stats = [empirical_test_statistic(net, X, j).raw for j in range(3)]
        assert stats == pytest.approx([4.0, 0.0, 1.0], abs=1e-12)

    def test_disconnected_variable_zero(self):
        net = init_glorot((3, 5, 5, 1), "tanh", 2)
        w1 = net.weights[0].copy()
        w1[:, 1] = 0.0
        from nnsig.network import Network

        net = Network(net.layer_dims, (w1,) + net.weights[1:], net.biases, "tanh")
        X = np.random.default_rng(1).uniform(-1, 1, (50, 3))
        assert empirical_test_statistic(net, X, 1).raw == 0.0

    def test_matches_naive_row_loop(self):
        net = init_glorot((3, 6, 6, 1), "tanh", 5)
        X = np.random.default_rng(2).uniform(-1, 1, (200, 3))
        grads = input_gradient_batch(net, X)
        for j in range(3):
            naive = 0.0
            for i in range(200):
                naive += grads[i, j] ** 2
            naive /= 200
            assert empirical_test_statistic(net, X, j).raw == pytest.approx(naive, abs=1e-12)

    def test_out_of_range_index(self):
        net = init_glorot((3, 4, 1), "tanh", 0)
        X = np.zeros((5, 3))
        with pytest.raises(InputError):
            empirical_test_statistic(net, X, 3)

    def test_permutation_stability(self):
        net = init_glorot((4, 8, 8, 1), "sigmoid", 9)
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (500, 4))
        base = [s.raw for s in all_statistics(net, X)]
        perm = [s.raw for s in all_statistics(net, X[rng.permutation(500)])]
        assert perm == pytest.approx(base, abs=1e-12)

    def test_compensated_sum_matches_longdouble_accumulator(self):
        net = init_glorot((3, 7, 7, 1), "tanh", 4)
        X = np.random.default_rng(4).uniform(-1, 1, (1_000_000, 3))
        grads = input_gradient_batch(net, X)
        got = empirical_test_statistic(net, X, 0).raw
        acc = np.longdouble(0.0)
        col = grads[:, 0].astype(np.longdouble)
        for chunk in np.array_split(col * col, 100):
            acc += chunk.sum(dtype=np.longdouble)
        oracle = float(acc / np.longdouble(len(X)))
        assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))

    @settings(max_examples=25, deadline=None)
    @given(
        beta=st.lists(st.floats(-3, 3), min_size=2, max_size=4),
        seed=st.integers(0, 10_000),
    )
    def test_affine_identity_property(self, beta, seed):
        net = linear_network(beta)
        X = np.random.default_rng(seed).uniform(-1, 1, (30, len(beta)))
        if np.any(X == 0.0):
            return
        for j, b in enumerate(beta):
            stat = empirical_test_statistic(net, X, j)
            assert stat.raw >= 0.0
            assert stat.raw == pytest.approx(b * b, abs=1e-12)


class TestNormalization:
    def test_identity_mode(self):
        assert normalization_factor(StatConfig(), 1) == 1.0
        assert normalization_factor(StatConfig(), 10_000_000) == 1.0

    def test_rate_mode_arithmetic(self):
        # sqrt(10 * 1^2 / sqrt(10000)) + 10^-1 = sqrt(0.1) + 0.1
        u = normalization_factor(RATE_CFG, 10_000)
        assert u == pytest.approx(math.sqrt(0.1) + 0.1, abs=1e-10)
        assert u == pytest.approx(0.41623, abs=5e-6)

    def test_rate_mode_decreasing_in_n(self):
        us = [normalization_factor(RATE_CFG, n) for n in (100, 1000, 10_000, 100_000)]
        assert all(a > b for a, b in zip(us, us[1:]))

    def test_rate_mode_requires_constants(self):
        with pytest.raises(ConfigurationError):
            StatConfig(normalization_mode="rate")

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            StatConfig(normalization_mode="zscore")

    def test_normalized_is_raw_over_u_squared(self):
        net = init_glorot((3, 5, 5, 1), "tanh", 6)
        X = np.random.default_rng(5).uniform(-1, 1, (100, 3))
        stat = empirical_test_statistic(net, X, 0, RATE_CFG)
        u = normalization_factor(RATE_CFG, 100)
        assert stat.normalized == pytest.approx(stat.raw / u ** 2, rel=1e-15)


class TestAllStatistics:
    def test_matches_separate_calls_bitwise(self):
        net = init_glorot((3, 6, 6, 1), "sigmoid", 7)
        X = np.random.default_rng(6).uniform(-1, 1, (80, 3))
        batch = all_statistics(net, X)
        for j in range(3):
            single = empirical_test_statistic(net, X, j)
            assert batch[j].raw == single.raw
            assert batch[j].normalized == single.normalized

    def test_column_statistics_are_fsum_means(self):
        grads = np.random.default_rng(8).normal(size=(50, 3)) * [1e-8, 1.0, 1e8]
        u = 1.7
        for j, (raw, normalized) in enumerate(column_statistics(grads, u)):
            assert raw == math.fsum(g * g for g in grads[:, j].tolist()) / 50
            assert normalized == raw / (u * u)

    def test_linear_vector(self):
        net = linear_network([2.0, 0.0, 1.0])
        X = np.random.default_rng(7).uniform(-1, 1, (64, 3))
        assert [s.raw for s in all_statistics(net, X)] == pytest.approx(
            [4.0, 0.0, 1.0], abs=1e-12
        )

    def test_empty_input(self):
        net = init_glorot((2, 3, 1), "relu", 0)
        with pytest.raises(InputError):
            all_statistics(net, np.empty((0, 2)))
