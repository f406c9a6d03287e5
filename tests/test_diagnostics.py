import itertools
import math
import re
import reprlib
import warnings

import numpy as np
import pytest

from nnsig.data import TargetSpec
from nnsig.diagnostics import (
    RademacherEstimate,
    complexity_scaling_experiment,
    estimate_rademacher,
    loglog_slope,
)
from nnsig.exceptions import ConfigurationError, NumericalError
from nnsig.network import Network, init_glorot, sample_networks
from nnsig.seeding import generator
from nnsig.training import TrainConfig


def constant_fn(c):
    return lambda X: np.full(len(X), c)


def exact_mean_abs_rademacher(n):
    """E|(1/n) sum eps_i| by enumeration over all sign vectors (n <= 20)."""
    total = 0.0
    for k in range(n + 1):
        s = abs(2 * k - n) / n
        total += math.comb(n, k) * s
    return total / 2 ** n


class TestEstimateRademacher:
    def test_zero_function_class(self):
        X = np.random.default_rng(0).uniform(-1, 1, (30, 2))
        est = estimate_rademacher(lambda c, s: [constant_fn(0.0)], X, 50, 1, seed=1)
        assert est.value == 0.0

    def test_singleton_constant_matches_enumeration(self):
        n = 16
        X = np.zeros((n, 1))
        est = estimate_rademacher(lambda c, s: [constant_fn(1.0)], X, 4000, 1, seed=2)
        exact = exact_mean_abs_rademacher(n)
        assert abs(est.value - exact) <= 3 * est.std_error

    def test_singleton_matches_asymptotic_formula(self):
        n = 1000
        X = np.zeros((n, 1))
        est = estimate_rademacher(lambda c, s: [constant_fn(1.0)], X, 3000, 1, seed=3)
        assert abs(est.value - math.sqrt(2 / (math.pi * n))) <= 3 * est.std_error

    @pytest.mark.parametrize("n_eps", [2 ** 62, int(1e308)], ids=["2**62", "1e308"])
    def test_signs_no_array_holds_before_sampling(self, n_eps):
        def no_sampling(count, seed):
            raise AssertionError("class sampled before the signs were tried")

        size = re.escape(reprlib.repr(n_eps))  # int(1e308)'s 309 digits abbreviated
        with pytest.raises(MemoryError, match=f"^n_eps = {size} Rademacher draws of n = 30"):
            estimate_rademacher(no_sampling, np.zeros((30, 2)), n_eps, 2, seed=1)

    def test_class_no_array_holds_before_sampling(self):
        def no_sampling(count, seed):
            raise AssertionError("class sampled before its outputs were tried")

        with pytest.raises(MemoryError, match=f"^n_class = {2 ** 62} networks of n = 30 outputs"):
            estimate_rademacher(no_sampling, np.zeros((30, 2)), 5, 2 ** 62, seed=1)

    def test_quadruple_n_halves_estimate(self):
        sampler = lambda count, seed: sample_networks(count, (3, 6, 6, 1), "sigmoid", seed)
        rng = np.random.default_rng(4)
        n = 400
        est_n = estimate_rademacher(sampler, rng.uniform(-1, 1, (n, 3)), 300, 30, seed=5)
        est_4n = estimate_rademacher(sampler, rng.uniform(-1, 1, (4 * n, 3)), 300, 30, seed=5)
        ratio = est_n.value / est_4n.value
        assert 1.6 <= ratio <= 2.5

    def test_monotone_in_class_under_shared_eps(self):
        X = np.random.default_rng(6).uniform(-1, 1, (100, 3))
        nets = [init_glorot((3, 5, 5, 1), "tanh", k) for k in range(20)]
        values = []
        for count in (5, 10, 20):
            # same seed -> same Rademacher draws; class grows by inclusion
            est = estimate_rademacher(lambda c, s, nets=nets: nets[:c], X, 200, count, seed=7)
            values.append(est.value)
        assert values[0] <= values[1] <= values[2]

    def test_single_function_equals_direct_formula(self):
        X = np.random.default_rng(8).uniform(-1, 1, (50, 2))
        net = init_glorot((2, 4, 1), "tanh", 9)
        est = estimate_rademacher(lambda c, s: [net], X, 40, 1, seed=10)

        from nnsig.network import forward_batch

        ss = np.random.SeedSequence(10).spawn(2)[1]
        rng = np.random.Generator(np.random.PCG64(ss))
        eps = rng.choice(np.array([-1.0, 1.0]), size=(40, 50))
        direct = np.abs(eps @ forward_batch(net, X) / 50).mean()
        assert abs(est.value - direct) <= 1e-12

    def test_invalid_counts(self):
        with pytest.raises(ConfigurationError):
            estimate_rademacher(lambda c, s: [], np.zeros((5, 1)), 0, 1, seed=0)


class TestLogLogSlope:
    def test_exact_power_law(self):
        x = [10, 100, 1000, 10000]
        y = [3.0 * v ** -0.5 for v in x]
        slope, stderr = loglog_slope(x, y)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, math.inf, math.nan])
    def test_error_without_a_logarithm_is_named(self, bad):
        # a zero estimate once gave a NaN slope after numpy's RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=re.escape(f"error at x = 20 is {bad!r}")):
                loglog_slope([10, 20, 40], [0.5, bad, 0.2])

    def test_needs_three_points(self):
        with pytest.raises(ConfigurationError):
            loglog_slope([1, 2], [1.0, 2.0])


class TestComplexityScaling:
    def test_slope_near_inverse_sqrt(self):
        report = complexity_scaling_experiment((3, 8, 8, 1), [250, 1000, 4000], seed=12)
        assert -0.7 <= report.log_log_slope <= -0.3

    def test_reproducible(self):
        a = complexity_scaling_experiment((2, 4, 1), [100, 200, 400], seed=13, n_eps=50, n_class=10)
        b = complexity_scaling_experiment((2, 4, 1), [100, 200, 400], seed=13, n_eps=50, n_class=10)
        assert a.errors == b.errors

    def test_pinned_estimates(self):
        # the values of the class resampled for every n, which the one
        # sampled class reproduces bit for bit
        report = complexity_scaling_experiment((3, 6, 6, 1), [50, 100, 200], seed=5,
                                               n_eps=50, n_class=7)
        assert repr(report.errors) == (
            "[0.1554067754204889, 0.10353371803217763, 0.07853816306596433]")
        assert repr(report.log_log_slope) == "-0.49229182173528085"
        assert repr(report.slope_stderr) == "0.05407283200696315"

    def test_estimates_are_estimate_rademacher(self):
        # one class sampled once, its estimate at each n taken from
        # estimate_rademacher on that n's covariates
        layer_dims, n_list = (2, 5, 1), [30, 60, 120]
        report = complexity_scaling_experiment(layer_dims, n_list, seed=9, n_eps=20,
                                               n_class=4, activation="tanh")
        sampler = lambda count, seed: sample_networks(count, layer_dims, "tanh", seed)
        for i, (n, error) in enumerate(zip(n_list, report.errors)):
            X = generator(9, 2, i).uniform(-1.0, 1.0, (n, 2))
            assert estimate_rademacher(sampler, X, 20, 4, seed=9).value == error

    def test_monotone_n_list_required(self):
        with pytest.raises(ConfigurationError):
            complexity_scaling_experiment((2, 4, 1), [100, 100, 400], seed=0)
