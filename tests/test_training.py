import io
import math

import numpy as np
import pytest
import sympy

from nnsig.data import Dataset, TargetSpec, generate
from nnsig.exceptions import ConfigurationError, DivergenceError, InputError
from nnsig.network import Network, forward_batch, init_glorot, save
from nnsig.training import (
    ArchSpec,
    TrainConfig,
    _batch_gradients,
    fit_least_squares,
    quadratic_loss,
    width_schedule,
)


def zero_net(d):
    return Network((d, 1, 1), (np.zeros((1, d)), np.zeros((1, 1))),
                   (np.zeros(1), np.zeros(1)), "relu")


class TestQuadraticLoss:
    def test_exact_fit_is_zero(self):
        net = zero_net(2)
        X = np.random.default_rng(0).uniform(-1, 1, (10, 2))
        assert quadratic_loss(net, X, np.zeros(10)) == 0.0

    def test_zero_net_arithmetic(self):
        net = zero_net(1)
        assert quadratic_loss(net, np.zeros((2, 1)), np.array([2.0, -2.0])) == pytest.approx(2.0)

    def test_matches_naive_loop(self):
        net = init_glorot((3, 5, 5, 1), "tanh", 12)
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (200, 3))
        y = rng.normal(size=200)
        preds = forward_batch(net, X)
        naive = 0.0
        for i in range(200):
            naive += 0.5 * (y[i] - preds[i]) ** 2
        naive /= 200
        assert quadratic_loss(net, X, y) == pytest.approx(naive, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            quadratic_loss(zero_net(1), np.zeros((3, 1)), np.zeros(2))


class TestWidthSchedule:
    def test_small_n(self):
        assert width_schedule(16) == 2

    def test_n_10000(self):
        assert width_schedule(10000) == 10

    def test_ratio_decreasing(self):
        ratios = [width_schedule(n) / math.sqrt(n) for n in (100, 10_000, 1_000_000)]
        assert ratios[0] > ratios[1] > ratios[2]


class TestBatchGradientOracle:
    def test_one_step_matches_symbolic_chain_rule(self):
        # 1 hidden unit, 1 sample: compare against sympy derivatives
        w1v, b1v, w2v, b2v, xv, yv = 0.6, -0.2, 1.3, 0.4, 0.5, 1.1
        w1s, b1s, w2s, b2s, xs, ys = sympy.symbols("w1 b1 w2 b2 x y")
        f = w2s * sympy.tanh(w1s * xs + b1s) + b2s
        loss = sympy.Rational(1, 2) * (ys - f) ** 2
        subs = {w1s: w1v, b1s: b1v, w2s: w2v, b2s: b2v, xs: xv, ys: yv}
        expected = {
            s: float(sympy.diff(loss, s).subs(subs)) for s in (w1s, b1s, w2s, b2s)
        }

        weights = [np.array([[w1v]]), np.array([[w2v]])]
        biases = [np.array([b1v]), np.array([b2v])]
        pair = lambda z: (np.tanh(z), 1.0 - np.tanh(z) ** 2)
        gw, gb, _ = _batch_gradients(weights, biases, pair,
                                     np.array([[xv]]), np.array([yv]))
        assert gw[0][0, 0] == pytest.approx(expected[w1s], abs=1e-10)
        assert gb[0][0] == pytest.approx(expected[b1s], abs=1e-10)
        assert gw[1][0, 0] == pytest.approx(expected[w2s], abs=1e-10)
        assert gb[1][0] == pytest.approx(expected[b2s], abs=1e-10)


class TestFitLeastSquares:
    def test_pure_noise_risk_near_noise_floor(self):
        spec = TargetSpec(kind="linear", beta=(0.0, 0.0), noise_sigma=0.1)
        ds = generate(spec, 2000, 2, seed=5)
        fitted = fit_least_squares(ds, ArchSpec(), TrainConfig(seed=5))
        # risk should approach half the noise variance; oracle = generated sample
        sample_var = float(np.var(ds.y))
        assert fitted.final_empirical_risk <= 0.5 * sample_var * 1.5
        assert fitted.final_empirical_risk <= 0.0075

    def test_noiseless_linear_target(self):
        spec = TargetSpec(kind="linear", beta=(2.0,), noise_sigma=0.0)
        ds = generate(spec, 1000, 1, seed=6)
        cfg = TrainConfig(seed=6, epochs=800, learning_rate=0.3, lr_decay=0.9995,
                          tolerance=1e-10, early_stop_window=50)
        fitted = fit_least_squares(ds, ArchSpec(activation="tanh"), cfg)
        assert fitted.final_empirical_risk < 1e-3

    def test_constant_target_absorbed_by_bias(self):
        X = np.random.default_rng(7).uniform(-1, 1, (500, 2))
        ds = Dataset(X, np.full(500, 3.0))
        fitted = fit_least_squares(ds, ArchSpec(), TrainConfig(seed=7))
        mean_pred = float(np.mean(forward_batch(fitted.net, X)))
        assert abs(mean_pred - 3.0) < 0.05

    def test_risk_not_worse_than_zero_net(self):
        spec = TargetSpec(kind="linear", beta=(1.0, -1.0), noise_sigma=0.2)
        ds = generate(spec, 600, 2, seed=8)
        fitted = fit_least_squares(ds, ArchSpec(), TrainConfig(seed=8, epochs=100))
        baseline = quadratic_loss(zero_net(2), ds.X, ds.y)
        assert fitted.final_empirical_risk <= baseline + 1e-9

    def test_bit_identical_across_runs(self, tmp_path):
        spec = TargetSpec(kind="linear", beta=(1.0, 0.5), noise_sigma=0.1)
        ds = generate(spec, 400, 2, seed=9)
        cfg = TrainConfig(seed=9, epochs=50)
        blobs = []
        for run in range(2):
            fitted = fit_least_squares(ds, ArchSpec(), cfg)
            path = tmp_path / f"run{run}.nnsig"
            save(fitted.net, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_moment_certificate_recorded(self):
        spec = TargetSpec(kind="linear", beta=(1.0,), noise_sigma=0.1)
        ds = generate(spec, 300, 1, seed=10)
        fitted = fit_least_squares(ds, ArchSpec(), TrainConfig(seed=10, epochs=30))
        assert np.isfinite(fitted.moment.second_moment)

    def test_width_auto_uses_schedule(self):
        spec = TargetSpec(kind="linear", beta=(1.0,), noise_sigma=0.1)
        ds = generate(spec, 2000, 1, seed=11)
        fitted = fit_least_squares(ds, ArchSpec(), TrainConfig(seed=11, epochs=5))
        assert fitted.width_used == width_schedule(2000)
        assert fitted.net.layer_dims == (1, fitted.width_used, fitted.width_used, 1)

    def test_divergence_reports_epoch(self):
        spec = TargetSpec(kind="linear", beta=(1.0, 1.0), noise_sigma=0.1)
        ds = generate(spec, 200, 2, seed=12)
        cfg = TrainConfig(seed=12, epochs=200, learning_rate=1e12, max_grad_norm=1e30)
        with pytest.raises(DivergenceError, match="epoch"):
            fit_least_squares(ds, ArchSpec(activation="relu"), cfg)

    def test_batch_size_exceeds_n(self):
        spec = TargetSpec(kind="linear", beta=(1.0,), noise_sigma=0.1)
        ds = generate(spec, 10, 1, seed=13)
        with pytest.raises(ConfigurationError):
            fit_least_squares(ds, ArchSpec(), TrainConfig(batch_size=64))

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(lr_decay=0.0)
        with pytest.raises(ConfigurationError):
            ArchSpec(depth=0)
