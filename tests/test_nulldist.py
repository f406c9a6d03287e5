import math
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnsig.data import TargetSpec, generate
from nnsig.exceptions import ConfigurationError, InputError, NumericalError
import nnsig.nulldist
import nnsig.significance
from nnsig.network import Network, glorot_sigma, init_glorot, input_gradient_batch, second_moment
from nnsig.nulldist import (
    CovMatrix,
    NullConfig,
    _select,
    build_null,
    cholesky_with_jitter,
    empirical_covariance,
    p_value_from_null,
    sample_networks,
    shrink,
    significance_test,
    significance_tests,
)
from nnsig.seeding import generator
from nnsig.significance import all_statistics
from nnsig.training import ArchSpec, FittedModel, TrainConfig, fit_least_squares


def constant_net(d, c):
    return Network((d, 1, 1), (np.zeros((1, d)), np.zeros((1, 1))),
                   (np.zeros(1), np.array([float(c)])), "relu")


@pytest.fixture(scope="module")
def small_fitted():
    spec = TargetSpec(kind="linear", beta=(1.0, 0.0), noise_sigma=0.1)
    ds = generate(spec, 400, 2, seed=31)
    fitted = fit_least_squares(ds, ArchSpec(width=5), TrainConfig(seed=31, epochs=60))
    return fitted, ds


class TestSampleNetworks:
    def test_deterministic(self):
        a = sample_networks(2, (3, 5, 1), "tanh", 7)
        b = sample_networks(2, (3, 5, 1), "tanh", 7)
        for na, nb in zip(a, b):
            for wa, wb in zip(na.weights, nb.weights):
                assert np.array_equal(wa, wb)

    def test_truncation_holds(self):
        nets = sample_networks(10, (3, 6, 6, 1), "sigmoid", 3)
        bound = 2 * glorot_sigma(3)
        for f in nets:
            for w in f.weights:
                assert np.abs(w).max() <= bound

    def test_architecture_matches(self):
        nets = sample_networks(5, (4, 7, 7, 1), "relu", 1)
        assert all(f.layer_dims == (4, 7, 7, 1) for f in nets)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    @pytest.mark.parametrize("m", [1, 7])
    def test_network_k_is_init_glorot_of_stream_0_k(self, activation, m):
        # wide enough that truncation redraws weights in every layer: about 8
        # of the first layer's 180 and 170 of the second's 3600
        dims = (3, 60, 60, 1)
        nets = sample_networks(m, dims, activation, 2 ** 70 + 5)
        assert len(nets) == m
        for k, net in enumerate(nets):
            want = init_glorot(dims, activation, 2 ** 70 + 5, 0, k)
            assert net.activation == activation and net.layer_dims == dims
            for a, b in zip(net.weights + net.biases, want.weights + want.biases):
                assert a.tobytes() == b.tobytes()
            plain = generator(2 ** 70 + 5, 0, k).normal(0.0, glorot_sigma(3), (60, 3))
            assert not np.array_equal(net.weights[0], plain)

    def test_growth_appends_without_changing_prefix(self):
        base = sample_networks(4, (3, 5, 1), "tanh", 9)
        again = sample_networks(6, (3, 5, 1), "tanh", 9)
        assert len(again) == 6
        for fa, fb in zip(base, again):
            for wa, wb in zip(fa.weights, fb.weights):
                assert np.array_equal(wa, wb)


class TestEmpiricalCovariance:
    def test_constant_nets(self):
        X = np.random.default_rng(0).uniform(-1, 1, (37, 2))
        cov = empirical_covariance([constant_net(2, 1.0), constant_net(2, 2.0)], X)
        assert cov.entries == pytest.approx(np.array([[1.0, 2.0], [2.0, 4.0]]), abs=1e-14)

    def test_negated_pair(self):
        f1 = init_glorot((2, 4, 1), "tanh", 5)
        neg_out = -f1.weights[-1]
        f2 = Network(f1.layer_dims, f1.weights[:-1] + (neg_out,),
                     f1.biases, "tanh")
        X = np.random.default_rng(1).uniform(-1, 1, (50, 2))
        cov = empirical_covariance([f1, f2], X).entries
        a = cov[0, 0]
        assert cov == pytest.approx(np.array([[a, -a], [-a, a]]), abs=1e-14)

    def test_gram_psd_and_symmetric(self):
        X = np.random.default_rng(2).uniform(-1, 1, (100, 3))
        nets = sample_networks(20, (3, 5, 5, 1), "sigmoid", 11)
        cov = empirical_covariance(nets, X).entries
        assert np.abs(cov - cov.T).max() <= 1e-12
        assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_quadratic_form_nonnegative(self):
        X = np.random.default_rng(3).uniform(-1, 1, (60, 3))
        nets = sample_networks(10, (3, 4, 1), "tanh", 13)
        cov = empirical_covariance(nets, X).entries
        rng = np.random.default_rng(4)
        for _ in range(200):
            z = rng.normal(size=10)
            assert z @ cov @ z >= -1e-10


class TestShrink:
    def test_lambda_zero_unchanged(self):
        cov = CovMatrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert np.array_equal(shrink(cov, 0.0).entries, cov.entries)

    def test_lambda_one_diagonal(self):
        cov = CovMatrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert np.array_equal(shrink(cov, 1.0).entries, np.diag([1.0, 4.0]))

    def test_half_shrink_arithmetic(self):
        cov = CovMatrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert np.array_equal(shrink(cov, 0.5).entries, np.array([[1.0, 1.0], [1.0, 4.0]]))

    @settings(max_examples=30, deadline=None)
    @given(lam=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
    def test_diagonal_fixed_offdiag_contracted(self, lam, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 6))
        cov = CovMatrix(a @ a.T)
        out = shrink(cov, lam).entries
        assert np.array_equal(np.diag(out), np.diag(cov.entries))
        off = ~np.eye(4, dtype=bool)
        assert out[off] == pytest.approx((1 - lam) * cov.entries[off], rel=1e-15, abs=1e-300)
        assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_out_of_range(self):
        cov = CovMatrix(np.eye(2))
        with pytest.raises(ConfigurationError):
            shrink(cov, 1.5)


class TestCholeskyWithJitter:
    def test_identity(self):
        out = cholesky_with_jitter(CovMatrix(np.eye(3)))
        assert np.array_equal(out.chol_factor, np.eye(3))
        assert out.jitter_used == 0.0

    def test_diagonal(self):
        out = cholesky_with_jitter(CovMatrix(np.diag([4.0, 9.0])))
        assert np.array_equal(out.chol_factor, np.diag([2.0, 3.0]))

    def test_rank_one_gram_needs_jitter(self):
        X = np.random.default_rng(6).uniform(-1, 1, (30, 2))
        nets = [constant_net(2, 1.0), constant_net(2, 2.0), constant_net(2, -1.0)]
        cov = empirical_covariance(nets, X)
        out = cholesky_with_jitter(cov)
        assert out.jitter_used > 0.0
        recon = out.chol_factor @ out.chol_factor.T
        target = cov.entries + out.jitter_used * np.eye(3)
        assert np.abs(recon - target).max() <= 1e-8

    def test_hopeless_matrix_raises(self):
        bad = CovMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
        with pytest.raises(NumericalError, match="shrink"):
            cholesky_with_jitter(bad)


def seeded_draw(seed, t, m):
    return generator(seed, 1, t).standard_normal(m)


class TestNullSample:
    def test_index_is_argmax_of_seeded_draw(self):
        chol = np.linalg.cholesky(np.eye(6) + 0.3)
        idx = _select(chol, 21, 50)[0]
        for t, k in enumerate(idx):
            assert k == np.argmax(chol @ seeded_draw(21, t, 6))

    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(2, 40), factor_seed=st.integers(0, 1000),
           seed=st.integers(0, 2 ** 64), n_p=st.sampled_from((1, 255, 257, 600)))
    def test_block_products_match_per_draw_argmax(self, m, factor_seed, seed, n_p):
        rng = np.random.default_rng(factor_seed)
        a = rng.normal(size=(m, m)) + rng.normal(size=(1, m))  # shared part: correlated rows
        chol = np.linalg.cholesky(a @ a.T / m + 1e-6 * np.eye(m))
        idx = _select(chol, seed, n_p)[0]
        assert idx.shape == (n_p,)
        for t, k in enumerate(idx):
            assert k == np.argmax(chol @ seeded_draw(seed, t, m))

    def test_identical_rows_rechecked_and_tie_goes_to_lower_index(self):
        a = np.random.default_rng(4).normal(size=(8, 10))
        chol = np.linalg.cholesky(a @ a.T / 10)
        chol[5] = chol[4]  # row 4 is zero beyond column 4, so chol stays lower-triangular
        idx, rechecked = _select(chol, 4, 2000)
        assert rechecked > 0
        ties = 0
        for t, k in enumerate(idx):
            v = chol @ seeded_draw(4, t, 8)
            assert k == np.argmax(v)
            if v[4] == v[5] == v.max():
                ties += 1
                assert k == 4
        assert ties > 0

    @pytest.mark.parametrize("fail_at", [256, 300, 599])
    def test_draw_error_in_a_later_block_reaches_the_caller(self, monkeypatch, fail_at):
        real = nnsig.nulldist.generators
        advanced = []

        def failing(seed, head, start, count):
            for t, rng in enumerate(real(seed, head, start, count)):
                advanced.append((threading.get_ident(), t))
                if t == fail_at:
                    raise MemoryError(f"draw {t}")
                yield rng

        monkeypatch.setattr(nnsig.nulldist, "generators", failing)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match=f"draw {fail_at}"):
            _select(np.linalg.cholesky(np.eye(9) + 0.4), 6, 600)
        assert threading.active_count() == threads
        # only the helper thread draws, in order, and never past the failing draw
        assert [t for _, t in advanced] == list(range(fail_at + 1))
        assert threading.get_ident() not in {ident for ident, _ in advanced}

    @pytest.mark.parametrize("n_p", [1, 256, 600])
    def test_no_thread_outlives_the_call(self, n_p):
        threads = threading.active_count()
        chol = np.linalg.cholesky(np.eye(5) + 0.2)
        _select(chol, 2, n_p)
        assert threading.active_count() == threads

    def test_prefix_does_not_depend_on_n_p(self):
        chol = np.linalg.cholesky(np.eye(7) + 0.5)
        assert np.array_equal(_select(chol, 5, 600)[0][:300],
                              _select(chol, 5, 300)[0])

    def test_argmax_invariance_shift_and_scale(self):
        rng = np.random.default_rng(8)
        chol = np.linalg.cholesky(np.eye(4) + 0.1)
        g = rng.standard_normal(4)
        z = chol @ g
        assert np.argmax(z) == np.argmax(z + 3.7)
        assert np.argmax(z) == np.argmax(2.5 * z)

    def test_identity_covariance_selection_uniform(self):
        m = 5
        counts = np.bincount(_select(np.eye(m), 9, 10_000)[0], minlength=m)
        expected = 10_000 / m
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 13.2767  # chi-square 99th percentile, 4 dof


def float32_bound(chol):
    """Half the float32 pass's margin per unit of |g|: 2 (e32 + gamma_m) R,
    the most the float32 and float64 values of a coordinate may differ by."""
    m, u, u64 = len(chol), 2.0 ** -24, 2.0 ** -53
    e32 = m * u / (1 - m * u) * (1 + u) ** 2 + 2 * u + u * u
    return 2 * (e32 + m * u64 / (1 - m * u64)) * np.linalg.norm(chol, axis=1).max()


class ConstantDraws:
    """Stands in for ``seeding.generators``: every draw is the row ``g``."""

    def __init__(self, g):
        self.g = g

    def __call__(self, seed, head, start, count):
        return (self for _ in range(count))

    def standard_normal(self, out):
        out[:] = self.g


class TestFloat32Pass:
    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(2, 600), factor_seed=st.integers(0, 1000), seed=st.integers(0, 2 ** 64),
           n_p=st.sampled_from((1, 2, 255, 256, 257, 513)),
           rows=st.lists(st.tuples(st.sampled_from(("up", "down", "repeat", "last_bits")),
                                   st.integers(0, 599), st.integers(0, 599)), max_size=4))
    def test_index_is_per_draw_argmax_at_any_scale(self, m, factor_seed, seed, n_p, rows):
        # rows scaled by 2**130 or 2**-130 put the others or themselves below
        # the float32 normal range once the factor is scaled; a repeated row
        # makes exact ties, and one that differs in its last float32 bits makes
        # near-ties that the float32 pass cannot see
        rng = np.random.default_rng(factor_seed)
        a = rng.normal(size=(m, m)) + rng.normal(size=(1, m))
        chol = np.linalg.cholesky(a @ a.T / m + 1e-6 * np.eye(m))
        for how, i, j in rows:
            i, j = i % m, j % m
            if how == "up":
                chol[i] *= 2.0 ** 130
            elif how == "down":
                chol[i] *= 2.0 ** -130
            elif how == "repeat":
                chol[i] = chol[j]
            else:
                chol[i] = chol[j] * (1 + rng.uniform(-2, 2, m) * 2.0 ** -24)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            counts = {}
            idx, rechecked = _select(chol, seed, n_p, counts)
        assert idx.shape == (n_p,)
        assert 0 <= rechecked <= counts["float64_draws"] <= n_p
        for t, k in enumerate(idx):
            assert k == np.argmax(chol @ seeded_draw(seed, t, m))

    @pytest.mark.parametrize("m", [2, 6, 40])
    def test_no_draw_within_the_bound_is_certified_in_float32(self, m):
        # two rows that differ in their last float32 bits lead most draws by a
        # gap of the order of the float32 rounding: each draw whose float64
        # gap is within the bound must be handed to float64
        rng = np.random.default_rng(m)
        chol = np.linalg.cholesky(np.eye(m) + 0.2)
        chol[:, 0] *= 4.0  # rows 0 and 1 lead on most draws
        chol[1] = chol[0] * (1 + rng.uniform(-4, 4, m) * 2.0 ** -24)
        n_p, within = 2000, 0
        counts = {}
        idx, _ = _select(chol, 12, n_p, counts)
        bound = float32_bound(chol)
        for t, k in enumerate(idx):
            g = seeded_draw(12, t, m)
            v = chol @ g
            assert k == np.argmax(v)
            second = np.partition(v, -2)[-2]
            within += v.max() - second <= 0.99 * bound * np.linalg.norm(g)
        assert within >= n_p // 5
        assert counts["float64_draws"] >= within

    def test_a_float32_overflow_is_not_certified(self, monkeypatch):
        # a draw near the float32 range: row 0's first two products overflow a
        # float32 partial sum that its third would bring back, so the float32
        # pass sees +inf where row 1 leads
        g = np.full(3, 1.99 * 2.0 ** 127)
        chol = np.array([[0.57, 0.57, -0.57], [0.6, 0.0, 0.0], [0.0, 0.0, 0.1]])
        monkeypatch.setattr(nnsig.nulldist, "generators", ConstantDraws(g))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            counts = {}
            idx, rechecked = _select(chol, 0, 3, counts)
        assert idx.tolist() == [1, 1, 1] == [np.argmax(chol @ g)] * 3
        assert counts["float64_draws"] == 3 and rechecked == 0

    def test_build_null_reports_the_float64_draws(self, small_fitted):
        fitted, ds = small_fitted
        cfg = NullConfig(m=40, n_p=600, seed=9)
        null = build_null(fitted, ds.X, cfg)
        nets = sample_networks(cfg.m, fitted.net.layer_dims, fitted.net.activation, cfg.seed)
        chol = cholesky_with_jitter(empirical_covariance(nets, ds.X)).chol_factor
        counts = {}
        idx, rechecked = _select(chol, cfg.seed, cfg.n_p, counts)
        assert np.array_equal(null.idx, idx)
        assert (null.float64_draws, null.rechecked_draws) == (counts["float64_draws"], rechecked)


class TestPValue:
    def test_observed_zero_gives_one(self):
        assert p_value_from_null(0.0, [0.0, 0.1, 0.5]) == 1.0

    def test_observed_above_max(self):
        assert p_value_from_null(10.0, [0.1] * 499) == pytest.approx(1 / 500)

    def test_monotone_in_observed(self):
        nulls = list(np.random.default_rng(10).uniform(0, 1, 100))
        ps = [p_value_from_null(o, nulls) for o in np.linspace(0, 2, 50)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_in_unit_interval(self):
        assert 0 < p_value_from_null(0.5, [0.4, 0.6]) <= 1

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.sampled_from((0.0, -0.0, 1.0, 2.5, 1e-300, math.inf))
                           | st.floats(allow_nan=True), min_size=1, max_size=40),
           pick=st.integers(0, 39), observed=st.floats(allow_nan=True))
    def test_count_is_the_loop_count(self, values, pick, observed):
        # ties with the observed value, -0.0 against 0.0 and one-sample nulls
        for obs in (observed, values[pick % len(values)], -values[pick % len(values)]):
            want = (1 + sum(1 for v in values if v >= obs)) / (len(values) + 1)
            got = p_value_from_null(obs, values)
            assert type(got) is float and got == want


class TestNullDistribution:
    def test_all_samples_nonnegative(self, small_fitted):
        fitted, ds = small_fitted
        null = build_null(fitted, ds.X, NullConfig(m=10, n_p=50, seed=3))
        assert all(v >= 0 for v in null.samples(0))

    def test_samples_are_selected_statistics(self, small_fitted):
        fitted, ds = small_fitted
        cfg = NullConfig(m=10, n_p=40, seed=5)
        null = build_null(fitted, ds.X, cfg)
        nets = sample_networks(cfg.m, fitted.net.layer_dims, fitted.net.activation, cfg.seed)
        cov = cholesky_with_jitter(empirical_covariance(nets, ds.X))
        assert np.array_equal(null.idx, _select(cov.chol_factor, cfg.seed, cfg.n_p)[0])
        assert null.samples(0) == [all_statistics(nets[k], ds.X)[0].normalized
                                   for k in null.idx]

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_statistics_are_fsum_means_across_blocks(self, activation, monkeypatch):
        X = np.random.default_rng(41).uniform(-1, 1, (257, 3))
        net = init_glorot((3, 6, 6, 1), activation, 42)
        fitted = FittedModel(net, [], 0.0, second_moment(net, X))
        # three networks per exact_column_sums call, so at least three calls
        monkeypatch.setattr(nnsig.significance, "_SUM_BLOCK", 3 * X.size)
        real, blocks = nnsig.significance.exact_column_sums, []

        def counting(squares):
            blocks.append(squares.shape[1] // X.shape[1])
            return real(squares)

        monkeypatch.setattr(nnsig.significance, "exact_column_sums", counting)
        cfg = NullConfig(m=16, n_p=100, seed=43)
        null = build_null(fitted, X, cfg)
        selected = set(null.idx.tolist())
        assert 7 <= len(selected) == null.distinct_selected < cfg.m
        assert len(blocks) >= 3 and sum(blocks) == len(selected) and max(blocks) == 3
        nets = sample_networks(cfg.m, net.layer_dims, activation, cfg.seed)
        for k, f in enumerate(nets):
            if k in selected:
                g = input_gradient_batch(f, X)
                want = [math.fsum(col) / len(X) for col in (g * g).T.tolist()]
                assert null.stats[k].tolist() == want
            else:
                assert np.isnan(null.stats[k]).all()
        assert null.fsum_fallbacks == 0

    def test_gradients_only_for_selected_networks(self, small_fitted, monkeypatch):
        fitted, ds = small_fitted
        real, differentiated = nnsig.significance.input_gradient_batch, []

        def counting(net, X):
            differentiated.append(net)
            return real(net, X)

        monkeypatch.setattr(nnsig.significance, "input_gradient_batch", counting)
        cfg = NullConfig(m=30, n_p=40, seed=7)
        null = build_null(fitted, ds.X, cfg)
        assert len(differentiated) == null.distinct_selected < cfg.m
        nets = sample_networks(cfg.m, fitted.net.layer_dims, fitted.net.activation, cfg.seed)
        for f, k in zip(differentiated, np.unique(null.idx)):
            for a, b in zip(f.weights, nets[k].weights):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_samples_equal_per_network_statistics(self, activation):
        X = np.random.default_rng(44).uniform(-1, 1, (120, 3))
        net = init_glorot((3, 5, 5, 1), activation, 45)
        fitted = FittedModel(net, [], 0.0, second_moment(net, X))
        cfg = NullConfig(m=12, n_p=50, seed=46)
        null = build_null(fitted, X, cfg)
        nets = sample_networks(cfg.m, net.layer_dims, activation, cfg.seed)
        full = [all_statistics(f, X) for f in nets]
        for j in range(X.shape[1]):
            assert null.samples(j) == [full[k][j].raw for k in null.idx]

    def test_empty_input(self, small_fitted):
        fitted, _ = small_fitted
        with pytest.raises(InputError, match="empty covariate matrix"):
            build_null(fitted, np.empty((0, 2)), NullConfig(m=3, n_p=5))

    def test_deterministic_across_runs(self, small_fitted):
        fitted, ds = small_fitted
        cfg = NullConfig(m=10, n_p=40, seed=8)
        a = build_null(fitted, ds.X, cfg).samples(0)
        b = build_null(fitted, ds.X, cfg).samples(0)
        assert a == b


class TestSignificanceTest:
    def test_result_contract(self, small_fitted):
        fitted, ds = small_fitted
        res = significance_test(fitted, ds, 0, NullConfig(m=20, n_p=99, seed=11))
        assert res.variable_index == 0
        assert len(res.null_samples) == 99
        assert 0 < res.p_value <= 1
        assert res.p_value == p_value_from_null(res.observed.normalized, res.null_samples)

    def test_sigma_scale_modes_identical_p(self, small_fitted):
        fitted, ds = small_fitted
        p_raw = significance_test(
            fitted, ds, 0, NullConfig(m=20, n_p=99, seed=12, sigma_scale="raw")
        ).p_value
        p_scaled = significance_test(
            fitted, ds, 0, NullConfig(m=20, n_p=99, seed=12, sigma_scale="four_sigma2")
        ).p_value
        assert p_raw == p_scaled

    def test_shared_null_matches_per_variable_tests(self):
        spec = TargetSpec(kind="linear", beta=(1.0, 0.0, 0.5), noise_sigma=0.1)
        ds = generate(spec, 300, 3, seed=17)
        fitted = fit_least_squares(ds, ArchSpec(width=4), TrainConfig(seed=17, epochs=30))
        cfg = NullConfig(m=15, n_p=80, seed=19)
        shared = significance_tests(fitted, ds, [0, 1, 2], cfg)
        assert [r.variable_index for r in shared] == [0, 1, 2]
        for j, res in enumerate(shared):
            alone = significance_test(fitted, ds, j, cfg)
            assert res.variable_index == alone.variable_index
            assert res.observed == alone.observed == all_statistics(fitted.net, ds.X)[j]
            assert res.null_samples == alone.null_samples
            assert res.p_value == alone.p_value
            assert res.seed == alone.seed
            assert np.array_equal(res.null.idx, alone.null.idx)
            assert res.null is shared[0].null

    def test_timings_cover_the_observed_pass_and_the_p_values(self, small_fitted, monkeypatch):
        # the fitted network's gradient pass is part of evaluate and the
        # per-variable read-out part of select; both once fell in no stage
        fitted, ds = small_fitted
        pause = 0.05
        observe, read_out = nnsig.nulldist.all_statistics, nnsig.nulldist.p_value_from_null

        def slow(function):
            def call(*args):
                time.sleep(pause)
                return function(*args)
            return call

        monkeypatch.setattr(nnsig.nulldist, "all_statistics", slow(observe))
        monkeypatch.setattr(nnsig.nulldist, "p_value_from_null", slow(read_out))
        null = significance_tests(fitted, ds, [0, 1], NullConfig(m=5, n_p=10)).pop().null
        assert sorted(null.timings) == ["cholesky", "evaluate", "sample", "select"]
        assert null.timings["evaluate"] >= pause
        assert null.timings["select"] >= 2 * pause

    def test_variable_out_of_range(self, small_fitted):
        fitted, ds = small_fitted
        for bad in ([0, 2], [-1]):
            with pytest.raises(InputError):
                significance_tests(fitted, ds, bad, NullConfig(m=5, n_p=10))

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            NullConfig(m=1)
        with pytest.raises(ConfigurationError):
            NullConfig(lambda_shrink=2.0)
        with pytest.raises(ConfigurationError):
            NullConfig(sigma_scale="nope")
