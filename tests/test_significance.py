import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nnsig.significance
from nnsig.exceptions import InputError, NumericalError
from nnsig.network import Network, init_glorot, input_gradient_batch, linear_network, second_moment
from nnsig.nulldist import NullConfig, significance_tests
from nnsig.significance import all_statistics, exact_column_sums, statistics
from nnsig.training import FittedModel


def statistics_of_gradients(grads):
    """``statistics`` of one network whose input gradients are ``grads``."""
    with mock.patch.object(nnsig.significance, "input_gradient_batch", lambda net, X: grads):
        return statistics([None], np.zeros(grads.shape))


class TestEmpiricalStatistic:
    def test_linear_case_identity(self):
        net = linear_network([2.0, 0.0, 1.0])
        X = np.random.default_rng(0).uniform(-1, 1, (137, 3))
        stats = [s.raw for s in all_statistics(net, X)]
        assert stats == pytest.approx([4.0, 0.0, 1.0], abs=1e-12)

    def test_disconnected_variable_zero(self):
        net = init_glorot((3, 5, 5, 1), "tanh", 2)
        w1 = net.weights[0].copy()
        w1[:, 1] = 0.0
        from nnsig.network import Network

        net = Network(net.layer_dims, (w1,) + net.weights[1:], net.biases, "tanh")
        X = np.random.default_rng(1).uniform(-1, 1, (50, 3))
        assert all_statistics(net, X)[1].raw == 0.0

    def test_matches_naive_row_loop(self):
        net = init_glorot((3, 6, 6, 1), "tanh", 5)
        X = np.random.default_rng(2).uniform(-1, 1, (200, 3))
        grads = input_gradient_batch(net, X)
        for j in range(3):
            naive = 0.0
            for i in range(200):
                naive += grads[i, j] ** 2
            naive /= 200
            assert all_statistics(net, X)[j].raw == pytest.approx(naive, abs=1e-12)

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
        got = all_statistics(net, X)[0].raw
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
        for stat, b in zip(all_statistics(net, X), beta):
            assert stat.raw >= 0.0
            assert stat.raw == pytest.approx(b * b, abs=1e-12)


class TestAllStatistics:
    def test_matches_separate_calls_bitwise(self):
        net = init_glorot((3, 6, 6, 1), "sigmoid", 7)
        X = np.random.default_rng(6).uniform(-1, 1, (80, 3))
        batch = all_statistics(net, X)
        g = input_gradient_batch(net, X)
        for j in range(3):
            sums, _ = exact_column_sums(g[:, [j]] ** 2)
            assert batch[j].raw == batch[j].normalized == sums[0] / len(X)

    def test_mean_squares_are_fsum_means(self):
        grads = np.random.default_rng(8).normal(size=(50, 3)) * [1e-8, 1.0, 1e8]
        raw, fallbacks = statistics_of_gradients(grads)
        for j in range(3):
            assert raw[0, j] == math.fsum(g * g for g in grads[:, j].tolist()) / 50
        assert fallbacks == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("w1, w3", [
        ([[1.0, 1.0], [-1.0, -1.0]], [[1e200, 1e200]]),  # nan: inf * 0 in the gradient
        ([[1.0, 1.0], [1.0, 1.0]], [[1e200, -1e200]]),  # inf
    ])
    def test_non_finite_statistic_is_a_numerical_error(self, w1, w3):
        # finite weights, as a model file may hold them
        net = Network((2, 2, 2, 1), (np.array(w1), np.full((2, 2), 1e200), np.array(w3)),
                      (np.zeros(2), np.zeros(2), np.zeros(1)), "relu")
        X = np.random.default_rng(9).uniform(0.1, 1.0, (100, 2))
        with pytest.raises(NumericalError, match="not finite"):
            all_statistics(net, X)
        with np.errstate(over="ignore", invalid="ignore"):  # the outputs overflow too
            fitted = FittedModel(net, [0.0], 0.0, second_moment(net, X))
        dataset = mock.Mock(X=X)
        # the smallest p-value, 1/(n_p + 1), is never given for such a statistic
        with pytest.raises(NumericalError, match="not finite"):
            significance_tests(fitted, dataset, [0, 1], NullConfig(m=20, n_p=99, seed=1))

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


@st.composite
def summand_columns(draw):
    """An (n, k) array whose columns are hard cases for an exact sum."""
    n = draw(st.integers(1, 600))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = np.empty((n, k))
    for j in range(k):
        kind = draw(st.sampled_from(
            ["squares", "zeros", "runs", "huge_next_to_tiny", "subnormal", "signed",
             "nonfinite", "any"]))
        if kind == "squares":
            col = (rng.standard_normal(n) * 10.0 ** int(rng.integers(-3, 4))) ** 2
        elif kind == "zeros":
            col = np.zeros(n)
        elif kind == "runs":  # long runs of equal values
            col = np.repeat(rng.standard_normal(3) ** 2, -(-n // 3))[:n]
        elif kind == "huge_next_to_tiny":
            col = rng.uniform(0.0, 1e-300, n)
            col[rng.integers(n)] = draw(st.sampled_from([1e300, 1.0, -1e308, 1e308]))
        elif kind == "subnormal":
            col = rng.integers(0, 2 ** 20, n) * 5e-324
        elif kind == "signed":
            col = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        elif kind == "nonfinite":
            col = rng.standard_normal(n)
            col[rng.integers(n, size=2)] = draw(st.sampled_from(
                [(math.inf, 1.0), (-math.inf, -math.inf), (math.nan, 0.0),
                 (math.inf, -math.inf)]))
        else:
            col = np.array(draw(st.lists(st.floats(), min_size=n, max_size=n)))
        q[:, j] = col
    return q


def assert_matches_fsum(got, certified, columns):
    """``got`` equals math.fsum of each column (nan where fsum gives nan), and
    no column with a non-finite value is certified."""
    for j, col in enumerate(columns):
        want = math.fsum(col)
        assert got[j] == want or math.isnan(got[j]) and math.isnan(want)
        if not all(map(math.isfinite, col)):
            assert not certified[j]


class TestExactColumnSums:
    @settings(max_examples=300, deadline=None)
    @given(q=summand_columns())
    def test_matches_fsum(self, q):
        columns = q.T.tolist()
        try:
            [math.fsum(col) for col in columns]
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                exact_column_sums(q)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, certified = exact_column_sums(q)
        assert_matches_fsum(got, certified, columns)

    @settings(max_examples=100, deadline=None)
    @given(q=summand_columns())
    @example(q=np.full((8, 1), 1.7e308))  # finite squares, their sum is not
    def test_mean_squares_match_fsum(self, q):
        grads = np.sqrt(np.abs(q)) / 2.0  # squares stay finite where q is
        n = len(grads)
        try:
            want = [math.fsum(col) / n for col in (grads * grads).T.tolist()]
        except OverflowError:
            want = [math.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not all(map(math.isfinite, want)):
                # a sum past the float range, inf or nan is the statistic's numerical error
                with pytest.raises(NumericalError):
                    statistics_of_gradients(grads)
                return
            raw, _ = statistics_of_gradients(grads)
        assert raw[0].tolist() == want

    def test_midpoint_falls_back(self):
        # s + E rounds to 1.0, but the sum lies above the midpoint 1 + 2**-53
        q = np.array([[1.0], [2.0 ** -53], [2.0 ** -106]])
        got, certified = exact_column_sums(q)
        assert got[0] == 1.0 + 2.0 ** -52 == math.fsum(q[:, 0])
        assert not certified[0]

    def test_exact_midpoint_rounds_to_even(self):
        # the sum is the midpoint itself, summed by math.fsum
        q = np.array([[1.0, 1.0], [2.0 ** -53, 3 * 2.0 ** -53]])
        got, certified = exact_column_sums(q)
        assert got.tolist() == [1.0, 1.0 + 2.0 ** -51] == [math.fsum(c) for c in q.T]
        assert not certified.any()
