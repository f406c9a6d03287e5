import math

import numpy as np
import pytest

from nnsig.exceptions import ConfigurationError, FormatError, InputError
from nnsig.network import (
    _ACTIVATIONS,
    Network,
    _stable_sigmoid,
    forward,
    forward_batch,
    glorot_sigma,
    init_glorot,
    input_gradient,
    input_gradient_batch,
    linear_network,
    load,
    save,
    second_moment,
)


def truncated_normal_std(sigma, a=2.0):
    """Closed-form std of N(0, sigma^2) truncated to [-a*sigma, a*sigma]."""
    phi = math.exp(-a * a / 2.0) / math.sqrt(2.0 * math.pi)
    big_phi = 0.5 * (1.0 + math.erf(a / math.sqrt(2.0)))
    var = sigma * sigma * (1.0 - 2.0 * a * phi / (2.0 * big_phi - 1.0))
    return math.sqrt(var)


def two_branch_sigmoid(z):
    """Sigmoid with one exp per sign branch, the formula _stable_sigmoid must match."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestActivations:
    def test_stable_sigmoid_bitwise_equals_two_branch_formula(self):
        special = np.array([0.0, -0.0, np.inf, -np.inf, 1e3, -1e3])
        z = np.concatenate([special, np.random.default_rng(5).normal(0.0, 20.0, 10_000)])
        assert _stable_sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()


# Reference formulas: the activation pairs and the evaluation loop written
# with np.where and out-of-place temporaries. The library computes the same
# IEEE operations on the same values and must match them bit for bit.
def ref_sigmoid(z):
    ez = np.exp(-np.abs(z))
    d = 1.0 + ez
    return np.where(z >= 0, 1.0 / d, ez / d)


def ref_relu_pair(z):
    return np.maximum(z, 0.0), np.where(z > 0.0, 1.0, 0.0)


def ref_tanh_pair(z):
    t = np.tanh(z)
    return t, 1.0 - t ** 2


def ref_sigmoid_pair(z):
    s = ref_sigmoid(z)
    return s, s * (1.0 - s)


REF_PAIRS = {"relu": ref_relu_pair, "tanh": ref_tanh_pair, "sigmoid": ref_sigmoid_pair}


def ref_output_and_gradient(net, X):
    pair = REF_PAIRS[net.activation]
    a = X
    derivs = []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a, dz = pair(a @ w.T + b)
        derivs.append(dz)
    out = (a @ net.weights[-1].T + net.biases[-1])[:, 0]
    j = np.broadcast_to(net.weights[-1][0], (X.shape[0], net.weights[-1].shape[1]))
    for l in range(len(derivs) - 1, -1, -1):
        j = (j * derivs[l]) @ net.weights[l]
    return out, j


# the edges of exp (overflow near 709.78, underflow to 0 near -745.13),
# signed zeros and infinities, NaN and the smallest subnormal
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 709.8, -709.8, 745.2, -745.2,
                    5e-324, -5e-324])


def special_array(shape, seed, scale=30.0):
    """Normal values with every special value planted many times; large enough
    for numpy's SIMD loops."""
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, scale, shape)
    z.flat[rng.choice(z.size, 20 * SPECIAL.size, replace=False)] = np.repeat(SPECIAL, 20)
    return z


def layouts(seed):
    """A C-contiguous (5000, 9) array and non-contiguous views of the same shape."""
    z = special_array((5000, 18), seed)
    return {"contiguous": np.ascontiguousarray(z[:, :9]), "strided": z[:, ::2],
            "transposed": np.asfortranarray(z[:, 9:])}


class TestBitIdenticalToReference:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "transposed"])
    def test_activation_pair(self, activation, layout):
        # the table's derivative takes the activation's value, the reference
        # pair's takes z
        z = layouts(7)[layout]
        before = z.tobytes()
        psi, derivative = _ACTIVATIONS[activation]
        value = psi(z)
        value_before = value.tobytes()
        deriv = derivative(value)
        ref_value, ref_deriv = REF_PAIRS[activation](z)
        assert value_before == ref_value.tobytes()
        assert deriv.tobytes() == ref_deriv.tobytes()
        assert z.tobytes() == before  # the input is not overwritten
        assert value.tobytes() == value_before  # nor is the value

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_output_and_gradient(self, activation, depth):
        rng = np.random.default_rng(depth)
        glorot = init_glorot((9,) + (12,) * depth + (1,), activation, depth)
        net = Network(glorot.layer_dims, glorot.weights,
                      tuple(rng.normal(0.0, 1.0, b.shape) for b in glorot.biases), activation)
        z = special_array((5000, 18), depth, scale=1.0)
        z[:500] *= 400.0  # hidden pre-activations far into both tails
        for X in (np.ascontiguousarray(z[:, :9]), z[:, ::2]):
            before = X.tobytes()
            with np.errstate(invalid="ignore"):  # inf * 0 in the products
                out, grad = forward_batch(net, X), input_gradient_batch(net, X)
                ref_out, ref_grad = ref_output_and_gradient(net, X)
            assert out.tobytes() == ref_out.tobytes()
            assert grad.tobytes() == ref_grad.tobytes()
            assert X.tobytes() == before


class TestInitGlorot:
    def test_sigma_and_truncation_bound(self):
        net = init_glorot((3, 20, 20, 1), "relu", 0)
        sigma = glorot_sigma(3)
        assert sigma == pytest.approx(math.sqrt(0.5))
        for w in net.weights:
            assert np.abs(w).max() <= 2 * sigma

    def test_same_seed_bit_identical(self):
        a = init_glorot((4, 8, 1), "tanh", 123)
        b = init_glorot((4, 8, 1), "tanh", 123)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_biases_zero(self):
        net = init_glorot((3, 5, 5, 1), "sigmoid", 7)
        for b in net.biases:
            assert np.all(b == 0.0)

    def test_empirical_std_matches_truncated_normal(self):
        # ~1e5 weights, empirical std within 5% of the closed-form value
        net = init_glorot((3, 316, 316, 1), "relu", 99)
        ws = np.concatenate([w.ravel() for w in net.weights])
        assert ws.size > 1e5
        expected = truncated_normal_std(glorot_sigma(3))
        assert abs(ws.std() - expected) / expected < 0.05

    # the last two are past what a model file holds: a uint32 dim, 1024 dims
    @pytest.mark.parametrize("dims", [(3,), (3, 5, 2), (0, 4, 1), (3, -1, 1), (3, 2 ** 32, 1),
                                      (3,) * 1024 + (1,)])
    def test_invalid_dims(self, dims):
        with pytest.raises(ConfigurationError):
            init_glorot(dims, "relu", 0)

    def test_unknown_activation(self):
        with pytest.raises(ConfigurationError):
            init_glorot((3, 4, 1), "swish", 0)


class TestForward:
    def test_zero_net(self):
        dims = (2, 3, 1)
        net = Network(dims, (np.zeros((3, 2)), np.zeros((1, 3))),
                      (np.zeros(3), np.zeros(1)), "relu")
        assert forward(net, np.array([0.7, -0.2])) == 0.0

    def test_single_relu_unit_hand_evaluation(self):
        # f(x) = 2*relu(x1) + 1 at x = (0.5, -0.3)
        net = Network(
            (2, 1, 1),
            (np.array([[1.0, 0.0]]), np.array([[2.0]])),
            (np.zeros(1), np.array([1.0])),
            "relu",
        )
        assert forward(net, np.array([0.5, -0.3])) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        net = init_glorot((3, 4, 1), "tanh", 0)
        with pytest.raises(InputError):
            forward(net, np.array([0.1, 0.2]))

    def test_tanh_interval_bound(self):
        # layer-by-layer interval oracle: |z_l| <= rowsum(|W_l|)*max|a| + max|b|
        rng = np.random.default_rng(5)
        for trial in range(10):
            net = init_glorot((3, 6, 6, 1), "tanh", 100 + trial)
            x = rng.uniform(-1, 1, 3)
            bound = np.abs(x).max()
            for w, b in zip(net.weights[:-1], net.biases[:-1]):
                z_bound = np.abs(w).sum(axis=1).max() * bound + np.abs(b).max()
                bound = min(1.0, z_bound)  # |tanh| <= 1 and <= |z|
            out_bound = np.abs(net.weights[-1]).sum() * bound + abs(net.biases[-1][0])
            val = forward(net, x)
            assert np.isfinite(val)
            assert abs(val) <= out_bound + 1e-12

    def test_lipschitz_sanity(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            net = init_glorot((3, 5, 5, 1), "tanh", trial)
            const = 1.0
            for w in net.weights:
                const *= np.abs(w).sum(axis=1).max()
            x1, x2 = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            lhs = abs(forward(net, x1) - forward(net, x2))
            assert lhs <= const * np.abs(x1 - x2).max() + 1e-12


class TestInputGradient:
    def test_disconnected_column_exact_zero(self):
        net = init_glorot((4, 6, 6, 1), "tanh", 3)
        w1 = net.weights[0].copy()
        w1[:, 2] = 0.0
        net = Network(net.layer_dims, (w1,) + net.weights[1:], net.biases, "tanh")
        X = np.random.default_rng(0).uniform(-1, 1, (40, 4))
        grads = input_gradient_batch(net, X)
        assert np.all(grads[:, 2] == 0.0)

    def test_pure_linear_gradient(self):
        net = linear_network([2.0, -1.0], 3.0)
        for x in np.random.default_rng(1).uniform(-1, 1, (20, 2)):
            if np.any(x == 0.0):
                continue
            assert input_gradient(net, x) == pytest.approx([2.0, -1.0], abs=1e-14)

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    def test_finite_difference_oracle(self, activation):
        h = 1e-5
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(25):
            net = init_glorot((3, 7, 7, 1), activation, 500 + trial)
            x = rng.uniform(-1, 1, 3)
            g = input_gradient(net, x)
            fd = np.array([
                (forward(net, x + h * e) - forward(net, x - h * e)) / (2 * h)
                for e in np.eye(3)
            ])
            denom = max(np.linalg.norm(g), np.linalg.norm(fd), 1e-12)
            worst = max(worst, np.linalg.norm(g - fd) / denom)
        assert worst < 1e-5

    def test_dimension_mismatch(self):
        net = init_glorot((3, 4, 1), "tanh", 0)
        with pytest.raises(InputError):
            input_gradient(net, np.array([0.1, 0.2, 0.3, 0.4]))

    def test_batch_matches_single(self):
        net = init_glorot((2, 5, 5, 1), "sigmoid", 8)
        X = np.random.default_rng(2).uniform(-1, 1, (10, 2))
        batch = input_gradient_batch(net, X)
        for i in range(10):
            # batched and single-row BLAS paths may differ in the last ulp
            assert np.allclose(batch[i], input_gradient(net, X[i]), rtol=1e-13, atol=1e-15)


class TestSecondMoment:
    def test_zero_net(self):
        dims = (2, 3, 1)
        net = Network(dims, (np.zeros((3, 2)), np.zeros((1, 3))),
                      (np.zeros(3), np.zeros(1)), "relu")
        cert = second_moment(net, np.random.default_rng(0).uniform(-1, 1, (30, 2)), 1.0)
        assert cert.second_moment == 0.0
        assert cert.satisfied

    def test_constant_net(self):
        net = Network((2, 1, 1), (np.zeros((1, 2)), np.zeros((1, 1))),
                      (np.zeros(1), np.array([2.5])), "relu")
        cert = second_moment(net, np.zeros((10, 2)), 100.0)
        assert cert.second_moment == pytest.approx(6.25)

    def test_glorot_nets_finite(self):
        X = np.random.default_rng(4).uniform(-1, 1, (500, 3))
        for k in range(50):
            cert = second_moment(init_glorot((3, 7, 7, 1), "sigmoid", k), X)
            assert np.isfinite(cert.second_moment)

    def test_empty_input(self):
        net = init_glorot((2, 3, 1), "relu", 0)
        with pytest.raises(InputError):
            second_moment(net, np.empty((0, 2)))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        net = init_glorot((3, 6, 6, 1), "sigmoid", 17)
        path = tmp_path / "model.nnsig"
        save(net, path)
        loaded = load(path)
        X = np.random.default_rng(9).uniform(-1, 1, (100, 3))
        assert np.array_equal(forward_batch(net, X), forward_batch(loaded, X))

    def test_corrupted_header(self, tmp_path):
        path = tmp_path / "bad.nnsig"
        path.write_bytes(b"GARBAGE0000")
        with pytest.raises(FormatError):
            load(path)

    def test_truncated_file(self, tmp_path):
        net = init_glorot((3, 6, 1), "tanh", 1)
        path = tmp_path / "model.nnsig"
        save(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load(path)

    def test_unknown_activation_tag_named(self, tmp_path):
        net = init_glorot((2, 3, 1), "tanh", 1)
        path = tmp_path / "model.nnsig"
        save(net, path)
        blob = bytearray(path.read_bytes())
        # activation tag starts after magic + length byte
        blob[7:11] = b"gelu"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="gelu"):
            load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = init_glorot((2, 3, 1), "relu", 2)
        path = tmp_path / "model.nnsig"
        save(net, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load(path)

    @pytest.mark.parametrize("part", ["weight", "bias"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, part, value):
        net = init_glorot((2, 3, 1), "relu", 2)
        (net.weights if part == "weight" else net.biases)[1][0] = value
        path = tmp_path / "model.nnsig"
        save(net, path)
        with pytest.raises(FormatError, match=f"non-finite {part} in layer 1"):
            load(path)
