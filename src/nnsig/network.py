"""Feedforward MLP: construction, evaluation, exact input gradients, serialization.

Networks are plain containers of per-layer weight matrices and bias vectors
with a Lipschitz activation applied on hidden layers only; the output layer
is affine. Instances are treated as immutable after construction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, FormatError, InputError
from .seeding import generator, truncated_normal

MAGIC = b"NNSIG1"


def _stable_sigmoid(z):
    """1/(1+exp(-z)) without overflow: exp(-|z|) is exp(-z) for z >= 0 and
    exp(z) otherwise, so both branches come from one exp."""
    ez = np.exp(-np.abs(z))
    d = 1.0 + ez
    return np.where(z >= 0, 1.0 / d, ez / d)


def _relu_pair(z):
    return np.maximum(z, 0.0), np.where(z > 0.0, 1.0, 0.0)  # derivative at 0 fixed to 0


def _tanh_pair(z):
    t = np.tanh(z)
    return t, 1.0 - t ** 2


def _sigmoid_pair(z):
    s = _stable_sigmoid(z)
    return s, s * (1.0 - s)


# activation name -> (function, (value, derivative) pair)
_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), _relu_pair),
    "tanh": (np.tanh, _tanh_pair),
    "sigmoid": (_stable_sigmoid, _sigmoid_pair),
}


@dataclass(frozen=True)
class Network:
    """Layered MLP. ``weights[l]`` has shape (width_l, width_{l-1});
    ``biases[l]`` has length width_l. The last layer is affine."""

    layer_dims: tuple
    weights: tuple
    biases: tuple
    activation: str

    def __post_init__(self):
        dims = self.layer_dims
        if len(dims) < 2 or any(w <= 0 for w in dims) or dims[-1] != 1:
            raise ConfigurationError(f"invalid layer dims {dims!r}")
        if self.activation not in _ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ConfigurationError("weights/biases do not match layer dims")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[l + 1], dims[l]) or b.shape != (dims[l + 1],):
                raise ConfigurationError(
                    f"layer {l}: weight shape {w.shape}, bias shape {b.shape} "
                    f"inconsistent with dims {dims!r}"
                )

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def depth(self) -> int:
        """Number of hidden layers."""
        return len(self.layer_dims) - 2

    @property
    def hidden_width(self) -> int:
        return max(self.layer_dims[1:-1]) if self.depth > 0 else 0


@dataclass(frozen=True)
class MomentCertificate:
    """Empirical second moment of a network against a bound M."""

    second_moment: float
    bound_m: float
    satisfied: bool


def glorot_sigma(input_dim: int) -> float:
    """Std of the weight sampler, sqrt(2/(d+1)) for input dimension d."""
    return float(np.sqrt(2.0 / (input_dim + 1)))


def init_glorot(layer_dims, activation: str, seed, *key) -> Network:
    """Build a network with weights from N(0, sigma_g), sigma_g = sqrt(2/(d+1)),
    truncated to |w| <= 2*sigma_g by resampling; biases zero.

    The weights come from stream ``key`` of master seed ``seed`` (see
    ``seeding``); given the same seed and key the result is bit-identical.
    """
    dims = tuple(int(v) for v in layer_dims)
    if len(dims) < 2 or any(v <= 0 for v in dims) or dims[-1] != 1:
        raise ConfigurationError(f"invalid layer dims {dims!r}")
    if activation not in _ACTIVATIONS:
        raise ConfigurationError(f"unknown activation {activation!r}")
    rng = generator(seed, *key)
    sigma = glorot_sigma(dims[0])
    weights = []
    biases = []
    for l in range(len(dims) - 1):
        weights.append(truncated_normal(rng, (dims[l + 1], dims[l]), sigma, 2.0 * sigma))
        biases.append(np.zeros(dims[l + 1]))
    return Network(dims, tuple(weights), tuple(biases), activation)


def linear_network(beta, intercept: float = 0.0) -> Network:
    """Exact affine function sum_k beta_k x_k + intercept as a relu net.

    Each input feeds a (relu(x), relu(-x)) pair, so the representation and its
    gradient are exact everywhere except at coordinates equal to 0.
    """
    beta = np.asarray(beta, dtype=np.float64)
    d = beta.size
    w1 = np.zeros((2 * d, d))
    for k in range(d):
        w1[2 * k, k] = 1.0
        w1[2 * k + 1, k] = -1.0
    wout = np.zeros((1, 2 * d))
    wout[0, 0::2] = beta
    wout[0, 1::2] = -beta
    return Network(
        (d, 2 * d, 1),
        (w1, wout),
        (np.zeros(2 * d), np.array([float(intercept)])),
        "relu",
    )


def _check_input(net: Network, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise InputError(
            f"input has shape {X.shape}, network expects dimension {net.input_dim}"
        )
    return X


def forward_batch(net: Network, X) -> np.ndarray:
    """Evaluate the network on each row of X; returns shape (n,)."""
    X = _check_input(net, X)
    psi = _ACTIVATIONS[net.activation][0]
    a = X
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = psi(a @ w.T + b)
    out = a @ net.weights[-1].T + net.biases[-1]
    return out[:, 0]


def forward(net: Network, x) -> float:
    """Evaluate the network at a single point."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"expected a single point, got shape {x.shape}")
    return float(forward_batch(net, x[None, :])[0])


def output_and_gradient(net: Network, X):
    """Outputs (n,) and input gradients (n, d) from one pass over the layers.

    The outputs equal ``forward_batch(net, X)`` bit for bit. Gradients use
    reverse accumulation through the layer recursion; exact for smooth
    activations, subgradient with psi'(0) = 0 for relu.
    """
    X = _check_input(net, X)
    pair = _ACTIVATIONS[net.activation][1]
    a = X
    derivs = []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a, dz = pair(a @ w.T + b)
        derivs.append(dz)
    out = (a @ net.weights[-1].T + net.biases[-1])[:, 0]
    # J starts as d out / d a_L, shape (n, width_L)
    j = np.broadcast_to(net.weights[-1][0], (X.shape[0], net.weights[-1].shape[1]))
    if not derivs:  # no hidden layer: purely affine
        return out, j.copy()
    for l in range(len(derivs) - 1, -1, -1):
        j = (j * derivs[l]) @ net.weights[l]
    return out, j


def input_gradient_batch(net: Network, X) -> np.ndarray:
    """Gradient of the output with respect to the input, per row; shape (n, d)."""
    return output_and_gradient(net, X)[1]


def input_gradient(net: Network, x) -> np.ndarray:
    """Gradient at a single point; shape (d,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"expected a single point, got shape {x.shape}")
    return input_gradient_batch(net, x[None, :])[0]


def second_moment(net: Network, X, bound_m: float = 100.0) -> MomentCertificate:
    """(1/n) sum f(x_i)^2 with a satisfied flag against the bound M."""
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise InputError("empty covariate matrix")
    f = forward_batch(net, X)
    sm = float(np.mean(f * f))
    return MomentCertificate(sm, float(bound_m), sm <= bound_m)


# --- serialization -----------------------------------------------------------
#
# Byte layout (little-endian):
#   magic "NNSIG1"
#   uint8  activation tag length, then that many ascii bytes
#   uint32 number of layer dims, then that many uint32 dims
#   per layer l = 0..len(dims)-2:
#     float64 weights, row-major, shape (dims[l+1], dims[l])
#     float64 biases, length dims[l+1]
# The file must end exactly after the last bias.


def save(net: Network, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        tag = net.activation.encode("ascii")
        fh.write(struct.pack("<B", len(tag)))
        fh.write(tag)
        fh.write(struct.pack("<I", len(net.layer_dims)))
        fh.write(struct.pack(f"<{len(net.layer_dims)}I", *net.layer_dims))
        for w, b in zip(net.weights, net.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load(path) -> Network:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < len(MAGIC) or buf[: len(MAGIC)] != MAGIC:
        raise FormatError(f"not a {MAGIC.decode()} model file: bad magic")
    pos = len(MAGIC)

    def take(n):
        nonlocal pos
        if pos + n > len(buf):
            raise FormatError("truncated model file")
        chunk = buf[pos : pos + n]
        pos += n
        return chunk

    (tag_len,) = struct.unpack("<B", take(1))
    tag = take(tag_len).decode("ascii", errors="replace")
    if tag not in _ACTIVATIONS:
        raise FormatError(f"unknown activation tag {tag!r}")
    (n_dims,) = struct.unpack("<I", take(4))
    if n_dims < 2 or n_dims > 1024:
        raise FormatError(f"implausible layer count {n_dims}")
    dims = struct.unpack(f"<{n_dims}I", take(4 * n_dims))
    weights = []
    biases = []
    for l in range(n_dims - 1):
        rows, cols = dims[l + 1], dims[l]
        w = np.frombuffer(take(8 * rows * cols), dtype="<f8").reshape(rows, cols)
        b = np.frombuffer(take(8 * rows), dtype="<f8")
        weights.append(w.copy())
        biases.append(b.copy())
    if pos != len(buf):
        raise FormatError("trailing bytes after model payload")
    return Network(dims, tuple(weights), tuple(biases), tag)
