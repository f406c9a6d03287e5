"""Feedforward MLP: construction, evaluation, exact input gradients, serialization.

Networks are plain containers of per-layer weight matrices and bias vectors
with a Lipschitz activation applied on hidden layers only; the output layer
is affine. Instances are treated as immutable after construction. A sampled
class (``SampledClass``) holds m networks of one architecture as one weight
stack per layer, and ``forward_batch`` and ``input_gradient_batch`` evaluate
a whole stack in one pass, of which one ``Network`` is the 2-D case.
"""

from __future__ import annotations

import reprlib
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, FormatError, InputError, allocate
from .seeding import generator, generators, truncated_normal

MAGIC = b"NNSIG1"
# The most layer dims a model file holds; ``save`` stores each dim as a uint32.
MAX_LAYER_DIMS = 1024


def _stable_sigmoid(z):
    """1/(1+exp(-z)) without overflow, from one exp of t = -|z|.

    The bool ``z >= 0`` picks the numerator without a select: for z >= 0 it
    is 1.0 and exp(t) = exp(-z) <= 1, so max(exp(t), 1.0) is exactly 1.0 and
    the result is 1/(1+exp(-z)); for z < 0 it is 0.0 and exp(t) = exp(z) >= 0,
    so the max is exp(z) and the result is exp(z)/(1+exp(z)). Either way it is
    one correctly rounded division of the operands the two-branch formula
    divides, so the bits are the same. -0.0 counts as z >= 0 and gives 0.5,
    and a NaN propagates through the max. ``t`` is ``np.abs`` negated in
    place, which gives the bits of ``np.copysign(z, -1.0)`` (a NaN's too) in
    less time.
    """
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    d = t + 1.0
    np.maximum(t, z >= 0, out=t)
    return np.divide(t, d, out=d)


def _tanh_derivative(t):
    dt = np.square(t)
    return np.subtract(1.0, dt, out=dt)


def _sigmoid_derivative(s):
    ds = 1.0 - s
    ds *= s
    return ds


# activation name -> (function, derivative); the derivative takes the
# activation's value a = psi(z), not z. Relu's is a > 0, which holds exactly
# where z > 0, so its derivative at 0 is 0.
_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: np.greater(a, 0.0).astype(np.float64)),
    "tanh": (np.tanh, _tanh_derivative),
    "sigmoid": (_stable_sigmoid, _sigmoid_derivative),
}


def _architecture(layer_dims, activation: str) -> tuple:
    """``layer_dims`` as a tuple of ints, checked together with ``activation``
    and against the bounds of the model file."""
    if not 2 <= len(layer_dims) <= MAX_LAYER_DIMS:
        raise ConfigurationError(f"{len(layer_dims)} layer dims, expected 2 to {MAX_LAYER_DIMS}")
    dims = tuple(int(v) for v in layer_dims)
    if not all(0 < v < 2 ** 32 for v in dims) or dims[-1] != 1:
        raise ConfigurationError(f"bad layer dims {reprlib.repr(dims)}: each 1 to 2**32-1, last 1")
    if activation not in _ACTIVATIONS:
        raise ConfigurationError(f"unknown activation {activation!r}")
    return dims


@dataclass(frozen=True)
class Network:
    """Layered MLP. ``weights[l]`` has shape (width_l, width_{l-1});
    ``biases[l]`` has length width_l. The last layer is affine."""

    layer_dims: tuple
    weights: tuple
    biases: tuple
    activation: str

    def __post_init__(self):
        dims = _architecture(self.layer_dims, self.activation)
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


def _glorot_weights(dims: tuple, rng: np.random.Generator):
    """Each layer's weights from N(0, sigma_g), sigma_g = sqrt(2/(d+1)),
    truncated to |w| <= 2*sigma_g by resampling, drawn from ``rng`` layer by
    layer."""
    sigma = glorot_sigma(dims[0])
    for n_in, n_out in zip(dims, dims[1:]):
        yield truncated_normal(rng, (n_out, n_in), sigma, 2.0 * sigma)


def init_glorot(layer_dims, activation: str, seed, *key) -> Network:
    """A truncated-Glorot network (``_glorot_weights``, zero biases) from
    stream ``key`` of ``seed``."""
    dims = _architecture(layer_dims, activation)
    return Network(dims, tuple(_glorot_weights(dims, generator(seed, *key))),
                   tuple(np.zeros(v) for v in dims[1:]), activation)


@dataclass(frozen=True, eq=False)  # compared by identity: array fields have no single truth value
class SampledClass(Sequence):
    """Networks of one architecture whose biases are all zero, held as one
    weight stack per layer: ``weights[l]`` has shape (m, width_l,
    width_{l-1}), and ``weights[l][k]`` is network k's.

    An integer index gives network k as a ``Network`` whose weights are views
    of the stacks and whose biases are zeros; a slice or an index array gives
    the class of those networks. ``forward_batch`` and
    ``input_gradient_batch`` take a class as they take one network, and add
    no bias to it (``hidden_layers``).
    """

    layer_dims: tuple
    weights: tuple
    activation: str
    biases = None  # a class attribute, not a field: the class has no bias to add

    def __len__(self) -> int:
        return len(self.weights[0])

    def __getitem__(self, k):
        if isinstance(k, slice) or np.ndim(k) > 0:
            return SampledClass(self.layer_dims, tuple(w[k] for w in self.weights),
                                self.activation)
        return Network(self.layer_dims, tuple(w[k] for w in self.weights),
                       tuple(np.zeros(v) for v in self.layer_dims[1:]), self.activation)


def sample_networks(m: int, layer_dims, activation: str, seed) -> SampledClass:
    """The class of m networks whose network k is ``init_glorot(layer_dims,
    activation, seed, 0, k)``, bit for bit. The weight stacks are allocated
    before any network is drawn, so that an m no array can hold is out of
    memory at once."""
    dims = _architecture(layer_dims, activation)
    weights = tuple(allocate((m, n_out, n_in), "m = {} networks of {} by {} weights")
                    for n_in, n_out in zip(dims, dims[1:]))
    for k, rng in enumerate(generators(seed, 0, 0, m)):
        for w, drawn in zip(weights, _glorot_weights(dims, rng)):
            w[k] = drawn
    return SampledClass(dims, weights, activation)


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


def _check_input(net, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != net.layer_dims[0]:
        raise InputError(
            f"input has shape {X.shape}, network expects dimension {net.layer_dims[0]}"
        )
    return X


def hidden_layers(weights, biases, activation: str, X):
    """Each hidden layer's activation psi(a @ w.T + b) in turn, from a = X
    through every layer but the affine last one.

    Each weight is one network's (width_l, width_{l-1}) matrix, or a stack of
    B networks' matrices, (B, width_l, width_{l-1}): from an (n, d) X a stack
    gives (B, n, width_l) activations, and ``np.matmul`` takes each network's
    product with the same kernel, operands and strides as for that network
    alone, so its rows are that network's bits. ``biases`` is each layer's
    bias, broadcast against ``a @ w.T``, or None for networks without biases
    (a ``SampledClass``), and then no bias is added.

    Adding a zero bias changes nothing but the sign of a zero: ``z + 0.0``
    is ``z``, except that -0.0 becomes +0.0. So a pass that leaves it out
    gives values that agree with the pass that adds it up to the sign of a
    zero: a sum, product or quotient by a nonzero of such values again
    agrees up to the sign of a zero, with the same nonzero values. Each
    activation takes ±0 to values that agree so (sigmoid to 0.5, tanh and
    relu to a zero), and each derivative read off them (``a > 0``,
    ``1 - a*a``, ``(1 - a) a``) to the same bits. A square has no signed
    zero, so the squared gradients, and with them every statistic, keep
    their bits. The outputs' Gram matrix S keeps them too, but for the sign
    of an entry that is zero; its diagonal, a sum of squares, keeps them all.
    A zero's sign moves no nonzero entry of S's Cholesky factor (a pivot
    that is zero fails the factorization either way), no row norm, no float
    comparison and so no selected index.
    """
    psi = _ACTIVATIONS[activation][0]
    a = X
    for l, w in enumerate(weights[:-1]):
        z = a @ w.swapaxes(-1, -2)
        if biases is not None:
            z += biases[l]
        a = psi(z)
        yield a


def forward_batch(net, X) -> np.ndarray:
    """Evaluate a network on each row of X; returns shape (n,), or (m, n)
    for a ``SampledClass`` of m networks."""
    a = X = _check_input(net, X)
    for a in hidden_layers(net.weights, net.biases, net.activation, X):
        pass
    out = a @ net.weights[-1].swapaxes(-1, -2)
    if net.biases is not None:
        out += net.biases[-1]
    return out[..., 0]


def forward(net: Network, x) -> float:
    """Evaluate the network at a single point."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"expected a single point, got shape {x.shape}")
    return float(forward_batch(net, x[None, :])[0])


def input_gradient_batch(net, X) -> np.ndarray:
    """Gradient of the output with respect to the input, per row; shape
    (n, d), or (m, n, d) for a ``SampledClass`` of m networks.

    Reverse accumulation through the layer recursion; exact for smooth
    activations, subgradient with psi'(0) = 0 for relu.
    """
    X = _check_input(net, X)
    derivative = _ACTIVATIONS[net.activation][1]
    derivs = [derivative(a) for a in hidden_layers(net.weights, net.biases, net.activation, X)]
    # J starts as d out / d a_L, shape (n, width_L) per network
    w_out = net.weights[-1]
    j = np.broadcast_to(w_out[..., :1, :], w_out.shape[:-2] + (len(X), w_out.shape[-1]))
    if not derivs:  # no hidden layer: purely affine
        return j.copy()
    # each step scales J by psi' in the derivative's own buffer
    for dz, w in zip(reversed(derivs), reversed(net.weights[:-1])):
        j = np.multiply(j, dz, out=dz) @ w
    return j


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
    (n_dims,) = struct.unpack("<I", take(4))
    try:
        dims = _architecture(struct.unpack(f"<{n_dims}I", take(4 * n_dims)), tag)
    except ConfigurationError as exc:
        raise FormatError(f"model file {path}: {exc}") from None
    weights = []
    biases = []
    for l in range(n_dims - 1):
        rows, cols = dims[l + 1], dims[l]
        w = np.frombuffer(take(8 * rows * cols), dtype="<f8").reshape(rows, cols)
        b = np.frombuffer(take(8 * rows), dtype="<f8")
        for name, values in (("weight", w), ("bias", b)):
            if not np.isfinite(values).all():
                raise FormatError(f"non-finite {name} in layer {l}")
        weights.append(w.copy())
        biases.append(b.copy())
    if pos != len(buf):
        raise FormatError("trailing bytes after model payload")
    return Network(dims, tuple(weights), tuple(biases), tag)
