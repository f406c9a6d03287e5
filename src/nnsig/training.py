"""Least-squares fitting of MLPs by deterministic mini-batch gradient descent.

The objective is the mean of 0.5*(y_i - f(x_i))^2. Batch order, summation
order and initialization are all fixed by the seed, so two runs with the same
inputs produce bit-identical networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigurationError, DivergenceError, InputError, NumericalError
from .network import (
    MAX_LAYER_DIMS,
    Network,
    MomentCertificate,
    _ACTIVATIONS,
    _architecture,
    forward_batch,
    hidden_layers,
    init_glorot,
    second_moment,
)
from .seeding import generator


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 64
    learning_rate: float = 0.5
    lr_decay: float = 0.999
    seed: int = 0
    tolerance: float = 1e-8  # early stop on relative loss improvement
    max_grad_norm: float = 10.0
    moment_bound: float = 100.0
    early_stop_window: int = 10

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ConfigurationError("lr_decay must be in (0, 1]")
        if self.tolerance <= 0 or self.max_grad_norm <= 0:
            raise ConfigurationError("tolerance and max_grad_norm must be positive")
        if self.early_stop_window < 1:
            raise ConfigurationError("early_stop_window must be positive")

    def check_rows(self, n: int) -> None:
        """A batch is drawn from ``n`` rows, so it cannot hold more."""
        if self.batch_size > n:
            raise ConfigurationError(f"batch_size {self.batch_size} exceeds sample size {n}")


@dataclass(frozen=True)
class ArchSpec:
    """Architecture request: width None means the automatic schedule."""

    depth: int = 2
    width: int | None = None
    activation: str = "sigmoid"
    width_c: float = 1.0

    def __post_init__(self):  # depth first: layer_dims builds a tuple of depth + 2 dims
        if not 1 <= self.depth <= MAX_LAYER_DIMS - 2:
            raise ConfigurationError(f"depth must be 1 to {MAX_LAYER_DIMS - 2}, got {self.depth}")
        if self.width is None and not self.width_c > 0:
            raise ConfigurationError(f"width_c must be positive, got {self.width_c}")
        self.layer_dims(1, 2)  # the automatic width is smallest at n = 2

    def layer_dims(self, d: int, n: int | None = None) -> tuple:
        """Checked layer dims for d covariates; the automatic width needs n rows."""
        width = width_schedule(n, self.width_c) if self.width is None else self.width
        return _architecture((d,) + (width,) * self.depth + (1,), self.activation)


@dataclass
class FittedModel:
    net: Network
    train_loss_history: list
    final_empirical_risk: float
    moment: MomentCertificate
    # why fit_least_squares stopped ("plateau" or "epoch_cap") and the index
    # of the epoch whose network it returned; None for a network not fitted
    stop_reason: str | None = None
    best_epoch: int | None = None


def quadratic_loss(net: Network, X, y) -> float:
    """Mean of 0.5*(y_i - f(x_i))^2."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(X) != len(y) or len(y) == 0:
        raise InputError(f"X has {len(X)} rows but y has {len(y)} entries")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is raised below
        r = y - forward_batch(net, X)
        squares = (r * r).tolist()
    try:
        loss = 0.5 * math.fsum(squares) / len(y)
    except OverflowError:  # finite squares whose sum exceeds the float range
        loss = math.inf
    if not math.isfinite(loss):
        raise NumericalError("the quadratic loss is not finite: the network's outputs or "
                             "their squared residuals overflow the float range")
    return loss


def width_schedule(n: int, c: float = 1.0) -> int:
    """H_n = max(2, ceil(c * n^(1/4))), which keeps H_n * L^depth / sqrt(n) -> 0
    for any fixed depth."""
    if n < 2:
        raise ConfigurationError("need at least 2 samples")
    return max(2, math.ceil(c * n ** 0.25))


class _FlatLayers:
    """Every layer's weights and biases in one float64 vector, laid out w0,
    b0, w1, b1, ... as in the model file; ``weights[l]`` and ``biases[l]``
    are views of ``vector``."""

    def __init__(self, dims: tuple, vector=None):
        shapes = [shape for n_in, n_out in zip(dims, dims[1:])
                  for shape in ((n_out, n_in), (n_out,))]
        sizes = [math.prod(shape) for shape in shapes]
        self.vector = np.empty(sum(sizes)) if vector is None else vector
        arrays, end = [], 0
        for shape, size in zip(shapes, sizes):
            arrays.append(self.vector[end:end + size].reshape(shape))
            end += size
        self.weights = tuple(arrays[0::2])
        self.biases = tuple(arrays[1::2])


def _batch_gradients(weights, biases, activation: str, xb, yb,
                     grads: _FlatLayers, squares: _FlatLayers) -> float:
    """Backprop for the mean 0.5*(y - f)^2 over one batch, written into
    ``grads``; returns the squared global gradient norm.

    The norm squares ``grads.vector`` into ``squares.vector`` in one pass and
    sums each layer as ``sq += (sum w^2 + sum b^2)``, in layer order.
    """
    acts = [xb, *hidden_layers(weights, biases, activation, xb)]
    derivative = _ACTIVATIONS[activation][1]
    out = acts[-1] @ weights[-1].T
    out += biases[-1]
    e = (out[:, 0] - yb) / len(yb)

    gw, gb = grads.weights, grads.biases
    np.matmul(e, acts[-1], out=gw[-1][0])
    np.add.reduce(e, axis=0, keepdims=True, out=gb[-1])
    delta = e[:, None] * weights[-1][0]
    for l in range(len(weights) - 2, -1, -1):
        delta *= derivative(acts[l + 1])
        np.matmul(delta.T, acts[l], out=gw[l])
        np.add.reduce(delta, axis=0, out=gb[l])
        if l > 0:
            delta = delta @ weights[l]

    np.multiply(grads.vector, grads.vector, out=squares.vector)
    sq = 0.0
    for sw, sb in zip(squares.weights, squares.biases):
        sq += float(np.add.reduce(sw, axis=None)) + float(np.add.reduce(sb, axis=None))
    return sq


def fit_least_squares(dataset, arch_spec: ArchSpec, cfg: TrainConfig) -> FittedModel:
    """Fit the network class to (X, y) by seeded mini-batch gradient descent.

    The loss history holds the full-sample quadratic loss after each epoch.
    Stops early once the window-averaged relative improvement falls below
    ``cfg.tolerance``.
    """
    X = np.asarray(dataset.X, dtype=np.float64)
    y = np.asarray(dataset.y, dtype=np.float64)
    n, d = X.shape
    cfg.check_rows(n)

    dims = arch_spec.layer_dims(d, n)
    activation = arch_spec.activation
    net0 = init_glorot(dims, activation, cfg.seed, 0)
    params, grads, squares = _FlatLayers(dims), _FlatLayers(dims), _FlatLayers(dims)
    for view, array in zip(params.weights + params.biases, net0.weights + net0.biases):
        view[...] = array
    # the network as the parameters are now, for the epoch's loss
    current = Network(dims, params.weights, params.biases, activation)

    rng = generator(cfg.seed, 1)
    lr = cfg.learning_rate
    history = []
    best = None
    stop_reason = "epoch_cap"
    # overflow and inf - inf in a diverging fit end in the DivergenceError
    # checks below, so numpy need not warn about them first
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            X_epoch, y_epoch = X[order], y[order]
            for start in range(0, n, cfg.batch_size):
                stop = start + cfg.batch_size
                sq = _batch_gradients(params.weights, params.biases, activation,
                                      X_epoch[start:stop], y_epoch[start:stop], grads, squares)
                if not math.isfinite(sq):
                    raise DivergenceError(
                        f"non-finite gradient at epoch {epoch}, learning rate {lr:.6g}"
                    )
                scale = lr
                norm = math.sqrt(sq)
                if norm > cfg.max_grad_norm:
                    scale = lr * cfg.max_grad_norm / norm
                params.vector -= scale * grads.vector

            try:
                loss = quadratic_loss(current, X, y)
            except NumericalError:
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, learning rate {lr:.6g}"
                ) from None
            history.append(loss)
            if best is None or loss < best[0]:
                best = (loss, epoch, params.vector.copy())
            # plateau check: averaging over the window irons out mini-batch wiggle
            w = cfg.early_stop_window
            if len(history) >= 2 * w:
                prior = math.fsum(history[-2 * w : -w]) / w
                recent = math.fsum(history[-w:]) / w
                if prior > 0 and recent > prior * (1.0 - cfg.tolerance):
                    stop_reason = "plateau"
                    break
            lr *= cfg.lr_decay

    # return the best epoch's network: the last epoch can sit on a
    # mini-batch wiggle when the learning rate is still large
    loss, best_epoch, vector = best
    layers = _FlatLayers(dims, vector)
    net = Network(dims, layers.weights, layers.biases, activation)
    return FittedModel(
        net=net,
        train_loss_history=history,
        final_empirical_risk=loss,
        moment=second_moment(net, X, cfg.moment_bound),
        stop_reason=stop_reason,
        best_epoch=best_epoch,
    )
