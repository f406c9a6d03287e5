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


def _batch_gradients(weights, biases, activation: str, xb, yb):
    """Backprop for the mean 0.5*(y - f)^2 over one batch.

    Returns (grads_w, grads_b, sq_norm) with the squared global gradient norm.
    """
    acts = [xb, *hidden_layers(weights, biases, activation, xb)]
    derivative = _ACTIVATIONS[activation][1]
    out = acts[-1] @ weights[-1].T
    out += biases[-1]
    e = (out[:, 0] - yb) / len(yb)

    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    grads_w[-1] = (e @ acts[-1])[None, :]
    grads_b[-1] = np.array([e.sum()])
    delta = np.outer(e, weights[-1][0])
    for l in range(len(weights) - 2, -1, -1):
        delta *= derivative(acts[l + 1])
        grads_w[l] = delta.T @ acts[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ weights[l]

    sq = 0.0
    for gw, gb in zip(grads_w, grads_b):
        sq += float((gw * gw).sum()) + float((gb * gb).sum())
    return grads_w, grads_b, sq


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
    net0 = init_glorot(dims, arch_spec.activation, cfg.seed, 0)
    weights = [w.copy() for w in net0.weights]
    biases = [b.copy() for b in net0.biases]

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
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                gw, gb, sq = _batch_gradients(weights, biases, arch_spec.activation,
                                              X[idx], y[idx])
                if not np.isfinite(sq):
                    raise DivergenceError(
                        f"non-finite gradient at epoch {epoch}, learning rate {lr:.6g}"
                    )
                scale = lr
                norm = math.sqrt(sq)
                if norm > cfg.max_grad_norm:
                    scale = lr * cfg.max_grad_norm / norm
                for l in range(len(weights)):
                    weights[l] -= scale * gw[l]
                    biases[l] -= scale * gb[l]
            lr *= cfg.lr_decay

            net = Network(dims, tuple(w.copy() for w in weights), tuple(b.copy() for b in biases),
                          arch_spec.activation)
            try:
                loss = quadratic_loss(net, X, y)
            except NumericalError:
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, learning rate {lr:.6g}"
                ) from None
            history.append(loss)
            if best is None or loss < best[0]:
                best = (loss, epoch, net)
            # plateau check: averaging over the window irons out mini-batch wiggle
            w = cfg.early_stop_window
            if len(history) >= 2 * w:
                prior = math.fsum(history[-2 * w : -w]) / w
                recent = math.fsum(history[-w:]) / w
                if prior > 0 and recent > prior * (1.0 - cfg.tolerance):
                    stop_reason = "plateau"
                    break

    # return the best epoch's network: the last epoch can sit on a
    # mini-batch wiggle when the learning rate is still large
    loss, best_epoch, net = best
    return FittedModel(
        net=net,
        train_loss_history=history,
        final_empirical_risk=loss,
        moment=second_moment(net, X, cfg.moment_bound),
        stop_reason=stop_reason,
        best_epoch=best_epoch,
    )
