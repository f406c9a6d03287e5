"""Squared-partial-derivative test statistics and their normalization.

The raw statistic for variable j is the mean over sample points of the
squared j-th input gradient component. Sums use math.fsum, so the result is
independent of row order at full double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, InputError
from .network import Network, input_gradient_batch


@dataclass(frozen=True)
class RateConstants:
    """Constants for the rate-based normalization: width H, Lipschitz constant
    of the activation, depth, and smoothness ratio s/d."""

    h_n: int
    lipschitz: float
    depth: int
    s_over_d: float


@dataclass(frozen=True)
class StatConfig:
    normalization_mode: str = "identity"  # "identity" | "rate"
    rate_constants: RateConstants | None = None

    def __post_init__(self):
        if self.normalization_mode not in ("identity", "rate"):
            raise ConfigurationError(
                f"unknown normalization mode {self.normalization_mode!r}"
            )
        if self.normalization_mode == "rate" and self.rate_constants is None:
            raise ConfigurationError("rate normalization requires rate_constants")


@dataclass(frozen=True)
class VariableStatistic:
    variable_index: int
    raw: float
    normalized: float
    n_used: int


def normalization_factor(cfg: StatConfig, n: int) -> float:
    """Return U; downstream statistics are divided by U^2.

    Identity mode returns 1. Rate mode returns
    sqrt(H * L^depth / sqrt(n)) + H^(-s/d), the estimation-plus-approximation
    rate with its leading constants left at 1.
    """
    if n < 1:
        raise InputError("n must be at least 1")
    if cfg.normalization_mode == "identity":
        return 1.0
    rc = cfg.rate_constants
    if rc is None:
        raise ConfigurationError("rate normalization requires rate_constants")
    return math.sqrt(rc.h_n * rc.lipschitz ** rc.depth / math.sqrt(n)) + rc.h_n ** (
        -rc.s_over_d
    )


def column_statistics(grads: np.ndarray, u: float) -> list:
    """(raw, normalized) statistic of each column of an (n, d) gradient matrix:
    raw is the mean of the column's squares, summed with math.fsum so that it
    is exactly rounded, and normalized is raw / u**2."""
    n = grads.shape[0]
    raws = [math.fsum(col) / n for col in (grads * grads).T.tolist()]
    return [(raw, raw / (u * u)) for raw in raws]


def empirical_test_statistic(
    net: Network, X, j: int, cfg: StatConfig = StatConfig()
) -> VariableStatistic:
    """Mean of (df/dx_j)^2 over the rows of X, plus its normalized value."""
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise InputError("empty covariate matrix")
    if not (0 <= j < net.input_dim):
        raise InputError(f"variable index {j} out of range for dimension {net.input_dim}")
    grads = input_gradient_batch(net, X)[:, [j]]
    raw, normalized = column_statistics(grads, normalization_factor(cfg, len(X)))[0]
    return VariableStatistic(j, raw, normalized, len(X))


def all_statistics(net: Network, X, cfg: StatConfig = StatConfig()) -> list:
    """One VariableStatistic per input dimension from a single gradient pass."""
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise InputError("empty covariate matrix")
    grads = input_gradient_batch(net, X)
    stats = column_statistics(grads, normalization_factor(cfg, len(X)))
    return [VariableStatistic(j, raw, normalized, len(X))
            for j, (raw, normalized) in enumerate(stats)]
