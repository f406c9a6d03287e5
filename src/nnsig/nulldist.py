"""Monte-Carlo null distribution of the squared-gradient statistic.

Pipeline per tested variable:
  1. sample m networks with the fitted architecture from the truncated
     Glorot distribution;
  2. form the Gram covariance S[l,k] = (1/n) sum_i f_l(x_i) f_k(x_i),
     optionally shrink it toward its diagonal, and factorize it;
  3. repeatedly draw a centered multivariate normal, pick the network at
     the argmax coordinate, and record that network's gradient statistic.

RNG scheme (documented contract): with master seed s, network k uses
SeedSequence(s, spawn_key=(0, k)) and normal draw t uses
SeedSequence(s, spawn_key=(1, t)). Draws are therefore independent of
replication order, and the first k networks do not depend on m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, NumericalError
from .network import forward_batch, init_glorot
from .significance import StatConfig, VariableStatistic, empirical_test_statistic
from .training import FittedModel


@dataclass(frozen=True)
class NullConfig:
    m: int = 200  # number of sampled networks
    n_p: int = 1000  # null replications
    lambda_shrink: float = 0.0
    # "raw" | "four_sigma2": recorded in reports only. The argmax draw ignores
    # any positive rescaling of S, so 4*sigma^2*S selects the same networks.
    sigma_scale: str = "raw"
    seed: int = 0

    def __post_init__(self):
        if self.m < 2:
            raise ConfigurationError("m must be at least 2 (covariance needs >= 2 networks)")
        if self.n_p < 1:
            raise ConfigurationError("n_p must be at least 1")
        if not (0.0 <= self.lambda_shrink <= 1.0):
            raise ConfigurationError("lambda_shrink must lie in [0, 1]")
        if self.sigma_scale not in ("raw", "four_sigma2"):
            raise ConfigurationError(f"unknown sigma_scale {self.sigma_scale!r}")


@dataclass
class CovMatrix:
    entries: np.ndarray  # (m, m) symmetric
    chol_factor: np.ndarray | None = None
    jitter_used: float = 0.0

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass
class TestResult:
    variable_index: int
    observed: VariableStatistic
    null_samples: list
    p_value: float
    seed: int


def _net_seed(master: int, k: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master & (2 ** 63 - 1), spawn_key=(0, k))


def _draw_seed(master: int, t: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master & (2 ** 63 - 1), spawn_key=(1, t))


def sample_networks(m: int, layer_dims, activation: str, seed: int) -> list:
    """m truncated-Glorot networks with the given architecture."""
    if m < 2:
        raise ConfigurationError("need at least 2 networks for a covariance estimate")
    return [init_glorot(layer_dims, activation, _net_seed(seed, k)) for k in range(m)]


def empirical_covariance(nets, X) -> CovMatrix:
    """Gram covariance S[l,k] = (1/n) sum_i f_l(x_i) f_k(x_i)."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    outputs = np.stack([forward_batch(f, X) for f in nets])  # (m, n)
    s = outputs @ outputs.T / n
    s = (s + s.T) / 2.0
    return CovMatrix(entries=s)


def shrink(cov: CovMatrix, lam: float) -> CovMatrix:
    """Convex combination (1-lam)*S + lam*diag(S); diagonal unchanged."""
    if not (0.0 <= lam <= 1.0):
        raise ConfigurationError(f"shrinkage lambda {lam} outside [0, 1]")
    s = cov.entries
    out = (1.0 - lam) * s
    np.fill_diagonal(out, np.diag(s))  # keep the diagonal bit-exact
    return CovMatrix(entries=out)


def cholesky_with_jitter(cov: CovMatrix) -> CovMatrix:
    """Lower-triangular factor of entries + jitter*I.

    Jitter escalates from 0 through 1e-10 * tr/m by factors of 10 up to
    1e-6 * tr/m. Gram matrices are PSD up to rounding, so a tiny jitter
    suffices; persistent failure suggests shrinkage (lambda_shrink > 0).
    """
    s = cov.entries
    base = float(np.trace(s)) / cov.dim
    ladder = [0.0] + [1e-10 * base * 10 ** i for i in range(5)]
    for jitter in ladder:
        try:
            chol = np.linalg.cholesky(s + jitter * np.eye(cov.dim))
        except np.linalg.LinAlgError:
            continue
        return CovMatrix(entries=s, chol_factor=chol, jitter_used=jitter)
    raise NumericalError(
        "covariance factorization failed at maximum jitter; "
        "consider shrinkage (lambda_shrink > 0)"
    )


def _prepare_null(fitted: FittedModel, X, cfg: NullConfig):
    """Sample cfg.m networks and factorize their (shrunk) covariance.

    Returns (nets, factorized CovMatrix).
    """
    nets = sample_networks(cfg.m, fitted.net.layer_dims, fitted.net.activation, cfg.seed)
    cov = empirical_covariance(nets, X)
    if cfg.lambda_shrink > 0.0:
        cov = shrink(cov, cfg.lambda_shrink)
    return nets, cholesky_with_jitter(cov)


def _selection_indices(chol: np.ndarray, seed: int, n_p: int) -> np.ndarray:
    """Argmax coordinate (lowest index on ties) of each of n_p draws chol @ g_t."""
    m = chol.shape[0]
    rngs = (np.random.Generator(np.random.PCG64(_draw_seed(seed, t))) for t in range(n_p))
    return np.array([np.argmax(chol @ rng.standard_normal(m)) for rng in rngs], dtype=np.intp)


def null_distribution(fitted: FittedModel, dataset, j: int, cfg: NullConfig,
                      stat_cfg: StatConfig = StatConfig()):
    """n_p null statistics for variable j; returns (samples, idx).

    ``idx`` holds the index of the sampled network each draw selected. Each
    network's gradient statistic is computed once; the Gaussian draws only
    select indices.
    """
    X = np.asarray(dataset.X, dtype=np.float64)
    nets, cov = _prepare_null(fitted, X, cfg)
    cached = np.array(
        [empirical_test_statistic(f, X, j, stat_cfg).normalized for f in nets]
    )
    idx = _selection_indices(cov.chol_factor, cfg.seed, cfg.n_p)
    return cached[idx].tolist(), idx


def p_value_from_null(observed_normalized: float, null_samples) -> float:
    """(1 + #{null >= observed}) / (n_p + 1); always in (0, 1]."""
    n_p = len(null_samples)
    count = sum(1 for v in null_samples if v >= observed_normalized)
    return (1 + count) / (n_p + 1)


def significance_test(fitted: FittedModel, dataset, j: int, cfg: NullConfig,
                      stat_cfg: StatConfig = StatConfig()) -> TestResult:
    """Full test for variable j: observed statistic, null samples, p-value."""
    X = np.asarray(dataset.X, dtype=np.float64)
    observed = empirical_test_statistic(fitted.net, X, j, stat_cfg)
    null_samples, _ = null_distribution(fitted, dataset, j, cfg, stat_cfg)
    return TestResult(
        variable_index=j,
        observed=observed,
        null_samples=null_samples,
        p_value=p_value_from_null(observed.normalized, null_samples),
        seed=cfg.seed,
    )
