"""Monte-Carlo null distribution of the squared-gradient statistic.

Pipeline, run once and shared by every tested variable:
  1. sample m networks with the fitted architecture from the truncated
     Glorot distribution;
  2. evaluate every network's outputs (a forward pass, no gradient), form
     the Gram covariance S[l,k] = (1/n) sum_i f_l(x_i) f_k(x_i), optionally
     shrink it toward its diagonal, and factorize it;
  3. repeatedly draw a centered multivariate normal and pick the network at
     the argmax coordinate. The draws are evaluated in blocks, and a draw
     whose argmax the block product cannot certify is recomputed alone from
     its row of the block (``_select``);
  4. evaluate the gradient statistics of all d variables for the distinct
     selected networks only; the null samples of variable j are the selected
     networks' statistics of variable j. A network no draw selects is never
     differentiated.

Random streams (the determinism contract, tabled in ``seeding``): network k
comes from stream (0, k) of the seed and normal draw t from stream (1, t).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, InputError, NumericalError, allocate
from .network import forward_batch, output_and_gradient, sample_networks
from .seeding import generators
from .significance import VariableStatistic, all_statistics, mean_squares
from .timing import stage
from .training import FittedModel

# Draws per matrix product in _select; a fixed size, since the
# selected indices do not depend on it.
_BLOCK = 256

# Squared gradients per exact_column_sums call in _selected_statistics: whole
# networks, as many as fit in this many float64 elements (at least one), so
# that the cascade's per-pass call overhead is shared at small n and its
# buffers stay small at large n. The statistics do not depend on it.
_SUM_BLOCK = 2 ** 16


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


@dataclass(eq=False)  # compared by identity: array fields have no single truth value
class SharedNull:
    """The null of one run: what steps 1-4 produce for every variable at once."""

    stats: np.ndarray  # (m, d) statistic of each selected network; NaN rows for the rest
    idx: np.ndarray  # (n_p,) network selected by each draw
    jitter_used: float
    rechecked_draws: int  # draws the block product could not certify
    fsum_fallbacks: int  # statistic sums (distinct_selected * d) not certified
    timings: dict  # seconds of the stages sample, evaluate, cholesky, select

    def samples(self, j: int) -> list:
        """The n_p null samples of variable j."""
        return self.stats[self.idx, j].tolist()

    @property
    def distinct_selected(self) -> int:
        return int(np.count_nonzero(np.bincount(self.idx)))

    @property
    def ess(self) -> float:
        """Effective sample size 1/sum(p^2) of the selection frequencies p."""
        counts = np.bincount(self.idx).tolist()
        return len(self.idx) ** 2 / sum(c * c for c in counts)

    @property
    def top_share(self) -> float:
        """The largest selection frequency."""
        return int(np.bincount(self.idx).max()) / len(self.idx)


@dataclass
class TestResult:
    variable_index: int
    observed: VariableStatistic
    null_samples: list
    p_value: float
    seed: int
    null: SharedNull  # the same object for every variable of a run


def empirical_covariance(nets, X, outputs=None) -> CovMatrix:
    """Gram covariance S[l,k] = (1/n) sum_i f_l(x_i) f_k(x_i).

    The network outputs are written to ``outputs``, an (m, n) array, when
    one is given, else to a new one."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))  # a 1-D X is one point
    if outputs is None:
        outputs = np.empty((len(nets), len(X)))
    for k, f in enumerate(nets):
        outputs[k] = forward_batch(f, X)
    s = outputs @ outputs.T / outputs.shape[1]
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
    base = float(np.trace(s)) / len(s)
    ladder = [0.0] + [1e-10 * base * 10 ** i for i in range(5)]
    for jitter in ladder:
        try:
            chol = np.linalg.cholesky(s + jitter * np.eye(len(s)))
        except np.linalg.LinAlgError:
            continue
        return CovMatrix(entries=s, chol_factor=chol, jitter_used=jitter)
    raise NumericalError(
        "covariance factorization failed at maximum jitter; "
        "consider shrinkage (lambda_shrink > 0)"
    )


def _select(chol: np.ndarray, seed: int, n_p: int) -> tuple[np.ndarray, int]:
    """The argmax coordinate (lowest index on ties) of each of n_p draws
    chol @ g_t, and the number of draws recomputed one by one.

    This is the per-draw definition ``argmax(chol @ g_t)`` with ``g_t`` from
    stream (1, t) of ``seed``, evaluated for blocks of draws in one matrix
    product. The product may sum each m-term dot product in another order
    than the per-draw one. Any summation order lies within
    ``gamma_m * sum_k |L_ik g_k|`` of the exact value, ``gamma_m =
    m u / (1 - m u)``, ``u = 2**-53`` (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1), and by Cauchy-Schwarz that sum is at
    most ``R * |g_t|`` with ``R`` the largest row norm of ``chol``. So the two
    values of a coordinate differ by at most ``2 gamma_m R |g_t|``, and the
    argmax cannot differ when the top value exceeds the second by more than
    ``4 gamma_m R |g_t|``. Every draw whose gap is not above twice that
    (a margin for the rounding of the norms), exact ties included, is
    recomputed as ``argmax(chol @ g_t)`` from its row of the block, so each
    index is bit-identical.

    The rows of a block are drawn from ``seeding.generators``; the tests
    compare every index against draws of ``generator(seed, 1, t)``.

    The rows are filled on one helper thread, block by block in draw order,
    into two buffers in turn: while the calling thread takes block k's
    product, argmax and rechecks from one buffer, the helper fills block k+1
    into the other. numpy's normal fill and the BLAS product both release the
    GIL, so on two cores the halves overlap; on one they take turns. The
    rows, products and rechecks are those of a serial loop, so the indices do
    not depend on the thread. The helper is joined before ``_select`` returns
    or raises, and an error raised while filling (a ``MemoryError``, say)
    reaches the caller.
    """
    m = chol.shape[0]
    unit = 2.0 ** -53
    gamma = m * unit / (1.0 - m * unit)
    margin = 8.0 * gamma * float(np.linalg.norm(chol, axis=1).max())
    idx = allocate(n_p, f"n_p = {n_p} draws", np.intp)
    buffers = np.empty((2, min(_BLOCK, n_p), m))  # the second is touched only from block 1
    rechecked = 0
    draws = generators(seed, 1, 0, n_p)

    def fill(g):
        for row, rng in zip(g, draws):
            rng.standard_normal(out=row)

    with ThreadPoolExecutor(1) as helper:
        filled = helper.submit(fill, buffers[0])
        for k, start in enumerate(range(0, n_p, _BLOCK)):
            g = buffers[k % 2, :min(_BLOCK, n_p - start)]
            filled.result()
            ahead = n_p - start - _BLOCK  # draws after this block
            if ahead > 0:
                filled = helper.submit(fill, buffers[1 - k % 2, :min(_BLOCK, ahead)])
            v = g @ chol.T
            rows = np.arange(len(g))
            top = np.argmax(v, axis=1)
            top_value = v[rows, top]
            v[rows, top] = -np.inf
            gap = top_value - v.max(axis=1)
            idx[start:start + len(g)] = top
            for r in np.flatnonzero(~(gap > margin * np.linalg.norm(g, axis=1))):
                idx[start + r] = np.argmax(chol @ g[r])
                rechecked += 1
    return idx, rechecked


def build_null(fitted: FittedModel, X, cfg: NullConfig) -> SharedNull:
    """Steps 1-4 once: one forward pass per sampled network, one
    factorization, one set of selections, one gradient pass per distinct
    selected network.

    The statistics come from ``mean_squares``, as the fitted network's do in
    ``all_statistics``, so observed and null samples share one definition.
    The squared gradients of a block of selected networks, in ascending
    order, sit side by side in one reusable buffer, summed by one
    ``exact_column_sums`` call. The outputs and the covariance are released
    before the gradient pass, so its buffers take their place.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise InputError("empty covariate matrix")
    n, d = X.shape
    timings = {}
    # allocated first, so that an m no array can hold is out of memory at once
    outputs = allocate((cfg.m, n), f"m = {cfg.m} networks of n = {n} outputs")
    with stage(timings, "sample"):
        nets = sample_networks(cfg.m, fitted.net.layer_dims, fitted.net.activation, cfg.seed)
    with stage(timings, "evaluate"):
        cov = empirical_covariance(nets, X, outputs)
    del outputs
    with stage(timings, "cholesky"):
        if cfg.lambda_shrink > 0.0:
            cov = shrink(cov, cfg.lambda_shrink)
        cov = cholesky_with_jitter(cov)
    with stage(timings, "select"):
        idx, rechecked = _select(cov.chol_factor, cfg.seed, cfg.n_p)
    jitter = cov.jitter_used
    del cov
    with stage(timings, "evaluate"):
        selected = np.flatnonzero(np.bincount(idx, minlength=cfg.m))
        stats, fallbacks = _selected_statistics(nets, X, selected)
    return SharedNull(stats=stats, idx=idx, jitter_used=jitter,
                      rechecked_draws=rechecked, fsum_fallbacks=fallbacks,
                      timings=timings)


def _selected_statistics(nets, X: np.ndarray, selected: np.ndarray) -> tuple[np.ndarray, int]:
    """The (m, d) statistics of the networks ``selected`` (ascending indices),
    NaN rows for the others, and the number of their sums ``mean_squares``
    could not certify."""
    n, d = X.shape
    stats = np.full((len(nets), d), np.nan)
    per_block = max(1, _SUM_BLOCK // (n * d))
    squares = np.empty((n, min(per_block, len(selected)) * d))
    fallbacks = 0
    for start in range(0, len(selected), per_block):
        block = selected[start:start + per_block]
        for r, k in enumerate(block):
            g = output_and_gradient(nets[k], X)[1]
            np.multiply(g, g, out=squares[:, r * d:(r + 1) * d])
        raw, certified = mean_squares(squares[:, :len(block) * d])
        stats[block] = raw.reshape(len(block), d)
        fallbacks += int(np.count_nonzero(~certified))
    return stats, fallbacks


def _check_variables(variables, d: int) -> None:
    for j in variables:
        if not (0 <= j < d):
            raise InputError(f"variable index {j} out of range for dimension {d}")


def p_value_from_null(observed: float, null_samples) -> float:
    """(1 + #{null >= observed}) / (n_p + 1); always in (0, 1]."""
    n_p = len(null_samples)
    count = sum(1 for v in null_samples if v >= observed)
    return (1 + count) / (n_p + 1)


def significance_tests(fitted: FittedModel, dataset, variables,
                       cfg: NullConfig) -> list[TestResult]:
    """Full tests of the given variables against one shared null.

    Returns one TestResult per entry of ``variables``, in order; the results
    are those ``significance_test`` gives for each variable alone.
    """
    variables = list(variables)
    _check_variables(variables, fitted.net.input_dim)
    if not variables:
        return []
    X = np.asarray(dataset.X, dtype=np.float64)
    observed = all_statistics(fitted.net, X)
    null = build_null(fitted, X, cfg)
    results = []
    for j in variables:
        samples = null.samples(j)
        results.append(TestResult(
            variable_index=j,
            observed=observed[j],
            null_samples=samples,
            p_value=p_value_from_null(observed[j].raw, samples),
            seed=cfg.seed,
            null=null,
        ))
    return results


def significance_test(fitted: FittedModel, dataset, j: int, cfg: NullConfig) -> TestResult:
    """Full test for variable j: observed statistic, null samples, p-value."""
    return significance_tests(fitted, dataset, [j], cfg)[0]
