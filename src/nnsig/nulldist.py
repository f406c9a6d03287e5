"""Monte-Carlo null distribution of the squared-gradient statistic.

Pipeline, run once and shared by every tested variable:
  1. sample m networks with the fitted architecture from the truncated
     Glorot distribution;
  2. evaluate every network's outputs (a forward pass, no gradient), form
     the Gram covariance S[l,k] = (1/n) sum_i f_l(x_i) f_k(x_i), optionally
     shrink it toward its diagonal, and factorize it;
  3. repeatedly draw a centered multivariate normal and pick the network at
     the argmax coordinate. The draws are evaluated in blocks, first in
     float32; a draw whose argmax that product cannot certify goes to a
     float64 product, and one that cannot certify either is recomputed alone
     from its row of the block (``_select``);
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
from .network import forward_batch, sample_networks
from .seeding import generators
from .significance import VariableStatistic, all_statistics, statistics
from .timing import stage
from .training import FittedModel

# Draws per matrix product in _select; a fixed size, since the
# selected indices do not depend on it.
_BLOCK = 256


@dataclass(frozen=True)
class NullConfig:
    m: int = 200  # number of sampled networks
    n_p: int = 1000  # null replications
    lambda_shrink: float = 0.0
    # "raw" | "four_sigma2": echoed in reports only. The argmax draw ignores
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
    float64_draws: int  # draws the float32 block product could not certify
    rechecked_draws: int  # of those, draws the float64 block product could not certify
    fsum_fallbacks: int  # statistic sums (distinct_selected * d) not certified
    # seconds of the stages sample, evaluate, cholesky, select; significance_tests
    # adds the observed statistics to evaluate and the p-values to select
    timings: dict

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


def _top_gap(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The argmax of each row of ``v`` (lowest index on ties) and its lead
    over the row's second value; overwrites each row's top value."""
    rows = np.arange(len(v))
    top = np.argmax(v, axis=1)
    top_value = v[rows, top]
    v[rows, top] = -np.inf
    return top, top_value - v.max(axis=1)


def _select(chol: np.ndarray, seed: int, n_p: int,
            counts: dict | None = None) -> tuple[np.ndarray, int]:
    """The argmax coordinate (lowest index on ties) of each of n_p draws
    chol @ g_t, and the number of draws recomputed one by one.

    This is the per-draw definition ``argmax(chol @ g_t)`` with ``g_t`` from
    stream (1, t) of ``seed``, evaluated for blocks of draws in matrix
    products that may sum each m-term dot product in another order than the
    per-draw one. A draw takes the first of three tiers whose rounding bound
    certifies its argmax (Higham, Accuracy and Stability of Numerical
    Algorithms, sections 2.1 and 3.1, which bound any summation order, a
    fused multiply-add kernel's included). In float64, ``u = 2**-53`` and
    ``gamma_m = m u / (1 - m u)``; the float64 values are taken not to
    underflow or overflow. Let ``R`` be the largest row norm of ``chol``, so
    that ``sum_k |L_ik g_k| <= R |g|`` by Cauchy-Schwarz.

    1. Float32, the whole block in one product. ``s`` is the power of two
       that puts ``s R`` in [1/2, 1); it moves no argmax. The pass takes
       ``fl32(g) @ fl32(s chol).T``, its argmax and its top-two gap in
       float32. With ``u' = 2**-24`` and ``gamma'_m`` that of ``u'`` (``m <
       2**22`` for any factor that fits in memory), each cast moves an entry
       x by at most ``u'|x| + eta``, and a product errs by at most ``u'``
       relative plus ``eta``; ``eta = 2**-149``, the smallest subnormal,
       covers underflow (an addition that underflows is exact). So a float32
       value lies within ``e32 s R |g| + a`` of the exact ``s (chol @ g)_i``,
       with ``e32 = gamma'_m (1+u')^2 + 2u' + u'^2`` and ``a <= 4 eta
       (sqrt(m) |g| + 2m)``; the float64 per-draw value, scaled by ``s``,
       lies within ``gamma_m s R |g|`` of that exact value. The argmax agrees
       when the float32 gap exceeds twice the sum of the two. A draw is
       certified when its gap exceeds ``4 (e32 + gamma_m) s R |g| + 2**-144
       m``: the doubled first term covers the ``sqrt(m) |g|`` part of ``a``
       and the rounding of the gap and the norms, and the second term covers
       ``16 eta m``. Overflow: as ``s R < 1``, every product and partial sum
       on a draw's row stays below ``2 |g|``, so a draw with ``|g| < 2**100``
       overflows nowhere, and a draw with a larger norm is never certified
       here. A non-finite ``R`` (from a non-finite entry of ``chol``, or one
       past 2**511 whose square overflows) makes every bound non-finite, so it
       certifies nothing in any tier but the last. The casts and the product
       run under ``np.errstate``, so an infinity or NaN they make raises no
       warning.
    2. Float64, the draws tier 1 left in one product ``g[rest] @ chol.T``.
       Its values and the per-draw ones differ by at most ``2 gamma_m R |g|``,
       and a gap above twice the ``4 gamma_m R |g|`` this needs (a margin for
       the rounding of the norms) certifies. ``counts["float64_draws"]``, when
       ``counts`` is given, is the number of draws this tier takes.
    3. One by one: every draw tier 2 leaves, exact ties included, is
       recomputed as ``argmax(chol @ g_t)`` from its row of the block.

    So each index is bit-identical to the per-draw definition. The rows of a
    block are drawn from ``seeding.generators``; the tests compare every
    index against draws of ``generator(seed, 1, t)``.

    The rows are filled on one helper thread, block by block in draw order,
    into two buffers in turn: while the calling thread takes block k's
    products, argmax and rechecks from one buffer, the helper fills block
    k+1 into the other. numpy's normal fill and the BLAS product both release
    the GIL, so on two cores the halves overlap; on one they take turns. The
    rows, products and rechecks are those of a serial loop, so the indices do
    not depend on the thread. The helper is joined before ``_select`` returns
    or raises, and an error raised while filling (a ``MemoryError``, say)
    reaches the caller.
    """
    m = chol.shape[0]
    norm_r = float(np.sqrt(np.einsum("ij,ij->i", chol, chol).max()))
    gamma = m * 2.0 ** -53 / (1.0 - m * 2.0 ** -53)
    margin = 8.0 * gamma * norm_r
    u = 2.0 ** -24
    e32 = m * u / (1.0 - m * u) * (1.0 + u) ** 2 + 2.0 * u + u * u
    scale = float(np.ldexp(1.0, -np.frexp(norm_r)[1]))
    margin32, floor32 = 4.0 * (e32 + gamma) * scale * norm_r, 2.0 ** -144 * m
    with np.errstate(over="ignore", invalid="ignore"):
        chol32_t = (scale * chol).astype(np.float32).T
    idx = allocate(n_p, "n_p = {} draws", np.intp)
    block = min(_BLOCK, n_p)
    buffers = np.empty((2, block, m))  # the second is touched only from block 1
    g32, v32 = np.empty((block, m), np.float32), np.empty((block, m), np.float32)
    rechecked = float64_draws = 0
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
            b = len(g)
            with np.errstate(over="ignore", invalid="ignore"):
                np.copyto(g32[:b], g, casting="same_kind")
                top, gap = _top_gap(np.matmul(g32[:b], chol32_t, out=v32[:b]))
            norm = np.sqrt(np.einsum("ij,ij->i", g, g))
            idx[start:start + b] = top
            rest = np.flatnonzero(~((gap > margin32 * norm + floor32) & (norm < 2.0 ** 100)))
            if not rest.size:
                continue
            float64_draws += rest.size
            top, gap = _top_gap(g[rest] @ chol.T)
            idx[start + rest] = top
            for r in rest[~(gap > margin * norm[rest])]:
                idx[start + r] = np.argmax(chol @ g[r])
                rechecked += 1
    if counts is not None:
        counts["float64_draws"] = float64_draws
    return idx, rechecked


def build_null(fitted: FittedModel, X, cfg: NullConfig) -> SharedNull:
    """Steps 1-4 once: one forward pass per sampled network, one
    factorization, one set of selections, one gradient pass per distinct
    selected network.

    The statistics of the selected networks, in ascending order, come from
    ``significance.statistics``, as the fitted network's do in
    ``all_statistics``, so observed and null samples share one definition.
    The outputs and the covariance are released before the gradient pass, so
    its buffers take their place.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise InputError("empty covariate matrix")
    n, d = X.shape
    timings = {}
    # allocated first, so that an m no array can hold is out of memory at once
    outputs = allocate((cfg.m, n), "m = {} networks of n = {} outputs")
    with stage(timings, "sample"):
        nets = sample_networks(cfg.m, fitted.net.layer_dims, fitted.net.activation, cfg.seed)
    with stage(timings, "evaluate"):
        cov = empirical_covariance(nets, X, outputs)
        del outputs
    with stage(timings, "cholesky"):
        if cfg.lambda_shrink > 0.0:
            cov = shrink(cov, cfg.lambda_shrink)
        cov = cholesky_with_jitter(cov)
    counts = {}
    with stage(timings, "select"):
        idx, rechecked = _select(cov.chol_factor, cfg.seed, cfg.n_p, counts)
    with stage(timings, "evaluate"):  # the releases too, so that the stages cover the call
        jitter = cov.jitter_used
        del cov
        selected = np.flatnonzero(np.bincount(idx, minlength=cfg.m))
        stats = np.full((cfg.m, d), np.nan)
        stats[selected], fallbacks = statistics([nets[k] for k in selected], X)
        del nets
    return SharedNull(stats=stats, idx=idx, jitter_used=jitter,
                      float64_draws=counts["float64_draws"], rechecked_draws=rechecked,
                      fsum_fallbacks=fallbacks, timings=timings)


def _check_variables(variables, d: int) -> None:
    for j in variables:
        if not (0 <= j < d):
            raise InputError(f"variable index {j} out of range for dimension {d}")


def p_value_from_null(observed: float, null_samples) -> float:
    """(1 + #{null >= observed}) / (n_p + 1); always in (0, 1]."""
    count = np.count_nonzero(np.asarray(null_samples) >= observed)
    return (1 + int(count)) / (len(null_samples) + 1)


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
    timings = {}
    with stage(timings, "evaluate"):  # the observed statistics' gradient pass
        observed = all_statistics(fitted.net, X)
    null = build_null(fitted, X, cfg)
    null.timings["evaluate"] += timings["evaluate"]
    results = []
    with stage(null.timings, "select"):  # each variable's null samples and p-value
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
