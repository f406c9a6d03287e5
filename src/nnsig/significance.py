"""Squared-partial-derivative test statistics.

The raw statistic for variable j is the mean over sample points of the
squared j-th input gradient component. Its sum is the exactly rounded one that
math.fsum defines, so the result is independent of row order at full double
precision; ``exact_column_sums`` reaches it with a certified vectorized
cascade and falls back to math.fsum for any column it cannot certify.
``statistics`` gives it for the fitted network and the null's selected
networks alike, so observed values and null samples share one definition.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, NumericalError
from .network import Network, SampledClass, input_gradient_batch


@dataclass(frozen=True)
class VariableStatistic:
    raw: float

    @property
    def normalized(self) -> float:
        """The statistic the null samples are compared with: ``raw`` itself."""
        return self.raw


_U = 2.0 ** -53  # unit roundoff of float64
_TINY = 2.0 ** -1074  # smallest positive subnormal


def _two_sum_cascade(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``s`` of shape (k,) and the (n - 1, k) error terms ``errs`` of a
    pairwise TwoSum cascade over the rows of an (n, k) array, with
    ``q.sum(axis=0) == s + errs.sum(axis=0)`` exactly when nothing overflows.

    Each pass adds the first half of the rows to the second half, carrying an
    odd last row, so ``ceil(log2 n)`` passes leave one row.
    """
    n, k = q.shape
    half = (n + 1) // 2
    sums_of = (np.empty((half, k)), np.empty((half, k)))  # ping-pong between passes
    diff, err = np.empty((n // 2, k)), np.empty((n // 2, k))
    errs = np.empty((n - 1, k))
    rows, out, done = q, 0, 0
    while len(rows) > 1:
        r = len(rows)
        h = r // 2
        a, b, t = rows[:h], rows[h:2 * h], sums_of[out][:h]
        bv, av = diff[:h], err[:h]  # b's and a's share of t, then their errors
        np.add(a, b, out=t)
        np.subtract(t, a, out=bv)
        np.subtract(t, bv, out=av)
        np.subtract(a, av, out=av)
        np.subtract(b, bv, out=bv)
        np.add(av, bv, out=errs[done:done + h])
        done += h
        if r % 2:
            sums_of[out][h] = rows[-1]
        rows, out = sums_of[out][:h + r % 2], 1 - out
    return rows[0], errs


def exact_column_sums(q) -> tuple[np.ndarray, np.ndarray]:
    """``(sums, certified)`` for an (n, k) float64 array, n >= 1: ``sums[j]``
    is ``math.fsum(q[:, j])``, and ``certified[j]`` is False where the column
    had to be summed by ``math.fsum`` itself.

    Cascade. ``_two_sum_cascade`` adds rows pairwise by TwoSum,
    ``t = fl(a + b)`` and ``e = (a - (t - (t - a))) + (b - (t - a))`` with
    ``a + b = t + e`` exactly (Knuth; Ogita, Rump & Oishi, "Accurate Sum and
    Dot Product", SIAM J. Sci. Comput. 26(6), 2005), in ``L = ceil(log2 n)``
    passes. Without overflow TwoSum is exact, subnormals included, so a
    column sums to ``T = s + sum(e)`` over its n - 1 error terms.

    Bound. Let ``u = 2**-53`` and ``X = sum_i |q_ij|``. Round to nearest
    gives ``|e| <= u |t|``, and the absolute values of the rows of one pass
    sum to at most ``(1 + u)`` times those of the pass before, so
    ``sum |e| <= w X`` with ``w = u L (1 + u)**L``. The error terms are added
    up in some order to ``E``, and any order gives ``|E - sum(e)| <=
    gamma_n sum |e|``, ``gamma_n = n u / (1 - n u)`` (Higham, Accuracy and
    Stability of Numerical Algorithms, section 4.2). ``X`` is computed as a
    sum of nonnegative terms, so the computed ``X'`` is at least
    ``(1 - gamma_n) X``.

    Certificate. With ``delta = 4 gamma_n u L X'``, ``delta`` exceeds the
    bound on ``|E - sum(e)|`` plus the rounding ``u |E -+ delta|`` of
    ``E -+ delta`` (``|E| <= (1 + gamma_n) w X``) for any n below 2**50, so
    ``fl(E - delta) <= sum(e) <= fl(E + delta)``. Rounding to nearest is
    monotone, so ``fl(s + fl(E - delta)) <= fl(T) <= fl(s + fl(E + delta))``,
    and when the two ends are equal, they are ``fl(T)``, the value
    ``math.fsum`` returns. ``2**-1074`` is added to ``delta`` to cover
    underflow in the product ``4 gamma_n u L X'``, so a column whose sum is
    zero or subnormal fails this check, and so does one whose ``T`` lies
    within ``delta`` of a midpoint between two doubles. Columns are
    considered only when ``X' <= DBL_MAX / 4``, which keeps every partial sum
    of the cascade and of ``math.fsum`` far from overflow and excludes
    non-finite columns.

    Every column that is not certified is summed by ``math.fsum``, with its
    ``OverflowError``, ``ValueError``, ``inf`` and ``nan``.
    """
    q = np.asarray(q, dtype=np.float64)
    n = q.shape[0]
    ones = np.ones(n)
    # overflow and inf - inf arise only in columns that are not certified
    with np.errstate(over="ignore", invalid="ignore"):
        s, errs = _two_sum_cascade(q)
        mass = ones @ np.abs(q)
        e = ones[1:] @ errs
        gamma = n * _U / (1.0 - n * _U)
        delta = 4.0 * gamma * _U * (n - 1).bit_length() * mass + _TINY
        sums = s + (e - delta)
        finite = mass <= sys.float_info.max / 4
        certified = finite & (sums == s + (e + delta))
    for j in np.flatnonzero(~certified):
        sums[j] = math.fsum(q[:, j].tolist())
    return sums, certified


# Float64 elements per block: statistics sums the squared gradients of as
# many whole networks as fit in this many (n, d) columns with one
# exact_column_sums call, so that the cascade's per-pass call overhead is
# shared at small n and its buffers stay small at large n; and
# ``network_blocks`` evaluates as many networks of a sampled class per call
# as fit in it at their widest layer. The results do not depend on it.
_SUM_BLOCK = 2 ** 16


def network_blocks(nets, n: int):
    """``(start, stop, block)`` over ``nets`` in order, ``block`` being
    ``nets[start:stop]`` as one argument of ``forward_batch`` or
    ``input_gradient_batch`` on n rows.

    A ``SampledClass`` goes ``B = max(1, _SUM_BLOCK // (n * max(layer_dims)))``
    networks at a time, so that a block's (B, n, width) arrays hold at most
    ``_SUM_BLOCK`` elements when B > 1; any other sequence one network at a
    time, the network itself being the block."""
    if not isinstance(nets, SampledClass):
        for k, net in enumerate(nets):
            yield k, k + 1, net
        return
    per_block = max(1, _SUM_BLOCK // (n * max(nets.layer_dims)))
    for start in range(0, len(nets), per_block):
        stop = min(start + per_block, len(nets))
        yield start, stop, nets[start:stop]


def statistics(nets, X) -> tuple[np.ndarray, int]:
    """The (len(nets), d) statistics of the networks on the rows of X, and
    the number of their sums ``exact_column_sums`` could not certify.

    Row k, column j is the mean over rows of the squared j-th input gradient
    component of ``nets[k]``, its sum exactly rounded. The squared gradients
    of a block of networks sit side by side in one reusable buffer, summed by
    one ``exact_column_sums`` call; their gradients come from
    ``input_gradient_batch`` in the blocks of ``network_blocks``. A sum that
    is not finite, from a gradient or a sum of squares past the float range,
    raises NumericalError.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))  # a 1-D X is one point
    if X.size == 0:
        raise InputError("empty covariate matrix")
    n, d = len(X), X.shape[-1]
    stats = np.empty((len(nets), d))
    per_block = max(1, _SUM_BLOCK // (n * d))
    # squares[:, r, j] is network r's of gradient component j: column r * d + j for the sums
    squares = np.empty((n, min(per_block, len(nets)), d))
    fallbacks = 0
    for start in range(0, len(nets), per_block):
        block = nets[start:start + per_block]
        with np.errstate(over="ignore", invalid="ignore"):  # checked by the sums
            for lo, hi, part in network_blocks(block, n):
                g = input_gradient_batch(part, X)
                np.multiply(g, g, out=squares[:, lo:hi].swapaxes(0, 1))
        try:
            sums, certified = exact_column_sums(squares[:, :len(block)].reshape(n, -1))
        except OverflowError:  # finite squares whose sum exceeds the float range
            sums = None
        if sums is None or not np.isfinite(sums).all():
            raise NumericalError("the squared-gradient statistic overflows the float range: "
                                 "an input gradient or the sum of its squares is not finite")
        stats[start:start + len(block)] = (sums / n).reshape(len(block), d)
        fallbacks += int(np.count_nonzero(~certified))
    return stats, fallbacks


def all_statistics(net: Network, X) -> list:
    """One VariableStatistic per input dimension from a single gradient pass."""
    return [VariableStatistic(r) for r in statistics([net], X)[0][0].tolist()]
