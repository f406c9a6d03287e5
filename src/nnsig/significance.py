"""Squared-partial-derivative test statistics.

The raw statistic for variable j is the mean over sample points of the
squared j-th input gradient component. Its sum is the exactly rounded one that
math.fsum defines, so the result is independent of row order at full double
precision; ``exact_column_sums`` reaches it with a certified vectorized
cascade and falls back to math.fsum for any column it cannot certify.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, NumericalError
from .network import Network, input_gradient_batch


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
    zero or subnormal fails this check and is settled as a tie (below), its
    additions being exact. Columns are considered only when
    ``X' <= DBL_MAX / 4``, which keeps every partial sum of the cascade and
    of ``math.fsum`` far from overflow and excludes non-finite columns.

    Ties. The ends differ when ``T`` lies within ``delta`` of a midpoint
    between two doubles, and an exact midpoint is not rare: at n = 300 the
    terms' bits may reach only a dozen bits below the last bit of the sum.
    Such a column's error terms go through the cascade once more; when all of
    its own error terms are zero, ``sum(e)`` is exactly its result ``s2``,
    and ``fl(s + s2)`` is ``fl(T)``, ties to even included.

    Every other column is summed by ``math.fsum``, with its
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
        if certified.all():
            return sums, certified
        if n > 1:
            ties = np.flatnonzero(finite & ~certified)
            s2, errs2 = _two_sum_cascade(errs[:, ties])
            exact = ~errs2.any(axis=0)
            sums[ties[exact]] = s[ties[exact]] + s2[exact]
            certified[ties[exact]] = True
    for j in np.flatnonzero(~certified):
        sums[j] = math.fsum(q[:, j].tolist())
    return sums, certified


def mean_squares(squares: np.ndarray) -> tuple:
    """``(raw, certified)`` of each column of an (n, k) array of squared
    gradients: raw is the column mean, its sum exactly rounded by
    ``exact_column_sums``, whose ``certified`` is passed on."""
    try:
        sums, certified = exact_column_sums(squares)
    except OverflowError:  # finite squares whose sum exceeds the float range
        raise NumericalError("the squared-gradient statistic overflows the float range") from None
    return sums / len(squares), certified


def all_statistics(net: Network, X) -> list:
    """One VariableStatistic per input dimension from a single gradient pass."""
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise InputError("empty covariate matrix")
    grads = input_gradient_batch(net, X)
    raw, _ = mean_squares(grads * grads)
    return [VariableStatistic(r) for r in raw.tolist()]
