"""Every random stream of nnsig, derived from one master seed.

The stream with key ``key`` is ``SeedSequence(seed & (2**63 - 1),
spawn_key=key)``: any integer, negative or wider than 64 bits, is a valid
master seed, and equal low 63 bits give equal streams. A stream depends only
on the seed and its key, never on how many other streams are drawn or in
what order; so a variable's p-value is the same whether it is tested alone
or with others, and the first k sampled networks do not depend on m.

Spawn keys in use (this table is the determinism contract):

    ()       data.generate (covariates, then noise) and data.split
    (0,)     training.fit_least_squares: the initial network
    (1,)     training.fit_least_squares: the batch order
    (0, k)   sampled network k, in the null (nulldist.sample_networks) and
             in a Rademacher class (diagnostics.glorot_class_sampler)
    (1, t)   null draw t (nulldist._select)
    (1,)     diagnostics.estimate_rademacher: the Rademacher signs
    (2, i)   diagnostics.complexity_scaling_experiment: the covariates of
             sample size i

Key ``(i,)`` gives the state of ``SeedSequence(s).spawn(i + 1)[i]`` and key
``(i, k)`` that of ``SeedSequence(s).spawn(i + 1)[i].spawn(k + 1)[k]``.
"""

from __future__ import annotations

import numpy as np

# numpy.random is reached through np.random at call time: numpy imports it
# lazily, so importing nnsig does not pay for it before a stream is needed.

_MASK = 2 ** 63 - 1


def stream(seed, *key) -> np.random.SeedSequence:
    """The seed sequence of stream ``key`` under master seed ``seed``."""
    return np.random.SeedSequence(int(seed) & _MASK, spawn_key=key)


def generator(seed, *key) -> np.random.Generator:
    """A PCG64 generator on stream ``key`` under master seed ``seed``."""
    return np.random.Generator(np.random.PCG64(stream(seed, *key)))


def truncated_normal(rng: np.random.Generator, shape, sigma: float, bound: float) -> np.ndarray:
    """N(0, sigma) draws of the given shape, each one with |w| > bound drawn
    again, in index order, until none is left."""
    w = rng.normal(0.0, sigma, shape)
    while True:
        bad = np.abs(w) > bound
        k = int(bad.sum())
        if k == 0:
            return w
        w[bad] = rng.normal(0.0, sigma, k)
