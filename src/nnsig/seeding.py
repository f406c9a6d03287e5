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
    (0, k)   sampled network k (network.sample_networks), in the null and in
             a Rademacher class
    (1, t)   null draw t (nulldist._select)
    (1,)     the Rademacher signs (diagnostics._rademacher): once in
             diagnostics.estimate_rademacher, and once per sample size in
             diagnostics.complexity_scaling_experiment
    (2, i)   diagnostics.complexity_scaling_experiment: the covariates of
             sample size i

Key ``(i,)`` gives the state of ``SeedSequence(s).spawn(i + 1)[i]`` and key
``(i, k)`` that of ``SeedSequence(s).spawn(i + 1)[i].spawn(k + 1)[k]``.

A single stream comes from ``generator``, a family ``(head, t)`` of them
(networks, draws, sample sizes) from ``generators``, since a ``SeedSequence``
and a ``PCG64`` per stream cost more than many streams draw. Keys ``(head,
t)`` share the pool of ``(head,)``, so the last word's mixing,
``generate_state`` and PCG64's seeding step run over many t at once in
numpy, with O'Neill's ``seed_seq_fe`` constants as numpy uses them.
``generator`` stays the definition: ``tests/test_seeding.py`` and the null's
tests check the draws of ``generators`` against it.
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


# O'Neill's seed_seq_fe constants (pcg-cpp), as numpy's SeedSequence uses
# them: pool hash (A), mixing (L, R) and output hash (B).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_WORD = 2 ** 32
# PCG64's 128-bit LCG multiplier (pcg_setseq_128, numpy's PCG64)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2 ** 128 - 1
# Streams whose states generators derives at once.
_CHUNK = 256


def _hash(value: np.ndarray, h: int, mult: int) -> np.ndarray:
    """seed_seq_fe's uint32 hash of ``value`` under hash constant ``h``:
    ``(value ^ h) * (h * mult)``, then ``x ^ (x >> 16)``."""
    value = (value ^ np.uint32(h)) * np.uint32(h * mult % _WORD)
    return value ^ (value >> np.uint32(16))


def _pcg64_states(seed, head: int, last: np.ndarray):
    """Yield ``(state, inc)`` of ``PCG64(stream(seed, head, t))`` for every t
    in ``last`` (uint32), hashed for all t at once.

    Stream ``(head, t)`` hashes the entropy words ``[seed words padded to 4,
    head, t]`` into a pool of four: the pool before the last word is that of
    stream ``(head,)``, and the hash constant has stepped 4 + 12 + 4 times.
    The last word is mixed into each pool word, ``generate_state(4, uint64)``
    hashes the pool into eight words, and PCG64 seeds its LCG from the four
    uint64 ``s`` by ``inc = 2 * (s2 s3) + 1`` and ``state = (inc + (s0 s1)) *
    MULT + inc``, modulo 2**128.
    """
    h = _INIT_A * pow(_MULT_A, 20, _WORD) % _WORD
    pool = []
    for p in stream(seed, head).pool.tolist():
        mixed = (np.uint32(_MIX_MULT_L * p % _WORD)
                 - np.uint32(_MIX_MULT_R) * _hash(last, h, _MULT_A))
        pool.append(mixed ^ (mixed >> np.uint32(16)))
        h = h * _MULT_A % _WORD
    # generate_state(4, uint64): eight hashed words, paired low word first
    h = _INIT_B
    words = []
    for i in range(8):
        words.append(_hash(pool[i % 4], h, _MULT_B).astype(np.uint64))
        h = h * _MULT_B % _WORD
    s = np.stack([words[2 * k] | (words[2 * k + 1] << np.uint64(32)) for k in range(4)], axis=1)
    # yielded row by row, so a block's 128-bit states are never all alive at
    # once: a full list of them measurably raised the peak RSS
    for s0, s1, s2, s3 in s.tolist():
        inc = (((s2 << 64 | s3) << 1) | 1) & _MASK128
        yield ((((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _MASK128, inc)


def generators(seed, head: int, start: int, count: int):
    """Yield a generator on each stream ``(head, t)``, t from ``start`` up to
    ``start + count``, drawing exactly what ``generator(seed, head, t)`` draws.

    One generator is yielded each time, set to the next stream, so draw from
    it before taking the next. Its states come from ``_pcg64_states``,
    ``_CHUNK`` streams at a time so that the states held stay bounded; a key
    ``t >= 2**32`` takes two key words and goes through ``generator``.
    """
    fast = range(start, max(start, min(start + count, _WORD)) if head < _WORD else start)
    if fast:
        rng = generator(seed, head, start)  # its state is replaced stream by stream
    for lo in fast[::_CHUNK]:
        last = np.arange(lo, min(lo + _CHUNK, fast.stop), dtype=np.uint32)
        for state, inc in _pcg64_states(seed, head, last):
            rng.bit_generator.state = {"bit_generator": "PCG64",
                                       "state": {"state": state, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
            yield rng
    for t in range(fast.stop, start + count):
        yield generator(seed, head, t)


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
