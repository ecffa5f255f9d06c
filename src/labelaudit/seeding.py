"""Deterministic seed derivation for every stochastic component.

Every generator is numpy's ``default_rng(mix64(seed, stream))``.  MC-dropout
pass ``t`` of an example seeded ``s`` still keeps the units where
``default_rng(mix64(s, t))`` draws at least the dropout rate, but no numpy
generator is built for it: ``pass_seed_words`` reproduces numpy's
``SeedSequence`` (hash and mix of a 128-bit pool, O'Neill's PCG seeding
scheme) over whole arrays of seeds, and ``keep_mask`` runs numpy's PCG64
(XSL-RR 128/64, O'Neill, HMC-CS-2014-0905) from those words over every pass
of every row at once, comparing each draw as an integer.  The tests check
both against the installed numpy, so a numpy that changes its stream fails
loudly.
"""
from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# numpy.random.SeedSequence's constants (pool of four uint32 words)
_MASK32 = (1 << 32) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# numpy.random.PCG64's multiplier (PCG_DEFAULT_MULTIPLIER_128) in uint64 halves; the low half's 32-bit limbs
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_LIMB_HI, _LIMB_LO = _PCG_MULT_LO >> np.uint64(32), _PCG_MULT_LO & np.uint64(_MASK32)


def mix64(seed: int, stream: int) -> int:
    """SplitMix64 finalizer applied to ``seed`` advanced by ``stream + 1`` golden-ratio steps.

    Gives independent, reproducible 64-bit sub-seeds from one root seed, so
    per-pass dropout masks, per-fold trainings, and pipeline stages can each be
    recomputed in isolation without sharing generator state.
    """
    x = (seed + (stream + 1) * _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def generator(seed: int, stream: int) -> np.random.Generator:
    """A numpy Generator seeded from ``mix64(seed, stream)``."""
    return np.random.default_rng(mix64(seed, stream))


# Array arithmetic below wraps silently; it stays on >= 1-d arrays with explicit
# unsigned scalars, since numpy warns on scalar overflow and numpy 1.x turns
# uint64 mixed with a signed int into float64.

def _mix64_array(seeds: np.ndarray, streams: np.ndarray) -> np.ndarray:
    """``mix64`` over broadcast uint64 arrays of seeds and streams, bit for bit."""
    x = seeds + (streams + np.uint64(1)) * np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def pass_seed_words(seeds: np.ndarray, t_count: int) -> np.ndarray:
    """The (n, T, 4) uint64 seed words of every pass: ``[i, t]`` equals
    ``SeedSequence(mix64(seeds[i], t)).generate_state(4, np.uint64)``.

    ``seeds`` holds n integers in [0, 2**64).
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    return _seed_words(_mix64_array(seeds, np.arange(t_count, dtype=np.uint64).reshape(1, -1)))


def _seed_words(values: np.ndarray) -> np.ndarray:
    """``SeedSequence(v).generate_state(4, np.uint64)`` for every v of a uint64
    array, stacked on a new last axis.

    A 64-bit value is at most two uint32 entropy words, and the pool pads a
    missing high word with a hashed zero, which is what a zero high word
    hashes to; so every value runs the same fixed sequence of hash constants
    and the whole array hashes at once.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    low = (values & np.uint64(_MASK32)).astype(np.uint32)
    high = (values >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    state = np.empty((*values.shape, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for word in range(2 * _POOL_SIZE):
        value = pool[word % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[..., word] = value ^ (value >> np.uint32(16))
    # pairs of uint32 words read as little-endian uint64, as SeedSequence does
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _pcg64_outputs(words: np.ndarray, k: int):
    """Yield, k times, the next output of the PCG64 that each row of the (n, 4)
    uint64 ``words`` seeds: column by column, ``PCG64(SeedSequence(v)).random_raw(k)``.
    The 128-bit states step together as (high, low) uint64 halves; the one
    product whose high half counts runs on 32-bit limbs (Warren's mulhu).
    """
    one, n32, n58, n63, n64, m32 = (np.uint64(v) for v in (1, 32, 58, 63, 64, _MASK32))
    # pcg64_set_seed: state words[0:2] and increment (words[2:4] << 1) | 1, high half first
    inc_hi = (words[:, 2] << one) | (words[:, 3] >> n63)
    inc_lo = (words[:, 3] << one) | one
    # srandom: state 0 steps once to the increment, adds the seed, then steps
    lo = inc_lo + words[:, 1]
    hi = inc_hi + words[:, 0] + (lo < inc_lo)
    for step in range(k + 1):
        # state = state * multiplier + inc (mod 2**128); the high half of lo * _PCG_MULT_LO
        # is lo1 * _LIMB_HI + (mid >> 32) + low_carry, and lo < inc_lo after the add is its carry
        lo0, lo1 = lo & m32, lo >> n32
        mid = lo1 * _LIMB_LO + (lo0 * _LIMB_LO >> n32)
        low_carry = (lo0 * _LIMB_HI + (mid & m32)) >> n32
        hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + lo1 * _LIMB_HI + (mid >> n32) + low_carry + inc_hi
        lo = lo * _PCG_MULT_LO + inc_lo
        hi += lo < inc_lo
        if step:  # output: the halves' xor, rotated right by the state's top 6 bits
            x, rot = hi ^ lo, hi >> n58
            yield (x >> rot) | (x << ((n64 - rot) & n63))


def keep_mask(words: np.ndarray, k: int, p: float) -> np.ndarray:
    """The (..., k) bool dropout keep mask of each row of a (..., 4) uint64
    ``words`` array from ``pass_seed_words``: for the words of seed ``v``,
    ``default_rng(v).random(k) >= p``.  A draw is ``next64 >> 11`` times 2**-53,
    so the test is ``next64 >> 11 >= ceil(p * 2**53)``, exactly, or
    ``next64 >= ceil(p * 2**53) << 11``, which fits in 64 bits for p < 1.
    """
    words = np.asarray(words)
    if words.dtype != np.uint64 or words.shape[-1:] != (_POOL_SIZE,):
        raise ValueError(f"seed words must be uint64 of shape (..., {_POOL_SIZE}), got {words.dtype} {words.shape}")
    flat = words.reshape(-1, _POOL_SIZE)
    keep = np.ones((k, len(flat)), dtype=bool)
    threshold = np.uint64(math.ceil(p * 2.0**53) << 11)
    if threshold:
        for draw, outputs in zip(keep, _pcg64_outputs(flat, k)):
            np.greater_equal(outputs, threshold, out=draw)
    # row-major: the forward reads each pass's mask as one run
    return np.ascontiguousarray(keep.T).reshape(*words.shape[:-1], k)
