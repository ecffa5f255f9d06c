"""Deterministic seed derivation for every stochastic component.

Every generator is numpy's ``default_rng(mix64(seed, stream))``.  MC-dropout
pass ``t`` of an example seeded ``s`` still uses ``default_rng(mix64(s, t))``,
but its seed words come in bulk: ``pass_seed_words`` reproduces numpy's
``SeedSequence`` (hash and mix of a 128-bit pool, O'Neill's PCG seeding
scheme) over whole arrays of seeds, and ``words_generator`` builds the
generator from one pass's words, skipping the per-seed hashing.  The tests
check both against the installed numpy, so a numpy that changes its stream
fails loudly.
"""
from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# numpy.random.SeedSequence's constants (pool of four uint32 words)
_MASK32 = (1 << 32) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


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


@functools.cache
def _seed_words_type() -> type:
    """A seed sequence type that hands PCG64 four precomputed uint64 words.

    Built on first use: subclassing numpy's ``ISeedSequence`` at import time
    would load ``numpy.random`` on every import of this package.
    """

    class SeedWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def checked_words(words, t_count: int) -> np.ndarray:
    """``words`` as a C-contiguous uint64 (t_count, 4) array, or ValueError.

    PCG64 reads seed words as a raw buffer, so a strided array would seed a
    different stream and another integer type would be reinterpreted; strides
    are copied away, other types refused.
    """
    words = np.asarray(words)
    if words.dtype != np.uint64:
        raise ValueError(f"seed words must be uint64, got {words.dtype}")
    if words.shape != (t_count, _POOL_SIZE):
        raise ValueError(f"seed words must have shape ({t_count}, {_POOL_SIZE}), got {words.shape}")
    return np.ascontiguousarray(words)


def words_generator(words: np.ndarray) -> np.random.Generator:
    """The generator one row of ``pass_seed_words`` seeds: for the words of
    ``mix64(s, t)`` it equals ``default_rng(mix64(s, t))``.  ``words`` must be
    C-contiguous uint64 of shape (4,), as a row of ``checked_words`` is."""
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))
