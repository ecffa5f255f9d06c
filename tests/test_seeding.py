"""Tests of the bulk seed words and the vectorized PCG64, mostly oracle tests
against the installed numpy's SeedSequence, PCG64 and ``default_rng``: a
numpy that changes how ``default_rng`` seeds or runs its stream fails here,
before any MC-dropout mask could silently change.
"""
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import labelaudit
from labelaudit.seeding import _pcg64_outputs, _seed_words, keep_mask, mix64, pass_seed_words

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
DRAW_COUNTS = [1, 33, 64, 128]
RATES = [1e-300, 0.1, 0.5, 1 - 2**-53]


def _oracle_words(value: int) -> np.ndarray:
    return np.random.SeedSequence(value).generate_state(4, np.uint64)


def _seeds():
    drawn = np.random.default_rng(2024).integers(0, 2**64, size=200, dtype=np.uint64).tolist()
    return EDGE_SEEDS + drawn + [mix64(4, 1 + j) for j in range(200)]


def test_seed_words_equal_seed_sequence_at_edge_and_drawn_values():
    values = _seeds()
    words = _seed_words(np.array(values, dtype=np.uint64))
    assert words.shape == (len(values), 4) and words.dtype == np.uint64
    for value, row in zip(values, words):
        assert row.tobytes() == _oracle_words(value).tobytes(), value


def _raw(words: np.ndarray, k: int) -> np.ndarray:
    return np.stack([out.copy() for out in _pcg64_outputs(words, k)], axis=-1)


@pytest.mark.parametrize("value", EDGE_SEEDS)
def test_words_generator_equals_default_rng(value):
    # the vectorized PCG64 that a row of seed words seeds, against numpy's own
    row = _seed_words(np.array([value], dtype=np.uint64))
    for k in DRAW_COUNTS:
        oracle = np.random.PCG64(np.random.SeedSequence(value)).random_raw(k)
        assert _raw(row, k)[0].tobytes() == oracle.tobytes(), k
        for p in RATES:
            expected = np.random.default_rng(value).random(k) >= p
            assert keep_mask(row[0], k, p).tobytes() == expected.tobytes(), (k, p)


def test_raw_stream_and_keep_mask_equal_numpy_at_every_seed():
    values = _seeds()
    words = _seed_words(np.array(values, dtype=np.uint64))
    raw = _raw(words, max(DRAW_COUNTS))
    for value, row in zip(values, raw):
        assert row.tobytes() == np.random.PCG64(np.random.SeedSequence(value)).random_raw(row.size).tobytes(), value
    for k in DRAW_COUNTS:
        for p in RATES:
            expected = np.stack([np.random.default_rng(value).random(k) >= p for value in values])
            got = keep_mask(words, k, p)
            assert got.shape == (len(values), k) and got.dtype == bool
            assert got.tobytes() == expected.tobytes(), (k, p)


@pytest.mark.parametrize("rows, k", [(3, 50), (40, 5)], ids=["more-draws-than-rows", "fewer-draws-than-rows"])
def test_keep_mask_equals_default_rng_whichever_of_draws_and_rows_is_larger(rows, k):
    # the PCG64 steps reuse one set of row-sized buffers across all k draws
    values = _seeds()[:rows]
    words = _seed_words(np.array(values, dtype=np.uint64))
    for p in RATES:
        expected = np.stack([np.random.default_rng(value).random(k) >= p for value in values])
        assert keep_mask(words, k, p).tobytes() == expected.tobytes(), p


def test_pass_seed_words_equal_seed_sequence_of_every_pass():
    seeds = _seeds()
    words = pass_seed_words(np.array(seeds, dtype=np.uint64), 3)
    assert words.shape == (len(seeds), 3, 4) and words.flags.c_contiguous
    keep = keep_mask(words, 5, 0.5)
    assert keep.shape == (len(seeds), 3, 5)
    for seed, rows, masks in zip(seeds, words, keep):
        for t, (row, mask) in enumerate(zip(rows, masks)):
            assert row.tobytes() == _oracle_words(mix64(seed, t)).tobytes(), (seed, t)
            draws = np.random.default_rng(mix64(seed, t)).random(5)
            assert mask.tobytes() == (draws >= 0.5).tobytes()


def test_pass_seed_words_warn_about_nothing():
    # the arithmetic wraps on purpose; numpy warns only on scalar overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pass_seed_words(np.array([2**64 - 1], dtype=np.uint64), 4)
        pass_seed_words(np.array([], dtype=np.uint64), 2)


def test_keep_mask_warns_about_nothing():
    # the 128-bit state wraps on purpose, and so does every limb product
    words = pass_seed_words(np.array([2**64 - 1, 0, 2**63], dtype=np.uint64), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in RATES:
            keep_mask(words, 128, p)
        assert keep_mask(words[:0], 3, 0.1).shape == (0, 4, 3)


def test_keep_mask_reads_strided_words_and_refuses_other_types():
    words = pass_seed_words(np.array([7, 2**64 - 1], dtype=np.uint64), 3)
    expected = keep_mask(words, 33, 0.1)
    fortran = np.asfortranarray(words)
    assert not fortran.flags.c_contiguous
    assert keep_mask(fortran, 33, 0.1).tobytes() == expected.tobytes()
    every_other = np.repeat(words, 2, axis=-1)[..., ::2]
    assert keep_mask(every_other, 33, 0.1).tobytes() == expected.tobytes()
    assert keep_mask(words, 33, 0.0).all()
    with pytest.raises(ValueError, match="uint64"):
        keep_mask(words.astype(np.int64), 33, 0.1)
    with pytest.raises(ValueError, match="shape"):
        keep_mask(words[..., :3], 33, 0.1)


def test_importing_the_package_leaves_numpy_random_unloaded():
    # numpy 2 loads numpy.random on first use; loading it at import would add
    # to every command's start-up time
    code = (
        "import sys, numpy; before = 'numpy.random' in sys.modules; import labelaudit.pipeline, labelaudit.cli; "
        "print(before or 'numpy.random' not in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(labelaudit.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "True"
