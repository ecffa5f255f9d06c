"""Tests of the bulk seed words, mostly oracle tests against the installed
numpy's SeedSequence: a numpy that changes how ``default_rng`` seeds its
stream fails here, before any MC-dropout mask could silently change.
"""
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import labelaudit
from labelaudit.seeding import _seed_words, checked_words, mix64, pass_seed_words, words_generator

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


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


@pytest.mark.parametrize("value", EDGE_SEEDS)
def test_words_generator_equals_default_rng(value):
    row = _seed_words(np.array([value], dtype=np.uint64))[0]
    assert words_generator(row).random(37).tobytes() == np.random.default_rng(value).random(37).tobytes()


def test_pass_seed_words_equal_seed_sequence_of_every_pass():
    seeds = _seeds()
    words = pass_seed_words(np.array(seeds, dtype=np.uint64), 3)
    assert words.shape == (len(seeds), 3, 4) and words.flags.c_contiguous
    for seed, rows in zip(seeds, words):
        for t, row in enumerate(rows):
            assert row.tobytes() == _oracle_words(mix64(seed, t)).tobytes(), (seed, t)
            draws = words_generator(row).random(5)
            assert draws.tobytes() == np.random.default_rng(mix64(seed, t)).random(5).tobytes()


def test_pass_seed_words_warn_about_nothing():
    # the arithmetic wraps on purpose; numpy warns only on scalar overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pass_seed_words(np.array([2**64 - 1], dtype=np.uint64), 4)
        pass_seed_words(np.array([], dtype=np.uint64), 2)


def test_checked_words_copy_strided_words_and_refuse_other_types():
    words = pass_seed_words(np.array([7], dtype=np.uint64), 3)[0]
    fortran = np.asfortranarray(words)
    assert not fortran.flags.c_contiguous
    assert checked_words(fortran, 3).flags.c_contiguous
    assert checked_words(fortran, 3).tobytes() == words.tobytes()
    with pytest.raises(ValueError, match="uint64"):
        checked_words(words.astype(np.int64), 3)
    with pytest.raises(ValueError, match="shape"):
        checked_words(words, 4)


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
