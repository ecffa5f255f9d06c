import os

# the acceptance timing budget assumes a single thread; tiny matrices gain
# nothing from BLAS threading anyway
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def generators_built(monkeypatch):
    """A list that records each numpy Generator built while the test runs,
    through ``default_rng`` or the ``Generator`` constructor."""
    built = []
    for name in ("default_rng", "Generator"):
        original = getattr(np.random, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            built.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counted)
    return built
