"""Guard for the benchmark's tracer (``perfbench/tracing.py``), loaded by path.

The tracer wraps functions at the names where their callers look them up and
reads work units from their arguments and results.  A refactor that moves such
a name, or changes what a traced call returns, fails here instead of silently
turning a traced metric absent.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from labelaudit.data import PredictiveDistribution, save_distributions
from labelaudit.mlp import ModelSpec, TrainConfig, init_model
from labelaudit.noisebench import make_blobs
from labelaudit.sentinel import build_cv_sentinel, load_distributions, mcd_predict

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("labelaudit_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _units(tracing, span: str, args, result) -> int:
    (point,) = {p.units for p in tracing.PATCH_POINTS if p.span == span}
    return point(args, result)


def test_every_patch_point_resolves(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()


def test_load_distributions_result_has_a_length(tracing, tmp_path):
    path = str(tmp_path / "dump.jsonl")
    save_distributions([PredictiveDistribution(f"e{i}", [[0.5, 0.5]] * 3) for i in range(4)], path)
    stack = load_distributions(path)
    assert len(stack) == 4
    assert _units(tracing, "data.load_distributions", (path,), stack) == 4


def test_mcd_predict_result_has_a_pass_count(tracing):
    model = init_model(ModelSpec(2, (3,), 2), 0)
    args = (model, np.zeros(2), 5, 1)
    dist = mcd_predict(*args)
    assert dist.t_count == 5
    assert _units(tracing, "mlp.mcd_predict", args, dist) == 5


def test_cv_sentinel_records_one_mcd_predict_span_per_example(tracing):
    # the benchmark's per-pass figure divides by these units: batching examples
    # into fewer calls, or passes out of the result, fails here
    dataset = make_blobs(14, 2, 2, [(-2, 0), (2, 0)], 1.0, 3)
    spec = ModelSpec(2, (4,), 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        build_cv_sentinel(dataset, 3, spec, TrainConfig(0.2, 1, 8, seed=1), 6, seed=2)
    finally:
        tracer.uninstall()
    stat = tracer.stat("mlp.mcd_predict", root=None)
    assert (stat.calls, stat.units) == (14, 14 * 6)
    assert tracer.no_units == set()
