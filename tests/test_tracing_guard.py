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

from labelaudit.data import PassStack, PredictiveDistribution, load_dataset, save_dataset, save_distributions
from labelaudit.mlp import ModelSpec, TrainConfig, init_model, train
from labelaudit.noisebench import make_blobs
from labelaudit.pipeline import decide_all
from labelaudit.policy import (
    KEEP,
    REMOVE,
    Decision,
    Decisions,
    FilterThresholds,
    OverwriteThresholds,
    QuantileThresholds,
    apply_decisions,
    save_decisions,
)
from labelaudit.sentinel import LabelSpaceMapping, build_cv_sentinel, load_distributions, mcd_predict

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


@pytest.mark.parametrize(
    "policy, width, thresholds, summaries",
    [
        ("overwrite", 2, OverwriteThresholds(), 14),
        ("filter", 2, FilterThresholds(), 14),
        ("quantile", 3, QuantileThresholds((2, 1, 0), {0}, {1, 2}), 0),
    ],
)
def test_decide_all_records_one_summarize_and_one_decide_span_per_row(
    tracing, rng, policy, width, thresholds, summaries
):
    # the benchmark's per-call figures divide by these counts, and it pins
    # 54,200 summarize calls on its stock run: batching rows fails here first
    raw = rng.random((14, 5, width)) + 1e-9
    stack = PassStack([f"e{i}" for i in range(14)], raw / raw.sum(axis=2, keepdims=True))
    mapping = LabelSpaceMapping.binary_target() if policy == "filter" else None
    tracer = tracing.Tracer()
    tracer.install()
    try:
        decisions = decide_all(policy, stack, [i % 2 for i in range(14)], thresholds, mapping)
    finally:
        tracer.uninstall()
    assert len(decisions) == 14
    assert tracer.stat("uncertainty.summarize", root=None).calls == summaries
    assert tracer.stat("policy.decide", root=None).calls == 14


def test_dataset_work_units_read_from_columns(tracing, tmp_path):
    dataset = make_blobs(12, 2, 2, [(-2, 0), (2, 0)], 1.0, 3)
    config = TrainConfig(0.2, 3, 8, seed=1)
    args = (init_model(ModelSpec(2, (4,), 2), 0), dataset.subset(np.arange(9)), config)
    assert _units(tracing, "mlp.train", args, train(*args)) == 9 * 3
    path = str(tmp_path / "data.jsonl")
    save_dataset(dataset, path)
    assert _units(tracing, "data.save_dataset", (dataset, path), None) == 12
    loaded = load_dataset(path)
    assert _units(tracing, "data.load_dataset", (path,), loaded) == 12
    args = (loaded, [Decision("ex00003", REMOVE)], "filter_only")
    assert _units(tracing, "policy.apply_decisions", args, apply_decisions(*args)) == 12
    # a run's decisions are one column set: the units still read from its arguments
    records = (Decision(exid, REMOVE if j == 3 else KEEP) for j, exid in enumerate(loaded.ids))
    decisions = Decisions.from_records(records, loaded.ids)
    args = (loaded, decisions, "filter_only")
    assert _units(tracing, "policy.apply_decisions", args, apply_decisions(*args)) == 12
    args = (decisions, str(tmp_path / "decisions.jsonl"))
    assert _units(tracing, "policy.save_decisions", args, save_decisions(*args)) == 12


def test_a_traced_call_records_strip_gold(tracing):
    dataset = make_blobs(6, 2, 2, [(-2, 0), (2, 0)], 1.0, 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stripped = dataset.strip_gold()
    finally:
        tracer.uninstall()
    assert stripped.gold is None
    assert tracer.stat("data.strip_gold", root=None).calls == 1
