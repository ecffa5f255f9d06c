"""Checks of the benchmark itself.

    python -m pytest perfbench
"""
from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from labelaudit import pipeline  # noqa: E402


def _acceptance_pins() -> dict:
    spec = importlib.util.spec_from_file_location("acceptance", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PINNED_BENCHMARK[("symmetric", 4)]


@pytest.fixture(scope="module")
def stock_seed_4(tmp_path_factory):
    inputs = WORKLOADS["stock"].prepare(4, tmp_path_factory.mktemp("stock"))
    return inputs, pipeline.run_pipeline(inputs.config)


def test_stock_seed_4_reproduces_the_acceptance_pins_exactly(stock_seed_4):
    inputs, result = stock_seed_4
    pins = _acceptance_pins()
    detection, evaluation = result.report["detection"], result.report["evaluation"]
    assert detection["precision"] == pins["precision"]
    assert detection["recall"] == pins["recall"]
    assert evaluation["baseline"]["accuracy"] == pins["baseline_accuracy"]
    assert evaluation["cleaned"]["accuracy"] == pins["cleaned_accuracy"]
    assert run._check(result, inputs, Path(inputs.config.out_dir)) == []


def test_output_check_catches_a_missing_decision(stock_seed_4):
    inputs, result = stock_seed_4
    broken = dataclasses.replace(result, decisions=result.decisions[1:])
    problems = run._check(broken, inputs, Path(inputs.config.out_dir))
    assert any("expected one for each of 2000" in p for p in problems)


def test_traced_run_is_transparent_and_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "stock", "--seed", "4", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # one untraced and one traced call, whose outputs matched byte for byte
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in per_layer}
    assert result["metrics"]["uncertainty.summarize.calls"]["value"] == 54_200
    assert result["metrics"]["pipeline.sweep.grid_points"]["value"] == 261


def test_a_lost_patch_point_is_named_absent_not_read_as_zero(monkeypatch):
    monkeypatch.delattr("labelaudit.pipeline.summarize")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, absent, idle = layer_metrics(tracer, WORKLOADS["stock"].expects)
    assert "no longer exists" in absent["uncertainty.summarize.us_per_call"]
    # a span the workload expects but that ran no call: mcd_predict batched away
    assert "recorded no calls" in absent["mlp.mcd_predict.us_per_example_pass"]
    assert not set(absent) & set(metrics)
    # spans stock never calls read 0 and are named idle
    assert metrics["data.load_distributions.us_per_record"] == (0, "us")
    assert "data.load_distributions.us_per_record" in idle


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stock", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
