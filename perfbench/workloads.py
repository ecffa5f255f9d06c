"""The benchmark's workloads.

Each workload builds its inputs from the workload seed, names the pipeline
config it runs, and lists the spans its traced run must see called (a span
listed here that records no calls is reported as absent, never as 0 s).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from labelaudit import noisebench
from labelaudit.data import PredictiveDistribution, save_dataset, save_distributions
from labelaudit.noisebench import NoiseMask, NoiseSpec
from labelaudit.pipeline import BenchmarkConfig, PipelineConfig, default_benchmark_config
from labelaudit.seeding import mix64

SCALE_N = 20_000
SCALE_DIM = 16
SCALE_TEST = 5_000
EXTERNAL_N = 50_000
EXTERNAL_PASSES = 10
# shares of examples on which the simulated external sentinel leans neutral,
# and on which it is confidently wrong; it leans toward gold on the rest
UNINFORMATIVE = 0.1
MISLEADING = 0.02
ENTAILMENT_CLASSES = ("entailment", "neutral", "contradiction")
ENTAILMENT_ROLES = ("supports_positive", "abstain", "supports_negative")


@dataclass(frozen=True)
class Inputs:
    """What one workload hands the pipeline, plus what the benchmark scores it against."""

    config: PipelineConfig
    input_size: int
    # ground truth the benchmark scores itself; None when the pipeline's report scores it
    mask: NoiseMask | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    expects: frozenset[str]
    prepare: Callable[[int, Path], Inputs]


def _stock(seed: int, workdir: Path) -> Inputs:
    config = default_benchmark_config("symmetric", seed=seed, out_dir=str(workdir / "out"))
    return Inputs(config, config.benchmark.n)


def _scale(seed: int, workdir: Path) -> Inputs:
    # two blobs at -/+0.5 per axis: centre distance 4, the same as the stock blobs
    bench = BenchmarkConfig(
        n=SCALE_N,
        dim=SCALE_DIM,
        centers=((-0.5,) * SCALE_DIM, (0.5,) * SCALE_DIM),
        test_size=SCALE_TEST,
    )
    config = default_benchmark_config(
        "symmetric", seed=seed, out_dir=str(workdir / "out"), benchmark=bench, sweep=None
    )
    return Inputs(config, SCALE_N)


def _entailment_passes(gold: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-pass (entailment, neutral, contradiction) rows for each example.

    The sentinel leans neutral on an ``UNINFORMATIVE`` share, so that evidence
    stays below the filter thresholds; it leans confidently away from gold on
    a ``MISLEADING`` share, so that clean examples get flagged too.
    """
    draw = rng.random(len(gold))
    neutral = draw < UNINFORMATIVE
    lean = np.where(draw < UNINFORMATIVE + MISLEADING, 1 - gold, gold)
    passes = np.empty((len(gold), EXTERNAL_PASSES, len(ENTAILMENT_CLASSES)))
    for rows, alpha in (
        (neutral, (2.0, 4.0, 2.0)),
        (~neutral & (lean == 1), (14.0, 2.0, 1.0)),
        (~neutral & (lean == 0), (1.0, 2.0, 14.0)),
    ):
        passes[rows] = rng.dirichlet(alpha, size=(int(rows.sum()), EXTERNAL_PASSES))
    return passes


def _external(seed: int, workdir: Path) -> Inputs:
    workdir.mkdir(parents=True, exist_ok=True)
    # looked up on the module at call time, so the traced set-up times them
    clean = noisebench.make_blobs(EXTERNAL_N, 2, 2, ((-2.0, 0.0), (2.0, 0.0)), 1.0, mix64(seed, 1))
    noisy, mask = noisebench.inject_noise(clean, NoiseSpec(0.3, "symmetric", mix64(seed, 2)))
    gold = np.array([ex.gold_label for ex in noisy.examples])
    passes = _entailment_passes(gold, np.random.default_rng(mix64(seed, 3)))
    dataset, dump, mapping = (workdir / name for name in ("dataset.jsonl", "dump.jsonl", "mapping.json"))
    save_dataset(noisy.strip_gold(), str(dataset))
    save_distributions(
        (PredictiveDistribution(ex.id, rows) for ex, rows in zip(noisy.examples, passes)), str(dump)
    )
    mapping.write_text(
        json.dumps({"classes": list(ENTAILMENT_CLASSES), "roles": list(ENTAILMENT_ROLES)}) + "\n"
    )
    config = PipelineConfig(
        seed=seed,
        out_dir=str(workdir / "out"),
        dataset=str(dataset),
        sentinel="external",
        dump=str(dump),
        mapping=str(mapping),
        passes=EXTERNAL_PASSES,
        policy="filter",
    )
    return Inputs(config, EXTERNAL_N, mask)


_CV = frozenset(
    {
        "mlp.mcd_predict",
        "mlp.train",
        "mlp.predict_batch",
        "sentinel.build_cv_sentinel",
        "data.strip_gold",
    }
)
_EVERY = frozenset(
    {
        "pipeline.run_pipeline",
        "pipeline.emit_report",
        "uncertainty.summarize",
        "policy.decide",
        "policy.apply_decisions",
        "policy.save_decisions",
        "data.save_dataset",
        "noisebench.make_blobs",
        "noisebench.inject_noise",
    }
)

# why each workload was chosen is recorded in BENCHMARK.json and perfbench/README.md
WORKLOADS = {
    "stock": Workload("stock", _EVERY | _CV | {"pipeline.sweep"}, _stock),
    "scale": Workload("scale", _EVERY | _CV, _scale),
    "external": Workload(
        "external",
        _EVERY
        | {
            "sentinel.ingest_external_dump",
            "sentinel.map_to_evidence",
            "data.load_dataset",
            "data.load_distributions",
            "data.validate_distribution",
        },
        _external,
    ),
}
