"""End-to-end orchestration: plan -> sentinel -> uncertainty -> decisions ->
apply -> retrain -> evaluate, plus the threshold grid sweep and report emission.
``plan_run`` resolves a run's inputs once, into a ``RunPlan``, before any model
trains; the config it reads is defined in ``config``.

Every stochastic stage draws its seed from a fixed stream of the pipeline seed
(see ``config._Stream``), so two runs with the same config produce byte-identical
decision and dataset files; the report's only volatile content lives under the
single ``run_stamp`` key.
"""
from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import BenchmarkConfig, PipelineConfig, _Stream, config_to_dict
from .data import (
    FEATURES,
    TOKENS,
    DataFormatError,
    Dataset,
    NO_GOLD,
    PassStack,
    load_dataset,
    located,
    save_dataset,
    write_lines,
)
from .metrics import ScoredPrediction, classification_metrics
from .mlp import Model, ModelSpec, init_model, predict_batch, train
from .noisebench import detection_scores, inject_noise, make_blobs, save_noise_mask
from .policy import (
    FILTER_ONLY,
    OVERWRITE_MODE,
    THRESHOLDS,
    Decisions,
    FilterThresholds,
    OverwriteThresholds,
    QuantileThresholds,
    apply_decisions,
    decide_filter,
    decide_overwrite,
    decide_quantile,
    grid_fields,
    rule_histogram,
    save_decisions,
    thresholds_from_section,
    thresholds_to_section,
)
from .seeding import mix64
from .sentinel import (
    FoldAssignment,
    LabelSpaceMapping,
    build_cv_sentinel,
    check_folds,
    ingest_external_dump,
    map_to_evidence,
)
from .uncertainty import summarize


class PipelineError(RuntimeError):
    """A stage failed mid-run; the message names the stage."""


@contextmanager
def _stage(name: str):
    # malformed input content is not a runtime fault: it stays a DataFormatError
    try:
        yield
    except (PipelineError, DataFormatError):
        raise
    except Exception as err:
        raise PipelineError(f"stage {name!r}: {err}") from err


@dataclass
class PipelineResult:
    config: PipelineConfig
    report: dict
    decisions: Decisions
    cleaned: Dataset
    fold_assignment: FoldAssignment | None = None


def decide_all(policy: str, dists: PassStack, labels: list[int], thresholds, mapping: LabelSpaceMapping | None):
    """One decision per row of the stack, where ``labels[i]`` is the current label
    of row i; ``mapping`` turns a sentinel's classes into evidence for the filter
    policy, as ``RunPlan.mapping`` holds it.

    Each row still runs one ``summarize`` and one ``decide_*`` call (the
    quantile policy: one ``decide_quantile``); their ``Decision`` records are
    streamed into one ``Decisions`` that shares the stack's ids tuple.
    """
    if len(labels) != len(dists):
        raise ValueError(f"decide_all got {len(labels)} labels for a stack of {len(dists)} rows")
    if policy == "quantile":
        return Decisions.from_records(map(decide_quantile, dists, labels, itertools.repeat(thresholds)), dists.ids)
    rows = dists.passes
    if policy == "filter" and dists.ids:
        rows = map_to_evidence(dists, mapping)
    decide = decide_overwrite if policy == "overwrite" else decide_filter
    summaries = map(summarize, rows, dists.ids)
    return Decisions.from_records(map(decide, summaries, labels, itertools.repeat(thresholds)), dists.ids)


@dataclass(frozen=True)
class RunPlan:
    """What a run resolves from its config and splits before any model trains."""

    thresholds: FilterThresholds | OverwriteThresholds | QuantileThresholds
    width: int  # the class count of the sentinel's distributions
    mapping: LabelSpaceMapping | None  # the filter policy's; the binary one when none is named
    spec: ModelSpec | None  # None when no model trains
    candidates: tuple  # the sweep's valid (grid point, thresholds) pairs in product order


def _layout(dataset: Dataset) -> dict:
    """What a run's test and dev splits must share with its dataset, by name."""
    schema = FEATURES if dataset.features is not None else TOKENS if dataset.tokens is not None else None
    return {"class_count": dataset.class_count, "schema": schema, "feature dimension": dataset.feature_dim}


def plan_run(
    config: PipelineConfig, dataset: Dataset, dev: Dataset | None = None, test: Dataset | None = None
) -> RunPlan:
    """Resolve a run's ``RunPlan``, refusing a split that the sentinel, the
    retrain (there is one when ``test`` is given), the policy or the sweep
    (when ``dev`` is given) could not take, with the message that stage would
    give, located at the split's file or ``benchmark``.  ``decide_*`` and
    ``build_cv_sentinel`` keep their checks for direct callers."""
    layout = _layout(dataset)
    for path, split in ((config.test_dataset, test), (config.dev_dataset, dev)):
        for name, value in _layout(split).items() if split is not None else ():
            if value != layout[name]:
                raise DataFormatError(f"{path}: {name} {value} differs from the dataset's {layout[name]}")
    mapping = LabelSpaceMapping.from_file(config.mapping) if config.mapping is not None else None
    width = len(mapping.roles) if config.sentinel == "external" and mapping is not None else dataset.class_count
    where = config.dataset or "benchmark"
    try:
        spec = config.model_spec(dataset) if config.sentinel == "cv" or test is not None else None
        if config.sentinel == "cv":
            check_folds(config.folds, len(dataset))
        thresholds = config.thresholds
        if thresholds is None and config.policy == "quantile":
            if dataset.class_count != 2:
                raise ValueError("quantile policy needs explicit thresholds for a non-binary label space")
            thresholds = QuantileThresholds(ordering=(0, 1), good_set=frozenset({1}), bad_set=frozenset({0}))
        elif thresholds is None:
            thresholds = THRESHOLDS[config.policy]()
        if config.policy == "overwrite" and width != 2:
            raise ValueError("overwrite policy needs a binary (C = 2) summary")
        if config.policy == "filter" and mapping is None and width != 2:
            raise ValueError("filter policy needs a label-space mapping for a non-binary sentinel")
        if config.policy == "filter" and mapping is not None and width != len(mapping.roles):
            raise ValueError(f"distribution width {width} does not match mapping with {len(mapping.roles)} classes")
        candidates = []
        if config.sweep and dev is not None:
            where = config.dev_dataset or "benchmark"
            if config.sentinel == "external" and config.dev_dump is None:
                raise ValueError("sweep with the external sentinel requires a dev_dump for the dev dataset")
            if not len(dev) or dev.gold is None or (dev.gold == NO_GOLD).any():
                raise ValueError("sweep needs a non-empty dev set with gold labels")
            if config.sentinel == "cv":
                check_folds(config.folds, len(dev))
            grid = grid_fields(config.policy)
            base = thresholds_to_section(thresholds)
            axes = [sorted(set(float(v) for v in config.sweep.get(f, [base[f]]))) for f in grid]
            for point in itertools.product(*axes):
                try:
                    section = {**base, **dict(zip(grid, point))}
                    candidates.append((point, thresholds_from_section(config.policy, section)))
                except ValueError:
                    pass  # grid points violating threshold invariants are skipped
            if not candidates:
                raise ValueError("sweep grid is empty after dropping invalid points")
    except ValueError as err:
        raise located(where, err) from None
    if mapping is None and config.policy == "filter":
        mapping = LabelSpaceMapping.binary_target()
    return RunPlan(thresholds, width, mapping, spec, tuple(candidates))


def sentinel_distributions(config: PipelineConfig, plan: RunPlan, dataset: Dataset, dev: bool = False):
    """Distributions for one dataset in its example order, from CV or an external dump, gold stripped.

    ``dev`` marks the dev split: it draws the CV sentinel from its own seed
    stream and reads ``dev_dump`` in place of ``dump``.  Returns
    (PassStack, FoldAssignment or None).
    """
    if config.sentinel == "cv":
        return build_cv_sentinel(
            dataset.strip_gold(),
            config.folds,
            plan.spec,
            config.train_config(),
            config.passes,
            mix64(config.seed, _Stream.SWEEP_SENTINEL if dev else _Stream.SENTINEL),
        )
    return ingest_external_dump(config.dev_dump if dev else config.dump, config.passes, plan.width, dataset.ids), None


def sweep_thresholds(config: PipelineConfig, plan: RunPlan, clean_dev: Dataset):
    """Score the plan's candidate thresholds against the dev set's gold labels.

    Ground truth flags are the examples whose current label differs from gold.
    The point maximizing detection F1 wins; ties break toward fewer flags, then
    lexicographic threshold order.  Returns (best thresholds, full grid table).
    """
    if not plan.candidates:
        raise ValueError("config carries no sweep grid")
    grid = grid_fields(config.policy)
    truth = clean_dev.labels != clean_dev.gold
    labels = clean_dev.labels.tolist()
    dists, _ = sentinel_distributions(config, plan, clean_dev, dev=True)
    total_bad = int(truth.sum())
    table = []
    for point, candidate in plan.candidates:
        flagged = decide_all(config.policy, dists, labels, candidate, plan.mapping).flagged
        flag_count = int(np.count_nonzero(flagged))
        tp = int(np.count_nonzero(flagged & truth))
        fp = flag_count - tp
        fn = total_bad - tp
        denom = 2 * tp + fp + fn
        f1 = 2 * tp / denom if denom else 0.0
        table.append(
            {
                **{f: v for f, v in zip(grid, point)},
                "f1": f1,
                "precision": tp / flag_count if flag_count else 1.0,
                "recall": tp / total_bad if total_bad else 0.0,
                "flagged": flag_count,
            }
        )
    best = min(range(len(table)), key=lambda i: (-table[i]["f1"], table[i]["flagged"], plan.candidates[i][0]))
    return plan.candidates[best][1], table


def evaluate(model: Model, test: Dataset) -> dict:
    if model.spec.class_count != test.class_count:
        raise ValueError(f"model has {model.spec.class_count} classes, the dataset has class_count {test.class_count}")
    probs = predict_batch(model, test.matrix())
    labels = test.labels
    accuracy = float(np.mean(probs.argmax(axis=1) == labels))
    out = {"accuracy": accuracy}
    if test.class_count == 2:
        preds = list(map(ScoredPrediction, test.ids, probs[:, 1].tolist(), labels.tolist()))
        out.update(classification_metrics(preds, 0.5))
    return out


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute the full workflow and write decisions, cleaned data, and the report.

    In benchmark mode the train/dev/test splits are generated, noise is injected
    into train and dev, and detections are scored against the ground-truth mask.
    The baseline and cleaned retrains share seeds; only the training data differs.
    """
    if config.sweep and config.benchmark is None and config.dev_dataset is None:
        raise ValueError("sweep requires a dev dataset with gold labels: a benchmark section or dev_dataset")
    started = time.perf_counter()
    out_dir = Path(config.out_dir)

    mask = None
    dev = None
    test = None
    with _stage("data"):
        if config.benchmark is not None:
            b = config.benchmark

            def blobs(size: int, stream: int) -> Dataset:
                return make_blobs(size, b.dim, b.class_count, b.centers, b.spread, mix64(config.seed, stream))

            def noisy(clean: Dataset, stream: int):
                try:  # inject_noise refuses a rate above the eligible share: the section's fault
                    return inject_noise(clean, b.noise_spec(mix64(config.seed, stream)))
                except ValueError as err:
                    raise located("benchmark", err) from None

            working, mask = noisy(blobs(b.n, _Stream.BLOBS_TRAIN), _Stream.NOISE_TRAIN)
            dev, _ = noisy(blobs(b.dev_size, _Stream.BLOBS_DEV), _Stream.NOISE_DEV)
            test = blobs(b.test_size, _Stream.BLOBS_TEST)
        else:
            working = load_dataset(config.dataset)
            if config.test_dataset:
                test = load_dataset(config.test_dataset)
            if config.dev_dataset:
                dev = load_dataset(config.dev_dataset)
        plan = plan_run(config, working, dev, test)

    sweep_result = None
    thresholds = plan.thresholds
    if plan.candidates:
        with _stage("thresholds"):
            thresholds, table = sweep_thresholds(config, plan, dev)
            sweep_result = {"best": thresholds_to_section(thresholds), "table": table}

    with _stage("sentinel"):
        dists, fold_assignment = sentinel_distributions(config, plan, working)

    with _stage("decide"):
        labels = working.labels.tolist()
        decisions = decide_all(config.policy, dists, labels, thresholds, plan.mapping)
        # decisions are the audit trail; persist them before anything is applied.
        # The output directory appears with this first write, so a run that
        # fails earlier leaves nothing behind.
        out_dir.mkdir(parents=True, exist_ok=True)
        save_decisions(decisions, str(out_dir / "decisions.jsonl"))

    with _stage("apply"):
        mode = OVERWRITE_MODE if config.policy == "overwrite" else FILTER_ONLY
        cleaned, apply_report = apply_decisions(working, decisions, mode)
        save_dataset(cleaned, str(out_dir / "cleaned.jsonl"))
        if mask is not None:
            save_noise_mask(mask, str(out_dir / "noise_mask.json"))

    evaluation = None
    if test is not None:
        with _stage("retrain"):
            train_cfg = config.train_config()
            retrain_seed = mix64(config.seed, _Stream.RETRAIN)
            baseline_model = train(init_model(plan.spec, retrain_seed), working, train_cfg)
            cleaned_model = train(init_model(plan.spec, retrain_seed), cleaned, train_cfg)
            evaluation = {
                "baseline": evaluate(baseline_model, test),
                "cleaned": evaluate(cleaned_model, test),
            }

    detection = None
    if mask is not None:
        with _stage("detection"):
            detection = asdict(detection_scores(decisions, mask))

    report = {
        # the one volatile field; everything else is reproducible byte-for-byte
        "run_stamp": {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "wall_seconds": time.perf_counter() - started,
        },
        "config": config_to_dict(config),
        "thresholds": thresholds_to_section(thresholds),
        "sweep": sweep_result,
        "counts": {"input_size": len(working), **asdict(apply_report)},
        "rule_histogram": rule_histogram(decisions),
        "detection": detection,
        "evaluation": evaluation,
    }
    with _stage("report"):
        emit_report(report, "json", str(out_dir / "report.json"))
        if config.report_format == "text":
            emit_report(report, "text", str(out_dir / "report.txt"))

    return PipelineResult(
        config=config,
        report=report,
        decisions=decisions,
        cleaned=cleaned,
        fold_assignment=fold_assignment,
    )


def _render_text(report: dict) -> str:
    lines = ["== run summary =="]
    counts = report["counts"]
    lines.append(
        f"examples: {counts['input_size']}  kept: {counts['kept']}"
        f"  removed: {counts['removed']}  overwritten: {counts['overwritten']}"
    )
    lines.append("== thresholds ==")
    lines.append(json.dumps(report["thresholds"], sort_keys=True))
    lines.append("== fired rules ==")
    for rule, count in report["rule_histogram"].items():
        lines.append(f"{rule}: {count}")
    if report.get("detection"):
        d = report["detection"]
        lines.append("== detection vs ground truth ==")
        lines.append(
            f"precision: {d['precision']:.4f}  recall: {d['recall']:.4f}"
            f"  overwrite_accuracy: {d['overwrite_accuracy']:.4f}"
        )
    if report.get("evaluation"):
        lines.append("== evaluation (baseline -> cleaned) ==")
        base, clean = report["evaluation"]["baseline"], report["evaluation"]["cleaned"]
        for key in sorted(base):
            lines.append(f"{key}: {base[key]:.4f} -> {clean[key]:.4f}")
    if report.get("sweep"):
        lines.append("== sweep best ==")
        lines.append(json.dumps(report["sweep"]["best"], sort_keys=True))
    lines.append("== config ==")
    lines.append(json.dumps(report["config"], sort_keys=True))
    lines.append(f"generated_at: {report['run_stamp']['generated_at']}")
    return "\n".join(lines) + "\n"


def emit_report(report: dict, fmt: str, path: str) -> None:
    """Write the report as schema-stable JSON or a human-readable text digest."""
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif fmt == "text":
        text = _render_text(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    write_lines(path, (text,))


def default_benchmark_config(
    variant: str = "symmetric", seed: int = 1, out_dir: str = "out", **overrides
) -> PipelineConfig:
    """The stock noise-recovery scenario: overlapping two-blob geometry, 30%
    corruption, CV sentinel, overwrite policy, thresholds swept on a
    200-example dev split.

    The ``asymmetric`` variant is one-directional (class 1 flips to 0, class 0
    immune), the regime where corruption shifts the learned boundary outright.
    The training budget is deliberately short: at this scale a longer budget
    converges to the same boundary with or without symmetric noise, hiding the
    damage the cleaning is supposed to repair.
    """
    if variant == "symmetric":
        kind, transition = "symmetric", None
    elif variant == "asymmetric":
        kind, transition = "asymmetric", ((0.0, 0.0), (1.0, 0.0))
    else:
        raise ValueError(f"unknown benchmark variant {variant!r}")
    benchmark = BenchmarkConfig(noise_kind=kind, transition=transition)
    params = {
        "seed": seed,
        "out_dir": out_dir,
        "benchmark": benchmark,
        "policy": "overwrite",
        "hidden_dims": (32, 32),
        "learning_rate": 0.3,
        "epochs": 5,
        "batch_size": 64,
        "sweep": {
            "t1": [0.05, 0.1, 0.2, 0.3, 0.4],
            "s1": [0.1, 0.15, 0.2],
            "t2": [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
            "s2": [0.1, 0.15, 0.2],
        },
    }
    params.update(overrides)
    return PipelineConfig(**params)
