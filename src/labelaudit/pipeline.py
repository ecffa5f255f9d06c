"""End-to-end orchestration: sentinel -> uncertainty -> decisions -> apply ->
retrain -> evaluate, plus the threshold grid sweep and report emission.

Every stochastic stage draws its seed from a fixed stream of the pipeline seed
(see ``_Stream``), so two runs with the same config produce byte-identical
decision and dataset files; the report's only volatile content lives under the
single ``run_stamp`` key.
"""
from __future__ import annotations

import copy
import itertools
import json
import numbers
import time
import types
import typing
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import (
    FEATURES,
    RECORD_ERRORS,
    TOKENS,
    DataFormatError,
    Dataset,
    NO_GOLD,
    PassStack,
    load_dataset,
    located,
    read_json,
    save_dataset,
    write_lines,
)
from .metrics import ScoredPrediction, classification_metrics
from .mlp import Model, ModelSpec, TrainConfig, init_model, predict_batch, train
from .noisebench import (
    NoiseMask,
    NoiseSpec,
    detection_scores,
    inject_noise,
    make_blobs,
    save_noise_mask,
)
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
    ingest_external_dump,
    map_to_evidence,
)
from .uncertainty import summarize

SENTINEL_SOURCES = ("cv", "external")


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


def _conforms(value, hint) -> bool:
    """Whether ``value`` fits a field annotation.  A tuple or frozenset field
    also takes a list and a float field an int, as a JSON document spells
    them; no number field takes a bool."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if typing.get_origin(hint) in (tuple, frozenset):
        return isinstance(value, (typing.get_origin(hint), list)) and all(_conforms(v, args[0]) for v in value)
    if hint in (int, float):
        number = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, number) and not isinstance(value, bool)
    return isinstance(value, hint)


def _check_types(cls, values: dict, key, listed: bool = False) -> None:
    """Raise naming, by its document key ``key(name)``, the first value that does
    not fit the annotation of the ``cls`` field it sets; ``listed`` values are
    lists of such values, as a sweep grid holds them."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name not in values:
            continue
        value, hint, spelled = values[f.name], hints[f.name], f.type
        if listed:
            hint, spelled = tuple[hint, ...], f"a list of {spelled}"
        if not _conforms(value, hint):
            raise TypeError(f"{key(f.name)} must be {spelled}, got {value!r}")


def _document_key(name: str) -> str:
    return _JSON_KEYS.get(name, name)


class _Stream:
    """Seed streams for the pipeline stages (mixed with the root seed)."""

    TRAIN_CONFIG = 3
    SENTINEL = 4
    RETRAIN = 5
    SWEEP_SENTINEL = 6
    BLOBS_TRAIN = 10
    BLOBS_DEV = 11
    BLOBS_TEST = 12
    NOISE_TRAIN = 13
    NOISE_DEV = 14


@dataclass(frozen=True)
class BenchmarkConfig:
    """Synthetic scenario: blob geometry plus the corruption to inject."""

    n: int = 2000
    dim: int = 2
    class_count: int = 2
    centers: tuple[tuple[float, ...], ...] = ((-2.0, 0.0), (2.0, 0.0))
    spread: float = 1.0
    dev_size: int = 200
    test_size: int = 500
    noise_rate: float = 0.3
    noise_kind: str = "symmetric"
    transition: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        _check_types(BenchmarkConfig, vars(self), _document_key)
        object.__setattr__(self, "centers", tuple(tuple(float(v) for v in c) for c in self.centers))
        if self.transition is not None:
            object.__setattr__(
                self, "transition", tuple(tuple(float(v) for v in r) for r in self.transition)
            )
        if self.n < 1 or self.dev_size < 1 or self.test_size < 1:
            raise ValueError("benchmark sizes must be positive")

    def noise_spec(self, seed: int) -> NoiseSpec:
        return NoiseSpec(
            rate=self.noise_rate, kind=self.noise_kind, seed=seed, transition=self.transition
        )


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    out_dir: str = "out"
    dataset: str | None = None
    test_dataset: str | None = None
    dev_dataset: str | None = None
    sentinel: str = "cv"
    folds: int = 5
    dump: str | None = None
    dev_dump: str | None = None
    mapping: str | None = None
    passes: int = 10
    hidden_dims: tuple[int, ...] = (64, 64)
    dropout: float = 0.1
    learning_rate: float = 0.3
    epochs: int = 150
    batch_size: int = 64
    policy: str = "overwrite"
    thresholds: FilterThresholds | OverwriteThresholds | QuantileThresholds | None = None
    benchmark: BenchmarkConfig | None = None
    sweep: dict | None = None
    report_format: str = "json"

    def __post_init__(self) -> None:
        _check_types(PipelineConfig, vars(self), _document_key)
        if self.policy not in THRESHOLDS:
            raise ValueError(f"policy must be one of {tuple(THRESHOLDS)}, got {self.policy!r}")
        if self.sweep:
            _check_types(THRESHOLDS[self.policy], self.sweep, lambda name: f"sweep.{name}", listed=True)
            unknown = set(self.sweep) - set(grid_fields(self.policy))
            if unknown:
                raise ValueError(f"sweep grid names unknown fields {sorted(unknown)} for policy {self.policy!r}")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        object.__setattr__(self, "sweep", {k: list(v) for k, v in self.sweep.items()} if self.sweep else None)
        if self.sentinel not in SENTINEL_SOURCES:
            raise ValueError(f"sentinel must be one of {SENTINEL_SOURCES}, got {self.sentinel!r}")
        if self.passes < 1:
            raise ValueError(f"passes must be >= 1, got {self.passes}")
        if self.sentinel == "cv" and self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        # the training and architecture rules, checked before any data is read;
        # the training fields share their keys, the architecture ones are named
        self.train_config()
        for key, hidden_dims, dropout in (("hidden_dims", self.hidden_dims, 0.0), ("dropout", (1,), self.dropout)):
            try:
                ModelSpec(input_dim=1, hidden_dims=hidden_dims, class_count=2, dropout_rate=dropout)
            except ValueError as err:
                raise located(key, err) from None
        if self.sentinel == "external" and self.dump is None:
            raise ValueError("external sentinel needs a dump path")
        if self.sentinel == "cv" and self.dump is not None:
            raise ValueError("config names both a cv sentinel and an external dump; pick one source")
        if self.sentinel == "external" and self.benchmark is not None:
            raise ValueError("benchmark mode generates its data and requires the cv sentinel")
        if self.benchmark is None and self.dataset is None:
            raise ValueError("need either a dataset path or a benchmark section")
        if self.benchmark is not None and self.dataset is not None:
            raise ValueError("benchmark mode and a dataset path are mutually exclusive")
        if self.thresholds is not None and not isinstance(self.thresholds, THRESHOLDS[self.policy]):
            raise ValueError(f"thresholds section does not match policy {self.policy!r}")
        if self.report_format not in ("json", "text"):
            raise ValueError(f"report format must be json or text, got {self.report_format!r}")

    def resolved_thresholds(self, class_count: int):
        if self.thresholds is not None:
            return self.thresholds
        if self.policy != "quantile":
            return THRESHOLDS[self.policy]()
        if class_count != 2:
            raise ValueError("quantile policy needs explicit thresholds for a non-binary label space")
        return QuantileThresholds(ordering=(0, 1), good_set=frozenset({1}), bad_set=frozenset({0}))

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=mix64(self.seed, _Stream.TRAIN_CONFIG),
        )

    def model_spec(self, dataset: Dataset) -> ModelSpec:
        if dataset.feature_dim is None:
            raise ValueError("the dataset has no feature vectors")
        return ModelSpec(
            input_dim=dataset.feature_dim,
            hidden_dims=self.hidden_dims,
            class_count=dataset.class_count,
            dropout_rate=self.dropout,
        )

    @cached_property
    def label_mapping(self) -> LabelSpaceMapping | None:
        """The sentinel's class-space mapping, read once from the ``mapping`` file if one is named."""
        if self.mapping is not None:
            return LabelSpaceMapping.from_file(self.mapping)
        return None


# The config document key of each field whose key differs from its name; a dot
# nests the key in a section.  Every other field is keyed by its own name.
_JSON_KEYS = {
    "out_dir": "out",
    "report_format": "format",
    "dim": "d",
    "noise_rate": "noise.rate",
    "noise_kind": "noise.kind",
    "transition": "noise.transition",
}


def _json_keys(cls) -> dict[str, str]:
    return {f.name: _JSON_KEYS.get(f.name, f.name) for f in fields(cls)}


def _put(doc: dict, key: str, value) -> None:
    *sections, leaf = key.split(".")
    for section in sections:
        if not isinstance(doc.get(section), dict):
            doc[section] = {}
        doc = doc[section]
    doc[leaf] = value


def _to_doc(obj) -> dict:
    doc: dict = {}
    for name, key in _json_keys(type(obj)).items():
        value = getattr(obj, name)
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        _put(doc, key, value)
    return doc


def _from_doc(cls, doc) -> dict:
    """Constructor arguments for ``cls`` from its document; unknown keys are errors."""
    names = {key: name for name, key in _json_keys(cls).items()}
    sections = {key.split(".")[0] for key in names if "." in key}
    flat = {}
    for key, value in _json_object(doc, "document").items():
        if key in sections:
            flat.update({f"{key}.{sub}": v for sub, v in _json_object(value, key).items()})
        else:
            flat[key] = value
    unknown = set(flat) - set(names)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    return {names[key]: value for key, value in flat.items()}


def _json_object(doc, name: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be a JSON object")
    return doc


def config_from_dict(doc: dict) -> PipelineConfig:
    """Build a config from the JSON document schema that ``config_to_dict`` writes;
    errors are located ``config:`` or ``benchmark:``, as the readers locate theirs."""
    where = "config"
    try:
        kwargs = _from_doc(PipelineConfig, doc)
        section = kwargs.get("thresholds")
        if section is not None:
            policy = kwargs.get("policy", PipelineConfig.policy)
            unknown = set(_json_object(section, "thresholds")) - set(THRESHOLDS)
            if unknown:
                raise ValueError(f"unknown threshold sections {sorted(unknown)}")
            if section and policy not in section:
                raise ValueError(f"thresholds section {sorted(section)} does not match policy {policy!r}")
            if section:
                values = _json_object(section[policy], f"thresholds.{policy}")
                _check_types(THRESHOLDS[policy], values, lambda name: f"thresholds.{policy}.{name}")
            kwargs["thresholds"] = thresholds_from_section(policy, section[policy]) if section else None
        if kwargs.get("benchmark") is not None:
            where = "benchmark"
            kwargs["benchmark"] = BenchmarkConfig(**_from_doc(BenchmarkConfig, kwargs["benchmark"]))
            where = "config"
        return PipelineConfig(**kwargs)
    except RECORD_ERRORS as err:
        raise located(where, err) from None


def config_to_dict(config: PipelineConfig) -> dict:
    doc = _to_doc(config)
    if config.thresholds is not None:
        doc["thresholds"] = {config.policy: thresholds_to_section(config.thresholds)}
    if config.benchmark is not None:
        doc["benchmark"] = _to_doc(config.benchmark)
    return doc


def overlay_flags(doc: dict, flags: dict) -> dict:
    """A copy of a config document with command-line values laid over it.

    ``flags`` maps each flag to its value, ``None`` for a flag not given.  A
    flag is named after its document key, with ``_`` for the dots of a nested
    key (``noise_rate`` sets ``benchmark.noise.rate``); threshold field flags
    set the policy's ``thresholds`` section.
    """
    doc = copy.deepcopy(_json_object(doc, "config"))
    given = {name: value for name, value in flags.items() if value is not None}
    for key in _json_keys(PipelineConfig).values():
        if key in given:
            doc[key] = given[key]
    for key in _json_keys(BenchmarkConfig).values():
        if key.replace(".", "_") in given:
            _put(doc, f"benchmark.{key}", given[key.replace(".", "_")])
    names = {f.name for kind in THRESHOLDS.values() for f in fields(kind)}
    section = {name: value for name, value in given.items() if name in names}
    if section:
        policy = doc.get("policy", PipelineConfig.policy)
        doc["thresholds"] = {policy: {**(doc.get("thresholds") or {}).get(policy, {}), **section}}
    return doc


def load_config(path: str) -> PipelineConfig:
    return read_json(path, config_from_dict)


@dataclass
class PipelineResult:
    config: PipelineConfig
    report: dict
    decisions: Decisions
    cleaned: Dataset
    thresholds: object
    fold_assignment: FoldAssignment | None = None
    noise_mask: NoiseMask | None = None
    sweep_table: list | None = None


def decide_all(policy: str, dists: PassStack, labels: list[int], thresholds, mapping: LabelSpaceMapping | None):
    """One decision per row of the stack, where ``labels[i]`` is the current label
    of row i; ``mapping`` turns a sentinel's classes into evidence for the filter
    policy (``None``: a binary sentinel in the target's space).

    Each row still runs one ``summarize`` and one ``decide_*`` call (the
    quantile policy: one ``decide_quantile``); their ``Decision`` records are
    read into one ``Decisions`` that shares the stack's ids tuple.
    """
    rows = dists.passes
    if policy == "filter" and dists.ids:
        if mapping is None:
            if dists.class_count != 2:
                raise ValueError("filter policy needs a label-space mapping for a non-binary sentinel")
            mapping = LabelSpaceMapping.binary_target()
        rows = map_to_evidence(dists, mapping)

    def decided():
        for i, (example_id, label) in enumerate(zip(dists.ids, labels, strict=True)):
            if policy == "overwrite":
                yield decide_overwrite(summarize(rows[i], example_id=example_id), label, thresholds)
            elif policy == "filter":
                yield decide_filter(summarize(rows[i], example_id=example_id), label, thresholds)
            else:
                yield decide_quantile(dists[i], label, thresholds)

    return Decisions.from_records(decided(), dists.ids)


def sentinel_distributions(config: PipelineConfig, dataset: Dataset, dev: bool = False):
    """Distributions for one dataset in its example order, from CV or an external dump, gold stripped.

    ``dev`` marks the dev split: it draws the CV sentinel from its own seed
    stream and reads ``dev_dump`` in place of ``dump``.  Returns
    (PassStack, FoldAssignment or None).
    """
    if config.sentinel == "cv":
        return build_cv_sentinel(
            dataset.strip_gold(),
            config.folds,
            config.model_spec(dataset),
            config.train_config(),
            config.passes,
            mix64(config.seed, _Stream.SWEEP_SENTINEL if dev else _Stream.SENTINEL),
        )
    dump = config.dev_dump if dev else config.dump
    if dump is None:
        raise ValueError("external sentinel needs a distribution dump for this dataset")
    return ingest_external_dump(dump, config.passes, _sentinel_width(config, dataset), dataset.ids), None


def _sentinel_width(config: PipelineConfig, dataset: Dataset) -> int:
    """The class count of the sentinel's distributions: an external dump is as
    wide as the mapping's classes, when one is named; otherwise as the dataset's."""
    if config.sentinel == "external" and config.mapping is not None:
        return len(config.label_mapping.roles)
    return dataset.class_count


def _layout(dataset: Dataset) -> dict:
    """What a run's test and dev splits must share with its dataset, by name."""
    schema = FEATURES if dataset.features is not None else TOKENS if dataset.tokens is not None else None
    return {"class_count": dataset.class_count, "schema": schema, "feature dimension": dataset.feature_dim}


def _refuse_unfit(config: PipelineConfig, dataset: Dataset, retrains: bool) -> None:
    """Refuse, before any model trains, a dataset that the sentinel, the retrain
    or the policy could not take, with the message that stage would give,
    located at the dataset.  ``decide_*`` keep their per-row checks for direct
    callers."""
    width = _sentinel_width(config, dataset)
    mapping = config.label_mapping if config.policy == "filter" else None
    try:
        if config.sentinel == "cv" or retrains:
            config.model_spec(dataset)
        config.resolved_thresholds(dataset.class_count)
        if config.policy == "overwrite" and width != 2:
            raise ValueError("overwrite policy needs a binary (C = 2) summary")
        if config.policy == "filter" and mapping is None and width != 2:
            raise ValueError("filter policy needs a label-space mapping for a non-binary sentinel")
        if mapping is not None and width != len(mapping.roles):
            raise ValueError(f"distribution width {width} does not match mapping with {len(mapping.roles)} classes")
    except ValueError as err:
        raise located(config.dataset or "benchmark", err) from None


def sweep_thresholds(config: PipelineConfig, clean_dev: Dataset):
    """Grid-search thresholds against the dev set's gold labels.

    Ground truth flags are the examples whose current label differs from gold.
    The point maximizing detection F1 wins; ties break toward fewer flags, then
    lexicographic threshold order.  Returns (best thresholds, full grid table).
    """
    if not config.sweep:
        raise ValueError("config carries no sweep grid")
    if not len(clean_dev) or clean_dev.gold is None or (clean_dev.gold == NO_GOLD).any():
        raise ValueError("sweep needs a non-empty dev set with gold labels")
    grid = grid_fields(config.policy)
    base = thresholds_to_section(config.resolved_thresholds(clean_dev.class_count))
    axes = [sorted(set(float(v) for v in config.sweep.get(f, [base[f]]))) for f in grid]
    truth = clean_dev.labels != clean_dev.gold
    labels = clean_dev.labels.tolist()
    dists, _ = sentinel_distributions(config, clean_dev, dev=True)
    total_bad = int(truth.sum())
    table = []
    for point in itertools.product(*axes):
        section = dict(base)
        section.update(dict(zip(grid, point)))
        try:
            candidate = thresholds_from_section(config.policy, section)
        except ValueError:
            continue  # grid points violating threshold invariants are skipped
        flagged = decide_all(config.policy, dists, labels, candidate, config.label_mapping).flagged
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
    if not table:
        raise ValueError("sweep grid is empty after dropping invalid points")
    best = min(table, key=lambda row: (-row["f1"], row["flagged"], tuple(row[f] for f in grid)))
    section = dict(base)
    section.update({f: best[f] for f in grid})
    return thresholds_from_section(config.policy, section), table


def _fit(spec: ModelSpec, train_cfg: TrainConfig, seed: int, dataset: Dataset) -> Model:
    return train(init_model(spec, seed), dataset, train_cfg)


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
    if config.sweep and config.sentinel == "external" and config.dev_dump is None:
        raise ValueError("sweep with the external sentinel requires a dev_dump for the dev dataset")
    started = time.perf_counter()
    out_dir = Path(config.out_dir)

    mask = None
    dev = None
    test = None
    with _stage("data"):
        if config.benchmark is not None:
            b = config.benchmark
            clean_train = make_blobs(
                b.n, b.dim, b.class_count, b.centers, b.spread, mix64(config.seed, _Stream.BLOBS_TRAIN)
            )
            working, mask = inject_noise(
                clean_train, b.noise_spec(mix64(config.seed, _Stream.NOISE_TRAIN))
            )
            dev_clean = make_blobs(
                b.dev_size, b.dim, b.class_count, b.centers, b.spread, mix64(config.seed, _Stream.BLOBS_DEV)
            )
            dev, _ = inject_noise(dev_clean, b.noise_spec(mix64(config.seed, _Stream.NOISE_DEV)))
            test = make_blobs(
                b.test_size, b.dim, b.class_count, b.centers, b.spread, mix64(config.seed, _Stream.BLOBS_TEST)
            )
        else:
            working = load_dataset(config.dataset)
            if config.test_dataset:
                test = load_dataset(config.test_dataset)
            if config.dev_dataset:
                dev = load_dataset(config.dev_dataset)
            layout = _layout(working)
            for path, split in ((config.test_dataset, test), (config.dev_dataset, dev)):
                for name, value in _layout(split).items() if split is not None else ():
                    if value != layout[name]:
                        raise DataFormatError(f"{path}: {name} {value} differs from the dataset's {layout[name]}")
        _refuse_unfit(config, working, retrains=test is not None)

    sweep_result = None
    with _stage("thresholds"):
        if config.sweep:
            thresholds, sweep_table = sweep_thresholds(config, dev)
            sweep_result = {"best": thresholds_to_section(thresholds), "table": sweep_table}
        else:
            sweep_table = None
            thresholds = config.resolved_thresholds(working.class_count)

    with _stage("sentinel"):
        dists, fold_assignment = sentinel_distributions(config, working)

    with _stage("decide"):
        labels = working.labels.tolist()
        decisions = decide_all(config.policy, dists, labels, thresholds, config.label_mapping)
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
            spec = config.model_spec(working)
            train_cfg = config.train_config()
            retrain_seed = mix64(config.seed, _Stream.RETRAIN)
            baseline_model = _fit(spec, train_cfg, retrain_seed, working)
            cleaned_model = _fit(spec, train_cfg, retrain_seed, cleaned)
            evaluation = {
                "baseline": evaluate(baseline_model, test),
                "cleaned": evaluate(cleaned_model, test),
            }

    detection = None
    if mask is not None:
        with _stage("detection"):
            scores = detection_scores(decisions, mask)
            detection = {
                "precision": scores.precision,
                "recall": scores.recall,
                "overwrite_accuracy": scores.overwrite_accuracy,
                "flagged_count": scores.flagged_count,
                "corrupted_count": scores.corrupted_count,
                "true_flag_count": scores.true_flag_count,
            }

    report = {
        # the one volatile field; everything else is reproducible byte-for-byte
        "run_stamp": {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "wall_seconds": time.perf_counter() - started,
        },
        "config": config_to_dict(config),
        "thresholds": thresholds_to_section(thresholds),
        "sweep": sweep_result,
        "counts": {
            "input_size": len(working),
            "kept": apply_report.kept,
            "removed": apply_report.removed,
            "overwritten": apply_report.overwritten,
        },
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
        thresholds=thresholds,
        fold_assignment=fold_assignment,
        noise_mask=mask,
        sweep_table=sweep_table,
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
