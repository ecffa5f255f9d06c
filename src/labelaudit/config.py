"""The run configuration: the ``PipelineConfig`` and ``BenchmarkConfig`` schema,
its JSON document (``config_from_dict``, ``config_to_dict``, ``load_config``) and
the command-line overlay (``overlay_flags``).

A config refuses a bad value when it is built, naming it by its document key,
before any data is read or any model trains.  What also depends on the data is
resolved and refused by ``pipeline.plan_run``.  ``_Stream`` numbers the seed
stream each stochastic stage draws from the root seed.
"""
from __future__ import annotations

import copy
import numbers
import types
import typing
from dataclasses import dataclass, fields

from .data import RECORD_ERRORS, Dataset, located, read_json
from .mlp import ModelSpec, TrainConfig
from .noisebench import NoiseSpec, check_geometry
from .policy import (
    THRESHOLDS,
    FilterThresholds,
    OverwriteThresholds,
    QuantileThresholds,
    grid_fields,
    thresholds_from_section,
    thresholds_to_section,
)
from .seeding import mix64

SENTINEL_SOURCES = ("cv", "external")


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
        # the noise and geometry rules, checked before any data is made
        self.noise_spec(0).check_class_count(self.class_count)
        check_geometry(self.dim, self.class_count, self.centers, self.spread)

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
            empty = [name for name, values in self.sweep.items() if not values]
            if empty:
                raise ValueError(f"sweep.{empty[0]} has no values")
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
        if self.sentinel == "cv" and (self.dump is not None or self.dev_dump is not None):
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
