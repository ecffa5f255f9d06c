"""Domain types and the file boundary: every file labelaudit reads or writes
goes through ``read_json``/``read_jsonl`` and the atomic ``write_lines``.

A dataset file is one JSON header line ``{"class_count": C, "class_names": [...]}``
followed by one record per example.  A distribution file holds one
``{"example_id": ..., "passes": [[...], ...]}`` record per line.  Writers sort
keys and end every file with a newline.  All types are immutable after
construction and safe to share across threads.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

POS_TAGS = ("noun", "propn", "verb", "other")
FEATURES = "features"
TOKENS = "tokens"
PROB_TOL = 1e-6


class DataFormatError(ValueError):
    """An input file, record, or value violates the documented schema."""


@dataclass(frozen=True)
class TaggedToken:
    """One pre-tagged token; tags arrive in the input data, no parser runs here."""

    text: str
    pos: str
    is_compound_head: bool = False
    is_entity: bool = False

    def __post_init__(self) -> None:
        if self.pos not in POS_TAGS:
            raise DataFormatError(f"unknown pos tag {self.pos!r}, expected one of {POS_TAGS}")
        if self.is_compound_head and self.pos not in ("noun", "propn"):
            raise DataFormatError(
                f"token {self.text!r}: is_compound_head requires pos noun or propn"
            )


@dataclass(frozen=True)
class LabeledExample:
    """A single labeled example carrying either a feature vector or tagged tokens.

    ``gold_label`` is benchmark-only ground truth; strip it (``Dataset.strip_gold``)
    before anything that makes decisions can see it.
    """

    id: str
    label: int
    features: tuple[float, ...] | None = None
    tokens: tuple[TaggedToken, ...] | None = None
    gold_label: int | None = None

    def __post_init__(self) -> None:
        if (self.features is None) == (self.tokens is None):
            raise DataFormatError(
                f"example {self.id!r}: exactly one of features/tokens must be present"
            )
        if self.features is not None:
            object.__setattr__(self, "features", tuple(float(v) for v in self.features))
        if self.tokens is not None:
            object.__setattr__(self, "tokens", tuple(self.tokens))

    @property
    def schema(self) -> str:
        return FEATURES if self.features is not None else TOKENS


@dataclass(frozen=True)
class Dataset:
    class_count: int
    examples: tuple[LabeledExample, ...] = ()
    class_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "examples", tuple(self.examples))
        if self.class_names is not None:
            object.__setattr__(self, "class_names", tuple(self.class_names))
        if self.class_count < 2:
            raise DataFormatError(f"class_count must be >= 2, got {self.class_count}")
        if self.class_names is not None and len(self.class_names) != self.class_count:
            raise DataFormatError(
                f"class_names has {len(self.class_names)} entries for class_count {self.class_count}"
            )
        seen: set[str] = set()
        schema = None
        dim = None
        for ex in self.examples:
            if ex.id in seen:
                raise DataFormatError(f"duplicate example id {ex.id!r}")
            seen.add(ex.id)
            if not 0 <= ex.label < self.class_count:
                raise DataFormatError(
                    f"example {ex.id!r}: label {ex.label} out of range for class_count {self.class_count}"
                )
            if ex.gold_label is not None and not 0 <= ex.gold_label < self.class_count:
                raise DataFormatError(
                    f"example {ex.id!r}: gold_label {ex.gold_label} out of range"
                )
            if schema is None:
                schema = ex.schema
            elif ex.schema != schema:
                raise DataFormatError(f"example {ex.id!r}: mixed schemas ({ex.schema} after {schema})")
            if ex.features is not None:
                if dim is None:
                    dim = len(ex.features)
                elif len(ex.features) != dim:
                    raise DataFormatError(
                        f"example {ex.id!r}: feature dimension {len(ex.features)} differs from {dim}"
                    )

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator[LabeledExample]:
        return iter(self.examples)

    @property
    def schema(self) -> str | None:
        return self.examples[0].schema if self.examples else None

    @property
    def feature_dim(self) -> int | None:
        if self.examples and self.examples[0].features is not None:
            return len(self.examples[0].features)
        return None

    def strip_gold(self) -> "Dataset":
        """The policy-facing view: identical data with every gold_label removed."""
        return Dataset(
            self.class_count,
            tuple(replace(ex, gold_label=None) for ex in self.examples),
            self.class_names,
        )

    def labels_by_id(self) -> dict[str, int]:
        return {ex.id: ex.label for ex in self.examples}


@dataclass(frozen=True, eq=False)
class PredictiveDistribution:
    """T stacked class-probability rows for one example, one per stochastic pass."""

    example_id: str
    passes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.passes, dtype=float)
        if arr.ndim != 2:
            raise DataFormatError(f"distribution {self.example_id!r}: passes must be a T x C matrix")
        t, c = arr.shape
        if t < 1 or c < 2:
            raise DataFormatError(
                f"distribution {self.example_id!r}: need T >= 1 and C >= 2, got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "passes", arr)

    @property
    def t_count(self) -> int:
        return self.passes.shape[0]

    @property
    def class_count(self) -> int:
        return self.passes.shape[1]


def validate_distribution(dist: PredictiveDistribution) -> None:
    """Raise unless every row is a probability vector (sum 1 within PROB_TOL).

    Reports the first offending row index, so malformed external dumps are easy
    to locate.  Both checks are phrased so that a NaN fails them.
    """
    p = dist.passes
    in_range = ((p >= 0.0) & (p <= 1.0)).all(axis=1)
    totals = p.sum(axis=1)
    bad = np.flatnonzero(~(in_range & (np.abs(totals - 1.0) <= PROB_TOL)))
    if bad.size == 0:
        return
    i = bad[0]
    if not in_range[i]:
        raise DataFormatError(f"distribution {dist.example_id!r}: row {i} has entries outside [0, 1]")
    raise DataFormatError(
        f"distribution {dist.example_id!r}: row {i} sums to {float(totals[i])}, expected 1 within {PROB_TOL}"
    )


RECORD_ERRORS = (KeyError, TypeError, ValueError)


def located(where: str, err: Exception) -> DataFormatError:
    """The location rule: a missing field (``KeyError``) or a wrongly typed value
    (``TypeError``/``ValueError``) raised while a record is built becomes a
    DataFormatError prefixed with ``where``: a file name, ``"<path>: line <n>"``
    or a config section."""
    detail = f"missing field {err}" if isinstance(err, KeyError) else str(err)
    return DataFormatError(f"{where}: {detail}")


def _parse_object(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"malformed JSON ({err.msg})") from None
    if not isinstance(doc, dict):
        raise TypeError("expected a JSON object")
    return doc


def read_json(path: str, build: Callable = dict):
    """``build`` applied to the JSON object that makes up a whole file, under the location rule."""
    try:
        with open(path, encoding="utf-8") as fh:
            return build(_parse_object(fh.read()))
    except RECORD_ERRORS as err:
        raise located(path, err) from None


def read_jsonl(path: str, build: Callable, header: Callable | None = None) -> Iterator:
    """``build`` applied to the JSON object on each non-blank line (``header`` to the
    first, when given), under the location rule with one handler per file."""
    where = path
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    where = f"{path}: line {lineno}"
                    yield (header or build)(_parse_object(line))
                    header = None
    except RECORD_ERRORS as err:
        raise located(where, err) from None


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Stream ``lines`` into a temp file beside ``path``, then rename it over ``path``:
    an interrupted write leaves the previous file as it was and no temp file behind."""
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(path: str, doc: dict, indent: int | None = None) -> None:
    write_lines(path, (json.dumps(doc, indent=indent, sort_keys=True), "\n"))


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    write_lines(path, (json.dumps(rec, sort_keys=True) + "\n" for rec in records))


def _dataset_header(rec: dict) -> tuple[int, tuple[str, ...] | None]:
    if type(rec["class_count"]) is not int:  # JSON true/false would pass isinstance(..., int)
        raise TypeError("header needs an integer class_count")
    return rec["class_count"], tuple(rec["class_names"]) if rec.get("class_names") else None


def _example_from_record(rec: dict, expected_schema: str | None) -> LabeledExample:
    exid, label, gold = rec["id"], rec["label"], rec.get("gold_label")
    if not isinstance(exid, str):
        raise TypeError("id must be a string")
    if type(label) is not int or (gold is not None and type(gold) is not int):
        raise TypeError("label and gold_label must be integers")
    has_features = "features" in rec
    if has_features == ("tokens" in rec):
        raise DataFormatError("record needs exactly one of features/tokens")
    schema = FEATURES if has_features else TOKENS
    if expected_schema is not None and schema != expected_schema:
        raise DataFormatError(f"record schema {schema} does not match expected {expected_schema}")
    if has_features:
        ex = LabeledExample(id=exid, label=label, features=tuple(rec["features"]), gold_label=gold)
        if not all(map(math.isfinite, ex.features)):
            raise DataFormatError("features must be finite numbers")
        return ex
    tokens = tuple(
        TaggedToken(t["text"], t["pos"], bool(t.get("is_compound_head")), bool(t.get("is_entity")))
        for t in rec["tokens"]
    )
    return LabeledExample(id=exid, label=label, tokens=tokens, gold_label=gold)


def load_dataset(path: str, expected_schema: str | None = None) -> Dataset:
    """Read a dataset file; every invariant is enforced before anything is returned.

    ``expected_schema`` pins the record kind (``"features"`` or ``"tokens"``);
    ``None`` accepts either but still requires the file to be uniform.
    """
    rows = read_jsonl(path, lambda rec: _example_from_record(rec, expected_schema), _dataset_header)
    header = next(rows, None)
    if header is None:
        raise DataFormatError(f"{path}: empty file, missing header line")
    examples = tuple(rows)
    try:
        return Dataset(header[0], examples, header[1])
    except DataFormatError as err:
        raise located(path, err) from None


def _example_record(ex: LabeledExample) -> dict:
    rec: dict = {"id": ex.id, "label": ex.label}
    if ex.features is not None:
        rec["features"] = list(ex.features)
    else:
        rec["tokens"] = [
            {"text": t.text, "pos": t.pos, "is_compound_head": t.is_compound_head, "is_entity": t.is_entity}
            for t in ex.tokens
        ]
    if ex.gold_label is not None:
        rec["gold_label"] = ex.gold_label
    return rec


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset so that ``load_dataset`` reproduces it field-for-field."""
    header: dict = {"class_count": dataset.class_count}
    if dataset.class_names is not None:
        header["class_names"] = list(dataset.class_names)
    write_jsonl(path, itertools.chain((header,), map(_example_record, dataset.examples)))


def load_distributions(path: str) -> list[PredictiveDistribution]:
    """Read a line-delimited distribution dump (no header line)."""
    return list(read_jsonl(path, lambda rec: PredictiveDistribution(rec["example_id"], rec["passes"])))


def save_distributions(dists: Iterable[PredictiveDistribution], path: str) -> None:
    write_jsonl(path, ({"example_id": d.example_id, "passes": d.passes.tolist()} for d in dists))


def feature_matrix(dataset: Dataset) -> np.ndarray:
    """Stack the dataset's feature vectors into an (n, d) array."""
    if dataset.schema != FEATURES:
        raise DataFormatError("dataset does not carry feature vectors")
    return np.array([ex.features for ex in dataset.examples], dtype=float)


def label_vector(dataset: Dataset) -> np.ndarray:
    return np.array([ex.label for ex in dataset.examples], dtype=int)
