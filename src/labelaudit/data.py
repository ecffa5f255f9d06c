"""Domain types and the file boundary: every file labelaudit reads or writes
goes through ``read_json``/``read_jsonl`` and the atomic ``write_lines``.

A dataset file is one JSON header line ``{"class_count": C, "class_names": [...]}``
followed by one record per example.  A distribution file holds one
``{"example_id": ..., "passes": [[...], ...]}`` record per line, all of one
T x C shape, and loads as one ``PassStack``.  Writers sort
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
_BLOCK_BYTES = 1 << 20  # size of the blocks a distribution dump is loaded into


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


@dataclass(frozen=True, eq=False)
class PassStack:
    """The stochastic passes of n examples: ``ids`` plus a read-only (n, T, C)
    array whose row i holds the T class-probability rows of ``ids[i]``.

    Indexing and iteration yield the rows as ``PredictiveDistribution``s.  An
    empty stack may carry any (0, T, C) shape.  A float array is taken over,
    not copied, and made read-only: its owner can no longer write to it.
    """

    ids: tuple[str, ...]
    passes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        arr = np.asarray(self.passes, dtype=float)
        if arr.ndim != 3 or arr.shape[0] != len(self.ids):
            raise DataFormatError(f"passes for {len(self.ids)} ids must be an (n, T, C) array, got shape {arr.shape}")
        if self.ids and (arr.shape[1] < 1 or arr.shape[2] < 2):
            raise DataFormatError(f"need T >= 1 and C >= 2, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "passes", arr)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> PredictiveDistribution:
        return PredictiveDistribution(self.ids[i], self.passes[i])

    def __iter__(self) -> Iterator[PredictiveDistribution]:
        return map(PredictiveDistribution, self.ids, self.passes)

    @property
    def t_count(self) -> int:
        return self.passes.shape[1]

    @property
    def class_count(self) -> int:
        return self.passes.shape[2]


def validate_distribution(dists: PassStack | PredictiveDistribution) -> None:
    """Raise unless every row is a probability vector (sum 1 within PROB_TOL).

    Checks a whole stack in one call and reports the first offending record
    and row, so malformed external dumps are easy to locate.  Both checks are
    phrased so that a NaN fails them.
    """
    if isinstance(dists, PassStack):
        ids, p = dists.ids, dists.passes
    else:
        ids, p = (dists.example_id,), dists.passes[None]
    in_range = ((p >= 0.0) & (p <= 1.0)).all(axis=2)
    totals = p.sum(axis=2)
    bad = np.argwhere(~(in_range & (np.abs(totals - 1.0) <= PROB_TOL)))
    if bad.size == 0:
        return
    i, row = bad[0]
    if not in_range[i, row]:
        raise DataFormatError(f"distribution {ids[i]!r}: row {row} has entries outside [0, 1]")
    raise DataFormatError(
        f"distribution {ids[i]!r}: row {row} sums to {float(totals[i, row])}, expected 1 within {PROB_TOL}"
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


# ``json.dumps(doc, sort_keys=True)`` builds this same encoder on every call
_ENCODER = json.JSONEncoder(sort_keys=True)


def write_json(path: str, doc: dict, indent: int | None = None) -> None:
    encoder = _ENCODER if indent is None else json.JSONEncoder(sort_keys=True, indent=indent)
    write_lines(path, (encoder.encode(doc), "\n"))


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    encode = _ENCODER.encode
    write_lines(path, (encode(rec) + "\n" for rec in records))


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


def load_distributions(path: str) -> PassStack:
    """Stream a line-delimited distribution dump (no header line) into a stack.

    The first record fixes (T, C); a record of another shape fails naming its
    id and line.  Records are copied into fixed-size blocks as they are read,
    so no per-record object outlives its line.
    """
    ids: list[str] = []
    blocks: list[np.ndarray] = []
    filled = 0  # rows written to the last block

    def build(rec: dict) -> None:
        nonlocal filled
        exid, passes = rec["example_id"], np.array(rec["passes"], dtype=float)
        if not blocks:
            PredictiveDistribution(exid, passes)  # the first record's shape must be a valid T x C
        elif passes.shape != blocks[0].shape[1:]:
            raise DataFormatError(
                f"distribution {exid!r}: passes have shape {passes.shape}, the first record's {blocks[0].shape[1:]}"
            )
        if not blocks or filled == len(blocks[-1]):
            blocks.append(np.empty((max(1, _BLOCK_BYTES // passes.nbytes), *passes.shape)))
            filled = 0
        blocks[-1][filled] = passes
        filled += 1
        ids.append(exid)

    for _ in read_jsonl(path, build):
        pass
    if not blocks:
        return PassStack((), np.empty((0, 0, 0)))
    blocks[-1] = blocks[-1][:filled]
    return PassStack(tuple(ids), np.concatenate(blocks))


def save_distributions(dists: Iterable[PredictiveDistribution], path: str) -> None:
    write_jsonl(path, ({"example_id": d.example_id, "passes": d.passes.tolist()} for d in dists))


def feature_matrix(dataset: Dataset) -> np.ndarray:
    """Stack the dataset's feature vectors into an (n, d) array."""
    if dataset.schema != FEATURES:
        raise DataFormatError("dataset does not carry feature vectors")
    return np.array([ex.features for ex in dataset.examples], dtype=float)


def label_vector(dataset: Dataset) -> np.ndarray:
    return np.array([ex.label for ex in dataset.examples], dtype=int)
