"""Domain types and the file boundary: every file labelaudit reads or writes
goes through ``read_json``/``read_jsonl`` and the atomic ``write_lines``.

A dataset file is one JSON header line ``{"class_count": C, "class_names": [...]}``
followed by one record per example.  It loads as one columnar ``Dataset``:
a tuple of ids, an int label column, an optional int gold column, and either
an (n, d) float feature matrix or each example's tagged tokens.  Each line is
checked where it is read, against the file's schema and feature dimension as
well, and a failure is located by file and line; the line is then appended
straight to the columns.  ``Dataset.examples`` builds plain ``LabeledExample``
records from the columns for code that wants them.
Noise injection, gold stripping, fold subsets and cleaning derive new
datasets that share the parent's feature matrix: a label column is replaced,
the gold column dropped, or the examples picked by an index array.

A distribution file holds one ``{"example_id": ..., "passes": [[...], ...]}``
record per line, all of one T x C shape, and loads as one ``PassStack``.
Writers sort keys and end every file with a newline.  All types are immutable
after construction and safe to share across threads.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

POS_TAGS = ("noun", "propn", "verb", "other")
FEATURES = "features"
TOKENS = "tokens"
PROB_TOL = 1e-6
NO_GOLD = -1  # the gold column's entry for an example without a gold label
# size of the blocks a distribution dump is loaded into
_BLOCK_BYTES = 1 << 20
# size of the blocks a feature matrix is written from: each becomes Python
# floats, about four times its size, at once
_WRITE_BLOCK_BYTES = 1 << 16
# the JSON values that count as numbers; json gives str, bool and None for
# the others, which float() and numpy would still turn into floats
_NUMBER_TYPES = frozenset((int, float))


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
        if type(self.text) is not str:
            raise DataFormatError(f"token text must be a string, got {self.text!r}")
        if self.pos not in POS_TAGS:
            raise DataFormatError(f"unknown pos tag {self.pos!r}, expected one of {POS_TAGS}")
        if self.is_compound_head and self.pos not in ("noun", "propn"):
            raise DataFormatError(
                f"token {self.text!r}: is_compound_head requires pos noun or propn"
            )


class LabeledExample(NamedTuple):
    """The record of one dataset line: an example carrying either a feature
    vector or tagged tokens.  ``Dataset.examples`` builds them from the
    columns; nothing else takes or checks one.

    ``gold_label`` is benchmark-only ground truth; strip it (``Dataset.strip_gold``)
    before anything that makes decisions can see it.
    """

    id: str
    label: int
    features: tuple[float, ...] | None = None
    tokens: tuple[TaggedToken, ...] | None = None
    gold_label: int | None = None


def _ints(values) -> np.ndarray:
    """``values`` as an int64 array; ints beyond int64 stay Python ints (object
    dtype), for validation to refuse by value."""
    if isinstance(values, np.ndarray):
        return values
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """n examples held as columns: ``ids``, read-only int ``labels``, an optional
    int ``gold`` column (``NO_GOLD`` where an example has none), and either a
    read-only float ``features`` matrix or the ``tokens`` of each example; a
    header-only dataset has neither.

    Example i's feature vector is ``features[i]``, or ``features[rows[i]]``
    when ``rows`` is set: a ``subset`` keeps its parent's matrix and names
    its rows, so no subset copies the matrix.  ``matrix`` gathers the vectors
    of any examples.  Arrays are taken over, not copied, and made read-only.
    The constructor validates every column at once; ``strip_gold``,
    ``subset`` and ``with_labels`` derive a dataset from a validated one and
    check only what they change.
    """

    class_count: int
    ids: tuple[str, ...] = ()
    labels: np.ndarray = ()
    features: np.ndarray | None = None
    tokens: tuple[tuple[TaggedToken, ...], ...] | None = None
    gold: np.ndarray | None = None
    class_names: tuple[str, ...] | None = None
    rows: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.class_names is not None:
            object.__setattr__(self, "class_names", tuple(self.class_names))
        if self.class_count < 2:
            raise DataFormatError(f"class_count must be >= 2, got {self.class_count}")
        if self.class_names is not None and len(self.class_names) != self.class_count:
            raise DataFormatError(
                f"class_names has {len(self.class_names)} entries for class_count {self.class_count}"
            )
        ids = tuple(self.ids)
        object.__setattr__(self, "ids", ids)
        repeat = _first_repeat(ids)
        if repeat is not None:
            raise DataFormatError(f"duplicate example id {repeat!r}")
        object.__setattr__(self, "labels", self._class_column(self.labels, "label", 0))
        if self.gold is not None:
            object.__setattr__(self, "gold", self._class_column(self.gold, "gold_label", NO_GOLD))
        if self.features is not None and self.tokens is not None:
            raise DataFormatError("a dataset holds exactly one of features/tokens")
        if self.tokens is not None:
            object.__setattr__(self, "tokens", tuple(self.tokens))
            if len(self.tokens) != len(ids):
                raise DataFormatError(f"{len(self.tokens)} token sequences for {len(ids)} ids")
        elif self.features is not None:
            features = np.asarray(self.features, dtype=float)
            if features.ndim != 2:
                raise DataFormatError(f"features must be an (n, d) matrix, got shape {features.shape}")
            if len(features) != len(ids):
                raise DataFormatError(f"{len(features)} feature rows for {len(ids)} ids")
            object.__setattr__(self, "features", _read_only(features))
        elif len(ids):
            raise DataFormatError("examples need features or tokens")

    def _class_column(self, values, name: str, low: int) -> np.ndarray:
        """``values`` as a read-only int64 column with one entry per id, each in [low, class_count)."""
        arr = _ints(values) if len(values) else np.empty(0, dtype=np.int64)
        if arr.shape != (len(self.ids),) or arr.dtype.kind not in "iuO":
            raise DataFormatError(f"{name} column must hold one integer per id, got {arr.dtype} {arr.shape}")
        bad = np.flatnonzero((arr < low) | (arr >= self.class_count))
        if bad.size:
            j = bad[0]
            limit = f" for class_count {self.class_count}" if name == "label" else ""
            raise DataFormatError(f"example {self.ids[j]!r}: {name} {arr[j]} out of range{limit}")
        return _read_only(arr.astype(np.int64, copy=False))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def examples(self) -> tuple[LabeledExample, ...]:
        """The examples as records, built from the columns on each access."""
        if not self.ids:
            return ()
        if self.gold is not None:
            golds = [None if g == NO_GOLD else g for g in self.gold.tolist()]
        else:
            golds = itertools.repeat(None)
        if self.tokens is not None:
            features, tokens = itertools.repeat(None), self.tokens
        else:
            features, tokens = map(tuple, self.matrix().tolist()), itertools.repeat(None)
        return tuple(map(LabeledExample, self.ids, self.labels.tolist(), features, tokens, golds))

    @property
    def feature_dim(self) -> int | None:
        return self.features.shape[1] if self.features is not None else None

    def matrix(self, positions=slice(None)) -> np.ndarray:
        """The feature vectors of the examples at ``positions`` (all by default)
        as one (len, d) matrix: a view of ``features`` when no gather is needed."""
        if self.features is None:
            raise DataFormatError("dataset does not carry feature vectors")
        if self.rows is None:
            return self.features[positions]
        return self.features[self.rows[positions]]

    def _derive(self, **columns) -> "Dataset":
        """This dataset with ``columns`` replaced, unchecked: the caller derives them from validated ones."""
        out = object.__new__(Dataset)
        out.__dict__.update(self.__dict__, **columns)
        return out

    def strip_gold(self) -> "Dataset":
        """The policy-facing view: the same columns without the gold column."""
        return self._derive(gold=None)

    def subset(self, positions) -> "Dataset":
        """The examples at ``positions``, an int index array, in that order.
        The feature matrix is shared, not copied."""
        positions = np.asarray(positions, dtype=np.intp)
        picked = positions.tolist()
        columns: dict = {
            "ids": tuple(self.ids[j] for j in picked),
            "labels": _read_only(self.labels[positions]),
        }
        if self.gold is not None:
            columns["gold"] = _read_only(self.gold[positions])
        if self.tokens is not None:
            columns["tokens"] = tuple(self.tokens[j] for j in picked)
        elif self.features is not None:
            columns["rows"] = _read_only(positions if self.rows is None else self.rows[positions])
        return self._derive(**columns)

    def with_labels(self, labels) -> "Dataset":
        """The same examples under a new label column, which is validated."""
        return self._derive(labels=self._class_column(labels, "label", 0))


def _first_repeat(ids) -> str | None:
    """The first id in ``ids`` that an earlier one repeats, or None."""
    if len(set(ids)) == len(ids):
        return None
    seen: set[str] = set()
    for exid in ids:
        if exid in seen:
            return exid
        seen.add(exid)


@dataclass(frozen=True, eq=False)
class PredictiveDistribution:
    """T stacked class-probability rows for one example, one per stochastic pass.

    A float array is taken over, not copied, and made read-only, as ``PassStack`` takes one.
    """

    example_id: str
    passes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.passes, dtype=float)
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


RECORD_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def located(where: str, err: Exception) -> DataFormatError:
    """The location rule: a missing field (``KeyError``), a wrongly typed value
    (``TypeError``/``ValueError``) or an integer too large for a float
    (``OverflowError``) raised while a record is built becomes a
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
    first, when given), under the location rule with one handler per file: a
    failure is located at the last non-blank line read, or at the file before one."""
    current = 0  # the last non-blank line read
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    current = lineno
                    yield (header or build)(_parse_object(line))
                    header = None
    except RECORD_ERRORS as err:
        raise located(f"{path}: line {current}" if current else path, err) from None


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


def _not_numbers(what: str, values) -> DataFormatError:
    """The error for ``values`` of which the caller found one not a JSON number."""
    bad = next(v for v in values if type(v) not in _NUMBER_TYPES)
    return DataFormatError(f"{what} must be numbers, got {bad!r}")


def _dataset_header(rec: dict) -> tuple[int, tuple[str, ...] | None]:
    if type(rec["class_count"]) is not int:  # JSON true/false would pass isinstance(..., int)
        raise TypeError("header needs an integer class_count")
    names = rec.get("class_names")
    if names is not None and (type(names) is not list or not all(type(name) is str for name in names)):
        raise TypeError(f"header class_names must be a list of strings, got {names!r}")
    return rec["class_count"], tuple(names) if names else None


def _append_record(columns: tuple[list, ...], layout: dict, rec: dict, expected_schema: str | None) -> None:
    """Check one dataset record and append its id, label, gold label (``NO_GOLD``
    for none) and payload to ``columns``.  ``layout`` keeps the file's schema and
    feature dimension, fixed by the first record that shows each: a record that
    breaks either is refused at its line."""
    exid, label, gold = rec["id"], rec["label"], rec.get("gold_label")
    if not isinstance(exid, str):
        raise TypeError("id must be a string")
    if type(label) is not int or (gold is not None and type(gold) is not int):
        raise TypeError("label and gold_label must be integers")
    has_features = "features" in rec
    if has_features == ("tokens" in rec):
        raise DataFormatError("record needs exactly one of features/tokens")
    if has_features:
        payload = tuple(rec["features"])
        if not _NUMBER_TYPES.issuperset(map(type, payload)):
            raise _not_numbers(f"example {exid!r}: features", payload)
        # an int too large for a float raises OverflowError here, as float() would
        if not all(map(math.isfinite, payload)):
            raise DataFormatError("features must be finite numbers")
    else:
        payload = tuple(
            TaggedToken(t["text"], t["pos"], bool(t.get("is_compound_head")), bool(t.get("is_entity")))
            for t in rec["tokens"]
        )
    schema = FEATURES if has_features else TOKENS
    if expected_schema is not None and schema != expected_schema:
        raise DataFormatError(f"record schema {schema} does not match expected {expected_schema}")
    first = layout.setdefault("schema", schema)
    if schema != first:
        raise DataFormatError(f"example {exid!r}: mixed schemas ({schema} after {first})")
    if has_features and len(payload) != layout.setdefault("dim", len(payload)):
        raise DataFormatError(f"example {exid!r}: feature dimension {len(payload)} differs from {layout['dim']}")
    if gold is not None and gold < 0:  # the column keeps NO_GOLD for a missing one
        raise DataFormatError(f"example {exid!r}: gold_label {gold} out of range")
    ids, labels, golds, payloads = columns
    ids.append(exid)
    labels.append(label)
    golds.append(NO_GOLD if gold is None else gold)
    payloads.append(payload)


def load_dataset(path: str, expected_schema: str | None = None) -> Dataset:
    """Read a dataset file; every invariant is enforced before anything is returned.

    ``expected_schema`` pins the record kind (``"features"`` or ``"tokens"``);
    ``None`` accepts either but still requires the file to be uniform.  Each
    line is checked and located, the file's schema and feature dimension
    included, as it is appended to the columns; the columns are then checked
    once, as arrays, by the ``Dataset`` constructor (repeated ids, labels and
    gold labels beyond the class count), whose errors name the file.
    """
    columns: tuple[list, ...] = ([], [], [], [])
    layout: dict = {}
    rows = read_jsonl(path, lambda rec: _append_record(columns, layout, rec, expected_schema), _dataset_header)
    header = next(rows, None)
    if header is None:
        raise DataFormatError(f"{path}: empty file, missing header line")
    for _ in rows:
        pass
    (class_count, class_names), (ids, labels, golds, payloads) = header, columns
    gold = _ints(golds) if golds.count(NO_GOLD) != len(golds) else None
    try:
        if "dim" in layout:
            features = np.array(payloads, dtype=float)
            return Dataset(class_count, ids, _ints(labels), features, gold=gold, class_names=class_names)
        tokens = payloads if payloads else None
        return Dataset(class_count, ids, _ints(labels), tokens=tokens, gold=gold, class_names=class_names)
    except DataFormatError as err:
        raise located(path, err) from None


def _example_records(dataset: Dataset) -> Iterator[dict]:
    """One record per example, in order; feature rows become lists a block at a time."""
    n = len(dataset)
    if dataset.tokens is not None:
        key, blocks = "tokens", [(list(map(asdict, tokens)) for tokens in dataset.tokens)]
    else:
        step = max(1, _WRITE_BLOCK_BYTES // (8 * max(1, dataset.feature_dim or 1)))
        key, blocks = "features", (dataset.matrix(slice(lo, lo + step)).tolist() for lo in range(0, n, step))
    golds = dataset.gold.tolist() if dataset.gold is not None else itertools.repeat(NO_GOLD, n)
    for exid, label, payload, gold in zip(
        dataset.ids, dataset.labels.tolist(), itertools.chain.from_iterable(blocks), golds
    ):
        rec = {"id": exid, "label": label, key: payload}
        if gold != NO_GOLD:
            rec["gold_label"] = gold
        yield rec


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset so that ``load_dataset`` reproduces it field-for-field."""
    header: dict = {"class_count": dataset.class_count}
    if dataset.class_names is not None:
        header["class_names"] = list(dataset.class_names)
    write_jsonl(path, itertools.chain((header,), _example_records(dataset)))


def load_distributions(path: str) -> PassStack:
    """Stream a line-delimited distribution dump (no header line) into a stack.

    The first record fixes (T, C); a record of another shape or a repeated id
    fails naming its id and line.  Records are copied into fixed-size blocks as
    they are read, so no per-record object outlives its line.
    """
    ids: list[str] = []
    seen: set[str] = set()
    blocks: list[np.ndarray] = []
    filled = 0  # rows written to the last block

    def build(rec: dict) -> None:
        nonlocal filled
        exid, passes = rec["example_id"], np.array(rec["passes"], dtype=float)
        if exid in seen:
            raise DataFormatError(f"duplicate distribution for example {exid!r}")
        seen.add(exid)
        if not blocks:
            PredictiveDistribution(exid, passes)  # the first record's shape must be a valid T x C
        elif passes.shape != blocks[0].shape[1:]:
            raise DataFormatError(
                f"distribution {exid!r}: passes have shape {passes.shape}, the first record's {blocks[0].shape[1:]}"
            )
        # by its shape, the record holds T rows of C values
        if not _NUMBER_TYPES.issuperset(map(type, itertools.chain.from_iterable(rec["passes"]))):
            raise _not_numbers(f"distribution {exid!r}: passes", itertools.chain.from_iterable(rec["passes"]))
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

