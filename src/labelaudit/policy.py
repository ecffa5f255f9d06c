"""The three decision policies (evidence filter, binary overwrite, ordinal
quantile reject) and decision application.

All threshold comparisons are strict: "above"/"below" exclude the boundary, so
tuned values have a single fixed meaning.  Policies are pure functions of the
summary/distribution, the current label, and the thresholds; they never see
gold labels.

Each policy call returns one ``Decision``; a run's decisions are held as one
``Decisions`` column set (a verdict, a new label and a rule per id), which
``apply_decisions``, ``save_decisions`` and ``rule_histogram`` read whole.
A list of ``Decision`` records, as ``load_decisions`` returns, is turned
into columns once at their entry.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import MISSING, dataclass, fields
from typing import Iterable, Iterator

import numpy as np

from .data import Dataset, PredictiveDistribution, _first_repeat, _ints, _read_only, read_jsonl, write_jsonl
from .uncertainty import UncertaintySummary, ordinal_quantile

POSITIVE = 1
NEGATIVE = 0

KEEP = "keep"
REMOVE = "remove"
OVERWRITE = "overwrite"
VERDICTS = (KEEP, REMOVE, OVERWRITE)  # a verdict's code in a Decisions column is its index here
_CODE = {verdict: code for code, verdict in enumerate(VERDICTS)}
NO_LABEL = -1  # the new-label column's entry for a decision that overwrites nothing

FILTER_ONLY = "filter_only"
OVERWRITE_MODE = "overwrite"
APPLY_MODES = (FILTER_ONLY, OVERWRITE_MODE)


@dataclass(frozen=True)
class FilterThresholds:
    """Remove positives refuted with mean > t1, std < s1; negatives supported with
    mean > t2, std < s2.  Defaults are the retrieval-cleaning operating point."""

    t1: float = 0.75
    s1: float = 0.2
    t2: float = 0.7
    s2: float = 0.2

    def __post_init__(self) -> None:
        for name in ("t1", "s1", "t2", "s2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class OverwriteThresholds:
    """Falsify positives when mean(positive) < t1 with std < s1, negatives when
    mean(positive) > t2 with std < s2.  Defaults are the reader-correction
    operating point."""

    t1: float = 0.3
    s1: float = 0.15
    t2: float = 0.75
    s2: float = 0.15

    def __post_init__(self) -> None:
        for name in ("t1", "s1", "t2", "s2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not self.t1 < self.t2:
            raise ValueError(f"need t1 < t2, got t1={self.t1}, t2={self.t2}")


@dataclass(frozen=True)
class QuantileThresholds:
    """Reject good-labeled examples whose q1 quantile falls outside the good set,
    and bad-or-neutral-labeled ones whose q2 quantile lands inside it."""

    ordering: tuple[int, ...]
    good_set: frozenset[int]
    bad_set: frozenset[int]
    q1: float = 0.9
    q2: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "ordering", tuple(int(c) for c in self.ordering))
        object.__setattr__(self, "good_set", frozenset(int(c) for c in self.good_set))
        object.__setattr__(self, "bad_set", frozenset(int(c) for c in self.bad_set))
        if not 0.0 <= self.q2 <= 1.0 or not 0.0 <= self.q1 <= 1.0:
            raise ValueError("quantiles must lie in [0, 1]")
        if not self.q2 < self.q1:
            raise ValueError(f"need q2 < q1, got q1={self.q1}, q2={self.q2}")
        if not self.good_set or not self.bad_set:
            raise ValueError("good_set and bad_set must both be non-empty")
        if self.good_set & self.bad_set:
            raise ValueError("good_set and bad_set must be disjoint")


@dataclass(frozen=True)
class Decision:
    example_id: str
    verdict: str
    new_label: int | None = None
    rule: str = "none"

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == OVERWRITE and self.new_label is None:
            raise ValueError(f"overwrite decision for {self.example_id!r} needs new_label")
        if self.verdict != OVERWRITE and self.new_label is not None:
            raise ValueError(f"{self.verdict} decision for {self.example_id!r} cannot carry new_label")


def _valid_decision(example_id: str, verdict: str, new_label: int | None = None, rule: str = "none") -> Decision:
    """A Decision of fields already known to be valid, skipping ``__post_init__``:
    a policy's verdict and new-label pairs are its constants."""
    d = object.__new__(Decision)
    d.__dict__.update(example_id=example_id, verdict=verdict, new_label=new_label, rule=rule)
    return d


def _decision_view(example_id: str, code: int, new_label: int, rule: str) -> Decision:
    """A Decision of already validated columns, skipping ``__post_init__``."""
    return _valid_decision(example_id, VERDICTS[code], new_label if code == _CODE[OVERWRITE] else None, rule)


@dataclass(frozen=True, eq=False)
class Decisions:
    """One decision per id, held as columns: the ``ids`` tuple, a read-only
    int8 ``verdicts`` column (each verdict's index in ``VERDICTS``), a
    read-only int64 ``new_labels`` column (``NO_LABEL`` where the verdict is
    not an overwrite) and the ``rules`` tuple.

    ``len``, an int index (negative too) and iteration behave as on the
    list of ``Decision`` records, which they yield as views built on each
    access; a slice yields a ``Decisions``.  ``ids`` is taken over, not
    copied, so the decisions of a stack share its ids tuple; arrays are
    taken over and made read-only.  A new label beyond int64 keeps the
    column as Python ints, for ``apply_decisions`` to refuse by value.
    """

    ids: tuple[str, ...]
    verdicts: np.ndarray
    new_labels: np.ndarray
    rules: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.ids)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "rules", tuple(self.rules))
        verdicts = np.asarray(self.verdicts, dtype=np.int8)
        new_labels = _ints(self.new_labels)
        if verdicts.shape != (n,) or new_labels.shape != (n,) or len(self.rules) != n:
            raise ValueError(f"decision columns for {n} ids must each hold {n} entries")
        if new_labels.dtype.kind not in "iuO":
            raise ValueError(f"new_labels must be integers, got {new_labels.dtype}")
        if ((verdicts < 0) | (verdicts >= len(VERDICTS))).any():
            raise ValueError(f"verdict codes must lie in [0, {len(VERDICTS)})")
        object.__setattr__(self, "verdicts", _read_only(verdicts))
        object.__setattr__(self, "new_labels", _read_only(new_labels))

    @classmethod
    def from_records(cls, records: Iterable[Decision], ids: tuple[str, ...] | None = None) -> "Decisions":
        """The columns of ``Decision`` records, read one at a time so that none
        need outlive its row.  Given ``ids``, the records must carry those ids
        in that order, and the tuple itself becomes the id column."""
        seen, codes, new_labels, rules = [], [], [], []
        for d in records:
            seen.append(d.example_id)
            codes.append(_CODE[d.verdict])
            new_labels.append(NO_LABEL if d.new_label is None else d.new_label)
            rules.append(d.rule)
        if ids is None:
            ids = tuple(seen)
        elif list(ids) != seen:
            raise ValueError("decision records do not follow the given ids")
        return cls(ids, codes, new_labels, rules)

    @classmethod
    def of(cls, decisions) -> "Decisions":
        """``decisions`` itself when it is a ``Decisions``, else the columns of its records."""
        return decisions if isinstance(decisions, Decisions) else cls.from_records(decisions)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Decisions(self.ids[key], self.verdicts[key], self.new_labels[key], self.rules[key])
        return _decision_view(self.ids[key], int(self.verdicts[key]), int(self.new_labels[key]), self.rules[key])

    def __iter__(self) -> Iterator[Decision]:
        return map(_decision_view, self.ids, self.verdicts.tolist(), self.new_labels.tolist(), self.rules)

    @property
    def flagged(self) -> np.ndarray:
        """Whether each decision removes or overwrites its example."""
        return self.verdicts != _CODE[KEEP]

    def where(self, verdict: str) -> np.ndarray:
        """The positions of the decisions with ``verdict``, in order."""
        return np.flatnonzero(self.verdicts == _CODE[verdict])


@dataclass(frozen=True)
class ApplyReport:
    kept: int
    removed: int
    overwritten: int


def _check_binary_label(label: int) -> None:
    if label not in (NEGATIVE, POSITIVE):
        raise ValueError(f"label must be {NEGATIVE} (negative) or {POSITIVE} (positive), got {label}")


def decide_filter(summary: UncertaintySummary, label: int, thresholds: FilterThresholds) -> Decision:
    """Evidence filter over a two-channel summary (supports_positive, supports_negative).

    Positive-labeled examples are removed when the refuting evidence is high and
    stable; negative-labeled ones when the supporting evidence is.  The summary
    comes from ``summarize`` over a ``map_to_evidence`` matrix.
    """
    _check_binary_label(label)
    if summary.mean.shape != (2,):
        raise ValueError("filter policy needs a two-channel evidence summary")
    if label == POSITIVE:
        if summary.mean[1] > thresholds.t1 and summary.std[1] < thresholds.s1:
            return _valid_decision(summary.example_id, REMOVE, rule="filter:positive-refuted")
    else:
        if summary.mean[0] > thresholds.t2 and summary.std[0] < thresholds.s2:
            return _valid_decision(summary.example_id, REMOVE, rule="filter:negative-supported")
    return _valid_decision(summary.example_id, KEEP)


def decide_overwrite(summary: UncertaintySummary, label: int, thresholds: OverwriteThresholds) -> Decision:
    """Binary falsification: class 1 is the positive class.

    A positive label with confidently low positive mass becomes negative; a
    negative label with confidently high positive mass becomes positive.
    """
    _check_binary_label(label)
    if summary.mean.shape != (2,):
        raise ValueError("overwrite policy needs a binary (C = 2) summary")
    mean_pos = summary.mean[1]
    std_pos = summary.std[1]
    if label == POSITIVE and mean_pos < thresholds.t1 and std_pos < thresholds.s1:
        return _valid_decision(summary.example_id, OVERWRITE, new_label=NEGATIVE, rule="overwrite:false-positive")
    if label == NEGATIVE and mean_pos > thresholds.t2 and std_pos < thresholds.s2:
        return _valid_decision(summary.example_id, OVERWRITE, new_label=POSITIVE, rule="overwrite:false-negative")
    return _valid_decision(summary.example_id, KEEP)


def decide_quantile(dist: PredictiveDistribution, label: int, thresholds: QuantileThresholds) -> Decision:
    """Ordinal quantile reject; emits Remove only, never Overwrite."""
    if label in thresholds.good_set:
        at_q1 = ordinal_quantile(dist, thresholds.q1, thresholds.ordering)
        if at_q1 not in thresholds.good_set:
            return _valid_decision(dist.example_id, REMOVE, rule="quantile:good-demoted")
    elif label in thresholds.bad_set:
        at_q2 = ordinal_quantile(dist, thresholds.q2, thresholds.ordering)
        if at_q2 in thresholds.good_set:
            return _valid_decision(dist.example_id, REMOVE, rule="quantile:bad-promoted")
    else:
        raise ValueError(f"label {label} is in neither good_set nor bad_set")
    return _valid_decision(dist.example_id, KEEP)


def apply_decisions(dataset: Dataset, decisions, mode: str):
    """Apply per-example verdicts: Remove drops, Overwrite relabels, Keep passes.

    ``decisions`` is a ``Decisions`` or a list of ``Decision`` records; they
    may cover only part of the dataset, in any order, and undecided examples
    pass through.  Decisions whose ids are the dataset's, in its order,
    apply as a verdict mask plus one write of the label column; any others
    are first joined to the dataset's positions, which refuses a repeated or
    unknown id.  ``filter_only`` mode rejects Overwrite decisions outright.
    The returned counts satisfy kept + removed == input size, with
    overwritten counted inside kept.  The cleaned dataset replaces the label
    column and picks the kept examples by an index array; it shares the
    input's feature matrix.
    """
    if mode not in APPLY_MODES:
        raise ValueError(f"unknown apply mode {mode!r}, expected one of {APPLY_MODES}")
    decisions = Decisions.of(decisions)
    verdicts, new_labels = decisions.verdicts, decisions.new_labels
    if decisions.ids != dataset.ids:
        verdicts, new_labels = _aligned(dataset, decisions)
    removed = verdicts == _CODE[REMOVE]
    overwrites = np.flatnonzero(verdicts == _CODE[OVERWRITE])
    cleaned = dataset
    if overwrites.size:
        if mode == FILTER_ONLY:
            raise ValueError(f"overwrite decision for {dataset.ids[overwrites[0]]!r} not allowed in filter_only mode")
        new = new_labels[overwrites]
        unchanged = np.flatnonzero(new == dataset.labels[overwrites])
        if unchanged.size:
            raise ValueError(f"overwrite for {dataset.ids[overwrites[unchanged[0]]]!r} does not change the label")
        labels = dataset.labels.astype(new.dtype)  # Python ints only for a label beyond int64, refused below
        labels[overwrites] = new
        cleaned = dataset.with_labels(labels)
    if removed.any():
        cleaned = cleaned.subset(np.flatnonzero(~removed))
    report = ApplyReport(kept=len(cleaned), removed=int(removed.sum()), overwritten=len(overwrites))
    return cleaned, report


def _aligned(dataset: Dataset, decisions: Decisions) -> tuple[np.ndarray, np.ndarray]:
    """The verdict and new-label columns of ``decisions`` moved to the
    dataset's positions, Keep where an example is undecided; the first
    repeated id, or the least unknown one, fails."""
    ids = decisions.ids
    repeat = _first_repeat(ids)
    if repeat is not None:
        raise ValueError(f"duplicate decision for example {repeat!r}")
    position = dict(zip(dataset.ids, range(len(dataset))))
    unknown = set(ids).difference(position)
    if unknown:
        raise ValueError(f"decision for unknown example {sorted(unknown)[0]!r}")
    at = np.fromiter(map(position.__getitem__, ids), dtype=np.intp, count=len(ids))
    verdicts = np.full(len(dataset), _CODE[KEEP], dtype=np.int8)
    verdicts[at] = decisions.verdicts
    new_labels = np.full(len(dataset), NO_LABEL, dtype=decisions.new_labels.dtype)
    new_labels[at] = decisions.new_labels
    return verdicts, new_labels


def rule_histogram(decisions) -> dict[str, int]:
    return dict(sorted(Counter(Decisions.of(decisions).rules).items()))


def _decision_record(example_id: str, code: int, new_label: int, rule: str) -> dict:
    rec: dict = {"example_id": example_id, "verdict": VERDICTS[code], "rule": rule}
    if code == _CODE[OVERWRITE]:
        rec["new_label"] = new_label
    return rec


def save_decisions(decisions, path: str) -> None:
    """Persist decisions (a ``Decisions`` or a list of records) as
    line-delimited JSON, one record per example, read from the columns."""
    d = Decisions.of(decisions)
    write_jsonl(path, map(_decision_record, d.ids, d.verdicts.tolist(), d.new_labels.tolist(), d.rules))


def _decision_from_record(rec: dict) -> Decision:
    new_label = rec.get("new_label")
    if new_label is not None and type(new_label) is not int:
        raise TypeError("new_label must be an integer")
    return Decision(rec["example_id"], rec["verdict"], new_label, rec.get("rule", "none"))


def load_decisions(path: str) -> list[Decision]:
    """The records of a decisions file, one ``Decision`` per line."""
    return list(read_jsonl(path, _decision_from_record))


THRESHOLDS = {"filter": FilterThresholds, "overwrite": OverwriteThresholds, "quantile": QuantileThresholds}


def grid_fields(kind: str) -> tuple[str, ...]:
    """The float-defaulted fields of a policy's thresholds: the ones a sweep varies."""
    return tuple(f.name for f in fields(THRESHOLDS[kind]) if isinstance(f.default, float))


def thresholds_from_section(kind: str, section: dict | None):
    """Build a thresholds object from one named config section; omitted fields
    take the default operating-point values."""
    if kind not in THRESHOLDS:
        raise ValueError(f"unknown policy kind {kind!r}, expected one of {tuple(THRESHOLDS)}")
    section = dict(section or {})
    cls = THRESHOLDS[kind]
    unknown = set(section) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {kind} threshold fields {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in section]
    if missing:
        raise ValueError(f"{kind} thresholds need {', '.join(missing)}")
    return cls(**section)


def thresholds_to_section(thresholds) -> dict:
    if not isinstance(thresholds, tuple(THRESHOLDS.values())):
        raise ValueError(f"not a thresholds object: {thresholds!r}")
    section = {}
    for f in fields(thresholds):
        value = getattr(thresholds, f.name)
        if isinstance(value, (tuple, frozenset)):
            value = sorted(value) if isinstance(value, frozenset) else list(value)
        section[f.name] = value
    return section
