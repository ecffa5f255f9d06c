"""The three decision policies (evidence filter, binary overwrite, ordinal
quantile reject) and decision application.

All threshold comparisons are strict: "above"/"below" exclude the boundary, so
tuned values have a single fixed meaning.  Policies are pure functions of the
summary/distribution, the current label, and the thresholds; they never see
gold labels.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

import numpy as np

from .data import Dataset, PredictiveDistribution, read_jsonl, write_jsonl
from .uncertainty import UncertaintySummary, ordinal_quantile

POSITIVE = 1
NEGATIVE = 0

KEEP = "keep"
REMOVE = "remove"
OVERWRITE = "overwrite"
VERDICTS = (KEEP, REMOVE, OVERWRITE)

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
            return Decision(summary.example_id, REMOVE, rule="filter:positive-refuted")
    else:
        if summary.mean[0] > thresholds.t2 and summary.std[0] < thresholds.s2:
            return Decision(summary.example_id, REMOVE, rule="filter:negative-supported")
    return Decision(summary.example_id, KEEP)


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
        return Decision(summary.example_id, OVERWRITE, new_label=NEGATIVE, rule="overwrite:false-positive")
    if label == NEGATIVE and mean_pos > thresholds.t2 and std_pos < thresholds.s2:
        return Decision(summary.example_id, OVERWRITE, new_label=POSITIVE, rule="overwrite:false-negative")
    return Decision(summary.example_id, KEEP)


def decide_quantile(dist: PredictiveDistribution, label: int, thresholds: QuantileThresholds) -> Decision:
    """Ordinal quantile reject; emits Remove only, never Overwrite."""
    if label in thresholds.good_set:
        at_q1 = ordinal_quantile(dist, thresholds.q1, thresholds.ordering)
        if at_q1 not in thresholds.good_set:
            return Decision(dist.example_id, REMOVE, rule="quantile:good-demoted")
    elif label in thresholds.bad_set:
        at_q2 = ordinal_quantile(dist, thresholds.q2, thresholds.ordering)
        if at_q2 in thresholds.good_set:
            return Decision(dist.example_id, REMOVE, rule="quantile:bad-promoted")
    else:
        raise ValueError(f"label {label} is in neither good_set nor bad_set")
    return Decision(dist.example_id, KEEP)


def apply_decisions(dataset: Dataset, decisions, mode: str):
    """Apply per-example verdicts: Remove drops, Overwrite relabels, Keep passes.

    Undecided examples pass through.  ``filter_only`` mode rejects Overwrite
    decisions outright.  The returned counts satisfy kept + removed == input
    size, with overwritten counted inside kept.  The cleaned dataset replaces
    the label column and picks the kept examples by an index array; it shares
    the input's feature matrix.
    """
    if mode not in APPLY_MODES:
        raise ValueError(f"unknown apply mode {mode!r}, expected one of {APPLY_MODES}")
    by_id: dict[str, Decision] = {}
    for d in decisions:
        if d.example_id in by_id:
            raise ValueError(f"duplicate decision for example {d.example_id!r}")
        by_id[d.example_id] = d
    position = {exid: j for j, exid in enumerate(dataset.ids)}
    unknown = set(by_id) - set(position)
    if unknown:
        raise ValueError(f"decision for unknown example {sorted(unknown)[0]!r}")
    removed = np.zeros(len(dataset), dtype=bool)
    overwrites = []  # (position, new label)
    for d in by_id.values():
        if d.verdict == REMOVE:
            removed[position[d.example_id]] = True
        elif d.verdict == OVERWRITE:
            overwrites.append((position[d.example_id], d.new_label))
    overwrites.sort()
    labels = dataset.labels.tolist()
    for j, new_label in overwrites:
        if mode == FILTER_ONLY:
            raise ValueError(f"overwrite decision for {dataset.ids[j]!r} not allowed in filter_only mode")
        if new_label == labels[j]:
            raise ValueError(f"overwrite for {dataset.ids[j]!r} does not change the label")
        labels[j] = new_label
    cleaned = dataset.with_labels(labels) if overwrites else dataset
    if removed.any():
        cleaned = cleaned.subset(np.flatnonzero(~removed))
    report = ApplyReport(kept=len(cleaned), removed=int(removed.sum()), overwritten=len(overwrites))
    return cleaned, report


def rule_histogram(decisions) -> dict[str, int]:
    hist: dict[str, int] = {}
    for d in decisions:
        hist[d.rule] = hist.get(d.rule, 0) + 1
    return dict(sorted(hist.items()))


def _decision_record(d: Decision) -> dict:
    rec: dict = {"example_id": d.example_id, "verdict": d.verdict, "rule": d.rule}
    if d.verdict == OVERWRITE:
        rec["new_label"] = d.new_label
    return rec


def save_decisions(decisions, path: str) -> None:
    """Persist decisions as line-delimited JSON, one record per example."""
    write_jsonl(path, map(_decision_record, decisions))


def _decision_from_record(rec: dict) -> Decision:
    new_label = rec.get("new_label")
    if new_label is not None and type(new_label) is not int:
        raise TypeError("new_label must be an integer")
    return Decision(rec["example_id"], rec["verdict"], new_label, rec.get("rule", "none"))


def load_decisions(path: str) -> list[Decision]:
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
