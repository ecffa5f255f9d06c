"""Synthetic blob data, controlled label corruption, and ground-truth detection scoring."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import NO_GOLD, Dataset, read_json, write_json
from .policy import OVERWRITE, Decisions
from .seeding import generator


@dataclass(frozen=True)
class NoiseSpec:
    """How to corrupt labels: overall rate, symmetric or transition-driven flips.

    An asymmetric transition matrix must be row-stochastic with zero diagonal; a
    row of all zeros marks that class immune (its examples are never selected
    for corruption), which is how one-directional two-class noise is expressed.
    """

    rate: float
    kind: str
    seed: int
    transition: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"noise rate must lie in [0, 1), got {self.rate}")
        if self.kind not in ("symmetric", "asymmetric"):
            raise ValueError(f"noise kind must be symmetric or asymmetric, got {self.kind!r}")
        if self.kind == "asymmetric":
            if self.transition is None:
                raise ValueError("asymmetric noise needs a transition matrix")
            rows = tuple(tuple(float(v) for v in row) for row in self.transition)
            object.__setattr__(self, "transition", rows)
            c = len(rows)
            for i, row in enumerate(rows):
                if len(row) != c:
                    raise ValueError("transition matrix must be square")
                if row[i] != 0.0:
                    raise ValueError(f"transition diagonal must be zero (row {i})")
                total = sum(row)
                if not (abs(total - 1.0) < 1e-9 or total == 0.0):
                    raise ValueError(f"transition row {i} must sum to 1 (or 0 for an immune class)")
                if any(v < 0.0 for v in row):
                    raise ValueError(f"transition row {i} has negative entries")

    def check_class_count(self, class_count: int) -> None:
        """Refuse a transition matrix that does not have one row per class."""
        if self.kind == "asymmetric" and len(self.transition) != class_count:
            raise ValueError(
                f"transition is {len(self.transition)}x{len(self.transition)} but class_count is {class_count}"
            )


@dataclass(frozen=True)
class NoiseMask:
    """Benchmark ground truth: which ids were corrupted and what they used to be."""

    corrupted_ids: frozenset[str]
    original_label_of: dict[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "corrupted_ids", frozenset(self.corrupted_ids))
        if set(self.original_label_of) != set(self.corrupted_ids):
            raise ValueError("original_label_of keys must equal corrupted_ids")


@dataclass(frozen=True)
class DetectionReport:
    precision: float
    recall: float
    overwrite_accuracy: float
    flagged_count: int
    corrupted_count: int
    true_flag_count: int


def check_geometry(dim: int, class_count: int, centers, spread: float) -> None:
    """Refuse blob parameters that ``make_blobs`` cannot draw from: one center
    of dimension ``dim`` per class and a ``spread`` >= 0."""
    if len(centers) != class_count:
        raise ValueError(f"need {class_count} centers, got {len(centers)}")
    if any(len(c) != dim for c in centers):
        raise ValueError(f"every center must have dimension {dim}")
    if spread < 0:
        raise ValueError("spread must be >= 0")


def make_blobs(n: int, dim: int, class_count: int, centers, spread: float, seed: int) -> Dataset:
    """Isotropic Gaussian blobs with label == gold_label == generating class.

    Class c receives floor(n/C) examples plus one extra for the first n mod C
    classes.  ``spread`` 0 collapses every example onto its center.  Each
    class's normal draws land in its block of rows of one feature matrix;
    the label and gold columns share one array.
    """
    centers = [tuple(float(v) for v in c) for c in centers]
    check_geometry(dim, class_count, centers, spread)
    counts = [n // class_count + (1 if cls < n % class_count else 0) for cls in range(class_count)]
    rng = generator(seed, 0)
    features = np.empty((n, dim))
    lo = 0
    for cls, count in enumerate(counts):
        points = rng.normal(loc=0.0, scale=spread, size=(count, dim))
        np.add(points, np.array(centers[cls]), out=features[lo : lo + count])
        lo += count
    labels = np.repeat(np.arange(class_count), counts)
    ids = tuple(f"ex{index:05d}" for index in range(n))
    return Dataset(class_count, ids, labels, features, gold=labels)


def inject_noise(dataset: Dataset, spec: NoiseSpec):
    """Flip exactly floor(rate * n) labels chosen uniformly by the spec's seed.

    Symmetric noise draws the new label uniformly from the other classes;
    asymmetric noise draws from the transition row of the original label (rows
    of all zeros exempt a class from selection).  Gold labels are untouched and
    the returned mask records exactly the flipped set.  The noisy dataset
    replaces the label column and shares every other one.
    """
    if dataset.gold is None or (dataset.gold == NO_GOLD).any():
        raise ValueError("noise injection needs gold labels on every example")
    n = len(dataset)
    # epsilon guards the count against binary representation of the rate
    count = math.floor(spec.rate * n + 1e-9)
    class_count = dataset.class_count
    spec.check_class_count(class_count)
    rng = generator(spec.seed, 0)
    if spec.kind == "asymmetric":
        selectable = np.array([sum(row) > 0.0 for row in spec.transition])
        eligible = np.flatnonzero(selectable[dataset.labels])
    else:
        eligible = np.arange(n)
    if count > len(eligible):
        raise ValueError(
            f"cannot corrupt {count} examples: only {len(eligible)} are eligible"
        )
    chosen = np.sort(rng.choice(len(eligible), size=count, replace=False))
    labels = dataset.labels.tolist()
    corrupted: dict[str, int] = {}
    for j in eligible[chosen].tolist():
        old = labels[j]
        if spec.kind == "symmetric":
            others = [c for c in range(class_count) if c != old]
            new = others[int(rng.integers(len(others)))]
        else:
            row = np.array(spec.transition[old])
            new = int(rng.choice(class_count, p=row / row.sum()))
        labels[j] = new
        corrupted[dataset.ids[j]] = old
    return dataset.with_labels(labels), NoiseMask(frozenset(corrupted), corrupted)


def detection_scores(decisions, mask: NoiseMask) -> DetectionReport:
    """Score flagged examples (Remove or Overwrite) against the corruption mask.

    ``decisions`` is a ``Decisions`` or a list of ``Decision`` records, read
    as columns.  Precision is 1 when nothing is flagged and recall 0 when
    nothing was corrupted; overwrite_accuracy is the fraction of overwrites
    restoring the mask's original label (1 when there are none).
    """
    decisions = Decisions.of(decisions)
    missing = mask.corrupted_ids.difference(decisions.ids)
    if missing:
        raise ValueError(f"corrupted example {sorted(missing)[0]!r} has no decision")
    flagged = set(itertools.compress(decisions.ids, decisions.flagged.tolist()))
    true_flags = flagged & mask.corrupted_ids
    precision = len(true_flags) / len(flagged) if flagged else 1.0
    recall = len(true_flags) / len(mask.corrupted_ids) if mask.corrupted_ids else 0.0
    overwrites = decisions.where(OVERWRITE)
    if overwrites.size:
        new_labels = decisions.new_labels[overwrites].tolist()
        restored = sum(
            1
            for j, new_label in zip(overwrites.tolist(), new_labels)
            if mask.original_label_of.get(decisions.ids[j]) == new_label
        )
        overwrite_accuracy = restored / overwrites.size
    else:
        overwrite_accuracy = 1.0
    return DetectionReport(
        precision=precision,
        recall=recall,
        overwrite_accuracy=overwrite_accuracy,
        flagged_count=len(flagged),
        corrupted_count=len(mask.corrupted_ids),
        true_flag_count=len(true_flags),
    )


def save_noise_mask(mask: NoiseMask, path: str) -> None:
    doc = {"corrupted_ids": sorted(mask.corrupted_ids), "original_label_of": mask.original_label_of}
    write_json(path, doc)


def _mask_from_doc(doc: dict) -> NoiseMask:
    labels = dict(doc["original_label_of"])
    return NoiseMask(frozenset(doc["corrupted_ids"]), {k: int(v) for k, v in labels.items()})


def load_noise_mask(path: str) -> NoiseMask:
    return read_json(path, _mask_from_doc)
