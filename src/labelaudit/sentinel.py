"""Sentinel prediction sources: out-of-fold cross-validation over the noisy data,
or ingestion of an external model's stochastic prediction dump with a mapping
from its class space onto evidence for/against the positive label."""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .data import (
    DataFormatError,
    Dataset,
    PassStack,
    PredictiveDistribution,
    _read_only,
    load_distributions,
    located,
    read_json,
    validate_distribution,
)
from .mlp import Model, ModelSpec, TrainConfig, init_model, mcd_predict, train
from .seeding import _MASK64, _mix64_array, generator, keep_mask, mix64, pass_seed_words

SUPPORTS_POSITIVE = "supports_positive"
SUPPORTS_NEGATIVE = "supports_negative"
ABSTAIN = "abstain"
ROLES = (SUPPORTS_POSITIVE, SUPPORTS_NEGATIVE, ABSTAIN)


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """Which fold held each example out; the bookkeeping behind the out-of-fold guarantee.

    ``fold[i]`` is the fold of ``ids[i]``: a read-only int column beside the
    dataset's own ids tuple, which is shared, not copied.  Two assignments
    are equal when they put the same ids, in the same order, in the same folds.
    """

    ids: tuple[str, ...]
    fold: np.ndarray
    k: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, FoldAssignment):
            return NotImplemented
        return self.k == other.k and self.ids == other.ids and np.array_equal(self.fold, other.fold)

    @property
    def fold_of(self) -> dict[str, int]:
        """The assignment as an id -> fold dict, built on each access."""
        return dict(zip(self.ids, self.fold.tolist()))


@dataclass(frozen=True)
class LabelSpaceMapping:
    """Role of each sentinel class: evidence for the positive label, against it, or neither."""

    class_names: tuple[str, ...]
    roles: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "roles", tuple(self.roles))
        if len(self.class_names) != len(self.roles):
            raise ValueError("class_names and roles must have equal length")
        for role in self.roles:
            if role not in ROLES:
                raise ValueError(f"unknown role {role!r}, expected one of {ROLES}")
        if SUPPORTS_POSITIVE not in self.roles or SUPPORTS_NEGATIVE not in self.roles:
            raise ValueError("mapping needs at least one supports_positive and one supports_negative class")

    @cached_property
    def _evidence_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Column indices of the supports_positive and the supports_negative classes."""
        roles = np.array(self.roles)
        return np.flatnonzero(roles == SUPPORTS_POSITIVE), np.flatnonzero(roles == SUPPORTS_NEGATIVE)

    @classmethod
    def binary_target(cls) -> "LabelSpaceMapping":
        """For a binary sentinel sharing the target's label space (class 1 positive)."""
        return cls(("negative", "positive"), (SUPPORTS_NEGATIVE, SUPPORTS_POSITIVE))

    @classmethod
    def from_file(cls, path: str) -> "LabelSpaceMapping":
        """Read a ``{"classes": [...], "roles": [...]}`` mapping file."""
        return read_json(path, lambda doc: cls(tuple(doc["classes"]), tuple(doc["roles"])))


_MASK_CHUNK_ROWS = 1024  # rows whose keep masks are drawn together: numpy's per-call cost fades, memory stays small


def mcd_passes(model: Model, features, rows: Sequence[int], t_count: int, seed: int) -> np.ndarray:
    """MC-dropout passes of the examples at positions ``rows`` of the (n, d)
    feature matrix ``features``: an (len(rows), T, C) array, row i for
    example ``rows[i]``.

    Example j is seeded ``mix64(seed, 1 + j)`` and runs one ``mcd_predict``
    call with its keep mask; the seeds of all the rows come from one
    ``_mix64_array`` call, the seed words of all their passes from one
    ``pass_seed_words`` call, and their keep masks from one ``keep_mask``
    call per ``_MASK_CHUNK_ROWS`` rows.
    """
    streams = np.asarray(rows, dtype=np.uint64) + np.uint64(1)
    seeds = _mix64_array(np.array([seed & _MASK64], dtype=np.uint64), streams)
    words = pass_seed_words(seeds, t_count)
    passes = np.empty((len(rows), t_count, model.spec.class_count))
    for start in range(0, len(rows), _MASK_CHUNK_ROWS):
        keep = keep_mask(words[start : start + _MASK_CHUNK_ROWS], sum(model.spec.hidden_dims), model.spec.dropout_rate)
        for i, j in enumerate(rows[start : start + _MASK_CHUNK_ROWS]):
            passes[start + i] = mcd_predict(model, features[j], t_count, keep[i]).passes
    return passes


def check_folds(k: int, n: int) -> None:
    """Refuse a fold count that cannot split ``n`` examples into k folds."""
    if k < 2:
        raise ValueError("fold count k must be >= 2")
    if n < k:
        raise ValueError(f"fold count {k} exceeds dataset size {n}")


def build_cv_sentinel(
    dataset: Dataset,
    k: int,
    model_spec: ModelSpec,
    train_config: TrainConfig,
    t_count: int,
    seed: int,
):
    """Out-of-fold stochastic predictions for every example.

    Examples are shuffled by ``seed`` into k folds whose sizes differ by at most
    one; for each fold a model is trained on the complement, a subset that
    shares the dataset's feature matrix (init and SGD seeded
    ``mix64(train_config.seed, fold)``) and runs ``t_count`` stochastic passes on
    the held-out examples through ``mcd_passes`` (example at original position
    j seeded ``mix64(seed, 1 + j)``).  No model ever sees the label of an
    example it predicts.  Each example's passes fill its row of one stack,
    which is then validated in one call: a model whose output overflows fails
    here.

    Returns (PassStack in dataset order, FoldAssignment); both share the
    dataset's ids tuple.
    """
    n = len(dataset)
    check_folds(k, n)
    if t_count < 1:
        raise ValueError("t_count must be >= 1")
    order = generator(seed, 0).permutation(n)
    fold = np.empty(n, dtype=int)
    fold[order] = np.arange(n) % k
    x = dataset.matrix()
    passes = np.empty((n, t_count, model_spec.class_count))
    for f in range(k):
        fold_seed = mix64(train_config.seed, f)
        model = init_model(model_spec, fold_seed)
        fitted = train(model, dataset.subset(np.flatnonzero(fold != f)), replace(train_config, seed=fold_seed))
        held_out = np.flatnonzero(fold == f)
        passes[held_out] = mcd_passes(fitted, x, held_out, t_count, seed)
    stack = PassStack(dataset.ids, passes)
    try:
        validate_distribution(stack)
    except DataFormatError as err:  # the model's fault, not the input's
        raise ValueError(f"sentinel output is not a probability distribution: {err}") from None
    return stack, FoldAssignment(dataset.ids, _read_only(fold), k)


def ingest_external_dump(path: str, expected_t: int, expected_c: int, ids: Sequence[str]) -> PassStack:
    """Load and validate an external stochastic prediction dump: the one place a
    dump meets its dataset.  Row i of the returned stack holds ``ids[i]``.

    The records may come in any order, one per id: a missing, unknown or
    repeated id fails.  Every record must carry exactly ``expected_t`` rows of
    width ``expected_c``; the loader holds all records to the first one's
    shape, so a mismatch names the first record.  Errors name the file.  The
    stack holds ``ids``; a dump already in their order keeps its passes array.
    """
    stack = load_distributions(path)
    try:
        if stack.ids and stack.t_count != expected_t:
            raise DataFormatError(
                f"dump record {stack.ids[0]!r}: expected {expected_t} passes, found {stack.t_count}"
            )
        if stack.ids and stack.class_count != expected_c:
            raise DataFormatError(
                f"dump record {stack.ids[0]!r}: expected {expected_c} classes, found {stack.class_count}"
            )
        validate_distribution(stack)
        if stack.ids == tuple(ids):
            return PassStack(ids, stack.passes)
        row_of = {exid: row for row, exid in enumerate(stack.ids)}
        missing = [exid for exid in ids if exid not in row_of]
        if missing:
            raise DataFormatError(f"no distribution for {len(missing)} of {len(ids)} examples, first {missing[0]!r}")
        if len(stack) > len(ids):  # the loader refused repeats, so some id is not in ``ids``
            wanted = set(ids)
            unknown = next(exid for exid in stack.ids if exid not in wanted)
            raise DataFormatError(f"distribution for unknown example {unknown!r}")
    except DataFormatError as err:
        raise located(path, err) from None
    return PassStack(ids, stack.passes[[row_of[exid] for exid in ids]])


def map_to_evidence(dists: PassStack | PredictiveDistribution, mapping: LabelSpaceMapping) -> np.ndarray:
    """Per-pass (supports_positive, supports_negative) mass: an (n, T, 2) array
    for a stack, a (T, 2) matrix for one distribution.

    Abstain mass is dropped without renormalizing: thresholds are calibrated on
    raw evidence mass, and renormalization would silently change their meaning.
    """
    if dists.class_count != len(mapping.roles):
        raise ValueError(
            f"distribution width {dists.class_count} does not match mapping with {len(mapping.roles)} classes"
        )
    evidence = np.empty((*dists.passes.shape[:-1], 2))
    for channel, columns in enumerate(mapping._evidence_columns):
        dists.passes[..., columns].sum(axis=-1, out=evidence[..., channel])
    return evidence
