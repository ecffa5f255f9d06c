"""Sentinel prediction sources: out-of-fold cross-validation over the noisy data,
or ingestion of an external model's stochastic prediction dump with a mapping
from its class space onto evidence for/against the positive label."""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import (
    DataFormatError,
    Dataset,
    PassStack,
    PredictiveDistribution,
    load_distributions,
    located,
    read_json,
    validate_distribution,
)
from .mlp import ModelSpec, TrainConfig, init_model, mcd_predict, train
from .seeding import generator, mix64

SUPPORTS_POSITIVE = "supports_positive"
SUPPORTS_NEGATIVE = "supports_negative"
ABSTAIN = "abstain"
ROLES = (SUPPORTS_POSITIVE, SUPPORTS_NEGATIVE, ABSTAIN)


@dataclass(frozen=True)
class FoldAssignment:
    """Which fold held each example out; the bookkeeping behind the out-of-fold guarantee."""

    fold_of: dict[str, int]
    k: int


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
    one; for each fold a model is trained on the complement (init and SGD seeded
    ``mix64(train_config.seed, fold)``) and runs ``t_count`` stochastic passes on
    the held-out examples (example at original position j seeded
    ``mix64(seed, 1 + j)``).  No model ever sees the label of an example it
    predicts.  Each example's passes fill its row of one stack, which is then
    validated in one call: a model whose output overflows fails here.

    Returns (PassStack in dataset order, FoldAssignment).
    """
    n = len(dataset.examples)
    if k < 2:
        raise ValueError("fold count k must be >= 2")
    if n < k:
        raise ValueError(f"fold count {k} exceeds dataset size {n}")
    if t_count < 1:
        raise ValueError("t_count must be >= 1")
    order = generator(seed, 0).permutation(n)
    fold = np.empty(n, dtype=int)
    for shuffled_pos, original in enumerate(order):
        fold[original] = shuffled_pos % k
    passes = np.empty((n, t_count, model_spec.class_count))
    for f in range(k):
        train_subset = Dataset(
            dataset.class_count,
            tuple(ex for j, ex in enumerate(dataset.examples) if fold[j] != f),
            dataset.class_names,
        )
        fold_seed = mix64(train_config.seed, f)
        model = init_model(model_spec, fold_seed)
        fitted = train(model, train_subset, replace(train_config, seed=fold_seed))
        for j in range(n):
            if fold[j] != f:
                continue
            ex = dataset.examples[j]
            passes[j] = mcd_predict(
                fitted, ex.features, t_count, mix64(seed, 1 + j), example_id=ex.id
            ).passes
    stack = PassStack(tuple(ex.id for ex in dataset.examples), passes)
    try:
        validate_distribution(stack)
    except DataFormatError as err:  # the model's fault, not the input's
        raise ValueError(f"sentinel output is not a probability distribution: {err}") from None
    assignment = FoldAssignment(
        {ex.id: int(fold[j]) for j, ex in enumerate(dataset.examples)}, k
    )
    return stack, assignment


def ingest_external_dump(path: str, expected_t: int, expected_c: int) -> PassStack:
    """Load and validate an external stochastic prediction dump.

    Every record must carry exactly ``expected_t`` rows of width ``expected_c``;
    the loader holds all records to the first one's shape, so a mismatch names
    the first record.  Errors name the file.
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
    except DataFormatError as err:
        raise located(path, err) from None
    return stack


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
