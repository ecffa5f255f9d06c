"""Uncertainty metrics summarizing a stack of stochastic prediction rows."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import PredictiveDistribution


@dataclass(frozen=True, eq=False)
class UncertaintySummary:
    """Per-class mean and population std plus per-pass argmax agreement.

    ``variation_ratio`` is 1 minus the fraction of passes agreeing with the
    modal predicted class.  Argmax ties break toward the lowest class index.
    """

    mean: np.ndarray
    std: np.ndarray
    variation_ratio: float
    modal_class: int
    per_pass_argmax: tuple[int, ...]
    example_id: str = ""


def _as_matrix(dist) -> np.ndarray:
    """The float matrix of ``dist`` in C order: numpy sums a contiguous column
    pairwise, so another layout of equal values would give other bytes."""
    arr = np.ascontiguousarray(dist.passes if isinstance(dist, PredictiveDistribution) else dist, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a (T, channels) matrix")
    return arr


def summarize(dist, example_id: str | None = None) -> UncertaintySummary:
    """Summarize a PredictiveDistribution or a bare (T, channels) matrix.

    Bare matrices cover the two-column evidence matrices built from a sentinel's
    class space, whose rows deliberately do not sum to 1.  The result's bytes
    are those of the matrix's C-order copy, whatever its memory layout.
    """
    passes = _as_matrix(dist)
    t_count = passes.shape[0]
    argmax = passes.argmax(axis=1)
    counts = np.bincount(argmax, minlength=passes.shape[1])
    modal = int(counts.argmax())
    # numpy's own mean/std arithmetic (sum, then divide by T), minus its per-call
    # overhead: in place, and T as a 0-d array, which numpy divides by sooner than an int
    t = np.array(float(t_count))
    mean = np.add.reduce(passes, 0)
    mean /= t
    dev = passes - mean
    dev *= dev
    std = np.add.reduce(dev, 0)
    std /= t
    np.sqrt(std, out=std)
    # a constant column has std exactly 0, not mean-roundoff dust
    std[np.logical_and.reduce(passes == passes[0], 0)] = 0.0
    if example_id is None:
        example_id = dist.example_id if isinstance(dist, PredictiveDistribution) else ""
    summary = object.__new__(UncertaintySummary)  # every field is built here: skip the frozen __init__
    summary.__dict__.update(
        mean=mean,
        std=std,
        variation_ratio=1.0 - int(counts[modal]) / t_count,
        modal_class=modal,
        per_pass_argmax=tuple(argmax.tolist()),
        example_id=example_id,
    )
    return summary


def ordinal_quantile(dist, q: float, ordering) -> int:
    """Nearest-rank quantile of the per-pass argmax classes under an ordinal ordering.

    The T argmax classes are sorted from lowest to highest per ``ordering`` and
    the 1-based element ceil(q*T) is returned; q = 0 returns the minimum.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    passes = _as_matrix(dist)
    class_count = passes.shape[1]
    ordering = tuple(int(c) for c in ordering)
    if sorted(ordering) != list(range(class_count)):
        raise ValueError(f"ordering {ordering} is not a permutation of all {class_count} classes")
    position = {cls: rank for rank, cls in enumerate(ordering)}
    ranked = sorted((position[int(i)] for i in passes.argmax(axis=1)))
    t_count = len(ranked)
    # tiny slack so q*T landing a hair above an exact integer does not skip a rank
    k = math.ceil(q * t_count - 1e-12)
    k = min(max(k, 1), t_count)
    return ordering[ranked[k - 1]]
