"""Per-layer timing for the benchmark's traced run.

Wrappers replace each layer's public functions at the name where the caller
looks them up (``labelaudit.pipeline.summarize``,
``labelaudit.sentinel.mcd_predict``, ...), so no program file changes.  Spans
are aggregated in memory as they close: per (root span, span name) the call
count, total seconds, work units, and the seconds spent in each direct child
span.  A span's self time is its total minus the part its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, NamedTuple

SETUP_ROOT = "setup"
RUN_ROOT = "pipeline.run_pipeline"


def _example_epochs(args, result) -> int:
    return len(args[1]) * args[2].epochs


def _len_arg0(args, result) -> int:
    return len(args[0])


class PatchPoint(NamedTuple):
    module: str
    attr: str  # "function" or "Class.method"
    span: str
    # work units of one call from its positional args and result; None counts calls
    units: Callable | None = None


PATCH_POINTS = (
    PatchPoint("labelaudit.sentinel", "mcd_predict", "mlp.mcd_predict", lambda a, r: r.t_count),
    PatchPoint("labelaudit.sentinel", "train", "mlp.train", _example_epochs),
    PatchPoint("labelaudit.pipeline", "train", "mlp.train", _example_epochs),
    PatchPoint("labelaudit.pipeline", "predict_batch", "mlp.predict_batch"),
    PatchPoint("labelaudit.pipeline", "summarize", "uncertainty.summarize"),
    PatchPoint("labelaudit.pipeline", "decide_overwrite", "policy.decide"),
    PatchPoint("labelaudit.pipeline", "decide_filter", "policy.decide"),
    PatchPoint("labelaudit.pipeline", "decide_quantile", "policy.decide"),
    PatchPoint("labelaudit.pipeline", "apply_decisions", "policy.apply_decisions", _len_arg0),
    PatchPoint("labelaudit.pipeline", "save_decisions", "policy.save_decisions", _len_arg0),
    PatchPoint("labelaudit.pipeline", "sweep_thresholds", "pipeline.sweep", lambda a, r: len(r[1])),
    PatchPoint("labelaudit.pipeline", "emit_report", "pipeline.emit_report"),
    PatchPoint("labelaudit.pipeline", "build_cv_sentinel", "sentinel.build_cv_sentinel"),
    PatchPoint("labelaudit.pipeline", "ingest_external_dump", "sentinel.ingest_external_dump"),
    PatchPoint("labelaudit.pipeline", "map_to_evidence", "sentinel.map_to_evidence"),
    PatchPoint("labelaudit.pipeline", "load_dataset", "data.load_dataset", lambda a, r: len(r)),
    PatchPoint("labelaudit.sentinel", "load_distributions", "data.load_distributions", lambda a, r: len(r)),
    PatchPoint("labelaudit.sentinel", "validate_distribution", "data.validate_distribution"),
    PatchPoint("labelaudit.pipeline", "save_dataset", "data.save_dataset", _len_arg0),
    PatchPoint("labelaudit.data", "Dataset.strip_gold", "data.strip_gold"),
    PatchPoint("labelaudit.pipeline", "make_blobs", "noisebench.make_blobs"),
    PatchPoint("labelaudit.pipeline", "inject_noise", "noisebench.inject_noise"),
    # the benchmark's own set-up looks these up on the module
    PatchPoint("labelaudit.noisebench", "make_blobs", "noisebench.make_blobs"),
    PatchPoint("labelaudit.noisebench", "inject_noise", "noisebench.inject_noise"),
)


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    units: int = 0
    children: dict[str, float] = field(default_factory=dict)

    def merge(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.seconds += other.seconds
        self.units += other.units
        for child, seconds in other.children.items():
            self.children[child] = self.children.get(child, 0.0) + seconds

    def self_seconds(self, *children: str) -> float:
        """Total minus the named direct children, or minus all of them when none are named."""
        names = children or tuple(self.children)
        return self.seconds - sum(self.children.get(c, 0.0) for c in names)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], SpanStats] = {}
        self.missing: set[str] = set()  # spans with a patch point that no longer exists
        self.no_units: set[str] = set()  # spans whose work units could not be read
        self._stack: list[tuple[str, str, dict[str, float]]] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for point in PATCH_POINTS:
            owner_path, _, attr = point.attr.rpartition(".")
            try:
                owner = importlib.import_module(point.module)
                if owner_path:
                    owner = getattr(owner, owner_path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(point.span)
                continue
            setattr(owner, attr, self._wrap(point, original))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        frame = self._open(name)
        started = perf_counter()
        try:
            yield
        finally:
            self._close(frame, perf_counter() - started, 0)

    def stat(self, span: str, root: str | None = RUN_ROOT) -> SpanStats:
        """Aggregate of ``span`` under one root span, or under every root for ``None``."""
        total = SpanStats()
        for (r, name), s in self.stats.items():
            if name == span and root in (None, r):
                total.merge(s)
        return total

    def _open(self, name: str):
        frame = (name, self._stack[0][1] if self._stack else name, {})
        self._stack.append(frame)
        return frame

    def _close(self, frame, seconds: float, units: int) -> None:
        self._stack.pop()
        name, root, children = frame
        s = self.stats.get((root, name))
        if s is None:
            s = self.stats[(root, name)] = SpanStats()
        s.calls += 1
        s.seconds += seconds
        s.units += units
        for child, child_seconds in children.items():
            s.children[child] = s.children.get(child, 0.0) + child_seconds
        if self._stack:
            parent = self._stack[-1][2]
            parent[name] = parent.get(name, 0.0) + seconds

    def _wrap(self, point: PatchPoint, fn):
        span, units = point.span, point.units

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(span)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, perf_counter() - started, 0)
                raise
            elapsed = perf_counter() - started
            count = 1
            if units is not None:
                try:
                    count = units(args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.no_units.add(span)
            self._close(frame, elapsed, count)
            return result

        return traced


class LayerMetric(NamedTuple):
    name: str
    unit: str
    span: str
    value: Callable[[SpanStats], float]
    uses_units: bool = False


def _per_unit(scale: float):
    return lambda s: scale * s.seconds / s.units


_SENTINELS = ("sentinel.build_cv_sentinel", "sentinel.ingest_external_dump", "data.strip_gold")

LAYER_METRICS = (
    LayerMetric("mlp.mcd_predict.example_passes", "count", "mlp.mcd_predict", lambda s: s.units, True),
    LayerMetric("mlp.mcd_predict.us_per_example_pass", "us", "mlp.mcd_predict", _per_unit(1e6), True),
    LayerMetric("mlp.train.example_epochs", "count", "mlp.train", lambda s: s.units, True),
    LayerMetric("mlp.train.us_per_example_epoch", "us", "mlp.train", _per_unit(1e6), True),
    LayerMetric("mlp.predict_batch.s", "s", "mlp.predict_batch", lambda s: s.seconds),
    LayerMetric("uncertainty.summarize.calls", "count", "uncertainty.summarize", lambda s: s.calls),
    LayerMetric("uncertainty.summarize.us_per_call", "us", "uncertainty.summarize", _per_unit(1e6)),
    LayerMetric("policy.decide.calls", "count", "policy.decide", lambda s: s.calls),
    LayerMetric("policy.decide.us_per_call", "us", "policy.decide", _per_unit(1e6)),
    LayerMetric("policy.apply_decisions.us_per_example", "us", "policy.apply_decisions", _per_unit(1e6), True),
    LayerMetric("policy.save_decisions.us_per_record", "us", "policy.save_decisions", _per_unit(1e6), True),
    LayerMetric("pipeline.sweep.grid_points", "count", "pipeline.sweep", lambda s: s.units, True),
    # the sweep net of its dev-split sentinel
    LayerMetric("pipeline.sweep.self_s", "s", "pipeline.sweep", lambda s: s.self_seconds(*_SENTINELS)),
    LayerMetric(
        "pipeline.sweep.ms_per_grid_point",
        "ms",
        "pipeline.sweep",
        lambda s: 1e3 * s.self_seconds(*_SENTINELS) / s.units,
        True,
    ),
    LayerMetric("pipeline.run_pipeline.self_s", "s", RUN_ROOT, lambda s: s.self_seconds()),
    LayerMetric("pipeline.emit_report.s", "s", "pipeline.emit_report", lambda s: s.seconds),
    LayerMetric("sentinel.build_cv_sentinel.self_s", "s", "sentinel.build_cv_sentinel", lambda s: s.self_seconds()),
    LayerMetric(
        "sentinel.ingest_external_dump.self_s", "s", "sentinel.ingest_external_dump", lambda s: s.self_seconds()
    ),
    LayerMetric("sentinel.map_to_evidence.us_per_call", "us", "sentinel.map_to_evidence", _per_unit(1e6)),
    LayerMetric("data.load_dataset.us_per_record", "us", "data.load_dataset", _per_unit(1e6), True),
    LayerMetric("data.load_distributions.us_per_record", "us", "data.load_distributions", _per_unit(1e6), True),
    LayerMetric("data.validate_distribution.us_per_call", "us", "data.validate_distribution", _per_unit(1e6)),
    LayerMetric("data.save_dataset.us_per_record", "us", "data.save_dataset", _per_unit(1e6), True),
    LayerMetric("data.strip_gold.s", "s", "data.strip_gold", lambda s: s.seconds),
    LayerMetric("noisebench.make_blobs.s", "s", "noisebench.make_blobs", lambda s: s.seconds),
    LayerMetric("noisebench.inject_noise.s", "s", "noisebench.inject_noise", lambda s: s.seconds),
)


def layer_metrics(tracer: Tracer, expects) -> tuple[dict[str, tuple[float, str]], dict[str, str], list[str]]:
    """Per-layer metrics of a traced run.

    Returns (metrics as name -> (value, unit), absent metrics as name ->
    reason, idle metric names).  A metric is absent, and left out, when its
    patch point no longer exists, when its span records no calls on a
    workload that ``expects`` it, or when its work units cannot be read.  A
    span the workload does not expect and that records no calls is idle: its
    metric reads 0.  Data generation is counted wherever it runs, inside
    ``run_pipeline`` or in the benchmark's own set-up; every other span only
    inside ``run_pipeline``.
    """
    metrics: dict[str, tuple[float, str]] = {}
    absent: dict[str, str] = {}
    idle: list[str] = []
    for m in LAYER_METRICS:
        s = tracer.stat(m.span, None if m.span.startswith("noisebench.") else RUN_ROOT)
        if m.span in tracer.missing:
            absent[m.name] = f"patch point for {m.span} no longer exists"
        elif s.calls == 0 and m.span in expects:
            absent[m.name] = f"{m.span} was expected to run but recorded no calls"
        elif s.calls == 0:
            idle.append(m.name)
            metrics[m.name] = (0, m.unit)
        elif m.uses_units and (m.span in tracer.no_units or s.units == 0):
            absent[m.name] = f"{m.span} work units could not be read"
        else:
            value = m.value(s)
            if math.isfinite(value):
                metrics[m.name] = (value, m.unit)
            else:
                absent[m.name] = f"{m.span} gave a non-finite value"
    return metrics, absent, idle
