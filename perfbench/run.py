#!/usr/bin/env python3
"""labelaudit benchmark: one closed-loop client calling ``run_pipeline``.

    python3 perfbench/run.py --workload stock --seed 4 --seconds 10 --trace 0

Builds the workload's inputs from ``--seed``, then calls
``labelaudit.pipeline.run_pipeline`` again and again, each call starting after
the previous one returns, until ``--seconds`` have passed (at least one call).
Every call's outputs are checked.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` adds one traced call after the untraced ones and
reports the per-layer metrics (see ``tracing.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Run it from anywhere; it finds the sources in ``src/`` next to its own
directory and writes only under ``.perfbench_out/`` there.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# set-up (import, input generation and writing) is repeated this many times per run
SETUP_REPEATS = 3
# flags no better than this are not an audit; the corruption rate is 0.3
MIN_PRECISION = 0.5
OUTPUT_FILES = ("decisions.jsonl", "cleaned.jsonl", "noise_mask.json")


def _import_seconds() -> float:
    """Time a fresh interpreter takes to import the pipeline and its dependencies."""
    code = (
        "import time; started = time.perf_counter(); import labelaudit.pipeline; "
        "print(time.perf_counter() - started)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout)


def _snapshot(out_dir: Path) -> dict[str, bytes]:
    """The run's artifacts, with the report's volatile ``run_stamp`` left out."""
    snap = {name: (out_dir / name).read_bytes() for name in OUTPUT_FILES if (out_dir / name).exists()}
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    report.pop("run_stamp")
    snap["report.json"] = json.dumps(report, sort_keys=True).encode()
    return snap


def _quality(result, inputs) -> dict[str, float]:
    from labelaudit.noisebench import detection_scores

    report = result.report
    if inputs.mask is not None:
        scores = detection_scores(result.decisions, inputs.mask)
        detection = {"precision": scores.precision, "recall": scores.recall, "overwrite_accuracy": scores.overwrite_accuracy}
    else:
        detection = report["detection"]
    quality = {"detect_precision": detection["precision"], "detect_recall": detection["recall"]}
    if result.config.policy == "overwrite":
        quality["overwrite_accuracy"] = detection["overwrite_accuracy"]
    if report["evaluation"] is not None:
        baseline = report["evaluation"]["baseline"]["accuracy"]
        cleaned = report["evaluation"]["cleaned"]["accuracy"]
        quality.update(baseline_accuracy=baseline, cleaned_accuracy=cleaned, accuracy_gain=cleaned - baseline)
    return quality


def _check(result, inputs, out_dir: Path) -> list[str]:
    """Problems with one call's outputs; empty when they are correct."""
    n = inputs.input_size
    counts = result.report["counts"]
    problems = []
    ids = {d.example_id for d in result.decisions}
    if len(result.decisions) != n or len(ids) != n:
        problems.append(f"{len(result.decisions)} decisions for {len(ids)} ids, expected one for each of {n}")
    with open(out_dir / "decisions.jsonl", encoding="utf-8") as fh:
        saved = sum(1 for _ in fh)
    if saved != n:
        problems.append(f"decisions.jsonl holds {saved} records for {n} examples")
    if counts["input_size"] != n or counts["kept"] + counts["removed"] != n:
        problems.append(f"counts {counts} do not add up to {n} examples")
    if len(result.cleaned) != counts["kept"]:
        problems.append(f"cleaned data holds {len(result.cleaned)} examples, {counts['kept']} kept")
    quality = _quality(result, inputs)
    problems += [f"{k} is not finite" for k, v in quality.items() if not math.isfinite(v)]
    if quality["detect_precision"] < MIN_PRECISION:
        problems.append(f"detection precision {quality['detect_precision']} is below {MIN_PRECISION}")
    return problems


class Runner:
    """Calls ``run_pipeline`` on one workload's inputs and checks every call."""

    def __init__(self, inputs) -> None:
        self.inputs = inputs
        self.out_dir = Path(inputs.config.out_dir)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first = None  # the first completed call: the reference for the rest
        self.snapshot: dict[str, bytes] | None = None

    def call(self) -> float | None:
        """One timed call; returns its wall seconds, or None when it failed."""
        from labelaudit import pipeline

        self.attempted += 1
        started = time.perf_counter()
        try:
            result = pipeline.run_pipeline(self.inputs.config)
        except Exception as err:  # a failed call is counted, not fatal
            problems = [f"{type(err).__name__}: {err}"]
        else:
            wall = time.perf_counter() - started
            problems = _check(result, self.inputs, self.out_dir)
            snapshot = _snapshot(self.out_dir)
            if self.snapshot is None:
                self.first, self.snapshot = result, snapshot
            problems += [f"{name} differs from the first call's" for name in snapshot if snapshot[name] != self.snapshot.get(name)]
        if problems:
            self.failed += 1
            self.failures += [f"call {self.attempted}: {p}" for p in problems]
            return None
        return wall


def _stamp(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def run(args) -> tuple[dict, list[str]]:
    """Measure one workload; returns (result object, human-readable lines)."""
    from tracing import RUN_ROOT, SETUP_ROOT, Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUT / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setups = []

    def set_up():
        started = time.perf_counter()
        inputs = workload.prepare(args.seed, workdir)
        prepared = time.perf_counter() - started
        setups.append(_import_seconds() + prepared)
        return inputs

    inputs = set_up()
    runner = Runner(inputs)
    walls = []
    started = time.perf_counter()
    while True:
        wall = runner.call()
        if wall is not None:
            walls.append(wall)
        if time.perf_counter() - started - sum(setups[1:]) >= args.seconds:
            break
        # repeats run between calls, so that they meet different phases of the host's load
        if not args.trace and len(setups) < SETUP_REPEATS:
            set_up()
    while not args.trace and len(setups) < SETUP_REPEATS:
        set_up()

    lines = []
    metrics: dict[str, tuple[float, str]] = {}
    if walls:
        median = statistics.median(walls)
        lines.append(f"untraced calls: {len(walls)}, median {median:.4f} s, in order: {' '.join(f'{w:.4f}' for w in walls)}")
        lines.append(f"set-ups: {len(setups)}, s {' '.join(f'{t:.4f}' for t in setups)}")
        if not args.trace:
            quality = _quality(runner.first, inputs)
            metrics = {
                "wall_s": (median, "s"),
                "examples_per_s": (inputs.input_size / median, "1/s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "detect_precision": (quality.pop("detect_precision"), "ratio"),
            }
            # Recall, and the figures that apply only to workloads that overwrite
            # or retrain, are printed but left out of the result: across seeds
            # recall spreads by a quarter on scale, wider than any usable bound.
            lines += [f"{name:42s} {value:>16.6f} ratio" for name, value in quality.items()]
        else:
            tracer = Tracer()
            tracer.install()
            try:
                with tracer.span(SETUP_ROOT):
                    workload.prepare(args.seed, workdir)
                with tracer.span(RUN_ROOT):
                    traced = runner.call()
            finally:
                tracer.uninstall()
            if traced is not None:
                layers, absent, idle = layer_metrics(tracer, workload.expects)
                metrics = dict(layers)
                metrics["trace.overhead_s"] = (traced - median, "s")
                lines += [f"absent: {name} ({why})" for name, why in absent.items()]
                if idle:
                    lines.append(f"idle on this workload (reads 0): {', '.join(idle)}")

    failed = runner.failed
    lines += [f"failed: {f}" for f in runner.failures]
    lines.append(f"error_rate: {failed / runner.attempted} ({failed} of {runner.attempted} calls)")
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    lines += [f"failed: metric {k} is not finite" for k in bad]
    lines += [f"{name:42s} {value:>16.6f} {unit}" for name, (value, unit) in metrics.items()]
    lines.append("stamp " + json.dumps(_stamp(args), sort_keys=True))
    result = {
        "correct": failed == 0 and not bad and bool(walls),
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("stock", "scale", "external"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "labelaudit" / "__init__.py").is_file():
        print(f"error: no labelaudit sources in {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread unless the caller says otherwise, as in the test suite;
    # must be set before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))

    result, lines = run(args)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
