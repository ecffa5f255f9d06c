import json
import re
from pathlib import Path

import numpy as np
import pytest

from labelaudit import pipeline, policy, sentinel
from labelaudit.data import PassStack, PredictiveDistribution, save_distributions
from labelaudit.noisebench import make_blobs, inject_noise, NoiseSpec
from labelaudit.pipeline import (
    BenchmarkConfig,
    PipelineConfig,
    PipelineError,
    config_from_dict,
    config_to_dict,
    decide_all,
    default_benchmark_config,
    emit_report,
    plan_run,
    run_pipeline,
    sweep_thresholds,
)
from labelaudit.policy import Decisions, OverwriteThresholds, FilterThresholds, load_decisions


SMALL_BENCH = BenchmarkConfig(n=120, dev_size=40, test_size=60)


def _small_config(out_dir, **overrides):
    params = dict(
        seed=5,
        out_dir=str(out_dir),
        benchmark=SMALL_BENCH,
        policy="overwrite",
        hidden_dims=(8,),
        learning_rate=0.3,
        epochs=3,
        batch_size=32,
        folds=3,
        passes=5,
    )
    params.update(overrides)
    return PipelineConfig(**params)


def test_config_rejects_two_sentinel_sources():
    with pytest.raises(ValueError, match="source"):
        PipelineConfig(dataset="x.jsonl", sentinel="cv", dump="d.jsonl")


def test_config_requires_dump_for_external():
    with pytest.raises(ValueError, match="dump"):
        PipelineConfig(dataset="x.jsonl", sentinel="external")


def test_config_thresholds_must_match_policy():
    with pytest.raises(ValueError, match="match"):
        PipelineConfig(dataset="x.jsonl", policy="filter", thresholds=OverwriteThresholds())


def test_config_needs_data_or_benchmark():
    with pytest.raises(ValueError, match="dataset"):
        PipelineConfig()


def test_config_dict_roundtrip():
    config = _small_config("out", thresholds=OverwriteThresholds(t1=0.25))
    doc = config_to_dict(config)
    assert config_from_dict(doc) == config


def test_load_config_file(tmp_path):
    from labelaudit.pipeline import load_config

    config = _small_config("out", thresholds=OverwriteThresholds(t1=0.25))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(config)))
    assert load_config(str(path)) == config


def test_config_from_dict_rejects_mismatched_section():
    with pytest.raises(ValueError, match="policy"):
        config_from_dict({"dataset": "x", "policy": "overwrite", "thresholds": {"filter": {}}})


def test_benchmark_run_writes_artifacts(tmp_path):
    config = _small_config(tmp_path / "run")
    result = run_pipeline(config)
    out = tmp_path / "run"
    assert (out / "decisions.jsonl").exists()
    assert (out / "cleaned.jsonl").exists()
    assert (out / "noise_mask.json").exists()
    assert (out / "report.json").exists()

    report = json.loads((out / "report.json").read_text())
    counts = report["counts"]
    assert counts["kept"] + counts["removed"] == counts["input_size"] == 120
    assert report["detection"] is not None
    assert report["evaluation"]["baseline"]["accuracy"] > 0
    assert report["config"]["seed"] == 5
    assert report["thresholds"] == {"t1": 0.3, "s1": 0.15, "t2": 0.75, "s2": 0.15}

    decisions = load_decisions(str(out / "decisions.jsonl"))
    assert len(decisions) == 120
    assert len(result.cleaned) == counts["kept"]


def test_pipeline_determinism_and_seed_sensitivity(tmp_path):
    config = _small_config(tmp_path / "a")
    res_a = run_pipeline(config)
    first_decisions = (tmp_path / "a" / "decisions.jsonl").read_bytes()
    first_cleaned = (tmp_path / "a" / "cleaned.jsonl").read_bytes()
    res_b = run_pipeline(config)
    assert (tmp_path / "a" / "decisions.jsonl").read_bytes() == first_decisions
    assert (tmp_path / "a" / "cleaned.jsonl").read_bytes() == first_cleaned
    ra = dict(res_a.report)
    rb = dict(res_b.report)
    ra.pop("run_stamp")
    rb.pop("run_stamp")
    assert ra == rb

    res_c = run_pipeline(_small_config(tmp_path / "c", seed=6))
    assert res_c.fold_assignment.fold_of != res_a.fold_assignment.fold_of


def test_filter_policy_benchmark_runs(tmp_path):
    config = _small_config(tmp_path / "f", policy="filter", thresholds=FilterThresholds(t1=0.6, t2=0.6))
    result = run_pipeline(config)
    assert all(d.verdict in ("keep", "remove") for d in result.decisions)
    assert result.report["counts"]["overwritten"] == 0


def test_quantile_policy_benchmark_runs(tmp_path):
    config = _small_config(tmp_path / "q", policy="quantile")
    result = run_pipeline(config)
    assert all(d.verdict in ("keep", "remove") for d in result.decisions)


def test_three_class_ordinal_quantile_pipeline(tmp_path):
    from labelaudit.policy import QuantileThresholds

    bench = BenchmarkConfig(
        n=120,
        class_count=3,
        centers=((-3.0, 0.0), (0.0, 0.0), (3.0, 0.0)),
        dev_size=30,
        test_size=45,
        noise_rate=0.2,
    )
    config = _small_config(
        tmp_path / "q3",
        benchmark=bench,
        policy="quantile",
        thresholds=QuantileThresholds(
            ordering=(0, 1, 2), good_set=frozenset({2}), bad_set=frozenset({0, 1})
        ),
    )
    result = run_pipeline(config)
    counts = result.report["counts"]
    assert counts["kept"] + counts["removed"] == 120
    assert counts["overwritten"] == 0
    assert result.report["detection"]["corrupted_count"] == 24


def test_sweep_grid_fields_must_match_policy():
    # refused when the config is built, before any data is read
    with pytest.raises(ValueError, match=r"unknown fields \['q1'\] for policy 'overwrite'"):
        PipelineConfig(
            dataset="unused.jsonl",
            sentinel="external",
            dump="unused-dump.jsonl",
            dev_dump="unused-dump.jsonl",
            policy="overwrite",
            sweep={"q1": [0.8]},
        )


def test_zero_rate_run_produces_report(tmp_path):
    bench = BenchmarkConfig(n=60, dev_size=30, test_size=30, noise_rate=0.0)
    config = _small_config(tmp_path / "z", benchmark=bench)
    result = run_pipeline(config)
    d = result.report["detection"]
    assert d["corrupted_count"] == 0
    assert d["recall"] == 0.0
    if d["flagged_count"] == 0:
        assert d["precision"] == 1.0


def test_external_sentinel_pipeline(tmp_path, rng):
    ds = make_blobs(20, 2, 2, [(-2, 0), (2, 0)], 1.0, 3)
    noisy, _ = inject_noise(ds, NoiseSpec(0.3, "symmetric", seed=3))
    data_path = tmp_path / "data.jsonl"
    from labelaudit.data import save_dataset

    save_dataset(noisy, str(data_path))
    dists = []
    for ex in noisy.examples:
        raw = rng.random((5, 2)) + 1e-9
        dists.append(PredictiveDistribution(ex.id, raw / raw.sum(axis=1, keepdims=True)))
    dump_path = tmp_path / "dump.jsonl"
    save_distributions(dists, str(dump_path))

    config = PipelineConfig(
        seed=1,
        out_dir=str(tmp_path / "ext"),
        dataset=str(data_path),
        sentinel="external",
        dump=str(dump_path),
        passes=5,
        policy="overwrite",
    )
    result = run_pipeline(config)
    assert len(result.decisions) == 20
    assert result.fold_assignment is None
    assert result.report["detection"] is None  # no mask outside benchmark mode


def _counted(monkeypatch, owner, name: str) -> list:
    """Positional arguments of every call to ``owner.name`` from here on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("n", [1, 37])
def test_external_run_validates_and_maps_once_and_summarizes_each_row(tmp_path, rng, monkeypatch, n):
    from labelaudit.data import save_dataset

    ds = make_blobs(n, 2, 2, [(-2, 0), (2, 0)], 1.0, 3)
    save_dataset(ds, str(tmp_path / "data.jsonl"))
    raw = rng.random((n, 5, 3)) + 1e-9
    save_distributions(
        (PredictiveDistribution(ex.id, r / r.sum(axis=1, keepdims=True)) for ex, r in zip(ds.examples, raw)),
        str(tmp_path / "dump.jsonl"),
    )
    (tmp_path / "mapping.json").write_text(
        json.dumps({"classes": ["e", "n", "c"], "roles": ["supports_positive", "abstain", "supports_negative"]})
    )
    validate = _counted(monkeypatch, sentinel, "validate_distribution")
    evidence = _counted(monkeypatch, pipeline, "map_to_evidence")
    summarize = _counted(monkeypatch, pipeline, "summarize")
    config = PipelineConfig(
        out_dir=str(tmp_path / "out"),
        dataset=str(tmp_path / "data.jsonl"),
        sentinel="external",
        dump=str(tmp_path / "dump.jsonl"),
        mapping=str(tmp_path / "mapping.json"),
        passes=5,
        policy="filter",
    )
    result = run_pipeline(config)
    assert len(result.decisions) == n
    assert (len(validate), len(evidence), len(summarize)) == (1, 1, n)
    assert isinstance(validate[0][0], PassStack) and len(validate[0][0]) == n


def test_decide_all_resolves_the_binary_mapping_once(monkeypatch, rng):
    builds = _counted(monkeypatch, sentinel.LabelSpaceMapping, "binary_target")
    raw = rng.random((25, 4, 2)) + 1e-9
    stack = PassStack([f"e{i}" for i in range(25)], raw / raw.sum(axis=2, keepdims=True))
    decisions = decide_all("filter", stack, [i % 2 for i in range(25)], FilterThresholds(), None)
    assert len(decisions) == 25 and len(builds) == 1


def test_external_dump_errors_become_stage_failures(tmp_path):
    from labelaudit.data import save_dataset

    ds = make_blobs(10, 2, 2, [(-2, 0), (2, 0)], 1.0, 3)
    data_path = tmp_path / "data.jsonl"
    save_dataset(ds, str(data_path))
    config = PipelineConfig(
        seed=1,
        out_dir=str(tmp_path / "bad"),
        dataset=str(data_path),
        sentinel="external",
        dump=str(tmp_path / "missing.jsonl"),
        policy="overwrite",
    )
    with pytest.raises(PipelineError, match="sentinel"):
        run_pipeline(config)


def _sweep_fixture(tmp_path, rng):
    """Dev set with two corrupted examples and a hand-built dump that separates them."""
    from labelaudit.data import Dataset

    ids = ("e0", "e1", "e2", "e3")
    # e0 is a corrupted positive, e3 a corrupted negative
    dev = Dataset(2, ids, [1, 1, 0, 0], [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], gold=[0, 1, 0, 1])
    mean_pos = {"e0": 0.2, "e1": 0.8, "e2": 0.1, "e3": 0.9}
    dists = [PredictiveDistribution(exid, [[1 - mean_pos[exid], mean_pos[exid]]] * 5) for exid in ids]
    dump = tmp_path / "dev_dump.jsonl"
    save_distributions(dists, str(dump))
    return dev, str(dump)


def test_sweep_picks_dominant_point(tmp_path, rng):
    dev, dump = _sweep_fixture(tmp_path, rng)
    config = PipelineConfig(
        dataset="unused.jsonl",
        sentinel="external",
        dump=dump,
        dev_dump=dump,
        passes=5,
        policy="overwrite",
        sweep={"t1": [0.1, 0.4], "t2": [0.6]},
        thresholds=OverwriteThresholds(s1=0.5, s2=0.5),
    )
    best, table = sweep_thresholds(config, plan_run(config, dev, dev=dev), dev)
    # t1=0.4 flags both corrupted examples (f1=1), t1=0.1 misses e0
    assert best.t1 == 0.4
    assert best.t2 == 0.6
    assert len(table) == 2
    by_t1 = {row["t1"]: row for row in table}
    assert by_t1[0.4]["f1"] == 1.0
    assert by_t1[0.1]["f1"] < 1.0


def test_sweep_tie_breaks_by_fewer_flags_then_lexicographic(tmp_path, rng):
    dev, dump = _sweep_fixture(tmp_path, rng)
    config = PipelineConfig(
        dataset="unused.jsonl",
        sentinel="external",
        dump=dump,
        dev_dump=dump,
        passes=5,
        policy="overwrite",
        # both t2 values flag e3 only; f1 ties; flags tie; lexicographic t2 wins
        sweep={"t1": [0.05], "t2": [0.6, 0.7]},
        thresholds=OverwriteThresholds(s1=0.5, s2=0.5),
    )
    best, table = sweep_thresholds(config, plan_run(config, dev, dev=dev), dev)
    assert best.t2 == 0.6
    assert all(row["flagged"] == 1 for row in table)


def test_sweep_singleton_grid(tmp_path, rng):
    dev, dump = _sweep_fixture(tmp_path, rng)
    config = PipelineConfig(
        dataset="unused.jsonl",
        sentinel="external",
        dump=dump,
        dev_dump=dump,
        passes=5,
        policy="overwrite",
        sweep={"t1": [0.35]},
        thresholds=OverwriteThresholds(s1=0.5, s2=0.5),
    )
    best, table = sweep_thresholds(config, plan_run(config, dev, dev=dev), dev)
    assert best.t1 == 0.35
    assert len(table) == 1


def test_sweep_skips_invalid_combos(tmp_path, rng):
    dev, dump = _sweep_fixture(tmp_path, rng)
    config = PipelineConfig(
        dataset="unused.jsonl",
        sentinel="external",
        dump=dump,
        dev_dump=dump,
        passes=5,
        policy="overwrite",
        sweep={"t1": [0.2, 0.7], "t2": [0.6]},  # (0.7, 0.6) violates t1 < t2
    )
    best, table = sweep_thresholds(config, plan_run(config, dev, dev=dev), dev)
    assert len(table) == 1
    assert best.t1 == 0.2


def test_sweep_requires_gold_labels(tmp_path, rng):
    dev, dump = _sweep_fixture(tmp_path, rng)
    config = PipelineConfig(
        dataset="unused.jsonl",
        sentinel="external",
        dump=dump,
        dev_dump=dump,
        policy="overwrite",
        sweep={"t1": [0.2]},
    )
    no_gold = dev.strip_gold()
    with pytest.raises(ValueError, match="gold"):  # refused by plan_run
        sweep_thresholds(config, plan_run(config, no_gold, dev=no_gold), no_gold)


def test_default_benchmark_config_variants():
    sym = default_benchmark_config("symmetric", seed=3)
    asym = default_benchmark_config("asymmetric", seed=3)
    assert sym.benchmark.noise_kind == "symmetric"
    assert asym.benchmark.transition == ((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        default_benchmark_config("diagonal")


def test_emit_report_formats(tmp_path):
    report = {
        "run_stamp": {"generated_at": "t", "wall_seconds": 0.0},
        "config": {"seed": 1},
        "thresholds": {"t1": 0.3},
        "sweep": None,
        "counts": {"input_size": 10, "kept": 9, "removed": 1, "overwritten": 0},
        "rule_histogram": {"none": 9, "overwrite:false-positive": 1},
        "detection": {"precision": 1.0, "recall": 0.5, "overwrite_accuracy": 1.0},
        "evaluation": {"baseline": {"accuracy": 0.9}, "cleaned": {"accuracy": 0.95}},
    }
    json_path = tmp_path / "report.json"
    emit_report(report, "json", str(json_path))
    parsed = json.loads(json_path.read_text())
    assert parsed["config"] == {"seed": 1}

    text_path = tmp_path / "report.txt"
    emit_report(report, "text", str(text_path))
    text = text_path.read_text()
    assert "kept: 9" in text and "removed: 1" in text
    assert "overwrite:false-positive: 1" in text
    assert '"seed": 1' in text

    with pytest.raises(ValueError):
        emit_report(report, "yaml", str(tmp_path / "r.yaml"))


def test_text_format_run_writes_both_reports(tmp_path):
    config = _small_config(tmp_path / "t", report_format="text")
    run_pipeline(config)
    assert (tmp_path / "t" / "report.json").exists()
    assert (tmp_path / "t" / "report.txt").exists()


def test_readme_configs_load():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) >= 4
    for block in blocks:
        config_from_dict(json.loads(block))


def test_readme_library_snippet_runs(tmp_path, monkeypatch, rng):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"```python\n(.*?)```", readme.split("## Library use", 1)[1], flags=re.S).group(1)
    dataset = make_blobs(30, 2, 2, ((-2.0, 0.0), (2.0, 0.0)), 1.0, 3).strip_gold()
    save_distributions(PassStack(dataset.ids, rng.dirichlet(np.ones(3), size=(30, 10))), str(tmp_path / "dump.jsonl"))
    mapping = {
        "classes": ["entailment", "neutral", "contradiction"],
        "roles": ["supports_positive", "abstain", "supports_negative"],
    }
    (tmp_path / "mapping.json").write_text(json.dumps(mapping))
    monkeypatch.chdir(tmp_path)
    namespace = {"dataset": dataset}
    exec(snippet, namespace)
    assert [d.example_id for d in namespace["decisions"]] == list(dataset.ids)
    report = namespace["report"]
    assert report.kept + report.removed == len(dataset) == len(namespace["cleaned"]) + report.removed


def test_stock_benchmark_run_builds_no_records_and_shares_every_feature_matrix(tmp_path, monkeypatch):
    # the work-count contract for the data layer: a benchmark run holds its
    # examples, decisions and folds as columns only, no derived dataset copies
    # a feature matrix, and the decisions and folds share the dataset's ids
    from labelaudit.data import Dataset, LabeledExample

    records, views, stripped, folds, applied, decision_views = [], [], [], [], [], []
    decision_view = policy._decision_view
    record_new, examples, strip_gold = LabeledExample.__new__, Dataset.examples, Dataset.strip_gold
    sentinel_train, apply_decisions = sentinel.train, pipeline.apply_decisions

    def counted_new(cls, *args, **kwargs):
        records.append(args)
        return record_new(cls, *args, **kwargs)

    def counted_examples(self):
        views.append(self)
        return examples.fget(self)

    def recorded_strip_gold(self):
        stripped.append((self, strip_gold(self)))
        return stripped[-1][1]

    def recorded_train(model, dataset, config):
        folds.append(dataset)
        return sentinel_train(model, dataset, config)

    def recorded_apply(dataset, decisions, mode):
        cleaned, report = apply_decisions(dataset, decisions, mode)
        applied.append((dataset, cleaned))
        return cleaned, report

    def counted_decision_view(*columns):
        decision_views.append(columns)
        return decision_view(*columns)

    monkeypatch.setattr(policy, "_decision_view", counted_decision_view)
    monkeypatch.setattr(LabeledExample, "__new__", counted_new)
    monkeypatch.setattr(Dataset, "examples", property(counted_examples))
    monkeypatch.setattr(Dataset, "strip_gold", recorded_strip_gold)
    monkeypatch.setattr(sentinel, "train", recorded_train)
    monkeypatch.setattr(pipeline, "apply_decisions", recorded_apply)
    config = default_benchmark_config("symmetric", seed=4, out_dir=str(tmp_path / "out"))
    result = run_pipeline(config)

    assert records == [] and views == [] and decision_views == []
    assert len(stripped) == 2  # the dev split's sentinel and the training split's
    for source, view in stripped:
        assert view.gold is None and np.shares_memory(view.features, source.features)
    assert len(folds) == 2 * config.folds
    for fold in folds:
        assert any(np.shares_memory(fold.features, view.features) for _, view in stripped)
    ((working, cleaned),) = applied
    assert np.shares_memory(cleaned.features, working.features)
    assert np.shares_memory(result.cleaned.features, working.features)
    assert isinstance(result.decisions, Decisions) and result.decisions.ids is working.ids
    assert result.fold_assignment.ids is working.ids
    assert result.fold_assignment.fold.shape == (len(working),) and result.fold_assignment.k == config.folds
