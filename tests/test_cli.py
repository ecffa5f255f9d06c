import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import labelaudit
from labelaudit import cli
from labelaudit.cli import main
from labelaudit.data import load_dataset, load_distributions, save_dataset
from labelaudit.mlp import load_model
from labelaudit.noisebench import load_noise_mask
from labelaudit.policy import load_decisions
from labelaudit.sentinel import LabelSpaceMapping


def test_make_data_and_inject_noise(tmp_path):
    data = tmp_path / "data.jsonl"
    assert main(["make-data", "--out", str(data), "--n", "40", "--seed", "1"]) == 0
    ds = load_dataset(str(data))
    assert len(ds) == 40

    noisy = tmp_path / "noisy.jsonl"
    mask = tmp_path / "mask.json"
    code = main(
        [
            "inject-noise",
            "--dataset", str(data),
            "--out", str(noisy),
            "--noise-rate", "0.25",
            "--seed", "2",
            "--mask-out", str(mask),
        ]
    )
    assert code == 0
    assert len(load_noise_mask(str(mask)).corrupted_ids) == 10


def test_train_infer_evaluate_cycle(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    main(["make-data", "--out", str(data), "--n", "60", "--seed", "3"])
    ckpt = tmp_path / "model.json"
    code = main(
        [
            "train",
            "--dataset", str(data),
            "--out", str(ckpt),
            "--hidden-dims", "6",
            "--epochs", "5",
            "--seed", "4",
        ]
    )
    assert code == 0 and ckpt.exists()

    dists = tmp_path / "dists.jsonl"
    code = main(
        ["mcd-infer", "--model", str(ckpt), "--dataset", str(data), "--out", str(dists), "--passes", "4", "--seed", "5"]
    )
    assert code == 0
    loaded = load_distributions(str(dists))
    assert len(loaded) == 60 and loaded[0].t_count == 4

    capsys.readouterr()
    assert main(["evaluate", "--model", str(ckpt), "--dataset", str(data)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert 0.0 <= result["accuracy"] <= 1.0


def test_mcd_infer_on_a_header_only_dataset_writes_an_empty_dump(tmp_path, capsys):
    data, empty, ckpt = tmp_path / "data.jsonl", tmp_path / "empty.jsonl", tmp_path / "model.json"
    main(["make-data", "--out", str(data), "--n", "20", "--seed", "3"])
    assert main(["train", "--dataset", str(data), "--out", str(ckpt), "--epochs", "1"]) == 0
    empty.write_text(data.read_text().splitlines()[0] + "\n")
    dump = tmp_path / "dump.jsonl"
    capsys.readouterr()
    assert main(["mcd-infer", "--model", str(ckpt), "--dataset", str(empty), "--out", str(dump)]) == 0
    assert capsys.readouterr().out == f"wrote 0 distributions (10 passes each) to {dump}\n"
    assert len(load_distributions(str(dump))) == 0


# sha256 of the dump below: the MC-dropout masks of every pass are the draws
# of numpy's default_rng(mix64(mix64(5, 1 + j), t)), however they are computed
MCD_INFER_DIGEST = "cd204e1515aff1aef3adeeff3cd7f27384c4667028df83472be1ff77e8e6300a"


def test_mcd_infer_dump_of_a_tiny_seeded_model_keeps_its_digest(tmp_path):
    data, ckpt, dump = tmp_path / "data.jsonl", tmp_path / "model.json", tmp_path / "dump.jsonl"
    assert main(["make-data", "--out", str(data), "--n", "50", "--seed", "3"]) == 0
    argv = ["train", "--dataset", str(data), "--out", str(ckpt), "--hidden-dims", "8,8", "--epochs", "3", "--seed", "4"]
    assert main(argv) == 0
    argv = ["mcd-infer", "--model", str(ckpt), "--dataset", str(data), "--out", str(dump), "--passes", "10", "--seed", "5"]
    assert main(argv) == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == MCD_INFER_DIGEST
    empty = tmp_path / "empty.jsonl"
    empty.write_text(data.read_text().splitlines()[0] + "\n")
    argv = ["mcd-infer", "--model", str(ckpt), "--dataset", str(empty), "--out", str(dump), "--passes", "10", "--seed", "5"]
    assert main(argv) == 0
    assert dump.read_bytes() == b""


def test_build_sentinel_decide_apply_cycle(tmp_path):
    data = tmp_path / "data.jsonl"
    main(["make-data", "--out", str(data), "--n", "30", "--seed", "6"])
    noisy = tmp_path / "noisy.jsonl"
    main(["inject-noise", "--dataset", str(data), "--out", str(noisy), "--noise-rate", "0.3", "--seed", "6"])

    dists = tmp_path / "oof.jsonl"
    code = main(
        [
            "build-sentinel",
            "--dataset", str(noisy),
            "--out", str(dists),
            "--folds", "3",
            "--passes", "4",
            "--epochs", "3",
            "--hidden-dims", "6",
            "--seed", "7",
        ]
    )
    assert code == 0

    decisions = tmp_path / "decisions.jsonl"
    code = main(
        [
            "decide",
            "--dataset", str(noisy),
            "--dump", str(dists),
            "--passes", "4",
            "--policy", "overwrite",
            "--t1", "0.45", "--s1", "0.4", "--t2", "0.55", "--s2", "0.4",
            "--out", str(decisions),
        ]
    )
    assert code == 0
    assert len(load_decisions(str(decisions))) == 30

    cleaned = tmp_path / "cleaned.jsonl"
    code = main(
        ["apply", "--dataset", str(noisy), "--decisions", str(decisions), "--mode", "overwrite", "--out", str(cleaned)]
    )
    assert code == 0
    assert len(load_dataset(str(cleaned))) == 30


def test_sdg_mask_command(tmp_path):
    data = tmp_path / "tokens.jsonl"
    records = [
        {"class_count": 2},
        {
            "id": "q1",
            "label": 0,
            "tokens": [
                {"text": "find", "pos": "verb"},
                {"text": "berry", "pos": "noun", "is_compound_head": True},
                {"text": "pie", "pos": "noun", "is_entity": True},
            ],
        },
    ]
    data.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    out = tmp_path / "masks.jsonl"
    assert main(["sdg-mask", "--dataset", str(data), "--rule", "2", "--out", str(out)]) == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["id"] == "q1"
    assert rec["proposals"][0]["rendered"] == "find [MASK]"


def test_run_with_config_and_flag_override(tmp_path):
    config = {
        "seed": 11,
        "out": str(tmp_path / "out"),
        "benchmark": {"n": 60, "dev_size": 20, "test_size": 20, "noise": {"rate": 0.3}},
        "policy": "overwrite",
        "hidden_dims": [6],
        "epochs": 2,
        "folds": 3,
        "passes": 4,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_b = tmp_path / "out_b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b), "--seed", "12"]) == 0
    report = json.loads((out_b / "report.json").read_text())
    assert report["config"]["seed"] == 12  # flag beat the config file
    assert report["config"]["passes"] == 4


def test_sweep_command(tmp_path):
    data = tmp_path / "dev.jsonl"
    main(["make-data", "--out", str(data), "--n", "30", "--seed", "8"])
    noisy = tmp_path / "dev_noisy.jsonl"
    main(["inject-noise", "--dataset", str(data), "--out", str(noisy), "--noise-rate", "0.3", "--seed", "8"])
    out = tmp_path / "sweep.json"
    code = main(
        [
            "sweep",
            "--dataset", str(noisy),
            "--grid", '{"t1": [0.3, 0.45], "t2": [0.55]}',
            "--policy", "overwrite",
            "--folds", "3",
            "--passes", "4",
            "--epochs", "3",
            "--hidden-dims", "6",
            "--seed", "9",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["best"]["t1"] in (0.3, 0.45)
    assert len(doc["table"]) == 2


def test_decide_filter_policy_with_mapping(tmp_path):
    records = [
        {"class_count": 2},
        {"id": "a", "label": 1, "features": [0.0]},
        {"id": "b", "label": 0, "features": [1.0]},
    ]
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    # three-class sentinel dump: a is refuted, b is neither supported nor refuted
    dump_rows = {"a": [0.05, 0.05, 0.9], "b": [0.2, 0.6, 0.2]}
    dump = tmp_path / "dump.jsonl"
    dump.write_text(
        "\n".join(
            json.dumps({"example_id": k, "passes": [row] * 4}) for k, row in dump_rows.items()
        )
        + "\n"
    )
    mapping = tmp_path / "mapping.json"
    mapping.write_text(
        '{"classes": ["entailment", "neutral", "contradiction"],'
        ' "roles": ["supports_positive", "abstain", "supports_negative"]}'
    )
    out = tmp_path / "decisions.jsonl"
    code = main(
        [
            "decide",
            "--dataset", str(data),
            "--dump", str(dump),
            "--passes", "4",
            "--policy", "filter",
            "--mapping", str(mapping),
            "--out", str(out),
        ]
    )
    assert code == 0
    verdicts = {d.example_id: d.verdict for d in load_decisions(str(out))}
    assert verdicts == {"a": "remove", "b": "keep"}


def test_decide_quantile_policy_flags(tmp_path):
    records = [
        {"class_count": 3},
        {"id": "a", "label": 2, "features": [0.0]},  # labeled good, passes say neutral
        {"id": "b", "label": 0, "features": [1.0]},  # labeled bad, passes say good
    ]
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    dump = tmp_path / "dump.jsonl"
    rows = {"a": [0.1, 0.8, 0.1], "b": [0.1, 0.1, 0.8]}
    dump.write_text(
        "\n".join(
            json.dumps({"example_id": k, "passes": [row] * 10}) for k, row in rows.items()
        )
        + "\n"
    )
    out = tmp_path / "decisions.jsonl"
    code = main(
        [
            "decide",
            "--dataset", str(data),
            "--dump", str(dump),
            "--policy", "quantile",
            "--ordering", "[0, 1, 2]",
            "--good-set", "[2]",
            "--bad-set", "[0, 1]",
            "--q1", "0.9",
            "--q2", "0.1",
            "--out", str(out),
        ]
    )
    assert code == 0
    verdicts = {d.example_id: d.verdict for d in load_decisions(str(out))}
    assert verdicts == {"a": "remove", "b": "remove"}


@pytest.mark.parametrize(
    "flags", [["--spread", "nan"], ["--centers", "[[Infinity, 0], [2, 0]]"]], ids=["spread-nan", "center-infinite"]
)
def test_make_data_refuses_non_finite_geometry_and_writes_nothing(tmp_path, capsys, flags):
    out = tmp_path / "data.jsonl"
    assert main(["make-data", "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == "error: centers and spread must be finite\n"
    assert not out.exists()


def test_validation_errors_exit_one(tmp_path):
    assert main(["make-data", "--n", "10"]) == 1  # missing --out
    assert main(["train", "--dataset", str(tmp_path / "missing.jsonl"), "--out", "x"]) == 1
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["train", "--dataset", str(bad), "--out", str(tmp_path / "m.json")]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["inject-noise", "--dataset", str(bad), "--out", "x", "--noise-rate", "2.0"]) == 1


def test_usage_error_exits_one():
    assert main([]) == 1


def _write_dump(path, records) -> None:
    path.write_text("".join(json.dumps({"example_id": i, "passes": p}) + "\n" for i, p in records))


@pytest.mark.parametrize("command", ["train", "build-sentinel", "decide"])
def test_stage_commands_take_settings_from_config(tmp_path, command):
    data = tmp_path / "data.jsonl"
    main(["make-data", "--out", str(data), "--n", "12", "--seed", "1"])
    ids = [ex.id for ex in load_dataset(str(data)).examples]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"hidden_dims": [4], "passes": 5, "folds": 2, "epochs": 1}))
    out = tmp_path / "out"
    base = [command, "--config", str(cfg), "--dataset", str(data), "--out", str(out)]

    def run(flags, passes):
        if command == "decide":
            _write_dump(tmp_path / "dump.jsonl", [(i, [[0.5, 0.5]] * passes) for i in ids])
            flags = flags + ["--dump", str(tmp_path / "dump.jsonl")]
        assert main(base + flags) == 0

    if command == "train":
        run([], None)
        assert load_model(str(out)).spec.hidden_dims == (4,)
        run(["--hidden-dims", "3"], None)  # an explicit flag beats the config
        assert load_model(str(out)).spec.hidden_dims == (3,)
    elif command == "build-sentinel":
        run([], None)
        assert {d.t_count for d in load_distributions(str(out))} == {5}
        run(["--passes", "3"], None)
        assert {d.t_count for d in load_distributions(str(out))} == {3}
    else:
        run([], 5)
        assert len(load_decisions(str(out))) == 12
        run(["--passes", "3"], 3)
        assert len(load_decisions(str(out))) == 12


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"epoch": 3}, "epoch"),
        ({"benchmark": {"n": 60, "dims": 2}}, "dims"),
        ({"benchmark": {"n": 60, "noise": {"rate": 0.3, "knid": "symmetric"}}}, "noise.knid"),
        ({"out_dir": "elsewhere"}, "out_dir"),  # read-only alias, no longer accepted
    ],
)
def test_unknown_config_keys_exit_one(tmp_path, capsys, doc, key):
    data = tmp_path / "data.jsonl"
    main(["make-data", "--out", str(data), "--n", "20", "--seed", "1"])
    if "benchmark" not in doc:
        doc = {**doc, "dataset": str(data)}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**doc, "out": str(tmp_path / "run")}))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg)]) == 1
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_divergent_training_fails_before_writing(tmp_path, capsys):
    data, ckpt = tmp_path / "data.jsonl", tmp_path / "m.json"
    main(["make-data", "--out", str(data), "--n", "200", "--seed", "1"])
    capsys.readouterr()
    diverge = ["--learning-rate", "1e6", "--epochs", "20"]
    assert main(["train", "--dataset", str(data), "--out", str(ckpt), *diverge]) == 1
    assert "error: training diverged at learning_rate 1000000.0: " in capsys.readouterr().err
    assert not ckpt.exists()

    # a non-finite checkpoint written before this check existed is refused too
    assert main(["train", "--dataset", str(data), "--out", str(ckpt), "--epochs", "1"]) == 0
    doc = json.loads(ckpt.read_text())
    doc["layers"][0]["weight"][0][0] = float("nan")
    ckpt.write_text(json.dumps(doc))
    dump = tmp_path / "dump.jsonl"
    capsys.readouterr()
    assert main(["mcd-infer", "--model", str(ckpt), "--dataset", str(data), "--out", str(dump)]) == 1
    assert capsys.readouterr().err == f"error: {ckpt}: layer 0: non-finite weights\n"
    assert not dump.exists()

    cfg = tmp_path / "config.json"
    out = tmp_path / "run"
    bench = {"n": 200, "dev_size": 20, "test_size": 50}
    cfg.write_text(json.dumps({"benchmark": bench, "learning_rate": 1e6, "epochs": 30, "out": str(out)}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: stage 'sentinel': training diverged at learning_rate")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_overflowing_model_output_fails_before_writing(tmp_path, capsys):
    data, ckpt = tmp_path / "data.jsonl", tmp_path / "m.json"
    main(["make-data", "--out", str(data), "--n", "50", "--seed", "1"])
    assert main(["train", "--dataset", str(data), "--out", str(ckpt), "--epochs", "1"]) == 0
    doc = json.loads(ckpt.read_text())
    for layer in doc["layers"]:  # finite weights whose forward pass overflows
        layer["weight"] = [[w * 1e300 for w in row] for row in layer["weight"]]
    ckpt.write_text(json.dumps(doc))
    dump = tmp_path / "dump.jsonl"
    capsys.readouterr()
    assert main(["mcd-infer", "--model", str(ckpt), "--dataset", str(data), "--out", str(dump)]) == 1
    assert capsys.readouterr().err == "error: distribution 'ex00000': row 0 has entries outside [0, 1]\n"
    assert not dump.exists()

    # one full-batch step at this rate leaves finite weights near 1e200
    cfg, out = tmp_path / "config.json", tmp_path / "run"
    bench = {"n": 200, "dev_size": 20, "test_size": 50}
    doc = {"benchmark": bench, "learning_rate": 1e200, "epochs": 1, "batch_size": 1000, "out": str(out)}
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: stage 'sentinel': sentinel output is not a probability distribution: distribution "
    )
    assert not out.exists()


def test_sweep_without_dev_source_exits_one(tmp_path):
    data = tmp_path / "data.jsonl"
    main(["make-data", "--out", str(data), "--n", "20", "--seed", "1"])
    cfg = tmp_path / "config.json"
    out = tmp_path / "run"
    cfg.write_text(json.dumps({"dataset": str(data), "out": str(out), "sweep": {"t1": [0.2, 0.3]}}))
    assert main(["run", "--config", str(cfg)]) == 1
    assert not (out / "decisions.jsonl").exists()


def test_cli_imports_no_private_names():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("labelaudit"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


RUN = ["run", "--dataset", "{tmp}/data.jsonl", "--out", "{tmp}/run"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--dataset", "{tmp}/empty.jsonl", "--out", "{tmp}/m"], "the dataset has no feature vectors"),
        (["build-sentinel", "--dataset", "{tmp}/empty.jsonl", "--out", "{tmp}/s"], "the dataset has no feature"),
        (["build-sentinel", "--dataset", "{tmp}/data.jsonl", "--out", "{tmp}/s", "--folds", "25"], "fold count 25 exceeds"),
        (["run", "--config", "{tmp}/hidden_dims.json"], "config: hidden_dims must be tuple[int, ...], got 64"),
        (["run", "--config", "{tmp}/centers.json"], "benchmark: centers must be tuple[tuple[float, ...], ...], got 5"),
        (["run", "--config", "{tmp}/n.json"], "benchmark: n must be int, got 'abc'"),
        (["run", "--config", "{tmp}/epochs.json"], "config: epochs must be int, got '5'"),
        (["run", "--config", "{tmp}/threshold.json"], "config: thresholds.overwrite.t1 must be float, got 'x'"),
        (["run", "--config", "{tmp}/sweep.json"], "config: sweep.t1 must be a list of float, got 5"),
        (["run", "--config", "{tmp}/passes.json"], "config: passes must be >= 1, got -1"),
        (
            ["run", "--config", "{tmp}/dev_dump.json"],
            "{tmp}/data.jsonl: sweep with the external sentinel requires a dev_dump for the dev dataset\n",
        ),
        ([*RUN, "--folds", "1"], "config: folds must be >= 2, got 1"),
        ([*RUN, "--dropout", "1.5"], "config: dropout: dropout_rate must lie in [0, 1), got 1.5"),
        ([*RUN, "--batch-size", "0"], "config: batch_size must be >= 1"),
        ([*RUN, "--learning-rate", "-1"], "config: learning_rate must be positive"),
        ([*RUN, "--learning-rate", "nan"], "config: learning_rate must be finite, got nan\n"),
        ([*RUN, "--learning-rate", "inf"], "config: learning_rate must be finite, got inf\n"),
        ([*RUN, "--epochs", "-1"], "config: epochs must be >= 0"),
        ([*RUN, "--hidden-dims", "0"], "config: hidden_dims: all layer widths must be >= 1"),
        (["run", "--config", "{tmp}/sweep_field.json"], "config: sweep grid names unknown fields ['bogus']"),
        (
            ["sweep", "--dataset", "{tmp}/data.jsonl", "--grid", '{{"t1": [0.9], "t2": [0.1]}}', "--out", "{tmp}/run"],
            "{tmp}/data.jsonl: sweep grid is empty after dropping invalid points\n",
        ),
        (
            ["run", "--config", "{tmp}/bench.json", "--noise-rate", "1.5"],
            "benchmark: noise rate must lie in [0, 1), got 1.5\n",
        ),
        (
            ["run", "--config", "{tmp}/cv_dev_dump.json"],
            "config: config names both a cv sentinel and an external dump; pick one source\n",
        ),
        (
            ["sweep", "--dataset", "{tmp}/data.jsonl", "--out", "{tmp}/run"],
            "sweep needs a grid (--grid or config sweep section)\n",
        ),
        (
            ["sweep", "--config", "{tmp}/sweep_without_dev.json", "--out", "{tmp}/run"],
            "sweep needs a dev dataset (--dataset or config dev_dataset)\n",
        ),
        (
            ["sweep", "--config", "{tmp}/dev_dump.json", "--out", "{tmp}/run"],
            "{tmp}/data.jsonl: sweep with the external sentinel requires a dev_dump for the dev dataset\n",
        ),
        (
            ["sweep", "--grid", '{{"t1": [0.2]}}', "--out", "{tmp}/run"],
            "sweep needs a dev dataset (--dataset or config dev_dataset)\n",
        ),
    ],
    ids=[
        "train-header-only",
        "build-sentinel-header-only",
        "build-sentinel-folds-beyond-dataset",
        "hidden-dims-not-a-list",
        "centers-not-a-list",
        "n-not-an-int",
        "epochs-not-an-int",
        "threshold-not-a-float",
        "sweep-value-not-a-list",
        "passes-below-one",
        "external-sweep-without-dev-dump",
        "folds-below-two",
        "dropout-out-of-range",
        "batch-size-below-one",
        "learning-rate-not-positive",
        "learning-rate-nan",
        "learning-rate-infinite",
        "epochs-negative",
        "hidden-dims-below-one",
        "sweep-field-unknown",
        "sweep-grid-without-valid-points",
        "noise-rate-flag-over-a-benchmark-section",
        "dev-dump-with-the-cv-sentinel",
        "sweep-command-without-a-grid",
        "sweep-command-without-a-dev-dataset",
        "sweep-command-external-without-dev-dump",
        "sweep-command-without-any-dataset",
    ],
)
def test_header_only_data_and_mistyped_config_values_exit_one(tmp_path, capsys, monkeypatch, argv, message):
    from labelaudit import sentinel

    (tmp_path / "empty.jsonl").write_text('{"class_count": 2}\n')
    main(["make-data", "--out", str(tmp_path / "data.jsonl"), "--n", "20", "--seed", "1"])
    out = tmp_path / "run"
    docs = {
        "hidden_dims": {"dataset": str(tmp_path / "empty.jsonl"), "hidden_dims": 64},
        "centers": {"benchmark": {"n": 20, "centers": 5}},
        "n": {"benchmark": {"n": "abc"}},
        "epochs": {"dataset": str(tmp_path / "data.jsonl"), "epochs": "5"},
        "threshold": {"dataset": str(tmp_path / "data.jsonl"), "thresholds": {"overwrite": {"t1": "x"}}},
        "sweep": {"dataset": str(tmp_path / "data.jsonl"), "sweep": {"t1": 5}},
        "passes": {"dataset": str(tmp_path / "data.jsonl"), "passes": -1},
        "dev_dump": {
            "dataset": str(tmp_path / "data.jsonl"),
            "sentinel": "external",
            "dump": str(tmp_path / "dump.jsonl"),
            "dev_dataset": str(tmp_path / "data.jsonl"),
            "sweep": {"t1": [0.2, 0.3]},
        },
        "sweep_field": {
            "dataset": str(tmp_path / "data.jsonl"),
            "dev_dataset": str(tmp_path / "data.jsonl"),
            "sweep": {"bogus": [0.1]},
        },
        "bench": {"benchmark": {"n": 40}},
        "cv_dev_dump": {"benchmark": {"n": 40}, "dev_dump": "/nonexistent.jsonl"},
        "sweep_without_dev": {"dataset": str(tmp_path / "data.jsonl"), "sweep": {"t1": [0.2]}},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({**doc, "out": str(out)}))
    trained = []
    monkeypatch.setattr(sentinel, "train", lambda *args: trained.append(args))
    capsys.readouterr()
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message.format(tmp=tmp_path)}") and captured.err.count("\n") == 1
    assert captured.out == "" and trained == [] and not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("make-data", "--config"),
        ("inject-noise", "--config"),
        ("apply", "--config"),
        ("evaluate", "--config"),
        ("sdg-mask", "--config"),
        ("apply", "--seed"),
        ("evaluate", "--seed"),
        ("sdg-mask", "--seed"),
        ("decide", "--seed"),
    ],
)
def test_data_commands_refuse_flags_they_never_read(tmp_path, capsys, command, flag):
    main(["make-data", "--out", str(tmp_path / "data.jsonl"), "--n", "20", "--seed", "1"])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 9, "bogus": 1}))
    inputs = {
        "make-data": [],
        "inject-noise": ["--dataset", "{tmp}/data.jsonl"],
        "apply": ["--dataset", "{tmp}/data.jsonl", "--decisions", "{tmp}/decisions.jsonl"],
        "evaluate": ["--model", "{tmp}/m.json", "--dataset", "{tmp}/data.jsonl"],
        "sdg-mask": ["--dataset", "{tmp}/data.jsonl", "--rule", "1"],
        "decide": ["--dataset", "{tmp}/data.jsonl", "--dump", "{tmp}/dump.jsonl", "--passes", "10"],
    }[command]
    value = str(cfg) if flag == "--config" else "9"
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert main([command, *(arg.format(tmp=tmp_path) for arg in inputs), "--out", str(out), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: unrecognized arguments: {flag} {value}\n")
    assert captured.out == "" and not out.exists()


MAPPING = {
    "classes": ["entailment", "neutral", "contradiction"],
    "roles": ["supports_positive", "abstain", "supports_negative"],
}


@pytest.mark.parametrize("command", ["decide", "run"])
@pytest.mark.parametrize(
    "case", ["nan-feature", "row-sum", "mapping-without-roles", "partial-dump", "duplicate-id", "unknown-id"]
)
def test_malformed_input_content_exits_one(tmp_path, capsys, command, case):
    data, dump, mapping = tmp_path / "data.jsonl", tmp_path / "dump.jsonl", tmp_path / "mapping.json"
    main(["make-data", "--out", str(data), "--n", "50", "--seed", "1"])
    ids = [ex.id for ex in load_dataset(str(data)).examples]
    rows = {i: [[0.2, 0.1, 0.7]] * 10 for i in ids}
    mapping.write_text(json.dumps(MAPPING))
    bad = {"nan-feature": data, "mapping-without-roles": mapping}.get(case, dump)
    if case == "nan-feature":
        lines = data.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["features"][0] = float("nan")
        data.write_text("\n".join(lines[:2] + [json.dumps(rec)] + lines[3:]) + "\n")
    elif case == "row-sum":
        rows[ids[3]] = [[0.2, 0.2, 0.7]] * 10
    elif case == "mapping-without-roles":
        mapping.write_text(json.dumps({"classes": MAPPING["classes"]}))
    elif case == "partial-dump":
        rows = {ids[0]: rows[ids[0]]}
    records = list(rows.items())
    if case == "duplicate-id":
        records.append((ids[3], rows[ids[3]]))
    elif case == "unknown-id":
        records.insert(7, ("stranger", rows[ids[0]]))
    _write_dump(dump, records)
    out = tmp_path / "out"
    flags = ["--dataset", str(data), "--dump", str(dump), "--passes", "10", "--policy", "filter"]
    flags += ["--mapping", str(mapping), "--out", str(out)]
    if command == "run":
        flags += ["--sentinel", "external"]
    capsys.readouterr()
    assert main([command, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    if case == "partial-dump":
        assert f"no distribution for 49 of 50 examples, first {ids[1]!r}" in err
    elif case == "duplicate-id":
        assert err == f"error: {dump}: line 51: duplicate distribution for example {ids[3]!r}\n"
    elif case == "unknown-id":
        assert err == f"error: {dump}: distribution for unknown example 'stranger'\n"
    assert not out.exists()


def test_decisions_follow_dataset_order_whatever_the_dump_order(tmp_path):
    data = tmp_path / "data.jsonl"
    main(["make-data", "--out", str(data), "--n", "30", "--seed", "2"])
    ids = [ex.id for ex in load_dataset(str(data)).examples]
    records = [(i, [[0.1 * (j % 10), 1 - 0.1 * (j % 10)]] * 4) for j, i in enumerate(ids)]
    outputs = []
    for name, order in [("in-order", records), ("reversed", records[::-1])]:
        _write_dump(tmp_path / f"{name}.jsonl", order)
        outputs.append(tmp_path / f"{name}-decisions.jsonl")
        flags = ["--dataset", str(data), "--dump", str(tmp_path / f"{name}.jsonl"), "--passes", "4"]
        assert main(["decide", *flags, "--policy", "filter", "--out", str(outputs[-1])]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()
    assert [d.example_id for d in load_decisions(str(outputs[1]))] == ids


@pytest.mark.parametrize("command", ["run", "decide", "sweep"])
def test_each_command_reads_the_mapping_once(tmp_path, monkeypatch, command):
    data, dump, mapping = tmp_path / "data.jsonl", tmp_path / "dump.jsonl", tmp_path / "mapping.json"
    main(["make-data", "--out", str(data), "--n", "20", "--seed", "1"])
    _write_dump(dump, [(ex.id, [[0.2, 0.1, 0.7]] * 3) for ex in load_dataset(str(data)).examples])
    mapping.write_text(json.dumps(MAPPING))
    reads = []
    from_file = LabelSpaceMapping.from_file
    monkeypatch.setattr(LabelSpaceMapping, "from_file", lambda path: reads.append(path) or from_file(path))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dev_dataset": str(data), "dev_dump": str(dump), "sweep": {"t1": [0.5, 0.75]}}))
    argv = {
        "run": ["--config", str(config), "--sentinel", "external"],
        "decide": [],
        "sweep": ["--grid", json.dumps({"t1": [0.5, 0.75]})],
    }[command]
    flags = ["--dataset", str(data), "--dump", str(dump), "--passes", "3", "--policy", "filter"]
    flags += ["--mapping", str(mapping), "--out", str(tmp_path / "out")]
    assert main([command, *argv, *flags]) == 0
    assert reads == [str(mapping)]


@pytest.mark.parametrize(
    "record, where, message",
    [
        ('{"id": "a", "label": 1, "features": [2.0]}', "", "duplicate example id 'a'"),
        ('{"id": "b", "label": 2, "features": [2.0]}', "", "example 'b': label 2 out of range for class_count 2"),
        (
            '{"id": "b", "label": 1180591620717411303424, "features": [2.0]}',
            "",
            "example 'b': label 1180591620717411303424 out of range for class_count 2",
        ),
        ('{"id": "b", "label": 1, "gold_label": 5, "features": [2.0]}', "", "example 'b': gold_label 5 out of range"),
        ('{"id": "b", "label": 1, "gold_label": -1, "features": [2.0]}', ": line 3", "example 'b': gold_label -1 out of range"),
        (
            '{"id": "b", "label": 1, "tokens": [{"text": "hi", "pos": "other"}]}',
            ": line 3",
            "example 'b': mixed schemas (tokens after features)",
        ),
        ('{"id": "b", "label": 1, "features": [2.0, 3.0]}', ": line 3", "example 'b': feature dimension 2 differs from 1"),
        ('{"id": "b", "label": 1, "features": [NaN]}', ": line 3", "features must be finite numbers"),
        ('{"id": "b", "label": 1, "features": [Infinity]}', ": line 3", "features must be finite numbers"),
    ],
)
def test_dataset_refusals_keep_their_message_and_location(tmp_path, capsys, record, where, message):
    data = tmp_path / "data.jsonl"
    data.write_text('{"class_count": 2}\n{"id": "a", "label": 0, "gold_label": 0, "features": [1.0]}\n' + record + "\n")
    out = tmp_path / "noisy.jsonl"
    assert main(["inject-noise", "--dataset", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {data}{where}: {message}\n"
    assert not out.exists()


def test_decide_refuses_non_number_features_and_passes(tmp_path, capsys):
    data, dump, good = tmp_path / "data.jsonl", tmp_path / "dump.jsonl", tmp_path / "good.jsonl"
    data.write_text('{"class_count": 2}\n{"id": "a", "label": 0, "features": ["0.5", true]}\n')
    dump.write_text('{"example_id": "a", "passes": [["0.5", "0.5"], [true, false]]}\n')
    good.write_text('{"class_count": 2}\n{"id": "a", "label": 0, "features": [0.5, 1.0]}\n')
    out = tmp_path / "decisions.jsonl"
    refusals = ((data, f"{data}: line 2: example 'a': features"), (good, f"{dump}: line 1: distribution 'a': passes"))
    for dataset, where in refusals:
        argv = ["decide", "--dataset", str(dataset), "--dump", str(dump), "--passes", "2", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {where} must be numbers, got '0.5'\n"
        assert not out.exists()


def test_evaluate_refuses_a_model_of_another_class_count(tmp_path, capsys):
    three, two, ckpt = tmp_path / "three.jsonl", tmp_path / "two.jsonl", tmp_path / "model.json"
    main(["make-data", "--out", str(three), "--n", "30", "--classes", "3", "--seed", "1"])
    main(["make-data", "--out", str(two), "--n", "20", "--seed", "2"])
    assert main(["train", "--dataset", str(three), "--out", str(ckpt), "--epochs", "1"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(ckpt), "--dataset", str(two)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: model has 3 classes, the dataset has class_count 2\n"


@pytest.mark.parametrize("key", ["test_dataset", "dev_dataset"])
def test_run_refuses_a_split_of_another_class_count(tmp_path, capsys, key):
    data, split, out = tmp_path / "data.jsonl", tmp_path / "split.jsonl", tmp_path / "run"
    main(["make-data", "--out", str(data), "--n", "20", "--seed", "1"])
    main(["make-data", "--out", str(split), "--n", "30", "--classes", "3", "--seed", "2"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": str(data), key: str(split), "out": str(out), "epochs": 1}))
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {split}: class_count 3 differs from the dataset's 2\n"
    assert not out.exists()


@pytest.mark.parametrize("names, shown", [('"ab"', "'ab'"), ("[1, null]", "[1, None]")], ids=["string", "not-strings"])
def test_class_names_must_be_a_list_of_strings(tmp_path, capsys, names, shown):
    data, out = tmp_path / "data.jsonl", tmp_path / "noisy.jsonl"
    data.write_text(f'{{"class_count": 2, "class_names": {names}}}\n{{"id": "a", "label": 0, "features": [1.0]}}\n')
    assert main(["inject-noise", "--dataset", str(data), "--out", str(out)]) == 1
    message = f"header class_names must be a list of strings, got {shown}"
    assert capsys.readouterr().err == f"error: {data}: line 1: {message}\n"
    assert not out.exists()


TOKEN_DATA = (
    '{"class_count": 2}\n'
    '{"id": "t0", "label": 0, "tokens": [{"text": "berry", "pos": "noun", "is_compound_head": true}]}\n'
    '{"id": "t1", "label": 1, "gold_label": 0, "tokens": [{"text": "Paris", "pos": "propn", "is_entity": true}]}\n'
    '{"id": "t2", "label": 1, "tokens": [{"text": "is", "pos": "verb"}]}\n'
)


@pytest.mark.parametrize(
    "key, split_flags, message",
    [
        ("test_dataset", ["--d", "2"], "feature dimension 2 differs from the dataset's 4"),
        ("test_dataset", None, "schema tokens differs from the dataset's features"),
        ("dev_dataset", ["--d", "2"], "feature dimension 2 differs from the dataset's 4"),
    ],
    ids=["test-dimension", "test-tokens", "dev-dimension"],
)
def test_run_refuses_a_split_of_another_layout(tmp_path, capsys, key, split_flags, message):
    data, split, out = tmp_path / "data.jsonl", tmp_path / "split.jsonl", tmp_path / "run"
    main(["make-data", "--out", str(data), "--n", "20", "--d", "4", "--seed", "1"])
    if split_flags is None:
        split.write_text(TOKEN_DATA)
    else:
        main(["make-data", "--out", str(split), "--n", "20", "--seed", "2", *split_flags])
    doc = {"dataset": str(data), key: str(split), "out": str(out), "epochs": 1, "folds": 2, "passes": 2}
    if key == "dev_dataset":
        doc["sweep"] = {"t1": [0.2, 0.3]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {split}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, classes, flags, message",
    [
        ("run", "3", ["--policy", "overwrite"], "overwrite policy needs a binary (C = 2) summary"),
        ("run", "3", ["--policy", "filter"], "filter policy needs a label-space mapping for a non-binary sentinel"),
        ("run", "3", ["--policy", "quantile"], "quantile policy needs explicit thresholds for a non-binary label space"),
        ("run", None, ["--policy", "filter"], "the dataset has no feature vectors"),
        ("decide", "3", ["--policy", "overwrite"], "overwrite policy needs a binary (C = 2) summary"),
        ("decide", "3", ["--policy", "filter"], "filter policy needs a label-space mapping for a non-binary sentinel"),
        ("decide", "3", ["--policy", "quantile"], "quantile policy needs explicit thresholds for a non-binary label space"),
    ],
    ids=[
        "overwrite-three-classes",
        "filter-without-mapping",
        "quantile-without-thresholds",
        "cv-on-tokens",
        "decide-overwrite-three-classes",
        "decide-filter-without-mapping",
        "decide-quantile-without-thresholds",
    ],
)
def test_run_refuses_a_policy_or_sentinel_the_dataset_cannot_take(
    tmp_path, capsys, monkeypatch, command, classes, flags, message
):
    from labelaudit import sentinel

    data, dump, out = tmp_path / "data.jsonl", tmp_path / "dump.jsonl", tmp_path / "run"
    if classes is None:
        data.write_text(TOKEN_DATA)
    else:
        main(["make-data", "--out", str(data), "--n", "30", "--classes", classes, "--seed", "1"])
        _write_dump(dump, [(i, [[0.2, 0.1, 0.7]] * 2) for i in load_dataset(str(data)).ids])
    trained = []
    monkeypatch.setattr(sentinel, "train", lambda *args: trained.append(args))
    capsys.readouterr()
    argv = [command, "--dataset", str(data), "--out", str(out), "--passes", "2"]
    argv += {"run": ["--folds", "2", "--epochs", "1"], "decide": ["--dump", str(dump)]}[command]
    assert main([*argv, *flags]) == 1
    assert capsys.readouterr().err == f"error: {data}: {message}\n"
    assert trained == [] and not out.exists()


def test_run_refuses_a_mapping_of_another_class_count_before_training(tmp_path, capsys, monkeypatch):
    from labelaudit import sentinel

    data, mapping, out = tmp_path / "data.jsonl", tmp_path / "mapping.json", tmp_path / "run"
    main(["make-data", "--out", str(data), "--n", "30", "--seed", "1"])
    roles = ["supports_positive", "abstain", "supports_negative"]
    mapping.write_text(json.dumps({"classes": ["entailment", "neutral", "contradiction"], "roles": roles}))
    trained = []
    monkeypatch.setattr(sentinel, "train", lambda *args: trained.append(args))
    capsys.readouterr()
    argv = ["run", "--dataset", str(data), "--out", str(out), "--folds", "2", "--passes", "2", "--epochs", "1"]
    assert main([*argv, "--policy", "filter", "--mapping", str(mapping)]) == 1
    assert capsys.readouterr().err == f"error: {data}: distribution width 2 does not match mapping with 3 classes\n"
    assert trained == [] and not out.exists()


BENCH = {"n": 40, "dev_size": 20, "test_size": 10}


@pytest.mark.parametrize(
    "doc, where, message, built",
    [
        ({"benchmark": {**BENCH, "noise": {"rate": 1.5}}}, "benchmark", "noise rate must lie in [0, 1), got 1.5", True),
        ({"benchmark": {**BENCH, "noise": {"kind": "asymmetric"}}}, "benchmark", "asymmetric noise needs a transition matrix", True),
        (
            {"benchmark": {**BENCH, "noise": {"kind": "asymmetric", "transition": [[0, 1], [1, 0], [1, 0]]}}},
            "benchmark",
            "transition matrix must be square",
            True,
        ),
        (
            {"benchmark": {**BENCH, "noise": {"kind": "asymmetric", "transition": [[0, 1, 0], [1, 0, 0], [1, 0, 0]]}}},
            "benchmark",
            "transition is 3x3 but class_count is 2",
            True,
        ),
        ({"benchmark": {**BENCH, "class_count": 3}}, "benchmark", "need 3 centers, got 2", True),
        ({"benchmark": {**BENCH, "d": 3}}, "benchmark", "every center must have dimension 3", True),
        ({"benchmark": {**BENCH, "spread": -1}}, "benchmark", "spread must be >= 0", True),
        ({"benchmark": {**BENCH, "spread": float("nan")}}, "benchmark", "centers and spread must be finite", True),
        ({"benchmark": {**BENCH, "spread": float("inf")}}, "benchmark", "centers and spread must be finite", True),
        (
            {"benchmark": {**BENCH, "centers": [[float("inf"), 0], [2, 0]]}},
            "benchmark",
            "centers and spread must be finite",
            True,
        ),
        ({"benchmark": {**BENCH, "n": 4}}, "benchmark", "fold count 5 exceeds dataset size 4", False),
        (
            {"benchmark": {**BENCH, "dev_size": 3}, "sweep": {"t1": [0.2]}},
            "benchmark",
            "fold count 5 exceeds dataset size 3",
            False,
        ),
        ({"dataset": "{tmp}/four.jsonl"}, "{tmp}/four.jsonl", "fold count 5 exceeds dataset size 4", False),
        (
            {"dataset": "{tmp}/data.jsonl", "dev_dataset": "{tmp}/three.jsonl", "sweep": {"t1": [0.2]}},
            "{tmp}/three.jsonl",
            "fold count 5 exceeds dataset size 3",
            False,
        ),
        (
            {"dataset": "{tmp}/data.jsonl", "dev_dataset": "{tmp}/no_gold.jsonl", "sweep": {"t1": [0.2]}},
            "{tmp}/no_gold.jsonl",
            "sweep needs a non-empty dev set with gold labels",
            False,
        ),
        (
            {"dataset": "{tmp}/data.jsonl", "dev_dataset": "{tmp}/data.jsonl", "sweep": {"t1": []}},
            "config",
            "sweep.t1 has no values",
            True,
        ),
        (
            {"benchmark": BENCH, "sweep": {"t1": [0.9], "t2": [0.1]}},
            "benchmark",
            "sweep grid is empty after dropping invalid points",
            False,
        ),
        (
            {"dataset": "{tmp}/data.jsonl", "dev_dataset": "{tmp}/data.jsonl", "sweep": {"t1": [0.9], "t2": [0.1]}},
            "{tmp}/data.jsonl",
            "sweep grid is empty after dropping invalid points",
            False,
        ),
        (
            {"benchmark": {**BENCH, "noise": {"rate": 0.6, "kind": "asymmetric", "transition": [[0, 0], [1, 0]]}}},
            "benchmark",
            "cannot corrupt 24 examples: only 20 are eligible",
            False,
        ),
        ({"benchmark": {**BENCH, "n": 0}}, "benchmark", "benchmark sizes must be positive", True),
        (
            {"dataset": "{tmp}/data.jsonl", "policy": "bogus"},
            "config",
            "policy must be one of ('filter', 'overwrite', 'quantile'), got 'bogus'",
            True,
        ),
        (
            {"dataset": "{tmp}/data.jsonl", "sentinel": "bogus"},
            "config",
            "sentinel must be one of ('cv', 'external'), got 'bogus'",
            True,
        ),
        (
            {"benchmark": BENCH, "sentinel": "external", "dump": "{tmp}/dump.jsonl"},
            "config",
            "benchmark mode generates its data and requires the cv sentinel",
            True,
        ),
        (
            {"benchmark": BENCH, "dataset": "{tmp}/data.jsonl"},
            "config",
            "benchmark mode and a dataset path are mutually exclusive",
            True,
        ),
        (
            {"dataset": "{tmp}/data.jsonl", "format": "xml"},
            "config",
            "report format must be json or text, got 'xml'",
            True,
        ),
        ({"benchmark": {**BENCH, "noise": 5}}, "benchmark", "noise must be a JSON object", True),
        ({"dataset": "{tmp}/data.jsonl", "thresholds": 5}, "config", "thresholds must be a JSON object", True),
        (
            {"dataset": "{tmp}/data.jsonl", "thresholds": {"overwrite": 5}},
            "config",
            "thresholds.overwrite must be a JSON object",
            True,
        ),
        (
            {"dataset": "{tmp}/data.jsonl", "thresholds": {"bogus": {}}},
            "config",
            "unknown threshold sections ['bogus']",
            True,
        ),
    ],
    ids=[
        "noise-rate-above-one",
        "asymmetric-without-transition",
        "transition-not-square",
        "transition-of-another-class-count",
        "class-count-beyond-centers",
        "dimension-beyond-centers",
        "spread-negative",
        "spread-nan",
        "spread-infinite",
        "center-infinite",
        "benchmark-n-below-folds",
        "benchmark-dev-size-below-folds",
        "dataset-below-folds",
        "dev-dataset-below-folds",
        "dev-dataset-without-gold",
        "sweep-axis-without-values",
        "benchmark-sweep-grid-without-valid-points",
        "dev-dataset-sweep-grid-without-valid-points",
        "asymmetric-rate-beyond-eligible-share",
        "benchmark-size-not-positive",
        "policy-unknown",
        "sentinel-unknown",
        "benchmark-with-the-external-sentinel",
        "benchmark-with-a-dataset",
        "report-format-unknown",
        "noise-section-not-an-object",
        "thresholds-not-an-object",
        "threshold-section-not-an-object",
        "threshold-section-unknown",
    ],
)
def test_run_refuses_a_section_or_split_it_cannot_take_before_training(
    tmp_path, capsys, monkeypatch, doc, where, message, built
):
    from labelaudit import sentinel

    main(["make-data", "--out", str(tmp_path / "data.jsonl"), "--n", "30", "--seed", "1"])
    main(["make-data", "--out", str(tmp_path / "four.jsonl"), "--n", "4", "--seed", "2"])
    main(["make-data", "--out", str(tmp_path / "three.jsonl"), "--n", "3", "--seed", "3"])
    save_dataset(load_dataset(str(tmp_path / "data.jsonl")).strip_gold(), str(tmp_path / "no_gold.jsonl"))
    out, config = tmp_path / "run", tmp_path / "config.json"
    small = {"epochs": 1, "passes": 2, "hidden_dims": [4], "out": str(out)}
    config.write_text(json.dumps({**doc, **small}).replace("{tmp}", str(tmp_path)))
    trained, ran, run_pipeline = [], [], cli.run_pipeline
    monkeypatch.setattr(sentinel, "train", lambda *args: trained.append(args))
    monkeypatch.setattr(cli, "run_pipeline", lambda config: ran.append(config) or run_pipeline(config))
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {where.format(tmp=tmp_path)}: {message}\n" and captured.out == ""
    assert trained == [] and not out.exists()
    # refused when the config is built, or else in the data stage
    assert (ran == []) == built


# sha256 digests recorded before these outputs were built from the dataclasses
# that hold them: a saved token dataset, a tiny seeded checkpoint, and the text
# report (without its generated_at line) and JSON report (without run_stamp)
# of a small benchmark run
OUTPUT_DIGESTS = {
    "tokens": "e94d30e09ce58536464656bb3432989b602743ee04b5590d881f6ccece7aba4d",
    "checkpoint": "7200ac73e648e057e60662d1a3c52b736c8cbc3da3ecfe7b212d86cf8b95c0b6",
    "report.txt": "743cc88fbd0736f6da75c05568996bf20356f58d80ba18f621e2039dfe1165eb",
    "report.json": "1afcf02869ecb3e374a69d8a21ac434df6004e20d9f69babe5cd78f1455664d6",
}


def test_outputs_written_from_their_dataclasses_keep_their_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths keep the report's config free of tmp_path
    Path("tokens.jsonl").write_text(TOKEN_DATA)
    save_dataset(load_dataset("tokens.jsonl"), "saved.jsonl")
    save_dataset(load_dataset("saved.jsonl"), "resaved.jsonl")
    assert Path("resaved.jsonl").read_bytes() == Path("saved.jsonl").read_bytes()
    main(["make-data", "--out", "data.jsonl", "--n", "30", "--seed", "3"])
    argv = ["--hidden-dims", "4,3", "--epochs", "2", "--seed", "4", "--dropout", "0.25"]
    assert main(["train", "--dataset", "data.jsonl", "--out", "model.json", *argv]) == 0
    config = {"seed": 3, "benchmark": BENCH, "hidden_dims": [4], "epochs": 1, "folds": 2, "passes": 2, "sweep": {"t1": [0.2, 0.3]}}
    Path("config.json").write_text(json.dumps(config))
    assert main(["run", "--config", "config.json", "--out", "run", "--format", "text"]) == 0
    text = "".join(line for line in Path("run/report.txt").read_text().splitlines(True) if not line.startswith("generated_at:"))
    report = json.loads(Path("run/report.json").read_text())
    del report["run_stamp"]
    written = {
        "tokens": Path("saved.jsonl").read_bytes(),
        "checkpoint": Path("model.json").read_bytes(),
        "report.txt": text.encode(),
        "report.json": json.dumps(report, sort_keys=True).encode(),
    }
    assert {name: hashlib.sha256(data).hexdigest() for name, data in written.items()} == OUTPUT_DIGESTS


def test_build_sentinel_writes_the_fold_assignment(tmp_path):
    from labelaudit.mlp import ModelSpec, TrainConfig
    from labelaudit.sentinel import build_cv_sentinel

    data, dists, folds = tmp_path / "data.jsonl", tmp_path / "oof.jsonl", tmp_path / "folds.json"
    main(["make-data", "--out", str(data), "--n", "20", "--seed", "6"])
    argv = ["build-sentinel", "--dataset", str(data), "--out", str(dists), "--folds-out", str(folds)]
    assert main([*argv, "--folds", "3", "--passes", "2", "--epochs", "1", "--hidden-dims", "4", "--seed", "7"]) == 0
    dataset = load_dataset(str(data))
    _, assignment = build_cv_sentinel(
        dataset.strip_gold(), 3, ModelSpec(2, (4,), 2, 0.1), TrainConfig(0.3, 1, 64, seed=7), 2, 7
    )
    assert json.loads(folds.read_text()) == {"k": assignment.k, "fold_of": assignment.fold_of}


def test_evaluate_writes_what_it_prints(tmp_path, capsys):
    data, ckpt, out = tmp_path / "data.jsonl", tmp_path / "model.json", tmp_path / "eval.json"
    main(["make-data", "--out", str(data), "--n", "20", "--seed", "3"])
    assert main(["train", "--dataset", str(data), "--out", str(ckpt), "--epochs", "1"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(ckpt), "--dataset", str(data), "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text()) == printed and set(printed) >= {"accuracy", "f1"}


def test_apply_removes_from_a_tokens_dataset(tmp_path):
    data, decisions, out = tmp_path / "tokens.jsonl", tmp_path / "decisions.jsonl", tmp_path / "cleaned.jsonl"
    data.write_text(TOKEN_DATA)
    decisions.write_text('{"example_id": "t1", "verdict": "remove"}\n{"example_id": "t0", "verdict": "keep"}\n')
    assert main(["apply", "--dataset", str(data), "--decisions", str(decisions), "--out", str(out)]) == 0
    before, after = load_dataset(str(data)), load_dataset(str(out))
    assert after.ids == ("t0", "t2") and after.labels.tolist() == [0, 1] and after.gold is None
    assert after.tokens == (before.tokens[0], before.tokens[2])


def test_text_report_shows_the_sweep_best(tmp_path):
    config = {
        "seed": 3,
        "benchmark": {"n": 40, "dev_size": 20, "test_size": 10},
        "hidden_dims": [4],
        "epochs": 1,
        "folds": 2,
        "passes": 2,
        "sweep": {"t1": [0.2, 0.3]},
    }
    cfg, out = tmp_path / "config.json", tmp_path / "run"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(out), "--format", "text"]) == 0
    best = json.loads((out / "report.json").read_text())["sweep"]["best"]
    lines = (out / "report.txt").read_text().splitlines()
    at = lines.index("== sweep best ==")
    assert json.loads(lines[at + 1]) == best and best["t1"] in (0.2, 0.3)


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["make-data", "--out", "{tmp}/made.jsonl", "--n", "5"], 0, ""),
        (["inject-noise", "--dataset", "{tmp}/bad.jsonl", "--out", "{tmp}/noisy.jsonl"], 1, "{tmp}/bad.jsonl: line 2: "),
        (
            ["run", "--dataset", "{tmp}/made.jsonl", "--sentinel", "external", "--dump", "{tmp}/missing.jsonl",
             "--out", "{tmp}/run"],
            2,
            "stage 'sentinel': ",
        ),
    ],
    ids=["ok", "malformed-dataset", "missing-dump"],
)
def test_package_entry_point_exit_codes(tmp_path, argv, code, err):
    (tmp_path / "bad.jsonl").write_text('{"class_count": 2}\n{"id": "a"}\n')
    main(["make-data", "--out", str(tmp_path / "made.jsonl"), "--n", "5"])
    src = str(Path(labelaudit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    args = [arg.format(tmp=tmp_path) for arg in argv]
    command = [sys.executable, "-m", "labelaudit", *args]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    assert done.stderr.startswith(f"error: {err.format(tmp=tmp_path)}" if err else "")
