import ast
import json
from pathlib import Path

import pytest

from labelaudit import cli
from labelaudit.cli import main
from labelaudit.data import load_dataset, load_distributions
from labelaudit.mlp import load_model
from labelaudit.noisebench import load_noise_mask
from labelaudit.policy import load_decisions


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


def _write_dump(path, ids, passes):
    path.write_text(
        "".join(json.dumps({"example_id": i, "passes": [[0.5, 0.5]] * passes}) + "\n" for i in ids)
    )


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
            _write_dump(tmp_path / "dump.jsonl", ids, passes)
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--dataset", "{tmp}/empty.jsonl", "--out", "{tmp}/m"], "the dataset has no feature vectors"),
        (["build-sentinel", "--dataset", "{tmp}/empty.jsonl", "--out", "{tmp}/s"], "the dataset has no feature"),
        (["run", "--config", "{tmp}/hidden_dims.json"], "config: hidden_dims must be tuple[int, ...], got 64"),
        (["run", "--config", "{tmp}/centers.json"], "benchmark: centers must be tuple[tuple[float, ...], ...], got 5"),
        (["run", "--config", "{tmp}/n.json"], "benchmark: n must be int, got 'abc'"),
        (["run", "--config", "{tmp}/epochs.json"], "config: epochs must be int, got '5'"),
        (["run", "--config", "{tmp}/threshold.json"], "config: thresholds.overwrite.t1 must be float, got 'x'"),
        (["run", "--config", "{tmp}/sweep.json"], "config: sweep.t1 must be a list of float, got 5"),
        (["run", "--config", "{tmp}/passes.json"], "config: passes must be >= 1, got -1"),
    ],
    ids=[
        "train-header-only",
        "build-sentinel-header-only",
        "hidden-dims-not-a-list",
        "centers-not-a-list",
        "n-not-an-int",
        "epochs-not-an-int",
        "threshold-not-a-float",
        "sweep-value-not-a-list",
        "passes-below-one",
    ],
)
def test_header_only_data_and_mistyped_config_values_exit_one(tmp_path, capsys, argv, message):
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
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({**doc, "out": str(out)}))
    capsys.readouterr()
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


MAPPING = {
    "classes": ["entailment", "neutral", "contradiction"],
    "roles": ["supports_positive", "abstain", "supports_negative"],
}


@pytest.mark.parametrize("command", ["decide", "run"])
@pytest.mark.parametrize("case", ["nan-feature", "row-sum", "mapping-without-roles", "partial-dump"])
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
    dump.write_text("".join(json.dumps({"example_id": i, "passes": p}) + "\n" for i, p in rows.items()))
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
    assert not out.exists()
