"""Command-line front end: one subcommand per workflow stage plus a full run.

A command that takes ``--config`` lays its flags over the config's fields; the
data commands (make-data, inject-noise, apply, evaluate, sdg-mask) take flags
only.  Exit codes: 0 success, 1 validation error (bad flags, malformed inputs,
violated invariants), 2 runtime failure mid-pipeline.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import config_from_dict, overlay_flags
from .data import (
    PassStack,
    load_dataset,
    read_json,
    save_dataset,
    save_distributions,
    validate_distribution,
    write_json,
    write_jsonl,
)
from .mlp import load_model, save_model
from .noisebench import NoiseSpec, inject_noise, make_blobs, save_noise_mask
from .pipeline import (
    PipelineError,
    cv_sentinel,
    decide_all,
    evaluate,
    plan_run,
    retrain,
    run_pipeline,
    sentinel_distributions,
    sweep_thresholds,
)
from .policy import (
    THRESHOLDS,
    apply_decisions,
    grid_fields,
    load_decisions,
    save_decisions,
    thresholds_to_section,
)
from .sdgmask import proposal_record, select_masks
from .sentinel import mcd_passes


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hidden-dims", type=_int_list, help="comma-separated hidden layer widths")
    parser.add_argument("--dropout", type=float, help="dropout rate (training and stochastic passes)")
    parser.add_argument("--learning-rate", type=float)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch-size", type=int)


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", choices=tuple(THRESHOLDS))
    for name in dict.fromkeys(name for kind in THRESHOLDS for name in grid_fields(kind)):
        parser.add_argument(f"--{name}", type=float)
    parser.add_argument("--mapping", help="label-space mapping JSON for the filter policy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelaudit",
        description="Detect, remove, or overwrite label errors using multi-pass dropout uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every command takes --out; --seed and --config only where they are read
    writer = argparse.ArgumentParser(add_help=False)
    writer.add_argument("--out", help="output path or directory")
    config_file = argparse.ArgumentParser(add_help=False)
    config_file.add_argument("--config", help="JSON config file; flags override its fields")
    seeded = argparse.ArgumentParser(add_help=False, parents=[writer])
    seeded.add_argument("--seed", type=int, help="root seed")
    configured = argparse.ArgumentParser(add_help=False, parents=[seeded, config_file])

    p = sub.add_parser("make-data", parents=[seeded], help="generate Gaussian blob data with gold labels")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--centers", help='JSON list of centers, e.g. "[[-2,0],[2,0]]"')
    p.add_argument("--spread", type=float, default=1.0)

    p = sub.add_parser("inject-noise", parents=[seeded], help="corrupt labels at a controlled rate")
    p.add_argument("--dataset", required=True)
    p.add_argument("--noise-rate", type=float, default=0.3)
    p.add_argument("--noise-kind", choices=("symmetric", "asymmetric"), default="symmetric")
    p.add_argument("--transition", help="JSON transition matrix for asymmetric noise")
    p.add_argument("--mask-out", help="where to write the corruption mask (ground truth)")

    p = sub.add_parser("train", parents=[configured], help="train a classifier and write a checkpoint")
    _add_model_flags(p)
    p.add_argument("--dataset", required=True)

    p = sub.add_parser("mcd-infer", parents=[configured], help="stochastic multi-pass inference with a trained model")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--dataset", required=True)
    p.add_argument("--passes", type=int)

    p = sub.add_parser("build-sentinel", parents=[configured], help="out-of-fold distributions via cross-validation")
    _add_model_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--folds", type=int)
    p.add_argument("--passes", type=int)
    p.add_argument("--folds-out", help="where to write the fold assignment")

    p = sub.add_parser("decide", parents=[writer, config_file], help="run a decision policy over distributions")
    _add_policy_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--dump", required=True, help="distribution file to decide from")
    p.add_argument("--passes", type=int)
    p.add_argument("--ordering", type=json.loads, help="JSON ordinal class ordering (quantile policy)")
    p.add_argument("--good-set", type=json.loads, help="JSON list of good classes (quantile policy)")
    p.add_argument("--bad-set", type=json.loads, help="JSON list of bad classes (quantile policy)")

    p = sub.add_parser("apply", parents=[writer], help="apply persisted decisions to a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--decisions", required=True)
    p.add_argument("--mode", choices=("filter_only", "overwrite"), default="filter_only")

    p = sub.add_parser("sweep", parents=[configured], help="grid-search thresholds on a dev set with gold labels")
    _add_model_flags(p)
    _add_policy_flags(p)
    p.add_argument("--dataset", dest="dev_dataset", help="dev dataset (overrides config dev_dataset)")
    p.add_argument("--folds", type=int)
    p.add_argument("--passes", type=int)
    p.add_argument("--sentinel", choices=("cv", "external"))
    p.add_argument("--dump", dest="dev_dump", help="external dev distribution dump")
    p.add_argument(
        "--grid", dest="sweep", type=json.loads, metavar="JSON", help='grid, e.g. "{\\"t1\\": [0.2, 0.3]}"'
    )

    p = sub.add_parser("evaluate", parents=[writer], help="evaluate a checkpoint on a labeled dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)

    p = sub.add_parser("sdg-mask", parents=[writer], help="propose mask templates from tagged token data")
    p.add_argument("--dataset", required=True, help="token-schema dataset")
    p.add_argument("--rule", type=int, required=True, choices=(1, 2, 3, 4))

    p = sub.add_parser("run", parents=[configured], help="full pipeline from a config file")
    _add_model_flags(p)
    _add_policy_flags(p)
    p.add_argument("--dataset")
    p.add_argument("--folds", type=int)
    p.add_argument("--passes", type=int)
    p.add_argument("--sentinel", choices=("cv", "external"))
    p.add_argument("--dump")
    p.add_argument("--noise-rate", type=float)
    p.add_argument("--noise-kind", choices=("symmetric", "asymmetric"))
    p.add_argument("--format", choices=("json", "text"))

    return parser


def _config_doc(args) -> dict:
    """The --config document with every given flag laid over it."""
    return overlay_flags(read_json(args.config) if args.config else {}, vars(args))


def _require(args, flag: str):
    value = getattr(args, flag.replace("-", "_"), None)
    if value is None:
        raise ValueError(f"--{flag} is required for this command")
    return value


def _json_rows(flag: str, text: str | None):
    rows = json.loads(text) if text else None  # None when the flag is not given
    numbers = {int, float}
    if rows is None or type(rows) is list and all(type(r) is list and numbers.issuperset(map(type, r)) for r in rows):
        return rows
    raise ValueError(f"--{flag} must be a JSON list of number lists, got {text}")


def _cmd_make_data(args) -> int:
    out = _require(args, "out")
    classes = args.classes
    centers = _json_rows("centers", args.centers)
    if centers is None:
        if args.d < 1:
            raise ValueError("--d must be >= 1")
        centers = [[(-2.0 if c == 0 else 2.0 * c)] + [0.0] * (args.d - 1) for c in range(classes)]
    dataset = make_blobs(args.n, args.d, classes, centers, args.spread, args.seed or 0)
    save_dataset(dataset, out)
    print(f"wrote {len(dataset)} examples to {out}")
    return 0


def _cmd_inject_noise(args) -> int:
    out = _require(args, "out")
    dataset = load_dataset(args.dataset)
    transition = _json_rows("transition", args.transition)
    spec = NoiseSpec(
        rate=args.noise_rate, kind=args.noise_kind, seed=args.seed or 0, transition=transition
    )
    noisy, mask = inject_noise(dataset, spec)
    save_dataset(noisy, out)
    if args.mask_out:
        save_noise_mask(mask, args.mask_out)
    print(f"corrupted {len(mask.corrupted_ids)} of {len(dataset)} labels -> {out}")
    return 0


def _cmd_train(args) -> int:
    out = _require(args, "out")
    config = config_from_dict(_config_doc(args))
    dataset = load_dataset(config.dataset, expected_schema="features")
    model = retrain(config, config.model_spec(dataset), dataset)
    save_model(model, out)
    print(f"trained on {len(dataset)} examples -> {out}")
    return 0


def _cmd_mcd_infer(args) -> int:
    out = _require(args, "out")
    config = config_from_dict(_config_doc(args))
    model = load_model(args.model)
    dataset = load_dataset(config.dataset, expected_schema="features")
    # a header-only dataset has no schema, so no feature matrix, and gives an empty dump
    x = dataset.matrix() if len(dataset) else np.empty((0, model.spec.input_dim))
    passes = mcd_passes(model, x, range(len(dataset)), config.passes, config.seed)
    dists = PassStack(dataset.ids, passes)
    validate_distribution(dists)  # an overflowing model writes no dump
    save_distributions(dists, out)
    print(f"wrote {len(dists)} distributions ({config.passes} passes each) to {out}")
    return 0


def _cmd_build_sentinel(args) -> int:
    out = _require(args, "out")
    config = config_from_dict(_config_doc(args))
    dataset = load_dataset(config.dataset, expected_schema="features")
    dists, assignment = cv_sentinel(config, config.model_spec(dataset), dataset)
    save_distributions(dists, out)
    if args.folds_out:
        write_json(args.folds_out, {"k": assignment.k, "fold_of": assignment.fold_of})
    print(f"wrote {len(dists)} out-of-fold distributions ({config.folds} folds) to {out}")
    return 0


def _cmd_decide(args) -> int:
    out = _require(args, "out")
    config = config_from_dict({**_config_doc(args), "sentinel": "external"})
    dataset = load_dataset(config.dataset)
    plan = plan_run(config, dataset)
    dists, _ = sentinel_distributions(config, plan, dataset)
    decisions = decide_all(config.policy, dists, dataset.labels.tolist(), plan.thresholds, plan.mapping)
    save_decisions(decisions, out)
    flagged = int(np.count_nonzero(decisions.flagged))
    print(f"decided {len(decisions)} examples, flagged {flagged} -> {out}")
    return 0


def _cmd_apply(args) -> int:
    out = _require(args, "out")
    dataset = load_dataset(args.dataset)
    decisions = load_decisions(args.decisions)
    cleaned, report = apply_decisions(dataset, decisions, args.mode)
    save_dataset(cleaned, out)
    print(
        f"kept {report.kept} (overwrote {report.overwritten}), removed {report.removed} -> {out}"
    )
    return 0


def _cmd_sweep(args) -> int:
    doc = _config_doc(args)
    if args.dev_dump:
        doc.setdefault("sentinel", "external")
        doc.setdefault("dump", args.dev_dump)
    if not doc.get("sweep"):
        raise ValueError("sweep needs a grid (--grid or config sweep section)")
    if not doc.get("dev_dataset"):
        raise ValueError("sweep needs a dev dataset (--dataset or config dev_dataset)")
    doc["dataset"] = doc["dev_dataset"]  # the plan checks the dev set as the dataset
    config = config_from_dict(doc)
    dev = load_dataset(config.dev_dataset)
    best, table = sweep_thresholds(config, plan_run(config, dev, dev=dev), dev)
    print(json.dumps({"best": thresholds_to_section(best)}, sort_keys=True))
    if args.out:
        write_json(args.out, {"best": thresholds_to_section(best), "table": table}, indent=2)
    return 0


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    dataset = load_dataset(args.dataset, expected_schema="features")
    result = evaluate(model, dataset)
    print(json.dumps(result, sort_keys=True))
    if args.out:
        write_json(args.out, result, indent=2)
    return 0


def _cmd_sdg_mask(args) -> int:
    out = _require(args, "out")
    dataset = load_dataset(args.dataset, expected_schema="tokens")
    proposals = {exid: select_masks(tokens, args.rule) for exid, tokens in zip(dataset.ids, dataset.tokens or ())}
    write_jsonl(out, ({"id": i, "proposals": [proposal_record(p) for p in ps]} for i, ps in proposals.items()))
    count = sum(map(len, proposals.values()))
    print(f"rule {args.rule}: {count} proposals over {len(dataset)} sentences -> {out}")
    return 0


def _cmd_run(args) -> int:
    config = config_from_dict(_config_doc(args))
    result = run_pipeline(config)
    counts = result.report["counts"]
    print(
        f"kept {counts['kept']} (overwrote {counts['overwritten']}),"
        f" removed {counts['removed']} of {counts['input_size']}"
    )
    if result.report.get("detection"):
        d = result.report["detection"]
        print(f"detection precision {d['precision']:.3f}, recall {d['recall']:.3f}")
    if result.report.get("evaluation"):
        e = result.report["evaluation"]
        print(
            f"test accuracy {e['baseline']['accuracy']:.3f} -> {e['cleaned']['accuracy']:.3f}"
        )
    print(f"report: {Path(config.out_dir) / 'report.json'}")
    return 0


_COMMANDS = {
    "make-data": _cmd_make_data,
    "inject-noise": _cmd_inject_noise,
    "train": _cmd_train,
    "mcd-infer": _cmd_mcd_infer,
    "build-sentinel": _cmd_build_sentinel,
    "decide": _cmd_decide,
    "apply": _cmd_apply,
    "sweep": _cmd_sweep,
    "evaluate": _cmd_evaluate,
    "sdg-mask": _cmd_sdg_mask,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are validation failures here
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OverflowError, FileNotFoundError) as err:  # a DataFormatError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 1
    except PipelineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
