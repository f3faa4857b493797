"""Command-line surface.

Subcommands: synth (emit a dataset), train, eval, gradcheck, sweep,
export-features. Configuration comes from a JSON file mirroring the
RunConfig structure, with common fields overridable by flags. Exit codes:
0 success, 1 validation failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .data import generate_dataset, save_dataset, write_records
from .evaluation import PROTOCOL_SIDES, PROTOCOLS, build_index
from .training import (
    RunConfig,
    SWEEP_AXES,
    TEACHER_MODES,
    benchmark_config,
    config_digest,
    evaluate_result,
    gradcheck_suite,
    load_checkpoint,
    parse_json,
    report_document,
    save_checkpoint,
    sweep,
    sweep_table,
    train,
)


# the config fields that flags set: every scalar RunConfig field, then two
# LossConfig knobs; each flag is the field name with dashes
RUN_FLAG_FIELDS = tuple(f.name for f in fields(RunConfig)
                        if f.name not in ("synth", "trunk", "loss"))
LOSS_FLAG_FIELDS = ("margin", "bp_to_video")


def _load_config(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_dict(parse_json(Path(args.config).read_text()))
    else:
        cfg = benchmark_config()
    loss = {name: getattr(args, name) for name in LOSS_FLAG_FIELDS
            if getattr(args, name) is not None}
    run = {name: getattr(args, name) for name in RUN_FLAG_FIELDS
           if getattr(args, name) is not None}
    if loss:
        cfg = replace(cfg, loss=replace(cfg.loss, **loss))
    if run:
        cfg = replace(cfg, **run)
    return cfg


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file (benchmark defaults if omitted)")
    defaults = benchmark_config()
    for name in RUN_FLAG_FIELDS + LOSS_FLAG_FIELDS:
        flag = "--" + name.replace("_", "-")
        if name == "bp_to_video":
            p.add_argument(flag, dest=name, action="store_true", default=None)
        elif name == "teacher_mode":
            p.add_argument(flag, dest=name, choices=TEACHER_MODES)
        else:
            default = getattr(defaults.loss if name in LOSS_FLAG_FIELDS else defaults, name)
            p.add_argument(flag, dest=name, type=type(default))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="i2vmatch",
        description="Image-to-video identity matching on synthetic data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate and export a synthetic dataset")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output dataset file")

    p = sub.add_parser("train", help="train both encoders")
    _add_config_flags(p)
    p.add_argument("--out-dir", required=True, help="directory for checkpoint and log")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--protocol", choices=PROTOCOLS, default="I2V")
    p.add_argument("--config", help="optional config to verify against the checkpoint")
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--scope", choices=("all", "losses", "encoders"), default="all")
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--tol", type=float, default=1e-4)

    p = sub.add_parser("sweep", help="train/eval one run per axis value")
    _add_config_flags(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True,
                   help="comma-separated axis values (e.g. 1,2,4,8 or on,off)")
    p.add_argument("--out", help="write the JSON rows here")

    p = sub.add_parser("export-features", help="export encoded features as text records")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--which", choices=("query", "gallery", "both"), default="both")
    p.add_argument("--out", required=True)
    return parser


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    dataset = generate_dataset(cfg.synth)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset.videos)} videos "
          f"({len(dataset.query)} query / {len(dataset.gallery)} gallery) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out_dir)
    # the directory is made only after training; a file in its way fails now
    in_way = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not in_way.is_dir():
        raise ValueError(f"--out-dir {out_dir}: {in_way} exists and is not a directory")
    result = train(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "checkpoint.txt"
    save_checkpoint(result, ckpt)
    log = out_dir / "train_log.jsonl"
    log.write_text("\n".join(result.log_lines) + "\n")
    print(f"digest {config_digest(cfg)}")
    print(f"checkpoint -> {ckpt}")
    print(f"log -> {log}")
    return 0


def cmd_eval(args) -> int:
    result = load_checkpoint(args.checkpoint)
    if args.config:
        supplied = RunConfig.from_dict(parse_json(Path(args.config).read_text()))
        if config_digest(supplied) != config_digest(result.config):
            raise ValueError("config digest mismatch between checkpoint and supplied config")
    report = evaluate_result(result, (args.protocol,))[args.protocol]
    print(report.table())
    if args.out:
        Path(args.out).write_text(report_document(report, result.config))
        print(f"report -> {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    outcomes = gradcheck_suite(scope=args.scope, seeds=tuple(args.seeds), tol=args.tol)
    for oc in outcomes:
        status = "ok" if oc.passed else "FAIL"
        print(f"{status:4s} {oc.name:16s} seed={oc.seed} "
              f"max_rel_err={oc.max_rel_err:.3e} worst={oc.worst_param}")
    if not all(oc.passed for oc in outcomes):
        print("gradient checks FAILED")
        return 2
    print(f"all {len(outcomes)} checks passed (tol={args.tol:g})")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    rows = sweep(args.axis, values, cfg)
    print(sweep_table(rows))
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2) + "\n")
        print(f"rows -> {args.out}")
    return 0


def cmd_export_features(args) -> int:
    result = load_checkpoint(args.checkpoint)
    dataset, cfg = result.dataset, result.config
    records = []
    # the sides of the I2V protocol: first-frame queries, whole-video gallery
    for side, kind, videos in zip(("query", "gallery"), PROTOCOL_SIDES["I2V"],
                                  (dataset.query, dataset.gallery)):
        if args.which in (side, "both"):
            index = build_index(kind, videos, result.encoder, cfg.eval_clip_len)
            records += zip(index.identities, index.cameras, index.features[:, None])
    write_records(args.out, cfg.trunk.output_dim, records)
    print(f"wrote {len(records)} feature records to {args.out}")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "sweep": cmd_sweep,
    "export-features": cmd_export_features,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:  # TrainingAbort and NonFiniteError among them
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
