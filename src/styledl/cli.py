"""Command line front end.

Subcommands mirror the workflow: generate a synthetic corpus, build the
static adjacency, train, evaluate, predict one image, rank saved metric
reports, and run the nearest-neighbour baseline.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .baseline import aaknn_predict
from .errors import TrainingError
from .metrics import evaluate_metrics, load_report, rank_table
from .model import ABLATION_PRESETS
from .training import (Checkpoint, TrainConfig, evaluate, load_train_config,
                       predict_batch, train)


def _cmd_gen_synth(args) -> int:
    manifest = dataio.synth_generate(
        seed=args.seed, n_samples=args.n, n_labels=args.labels,
        input_size=args.size, out_dir=args.out)
    print(f"wrote {len(manifest)} samples with {manifest.n_labels} labels to {args.out}")
    return 0


def _cmd_build_adj(args) -> int:
    manifest = dataio.load_manifest(args.manifest)
    adj = dataio.cooccurrence_adjacency(manifest)
    if args.out:
        np.savetxt(args.out, adj)
        print(f"wrote {adj.shape[0]}x{adj.shape[1]} adjacency to {args.out}")
    else:
        for row in adj:
            print("  ".join(f"{v:.4f}" for v in row))
    return 0


def _cmd_train(args) -> int:
    cfg = load_train_config(args.config) if args.config else TrainConfig()
    if args.ablation:
        cfg = dataclasses.replace(cfg, ablation=args.ablation)
    manifest = dataio.load_manifest(args.manifest)
    root = Path(args.manifest).parent
    _, logs = train(cfg, manifest, root, out_path=args.out)
    for log in logs:
        print(log.line())
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    ckpt = Checkpoint.load(args.checkpoint)
    manifest = dataio.load_manifest(args.manifest)
    report = evaluate(ckpt, manifest, Path(args.manifest).parent)
    print(report.to_text())
    if args.json:
        Path(args.json).write_text(report.to_json(name=args.name), encoding="utf-8")
        print(f"report written to {args.json}")
    return 0


def _cmd_predict(args) -> int:
    ckpt = Checkpoint.load(args.checkpoint)
    model = ckpt.build_model()
    img = dataio.load_ppm(args.image, size=ckpt.config.input_size)
    pred = predict_batch(model, img[None])[0]
    for name, p in zip(ckpt.label_names, pred):
        print(f"{name:<12}{p:.4f}")
    return 0


def _cmd_rank(args) -> int:
    print(rank_table([load_report(path) for path in args.reports]))
    return 0


def _cmd_baseline_knn(args) -> int:
    train_man = dataio.load_manifest(args.train)
    test_man = dataio.load_manifest(args.test)
    test_man.check_labels(train_man.label_names, "training manifest")
    size = args.size
    train_imgs = dataio.load_images(train_man, Path(args.train).parent, size)
    test_imgs = dataio.load_images(test_man, Path(args.test).parent, size)
    preds = aaknn_predict(train_imgs, train_man.distributions(), test_imgs, k=args.k)
    report = evaluate_metrics(test_man.distributions(), preds)
    print(report.to_text())
    if args.json:
        Path(args.json).write_text(report.to_json(name=f"AA-kNN(k={args.k})"),
                                   encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="styledl",
                                     description="emotion distribution learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic labelled corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--labels", type=int, default=8)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("build-adj", help="co-occurrence adjacency from a manifest",
                       description="The static label graph that training builds: presence "
                                   f"cut {dataio.PRESENCE_T}, edge cut {dataio.EDGE_T}.")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_build_adj)

    p = sub.add_parser("train", help="train on a manifest")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--ablation", default=None,
                   help=f"override preset ({', '.join(sorted(ABLATION_PRESETS))})")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="metric report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--json", default=None, help="write the report as JSON here")
    p.add_argument("--name", default="Ours", help="method name stored in the report")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="distribution for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("rank", help="average-rank table from report files")
    p.add_argument("--reports", nargs="+", required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("baseline-knn", help="nearest-neighbour baseline")
    p.add_argument("--train", required=True, help="training manifest")
    p.add_argument("--test", required=True, help="test manifest")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_baseline_knn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
