"""Memorization sanity run: train on a tiny synthetic corpus until the
model reproduces the training distributions almost exactly.

A healthy configuration drives the mean training KL on the final mixed
distribution well below 0.05 within the preset budget.
"""

import argparse
import pathlib
import tempfile
import time

from styledl.dataio import synth_generate
from styledl.training import TrainConfig, evaluate, train


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=16, help="corpus size")
    ap.add_argument("--labels", type=int, default=8)
    ap.add_argument("--size", type=int, default=64, help="image side in pixels")
    ap.add_argument("--epochs", type=int, default=300)
    ap.add_argument("--ablation", default="full")
    ap.add_argument("--workdir", default=None,
                    help="corpus directory (default: fresh temp dir)")
    args = ap.parse_args()

    root = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="overfit_"))
    manifest = synth_generate(seed=args.seed, n_samples=args.n,
                              n_labels=args.labels, input_size=args.size,
                              out_dir=root)
    cfg = TrainConfig.overfit(seed=args.seed, epochs=args.epochs,
                              ablation=args.ablation, input_size=args.size)

    start = time.time()
    checkpoint, logs = train(cfg, manifest, root)
    elapsed = time.time() - start

    for log in logs:
        if log.epoch % 25 == 0 or log.epoch == 1:
            print(log.line())

    report = evaluate(checkpoint, manifest, root)
    print(f"\ncorpus dir      {root}")
    print(f"elapsed         {elapsed:.1f}s")
    print(f"final pred loss {logs[-1].pred_loss:.6f}")
    print(f"mean train KL   {report.mean['kl']:.6f}  (target < 0.05)")


if __name__ == "__main__":
    main()
