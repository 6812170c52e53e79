"""Ablation comparison on a held-out split of a synthetic corpus.

Trains each requested preset with an identical recipe over several seeds
and reports the per-preset median of the test-set mean KL, lower is
better. Useful for checking that the style and attention machinery helps
rather than hurts when the corpus carries style-correlated labels.

`--json PATH` also writes every run: for each preset and seed, the six
metric means of `evaluate` on the test split and the final epoch's mean
training pred loss, next to the settings that produced them.
"""

import argparse
import json
import pathlib
import statistics
import tempfile
import time

from styledl.dataio import split_dataset, synth_generate
from styledl.training import TrainConfig, evaluate, train


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--presets", nargs="+", default=["B", "full"])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--n", type=int, default=200, help="corpus size")
    ap.add_argument("--labels", type=int, default=8)
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--lr", type=float, default=0.001)
    ap.add_argument("--split", type=float, default=0.8)
    ap.add_argument("--corpus-seed", type=int, default=100)
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--json", default=None, metavar="PATH", help="write every run as JSON")
    args = ap.parse_args()

    root = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="ablation_"))
    manifest = synth_generate(seed=args.corpus_seed, n_samples=args.n,
                              n_labels=args.labels, input_size=args.size,
                              out_dir=root)
    train_m, test_m = split_dataset(manifest, args.split, seed=args.corpus_seed)
    print(f"corpus {args.n} samples, {len(train_m.records)} train / "
          f"{len(test_m.records)} test, dir {root}\n")

    medians = {}
    runs = []
    for preset in args.presets:
        kls = []
        for seed in args.seeds:
            cfg = TrainConfig.overfit(seed=seed, ablation=preset,
                                      epochs=args.epochs, lr=args.lr,
                                      input_size=args.size)
            start = time.time()
            checkpoint, logs = train(cfg, train_m, root)
            means = evaluate(checkpoint, test_m, root).mean
            kl = means["kl"]
            kls.append(kl)
            runs.append({"preset": preset, "seed": seed, "metrics": means,
                         "train_pred_loss": logs[-1].pred_loss})
            print(f"  {preset:16s} seed {seed}  test KL {kl:.4f}  "
                  f"train pred {logs[-1].pred_loss:.4f}  "
                  f"({time.time() - start:.0f}s)")
        medians[preset] = statistics.median(kls)

    print("\npreset            median test KL")
    for preset, med in sorted(medians.items(), key=lambda kv: kv[1]):
        print(f"{preset:16s}  {med:.4f}")

    if args.json:
        settings = {k: getattr(args, k) for k in ("n", "labels", "size", "epochs", "lr",
                                                  "split", "corpus_seed")}
        doc = {"settings": settings, "presets": args.presets, "seeds": args.seeds, "runs": runs}
        pathlib.Path(args.json).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
