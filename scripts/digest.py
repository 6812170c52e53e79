"""Byte-identity digests: SHA-256 prefixes of the synthetic corpus, the
trained checkpoint and the predictions for a list of preset/size pairs.

A change that should keep what the package computes (a refactor, or a
speed-up that keeps the arithmetic) leaves every digest as it was; run
this on the parent and on the change and compare the two outputs. For
each pair the protocol is:

- corpus: `synth_generate(seed=4, n_samples=16, n_labels=8)` at the
  pair's size; its digest covers every file's name and bytes, in name
  order (the PPM images and `manifest.txt`);
- checkpoint: `train` with `TrainConfig(ablation=preset, input_size=size,
  seed=9, lr=0.001, batch_size=8, epochs=2)`, saved with
  `Checkpoint.save`; the digest is of the file's bytes;
- predictions: `predict_batch` of the model rebuilt from the reloaded
  checkpoint, over the corpus at the pair's size; the digest is of the
  float64 [N, C] array's bytes in C order.

Run with one BLAS thread (`OPENBLAS_NUM_THREADS=1`), as the recorded
digests were, so that no result depends on how a GEMM was split. The
checkpoint and prediction digests also depend on the OpenBLAS kernel, so
the first line of the output names the kernel and the thread count of the
library numpy bundles (`unknown` where it cannot be read).
"""

import argparse
import ctypes
import hashlib
import pathlib
import tempfile

import numpy as np

from styledl.dataio import load_images, synth_generate
from styledl.training import Checkpoint, TrainConfig, predict_batch, train

PAIRS = ["full:64", "B:64", "inter_only:64", "static_gcn_only:64", "B+G:64", "noAN:64",
         "B:128", "full:96"]
PREFIX = 12


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:PREFIX]


def blas_kernel() -> tuple[str, str]:
    """(core, threads) of the OpenBLAS bundled with numpy, read with ctypes;
    `unknown` for what the library or its symbols do not give."""
    here = pathlib.Path(np.__file__).parent
    found = sorted([*here.parent.glob("numpy.libs/*openblas*"), *here.glob(".dylibs/*openblas*")])
    try:
        lib = ctypes.CDLL(str(found[0]))
    except (IndexError, OSError):
        return "unknown", "unknown"

    def read(name, restype):
        fn = getattr(lib, name, None)
        if fn is None:
            return "unknown"
        fn.argtypes, fn.restype = [], restype
        return fn()

    core = read("scipy_openblas_get_corename64_", ctypes.c_char_p)
    threads = read("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return core.decode() if isinstance(core, bytes) else "unknown", str(threads)


def corpus_digest(root: pathlib.Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.iterdir()):
        h.update(path.name.encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:PREFIX]


def pair_digests(preset: str, size: int, workdir: pathlib.Path) -> tuple[str, str, str]:
    """(corpus, checkpoint, predictions) digests of one preset/size pair."""
    root = workdir / f"corpus_{size}"
    manifest = synth_generate(seed=4, n_samples=16, n_labels=8, input_size=size, out_dir=root)
    cfg = TrainConfig(ablation=preset, input_size=size, seed=9, lr=0.001,
                      batch_size=8, epochs=2)
    ckpt_path = workdir / "model.ckpt"
    train(cfg, manifest, root, out_path=ckpt_path)
    model = Checkpoint.load(ckpt_path).build_model()
    preds = predict_batch(model, load_images(manifest, root, size))
    return (corpus_digest(root), _sha(ckpt_path.read_bytes()),
            _sha(np.ascontiguousarray(preds, dtype=np.float64).tobytes()))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pairs", nargs="+", default=PAIRS, metavar="PRESET:SIZE",
                    help="preset/size pairs (default: the 8 recorded ones)")
    ap.add_argument("--workdir", default=None,
                    help="corpus and checkpoint directory (default: fresh temp dir)")
    args = ap.parse_args()

    workdir = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="digest_"))
    workdir.mkdir(parents=True, exist_ok=True)
    core, threads = blas_kernel()
    print(f"OpenBLAS core {core}, {threads} thread(s)")
    print(f"{'preset':16s} {'size':>4s}  {'corpus':12s}  {'checkpoint':12s}  predictions")
    for pair in args.pairs:
        preset, size = pair.rsplit(":", 1)
        corpus, ckpt, preds = pair_digests(preset, int(size), workdir)
        print(f"{preset:16s} {size:>4s}  {corpus}  {ckpt}  {preds}")


if __name__ == "__main__":
    main()
