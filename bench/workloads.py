"""One styledl benchmark workload, run in the current process.

`bench/run.py` starts this file in a child process with the BLAS thread
count already set; see that file for the command line. The workloads are
closed loops with one client: each operation starts when the previous one
has finished. Every input comes from `synth_generate(--seed)` (8 labels);
the model seed is fixed, so the same `--seed` gives the same inputs and
the same outputs.

* `train-full`: `train()` with preset `full` at 64 px, then repeated
  `Checkpoint.save`; every layer of the model does work here.
* `train-backbone-128`: `train()` with preset `B` at 128 px; the same
  conv and layer_norm kernels at large spatial extent with few channels,
  while style, attention, FPN, resample, adversary and GCN do no work.
* `predict`: forward only. Each round loads the checkpoint written in
  set-up, rebuilds the model, predicts the corpus at batch 16 (the
  `evaluate` path) and then single images (the `styledl predict` path).

Every workload reports every end-to-end metric, measured on that
workload's own session: on the train workloads each round trains, saves,
and then predicts from the saved checkpoint; on `predict` the `train.*`
and `ckpt.save_ms` numbers come from a training phase, a quarter of the
run, that rewrites the checkpoint before the forward-only loop. Timings
are medians over the run's operations, and the latency tail is the 90th
percentile of the single-image predictions. `peak_heap_mb` is the peak memory allocated
by one operation of the timed loop alone (a train-and-save on the train
workloads, a load-and-predict on `predict`), measured with `tracemalloc`
in one extra, untimed operation after the loop, so neither set-up nor the
other half of a round hides it.

On a shared virtual machine the host's speed drifts by a quarter or more
over seconds to minutes, far more than the bounds a regression check
needs. So every round, and every set-up repetition, is followed by
`reference_kernel`: a fixed numpy conv block that uses no styledl code.
Each end-to-end time is scaled by `REF_KERNEL_S` over the kernel's median
time in the same phase of the run (set-up, training phase or main loop),
which states it at the speed of a reference host; rates are scaled the
other way. The unscaled values and the kernel times are printed on the
line before the result.

With `--trace 1` the run measures only the workload's main loop: half of
the time untraced, half under `tracer.Tracer`; it reports the per-layer
metrics (unscaled) and the tracing overhead (scaled by the kernel times of
each half), and checks that traced and untraced results are bit-identical.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import styledl  # noqa: E402
from styledl import backbone, dataio, metrics, model, training  # noqa: E402
from styledl.training import Checkpoint, TrainConfig  # noqa: E402
from tracer import (CALLS, MODULES, OP_KINDS, PHASES, Tracer, conv_k3_rows, snapshot,  # noqa: E402
                    unchanged)

perf = time.perf_counter

N_LABELS = 8
TRAIN_BATCH = 8
EPOCHS = 1
PREDICT_BATCH = 16
LR = 0.001
MODEL_SEED = 0
BATCH1_RTOL = 1e-9       # batch-1 vs batch-16 predictions: same math, other BLAS blocking
BATCH1_ATOL = 1e-12
REF_KERNEL_S = 2.5e-3    # reference_kernel on the reference host (2 vCPU x86_64, 1 BLAS thread)
KERNEL_RUNS = 3          # reference_kernel runs after each round and set-up repetition
PREDICT_TRAIN_SHARE = 0.25  # of --seconds on `predict`, training before the predict loop
SETUP_SHARE = 0.1        # of --seconds, the least time spent repeating set-up (a cheap one
                         # repeated 5 times spreads by ~17% run to run)


@dataclass(frozen=True)
class Workload:
    ablation: str
    size: int
    trains: bool  # the timed loop trains; otherwise it predicts from a set-up checkpoint


WORKLOADS = {
    "train-full": Workload("full", 64, True),
    "train-backbone-128": Workload("B", 128, True),
    "predict": Workload("full", 64, False),
}


@dataclass(frozen=True)
class Scale:
    """How much work one run does; the self-test shrinks it."""

    images: int = 64
    setup_repeats: int = 5
    save_repeats: int = 5
    single_images: int = 8
    min_ops: int = 3


END_TO_END = {
    "setup_s": "s",
    "train.samples_per_s": "1/s",
    "train.loss_final": "nats",
    "ckpt.save_ms": "ms",
    "ckpt.load_ms": "ms",
    "predict.images_per_s": "1/s",
    "predict.latency_ms.p50": "ms",
    "predict.latency_ms.p90": "ms",
    "peak_heap_mb": "MB",
    "ok_share": "share",
}

# end-to-end timings stated at the reference host's speed -> the samples they come from
SCALED = {
    "setup_s": "setup_s",
    "train.samples_per_s": "train_s",
    "ckpt.save_ms": "ckpt.save_ms",
    "ckpt.load_ms": "ckpt.load_ms",
    "predict.images_per_s": "predict_batch_s",
    "predict.latency_ms.p50": "predict.latency_ms",
    "predict.latency_ms.p90": "predict.latency_ms",
}


def conv_rows() -> list[str]:
    """Every 3x3 conv row over all workloads, in first-seen order."""
    cfg = backbone.BackboneConfig()
    channels = (cfg.in_channels,) + cfg.stage_channels
    rows: dict[str, None] = {}
    for w in WORKLOADS.values():
        # the style path stacks the Gram maps at the widest early tap's channel count
        side = max(cfg.stage_channels[:3]) if model.ABLATION_PRESETS[w.ablation].style else None
        for row in conv_k3_rows(w.size, side, channels, model.STYLE_WIDTHS[0]):
            rows[row] = None
    return list(rows)


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for kind in OP_KINDS:
        units[f"tensor.{kind}.calls"] = "count"
        units[f"tensor.{kind}.fwd_ms"] = "ms"
        units[f"tensor.{kind}.bwd_ms"] = "ms"
    for row in conv_rows():
        units[f"tensor.conv2d.k3.{row}.fwd_ms"] = "ms"
        units[f"tensor.conv2d.k3.{row}.bwd_ms"] = "ms"
    units["tensor.backward.walk_ms"] = "ms"
    units["tensor.tape_nodes"] = "count"
    units["training.step_ms.p50"] = "ms"
    units["training.step_ms.p90"] = "ms"
    for phase in PHASES + ("other",):
        units[f"training.{phase}_ms"] = "ms"
    units["training.checkpoint.bytes"] = "B"
    for metric in CALLS.values():
        units[metric] = "ms"
    for module in MODULES:
        units[f"{module}.fwd_ms"] = "ms"
        units[f"{module}.bwd_ms"] = "ms"
    units["trace.overhead_share"] = "ratio"
    return units


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict form
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ------------------------------------------------------------- recording
_KX = np.random.default_rng(0).normal(size=(8, 16, 18, 18))
_KW = np.random.default_rng(1).normal(size=(16, 16 * 9)) * 0.1


def reference_kernel() -> float:
    """Seconds for one fixed 3x3 conv + normalize + relu block, forward and
    backward, in plain numpy, plus a loop of small Python objects: the same
    mix of work as the package, but none of its code."""
    t0 = perf()
    cols = np.empty((8, 16, 3, 3, 16, 16))
    for ki in range(3):
        for kj in range(3):
            cols[:, :, ki, kj] = _KX[:, :, ki:ki + 16, kj:kj + 16]
    cols = cols.reshape(8, 144, 256)
    out = np.matmul(_KW, cols)
    centered = out - out.mean(axis=(1, 2), keepdims=True)
    y = np.maximum(centered / np.sqrt((centered * centered).mean(axis=(1, 2), keepdims=True)
                                      + 1e-6), 0.0)
    g = (y > 0) * 1.0
    np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)
    g6 = np.matmul(_KW.T, g).reshape(8, 16, 3, 3, 16, 16)
    gx = np.zeros_like(_KX)
    for ki in range(3):
        for kj in range(3):
            gx[:, :, ki:ki + 16, kj:kj + 16] += g6[:, :, ki, kj]
    tape = [(lambda i=i: i, (i,)) for i in range(300)]
    del tape
    return perf() - t0


class Operation:
    def __init__(self, what: str):
        self.what = what
        self.ok = True

    def expect(self, cond: bool, message: str) -> None:
        if not cond and self.ok:
            print(f"check failed in {self.what}: {message}", file=sys.stderr)
        self.ok = self.ok and bool(cond)


class Recorder:
    """Counts operations and failed ones, and keeps timing samples and the
    reference-kernel times of the phase each sample was taken in."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.timing = True
        self.phase = "setup"
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.phase_of: dict[str, str] = {}
        self.kernel_s: dict[str, list[float]] = defaultdict(list)

    def add(self, metric: str, value: float) -> None:
        if self.timing:
            self.samples[metric].append(value)
            self.phase_of[metric] = self.phase

    def calibrate(self) -> None:
        for _ in range(KERNEL_RUNS):
            self.kernel_s[self.phase].append(reference_kernel())

    def slowdown(self, metric: str) -> float:
        """Reference kernel time in `metric`'s phase over its reference time."""
        times = self.kernel_s[self.phase_of.get(metric, "run")]
        return statistics.median(times) / REF_KERNEL_S if times else 1.0

    @contextmanager
    def operation(self, what: str):
        op = Operation(what)
        self.attempted += 1
        try:
            yield op
        except Exception:  # a benchmark operation that raises is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            op.ok = False
        if not op.ok:
            self.failed += 1


def _is_distribution(rows: np.ndarray) -> bool:
    return bool(np.isfinite(rows).all() and (rows >= 0).all()
                and np.allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-9))


def _identical(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_identical(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_identical(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


# --------------------------------------------------------------- session
class Session:
    def __init__(self, name: str, seed: int, workdir: Path, scale: Scale):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.dir = workdir
        self.scale = scale
        self.cfg = TrainConfig(ablation=self.w.ablation, input_size=self.w.size,
                               batch_size=TRAIN_BATCH, epochs=EPOCHS, lr=LR,
                               lr_decay=1.0, flip=True, seed=MODEL_SEED)
        self.ckpt_path = workdir / "model.ckpt"
        self.rec = Recorder()
        self.ckpt: Checkpoint | None = None
        self.reference: np.ndarray | None = None

    # ------------------------------------------------------------ set-up
    def make_corpus(self, out: Path) -> None:
        if out.exists():
            shutil.rmtree(out)
        self.root = out
        self.manifest = dataio.synth_generate(self.seed, self.scale.images, N_LABELS,
                                              self.w.size, out)
        self.targets = self.manifest.distributions()
        self.images = dataio.load_images(self.manifest, out, self.w.size)
        dataio.cooccurrence_adjacency(self.manifest)

    def setup(self, repeats: int, seconds: float = 0.0) -> None:
        """Corpus, images and model build; on `predict` also the training
        that writes the checkpoint and the in-memory reference predictions.
        Repeated at least `repeats` times and for at least `seconds`."""
        rec = self.rec
        rec.phase = "setup"
        deadline = perf() + seconds
        done = 0
        while done < repeats or perf() < deadline:
            done += 1
            rec.timing = False
            t0 = perf()
            self.make_corpus(self.dir / "corpus")
            if self.w.trains:
                training.build_model(self.cfg, N_LABELS)
            else:
                self.train_op()
                self.set_reference()
            elapsed = perf() - t0
            rec.timing = True
            rec.add("setup_s", elapsed)
            rec.calibrate()
        rec.phase = "run"

    def set_reference(self) -> None:
        if self.ckpt is not None:
            self.reference = training.predict_batch(self.ckpt.build_model(), self.images,
                                                    PREDICT_BATCH)

    # -------------------------------------------------------- operations
    def train_op(self):
        rec = self.rec
        ckpt = None
        with rec.operation("train") as op:
            t0 = perf()
            ckpt, logs = training.train(self.cfg, self.manifest, self.root)
            dt = perf() - t0
            loss = logs[-1].pred_loss
            op.expect(math.isfinite(loss), f"train.loss_final {loss} is not finite")
            rec.add("train_s", dt)
            rec.add("train.loss_final", loss)
        if ckpt is None:
            return None
        for _ in range(self.scale.save_repeats):
            with rec.operation("save"):
                t0 = perf()
                ckpt.save(self.ckpt_path)
                rec.add("ckpt.save_ms", (perf() - t0) * 1e3)
        self.ckpt = ckpt
        return {"params": ckpt.params, "velocity": ckpt.velocity, "loss": np.array(loss)}

    def predict_op(self):
        rec = self.rec
        net = None
        with rec.operation("load"):
            t0 = perf()
            net = Checkpoint.load(self.ckpt_path).build_model()
            rec.add("ckpt.load_ms", (perf() - t0) * 1e3)
        if net is None:
            return None
        preds = None
        with rec.operation("predict_batch") as op:
            t0 = perf()
            preds = training.predict_batch(net, self.images, PREDICT_BATCH)
            rec.add("predict_batch_s", perf() - t0)
            metrics.evaluate_metrics(self.targets, preds)
            op.expect(_is_distribution(preds), "prediction rows are not finite distributions")
            op.expect(self.reference is not None and np.array_equal(preds, self.reference),
                      "loaded checkpoint does not reproduce the in-memory model bit-exactly "
                      "(or training is not deterministic)")
        if preds is None:
            return None
        singles = []
        for i in range(min(self.scale.single_images, len(self.images))):
            with rec.operation("predict_one") as op:
                t0 = perf()
                one = training.predict_batch(net, self.images[i:i + 1])
                rec.add("predict.latency_ms", (perf() - t0) * 1e3)
                op.expect(_is_distribution(one), "prediction row is not a finite distribution")
                op.expect(np.allclose(one[0], preds[i], rtol=BATCH1_RTOL, atol=BATCH1_ATOL),
                          f"batch-1 prediction of image {i} differs from its batch-16 row")
                singles.append(one)
        return [preds, singles]

    def warm_up(self, op):
        """Run `op` once with its timings left out."""
        self.rec.timing = False
        out = op()
        self.rec.timing = True
        return out

    def peak_heap_mb(self, op) -> float:
        """Peak memory allocated while `op` runs once, untimed: tracemalloc
        sees every Python object and numpy buffer, but slows allocation."""
        tracemalloc.start()
        try:
            self.warm_up(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def loop(self, op, seconds: float) -> list[float]:
        """Closed loop: timed ops, each started when the last one ends."""
        durations = []
        deadline = perf() + seconds
        while perf() < deadline or len(durations) < self.scale.min_ops:
            t0 = perf()
            op()
            durations.append(perf() - t0)
            self.rec.calibrate()
        return durations

    # -------------------------------------------------------------- runs
    def run_plain(self, seconds: float) -> tuple[dict, dict]:
        self.setup(self.scale.setup_repeats, seconds * SETUP_SHARE)
        if self.w.trains:
            # each round trains, saves, then predicts from the saved checkpoint,
            # so every metric samples the whole run
            self.warm_up(self.train_op)
            self.set_reference()
            op = lambda: (self.train_op(), self.predict_op())  # noqa: E731
        else:
            # a training phase that rewrites the checkpoint, then the forward-only loop
            self.rec.phase = "train"
            self.loop(self.train_op, seconds * PREDICT_TRAIN_SHARE)
            self.rec.phase = "run"
            seconds *= 1.0 - PREDICT_TRAIN_SHARE
            op = self.predict_op
        self.warm_up(op)
        self.loop(op, seconds)
        peak_mb = self.peak_heap_mb(self.train_op if self.w.trains else self.predict_op)
        rec = self.rec
        s = rec.samples
        latency = s["predict.latency_ms"]
        # The host's speed switches between a fast and a slow state for
        # seconds at a time, so a median taken alone jumps between the two;
        # scaled by the kernel's median over the same stretch, it does not.
        values = {
            "setup_s": _median(s["setup_s"]),
            "train.samples_per_s": _rate(len(self.images) * EPOCHS, s["train_s"]),
            "train.loss_final": _mean(s["train.loss_final"]),
            "ckpt.save_ms": _median(s["ckpt.save_ms"]),
            "ckpt.load_ms": _median(s["ckpt.load_ms"]),
            "predict.images_per_s": _rate(len(self.images), s["predict_batch_s"]),
            "predict.latency_ms.p50": _median(latency),
            "predict.latency_ms.p90": _quantile(latency, 0.9),
            "peak_heap_mb": peak_mb,
            "ok_share": 1.0 - rec.failed / max(1, rec.attempted),
        }
        detail = {"samples": {k: len(v) for k, v in s.items()},
                  "uncalibrated": {m: values[m] for m in SCALED},
                  "reference_kernel_ms": {p: statistics.median(t) * 1e3
                                          for p, t in rec.kernel_s.items()}}
        for metric, source in SCALED.items():
            slowdown = rec.slowdown(source)
            values[metric] *= slowdown if metric.endswith("_per_s") else 1.0 / slowdown
        return values, detail

    def run_traced(self, seconds: float) -> tuple[dict, dict]:
        self.setup(1)
        op = self.train_op if self.w.trains else self.predict_op
        reference = self.warm_up(op)
        rec = self.rec
        rec.phase = "untraced"
        untraced = self.loop(op, seconds / 2)
        rec.phase = "traced"
        before = snapshot()
        tr = Tracer()
        try:
            tr.install()
            with rec.operation("trace-identity") as check:
                check.expect(_identical(self.warm_up(op), reference),
                             "traced results differ from untraced results")
            tr.reset()
            self.make_corpus(self.dir / "corpus-traced")
            traced = self.loop(op, seconds / 2)
        finally:
            tr.restore()
        with rec.operation("trace-restore") as check:
            check.expect(unchanged(before), "tracer left a patched attribute behind")
        with rec.operation("trace-conv-rows") as check:
            check_conv_rows(tr, check)
        values = layer_metrics(tr)
        # each half at the reference host's speed, as the end-to-end timings are
        kernel = {half: statistics.fmean(rec.kernel_s[half]) for half in ("untraced", "traced")}
        speed = kernel["traced"] / kernel["untraced"]
        values["trace.overhead_share"] = _mean(untraced) / _mean(traced) * speed
        counts = {"ops.untraced": len(untraced), "ops.traced": len(traced),
                  "forward_calls": tr.calls["training.forward"],
                  "train_steps": len(tr.step_s)}
        counts.update({CALLS[k]: tr.calls[k] for k in CALLS})
        return values, {"samples": counts}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _rate(work: int, durations: list[float]) -> float:
    """Work per second of the median timed operation."""
    return work / _median(durations) if durations else 0.0


def _quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def check_conv_rows(tr: Tracer, check: Operation) -> None:
    """Every 3x3 conv shape the tracer saw must be a reported row, and the
    rows must add up to the 3x3 total, so no conv time goes unreported."""
    rows = [f"tensor.conv2d.k3.{row}" for row in conv_rows()]
    seen = {k for k in tr.calls if k.startswith("tensor.conv2d.k3.")}
    check.expect(seen <= set(rows), f"3x3 conv shapes with no row: {sorted(seen - set(rows))}")
    for part in (tr.fwd, tr.bwd):
        total = part.get("tensor.conv2d.k3", 0.0)
        rows_sum = sum(part.get(row, 0.0) for row in rows)
        check.expect(math.isclose(rows_sum, total, rel_tol=1e-9, abs_tol=1e-12),
                     f"3x3 conv rows sum to {rows_sum} s, the total is {total} s")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer numbers from a traced window.

    Op, module and backward rows are per forward pass (= per train step on
    the train workloads); `training.*_ms` phase rows are per train step and
    read 0 where no training runs; call rows are per call.
    """
    forwards = max(1, tr.calls["training.forward"])
    steps = len(tr.step_s)
    out: dict[str, float] = {}
    for kind in OP_KINDS:
        key = f"tensor.{kind}"
        out[f"{key}.calls"] = tr.calls[key] / forwards
        out[f"{key}.fwd_ms"] = tr.fwd[key] * 1e3 / forwards
        out[f"{key}.bwd_ms"] = tr.bwd[key] * 1e3 / forwards
    for row in conv_rows():
        key = f"tensor.conv2d.k3.{row}"
        out[f"{key}.fwd_ms"] = tr.fwd[key] * 1e3 / forwards
        out[f"{key}.bwd_ms"] = tr.bwd[key] * 1e3 / forwards
    out["tensor.backward.walk_ms"] = tr.fwd["tensor.backward.walk"] * 1e3 / forwards
    out["tensor.tape_nodes"] = tr.tape_nodes / forwards
    out["training.step_ms.p50"] = _median(tr.step_s) * 1e3
    out["training.step_ms.p90"] = _quantile(tr.step_s, 0.9) * 1e3
    covered = 0.0
    for phase in PHASES:
        covered += tr.fwd[f"training.{phase}"]
        out[f"training.{phase}_ms"] = tr.fwd[f"training.{phase}"] * 1e3 / steps if steps else 0.0
    uncovered = tr.fwd["training.train"] - covered
    out["training.other_ms"] = uncovered * 1e3 / steps if steps else 0.0
    files = tr.calls["training.checkpoint.save"] + tr.calls["training.checkpoint.load"]
    out["training.checkpoint.bytes"] = (tr.bytes["training.checkpoint.save"]
                                        + tr.bytes["training.checkpoint.load"]) / max(1, files)
    for key, metric in CALLS.items():
        out[metric] = tr.fwd[key] * 1e3 / tr.calls[key] if tr.calls[key] else 0.0
    for module in MODULES:
        out[f"{module}.fwd_ms"] = tr.fwd[module] * 1e3 / forwards
        out[f"{module}.bwd_ms"] = tr.bwd[module] * 1e3 / forwards
    return out


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        scale: Scale = Scale()) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail: sample counts and,
    without tracing, the unscaled timings and reference-kernel times)."""
    session = Session(name, seed, workdir, scale)
    if trace:
        values, detail = session.run_traced(seconds)
        units = per_layer_units()
    else:
        values, detail = session.run_plain(seconds)
        units = END_TO_END
    rec = session.rec
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    return result, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()
    if Path(styledl.__file__).resolve().parent != ROOT / "src" / "styledl":
        print(f"error: imported styledl from {styledl.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    args.workdir.mkdir(parents=True, exist_ok=True)
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    print(json.dumps({"env": environment()}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
