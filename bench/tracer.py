"""Outside-in tracer for the styledl benchmark.

It records spans by wrapping the public functions each styledl layer
exposes, at the place where the caller looks them up: `T.conv2d` is
resolved on `styledl.tensor` at call time, while `fpn_fuse`,
`encode_orders`, `gram`, ... are imported by name into `styledl.model`,
and `pred_loss`, `load_images`, ... into `styledl.training`. No file of
the package is changed; `restore()` puts every original attribute back,
and `snapshot()`/`unchanged()` let a caller check that it did.

Three kinds of span are kept:

* op spans (`tensor.*`) record self time, and a call is counted only
  when no span of the same kind is already open, so an op that calls
  another op of its kind (`linear` -> `matmul`, `flatten` -> `reshape`)
  counts, and is timed, once;
* module, phase and call spans record inclusive time;
* the backward of every op output is timed by wrapping its `_grad_fn`
  and attributed to the op kind and to the module span that was open
  when the op ran. `Tensor.backward` self time, with the grad closures
  taken out, is the walk over the tape.

The wrappers only time and count; they never touch an array, so a
traced run computes bit-identical results.
"""
from __future__ import annotations

import os
import time
from collections import defaultdict

from styledl import backbone, dataio, fusion, gcn, hoa, metrics, model, style, tensor, training

perf = time.perf_counter

OP_KINDS = ("conv2d.k3", "conv2d.k1", "layer_norm", "resample_nearest", "matmul", "concat",
            "elementwise", "activation", "reduction", "shape")

MODULES = ("backbone.stem", "backbone.deep", "style.gram", "style.stack_grams",
           "style.inter_layer", "hoa.attention", "hoa.fpn_fuse", "hoa.adversary",
           "fusion.head", "fusion.pool", "gcn.forward", "losses.pred_loss")

PHASES = ("forward", "loss", "backward", "sgd", "snapshot")

CALLS = {
    "training.checkpoint.save": "training.checkpoint.save_ms",
    "training.checkpoint.load": "training.checkpoint.load_ms",
    "training.checkpoint.build_model": "training.checkpoint.build_model_ms",
    "training.predict_batch": "training.predict_batch_ms",
    "metrics.evaluate_metrics": "metrics.evaluate_metrics_ms",
    "dataio.synth_generate": "dataio.synth_generate_ms",
    "dataio.load_images": "dataio.load_images_ms",
    "dataio.cooccurrence_adjacency": "dataio.cooccurrence_adjacency_ms",
}


def _owners() -> tuple:
    """Every namespace `Tracer.install` patches an attribute of."""
    return (tensor, tensor.Tensor, tensor.SGD, backbone.Backbone, style.InterLayerCorrelation,
            hoa.HighOrderAttention, fusion.FusionHead, gcn.StylisticGcn,
            model, model.EmotionDistributionNet, training, training.Checkpoint, metrics, dataio)


def snapshot() -> list[tuple[object, dict]]:
    """The attributes of every patched namespace, taken before `install()`."""
    return [(owner, dict(vars(owner))) for owner in _owners()]


def unchanged(before: list[tuple[object, dict]]) -> bool:
    """True when every attribute in `before` is again the very same object."""
    missing = object()
    return all(vars(owner).get(name, missing) is value
               for owner, attrs in before for name, value in attrs.items())


def _conv_key(x, w, b=None, stride=1, pad=0):
    k = w.shape[-1]
    if k != 3:
        return (f"tensor.conv2d.k{k}",)
    row = f"tensor.conv2d.k3.c{x.shape[1]}_h{x.shape[2]}_s{stride}"
    return ("tensor.conv2d.k3", row)


def conv_k3_rows(input_size: int, stack_side: int | None, channels: tuple[int, ...],
                 style_width: int) -> list[str]:
    """Row names of every 3x3 conv the model runs at `input_size`.

    Each backbone stage is a stride-2 conv then a stride-1 conv; the style
    path adds two stride-2 convs over the stacked Gram maps when it exists.
    """
    rows = []
    side = input_size
    for cin, cout in zip(channels[:-1], channels[1:]):
        rows.append(f"c{cin}_h{side}_s2")
        side //= 2
        rows.append(f"c{cout}_h{side}_s1")
    if stack_side is not None:
        rows.append(f"c3_h{stack_side}_s2")
        rows.append(f"c{style_width}_h{stack_side // 2}_s2")
    return rows


class Tracer:
    """Span and count recorder over the imported styledl package.

    `install()` patches, `restore()` unpatches; `reset()` drops what was
    recorded so far (used to leave warm-up work out of the numbers).
    """

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self._modules: list[str] = []
        self._open_ops: dict[str, int] = defaultdict(int)
        self.reset()

    # ---------------------------------------------------------- recording
    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.fwd: dict[str, float] = defaultdict(float)
        self.bwd: dict[str, float] = defaultdict(float)
        self.bytes: dict[str, int] = defaultdict(int)
        self.step_s: list[float] = []
        self.tape_nodes = 0
        self._train_depth = 0
        self._step_start: float | None = None

    def _enter(self) -> tuple[list[float], float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame, perf()

    def _leave(self, frame: list[float], t0: float) -> tuple[float, float]:
        """Close a span; returns (inclusive, self) seconds."""
        end = perf()
        dt = end - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        return dt, dt - frame[0]

    def _wrap_grad(self, out, keys: tuple[str, ...]) -> None:
        gf = getattr(out, "_grad_fn", None)
        if gf is None or getattr(gf, "_traced", False):
            return
        module = self._modules[-1] if self._modules else None
        bwd = self.bwd
        stack = self._stack

        def grad_fn(g):
            t0 = perf()
            try:
                gf(g)
            finally:
                dt = perf() - t0
                if stack:
                    stack[-1][0] += dt
                for key in keys:
                    bwd[key] += dt
                if module is not None:
                    bwd[module] += dt

        grad_fn._traced = True
        out._grad_fn = grad_fn
        self.tape_nodes += 1

    def _op(self, fn, key):
        def wrapper(*args, **kwargs):
            keys = key(*args, **kwargs) if callable(key) else (key,)
            outer = [k for k in keys if not self._open_ops[k]]
            for k in keys:
                self._open_ops[k] += 1
            frame, t0 = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                _, own = self._leave(frame, t0)
                for k in keys:
                    self._open_ops[k] -= 1
                    self.fwd[k] += own
                for k in outer:
                    self.calls[k] += 1
            self._wrap_grad(out, keys)
            return out

        return wrapper

    def _span(self, fn, keys: tuple[str, ...], module: bool = False, after=None):
        def wrapper(*args, **kwargs):
            if module:
                self._modules.append(keys[0])
            frame, t0 = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                total, own = self._leave(frame, t0)
                if module:
                    self._modules.pop()
                for k in keys:
                    self.calls[k] += 1
                    self.fwd[k] += total
            if after is not None:
                after(args, kwargs, total, own, t0)
            return out

        return wrapper

    # ------------------------------------------------------------ patching
    def _patch(self, owner, name: str, make) -> None:
        if owner not in _owners():
            raise RuntimeError(f"{owner!r} is missing from the tracer's owner list")
        raw = owner.__dict__[name]
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, name, raw))
        setattr(owner, name, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        T, Tensor = tensor, tensor.Tensor
        for name, kind in (("conv2d", _conv_key), ("layer_norm", "layer_norm"),
                           ("resample_nearest", "resample_nearest"), ("matmul", "matmul"),
                           ("linear", "matmul"), ("concat", "concat"), ("add", "elementwise"),
                           ("mul", "elementwise"), ("grad_reverse", "elementwise"),
                           ("repeat_axis", "shape")):
            key = kind if callable(kind) else f"tensor.{kind}"
            self._patch(T, name, lambda f, k=key: self._op(f, k))
        for name, kind in (("reshape", "shape"), ("transpose", "shape"), ("flatten", "shape"),
                           ("sum", "reduction"), ("mean", "reduction"), ("max", "reduction"),
                           ("relu", "activation"), ("leaky_relu", "activation"),
                           ("sigmoid", "activation"), ("softmax", "activation"),
                           ("log", "activation"), ("clamp_min", "activation")):
            self._patch(Tensor, name, lambda f, k=f"tensor.{kind}": self._op(f, k))

        for owner, name, key in (
                (backbone.Backbone, "taps", "backbone.stem"),
                (model, "encode_orders", "backbone.deep"),
                (model, "gram", "style.gram"),
                (model, "stack_grams", "style.stack_grams"),
                (style.InterLayerCorrelation, "__call__", "style.inter_layer"),
                (hoa.HighOrderAttention, "__call__", "hoa.attention"),
                (model, "fpn_fuse", "hoa.fpn_fuse"),
                (model, "adversary_loss", "hoa.adversary"),
                (fusion.FusionHead, "__call__", "fusion.head"),
                (model, "pooled_distribution", "fusion.pool"),
                (model, "style_distribution", "fusion.pool"),
                (model, "emotion_distribution", "fusion.pool"),
                (gcn.StylisticGcn, "__call__", "gcn.forward")):
            self._patch(owner, name, lambda f, k=key: self._span(f, (k,), module=True))
        self._patch(training, "pred_loss",
                    lambda f: self._span(f, ("losses.pred_loss", "training.loss"), module=True))

        Net, SGD = model.EmotionDistributionNet, T.SGD
        self._patch(Net, "forward", lambda f: self._span(
            f, ("training.forward",), after=self._after_forward))
        for owner, name in ((Net, "adversary"), (training, "total_loss")):
            self._patch(owner, name, lambda f: self._span(f, ("training.loss",)))
        self._patch(Tensor, "backward", lambda f: self._span(
            f, ("training.backward",), after=self._after_backward))
        self._patch(SGD, "zero_grad", lambda f: self._span(f, ("training.sgd",)))
        self._patch(SGD, "step", lambda f: self._span(f, ("training.sgd",), after=self._after_sgd))
        self._patch(training, "_snapshot", lambda f: self._span(f, ("training.snapshot",)))
        self._patch(training, "train", self._wrap_train)

        ckpt = training.Checkpoint
        for name, path_arg in (("save", 1), ("load", 0)):
            key = f"training.checkpoint.{name}"
            self._patch(ckpt, name, lambda f, k=key, i=path_arg: self._span(
                f, (k,), after=self._after_file(k, i)))
        for owner, name, key in (
                (ckpt, "build_model", "training.checkpoint.build_model"),
                (training, "predict_batch", "training.predict_batch"),
                (metrics, "evaluate_metrics", "metrics.evaluate_metrics"),
                (training, "evaluate_metrics", "metrics.evaluate_metrics"),
                (dataio, "synth_generate", "dataio.synth_generate"),
                (dataio, "load_images", "dataio.load_images"),
                (training, "load_images", "dataio.load_images"),
                (dataio, "cooccurrence_adjacency", "dataio.cooccurrence_adjacency"),
                (training, "cooccurrence_adjacency", "dataio.cooccurrence_adjacency")):
            self._patch(owner, name, lambda f, k=key: self._span(f, (k,)))

    def restore(self) -> None:
        """Put every original back."""
        for owner, name, raw in reversed(self._patches):
            setattr(owner, name, raw)
        self._patches.clear()

    # ------------------------------------------------------------- hooks
    def _wrap_train(self, fn):
        inner = self._span(fn, ("training.train",))

        def wrapper(*args, **kwargs):
            self._train_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._train_depth -= 1
                self._step_start = None

        return wrapper

    def _after_forward(self, args, kwargs, total, own, t0):
        if self._train_depth:
            self._step_start = t0

    def _after_sgd(self, args, kwargs, total, own, t0):
        if self._step_start is not None:
            self.step_s.append(t0 + total - self._step_start)
            self._step_start = None

    def _after_backward(self, args, kwargs, total, own, t0):
        self.fwd["tensor.backward.walk"] += own

    def _after_file(self, key: str, path_index: int):
        def hook(args, kwargs, total, own, t0):
            path = kwargs.get("path", args[path_index] if len(args) > path_index else None)
            self.bytes[key] += os.path.getsize(path)

        return hook
