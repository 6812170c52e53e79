"""Training loop, schedule, binary checkpointing, and evaluation.

Determinism contract: given the same config (seed included) and manifest,
two runs produce identical epoch logs and byte-identical checkpoint
files. Everything random flows from two generators seeded off the config
seed, one for parameter init (inside the model) and one for data order
and flip decisions.
"""
from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import check_input_size
from .dataio import Manifest, cooccurrence_adjacency, load_images, load_pixels, read_utf8
from .errors import ConfigurationError, ContractViolation, FormatError, TrainingError
from .losses import pred_loss, total_loss
from .metrics import MetricReport, evaluate_metrics
from .model import ABLATION_PRESETS, EmotionDistributionNet
from .tensor import SGD, Tensor, no_grad, skip_init

# The public API, and `load_images`, which nothing here calls any more but
# which stays a name of this module: bench/tracer.py patches it here.
__all__ = ["CHECKPOINT_MAGIC", "Checkpoint", "EpochLog", "TrainConfig", "build_model", "evaluate",
           "load_images", "load_train_config", "lr_at", "predict_batch", "save_train_config",
           "train"]

CHECKPOINT_MAGIC = b"SEDL1"


@dataclass(frozen=True)
class TrainConfig:
    """Every hyper-parameter's one home: its default and its range."""

    R: int = 2
    lam: float = 0.8
    mu: float = 0.6
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 8
    epochs: int = 90
    lr_decay: float = 10.0
    seed: int = 0
    ablation: str = "full"
    input_size: int = 64
    flip: bool = True
    gram_normalize: bool = False

    def __post_init__(self):
        if self.ablation not in ABLATION_PRESETS:
            raise ConfigurationError(f"unknown ablation '{self.ablation}'")
        if self.R < 1 or self.batch_size < 1 or self.epochs < 1:
            raise ConfigurationError("R, batch_size and epochs must be positive")
        if not (0 < self.lr < math.inf and 1 <= self.lr_decay < math.inf):
            raise ConfigurationError("lr must be positive and lr_decay >= 1, both finite")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigurationError(f"weight_decay {self.weight_decay} must be finite and >= 0")
        if not 0 <= self.lam < math.inf:
            raise ConfigurationError(f"lam {self.lam} must be finite and >= 0")
        if not 0 <= self.mu <= 1:
            raise ConfigurationError(f"mu {self.mu} must be in [0, 1]")
        if not 0 <= self.momentum < 1:
            raise ConfigurationError(f"momentum {self.momentum} must be in [0, 1)")
        if self.seed < 0:
            raise ConfigurationError(f"seed {self.seed} must be >= 0")
        check_input_size(self.input_size)

    @staticmethod
    def overfit(**overrides) -> "TrainConfig":
        """Preset for memorizing a tiny corpus: long run, gentle flat lr, no flip.

        The full-schedule lr of 0.01 under momentum 0.9 overshoots on
        sub-hundred-sample corpora, so the preset runs at 0.001 without decay.
        """
        defaults = dict(epochs=300, lr=0.001, lr_decay=1.0, flip=False)
        defaults.update(overrides)
        return TrainConfig(**defaults)


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# field annotations are strings under `from __future__ import annotations`
_NUMBER_TYPES = {"int": int, "float": float}


def load_train_config(path: str | Path) -> TrainConfig:
    """Parse a flat key=value file whose keys are TrainConfig field names."""
    fields = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    values: dict = {}
    for lineno, raw in enumerate(read_utf8(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in fields:
            raise ConfigurationError(f"config line {lineno}: unknown key '{key}'")
        kind = fields[key]
        if kind in _NUMBER_TYPES:
            try:
                values[key] = _NUMBER_TYPES[kind](value)
            except ValueError:
                raise FormatError(f"config line {lineno}: bad {kind} {value!r} for {key}") from None
        elif kind == "bool":
            if value.lower() not in _BOOL_WORDS:
                raise FormatError(f"config line {lineno}: bad boolean {value!r}")
            values[key] = _BOOL_WORDS[value.lower()]
        else:
            values[key] = value
    return TrainConfig(**values)


def save_train_config(cfg: TrainConfig, path: str | Path) -> None:
    lines = [f"{f.name}={getattr(cfg, f.name)}" for f in dataclasses.fields(TrainConfig)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """The schedule keeps lr flat for 10 epochs, then divides by lr_decay
    every 20 epochs (1-indexed epochs)."""
    if epoch < 1:
        raise ContractViolation(f"epochs are 1-indexed, got {epoch}")
    steps = max(0, math.ceil((epoch - 10) / 20))
    return cfg.lr * cfg.lr_decay ** (-steps)


def build_model(cfg: TrainConfig, n_labels: int) -> EmotionDistributionNet:
    return EmotionDistributionNet(cfg, n_labels)


# ------------------------------------------------------------- checkpoint
@dataclass
class Checkpoint:
    config: TrainConfig
    n_labels: int
    label_names: list[str]
    epoch: int
    params: dict[str, np.ndarray]
    velocity: dict[str, np.ndarray]
    adjacency: np.ndarray

    def save(self, path: str | Path) -> None:
        entries: list[tuple[str, np.ndarray]] = []
        for field in dataclasses.fields(TrainConfig):
            value = getattr(self.config, field.name)
            if field.name == "ablation":
                value = list(ABLATION_PRESETS).index(value)
            entries.append((f"config/{field.name}", np.array(float(value))))
        entries.append(("meta/epoch", np.array(float(self.epoch))))
        entries.append(("meta/n_labels", np.array(float(self.n_labels))))
        names_bytes = ",".join(self.label_names).encode("utf-8")
        entries.append(("meta/label_names", np.frombuffer(names_bytes, dtype=np.uint8).astype(np.float64)))
        entries.append(("adjacency/static", self.adjacency))
        for key, arr in self.params.items():
            entries.append((f"param/{key}", arr))
        for key, arr in self.velocity.items():
            entries.append((f"momentum/{key}", arr))
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            for key, arr in entries:
                data = np.ascontiguousarray(arr, dtype="<f8")
                kb = key.encode("utf-8")
                f.write(struct.pack("<I", len(kb)))
                f.write(kb)
                f.write(struct.pack("<I", data.ndim))
                f.write(struct.pack(f"<{data.ndim}I", *data.shape))
                f.write(data)

    @staticmethod
    def load(path: str | Path) -> "Checkpoint":
        """Read a checkpoint file. A truncated or corrupt file, or one
        holding a NaN or infinity, raises FormatError naming the path, the
        entry and the byte offset."""
        buf = Path(path).read_bytes()
        if buf[:5] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic {buf[:5]!r}")
        entries = _read_entries(buf, path)

        def required(key: str) -> np.ndarray:
            if key not in entries:
                raise FormatError(f"{path}: missing entry {key!r} (file ends at offset {len(buf)})")
            return entries[key]

        def scalar(key: str) -> float:
            arr = required(key)
            if arr.size != 1:
                raise FormatError(f"{path}: entry {key!r} is not a scalar")
            return float(arr.reshape(()))

        def integer(key: str) -> int:
            raw = scalar(key)
            if not raw.is_integer():
                raise FormatError(f"{path}: entry {key!r} holds {raw}, not an integer")
            return int(raw)

        cfg_values: dict = {}
        for field in dataclasses.fields(TrainConfig):
            key = f"config/{field.name}"
            if field.name == "ablation":
                index = integer(key)
                if not 0 <= index < len(ABLATION_PRESETS):
                    raise FormatError(f"{path}: entry {key!r} holds unknown preset index {index}")
                cfg_values[field.name] = list(ABLATION_PRESETS)[index]
            elif field.type == "int":
                cfg_values[field.name] = integer(key)
            elif field.type == "bool":
                flag = scalar(key)
                if flag not in (0.0, 1.0):
                    raise FormatError(f"{path}: entry {key!r} holds {flag}, not 0 or 1")
                cfg_values[field.name] = flag == 1.0
            else:
                cfg_values[field.name] = scalar(key)
        try:
            config = TrainConfig(**cfg_values)
        except ConfigurationError as exc:
            raise FormatError(f"{path}: 'config/*' entries: {exc}") from None
        n_labels = integer("meta/n_labels")
        try:
            label_names = required("meta/label_names").astype(np.uint8).tobytes().decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: entry 'meta/label_names' is not utf-8") from None
        label_names = label_names.split(",")
        if len(label_names) != n_labels:
            raise FormatError(f"{path}: entry 'meta/label_names' holds {len(label_names)} names "
                              f"for {n_labels} labels")
        adjacency = required("adjacency/static")
        if adjacency.shape != (n_labels, n_labels):
            raise FormatError(f"{path}: entry 'adjacency/static' has shape {adjacency.shape} "
                              f"for {n_labels} labels")
        params = {k[len("param/"):]: v for k, v in entries.items() if k.startswith("param/")}
        velocity = {k[len("momentum/"):]: v for k, v in entries.items() if k.startswith("momentum/")}
        if not params or set(velocity) != set(params):
            raise FormatError(f"{path}: parameter and momentum entries do not match "
                              f"(file ends at offset {len(buf)})")
        return Checkpoint(
            config=config,
            n_labels=n_labels,
            label_names=label_names,
            epoch=integer("meta/epoch"),
            params=params,
            velocity=velocity,
            adjacency=adjacency,
        )

    def build_model(self) -> EmotionDistributionNet:
        """The saved network, built without drawing an init: every weight
        starts uninitialized and is then replaced by a copy of its array."""
        with skip_init():
            model = build_model(self.config, self.n_labels)
        model.set_static_adjacency(self.adjacency)
        target = model.parameters()
        if set(target) != set(self.params):
            raise FormatError("checkpoint parameter keys do not match the rebuilt model")
        for key, arr in self.params.items():
            if target[key].data.shape != arr.shape:
                raise FormatError(f"checkpoint shape mismatch at {key}")
            target[key].data = arr.copy()
        return model


def _read_entries(buf: bytes, path) -> dict[str, np.ndarray]:
    """Decode every record after the magic as a read-only view of `buf`,
    checking each read against the size of the file and each value for
    being finite."""
    entries: dict[str, np.ndarray] = {}
    pos, end = len(CHECKPOINT_MAGIC), len(buf)
    label = "#0"

    def need(size: int, what: str) -> None:
        if size > end - pos:
            raise FormatError(f"{path}: {what} of entry {label} runs past the end of the file "
                              f"(offset {pos}, size {end})")

    while pos < end:
        label = f"#{len(entries)}"
        need(4, "key length")
        (klen,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        need(klen, "key")
        try:
            key = buf[pos:pos + klen].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: key of entry {label} is not utf-8 (offset {pos})") from None
        label = repr(key)
        pos += klen
        need(4, "rank")
        (ndim,) = struct.unpack_from("<I", buf, pos)
        if ndim > 32:  # numpy 1.x's array rank limit
            raise FormatError(f"{path}: entry {label} has rank {ndim}, above 32 (offset {pos})")
        pos += 4
        need(4 * ndim, "shape")
        shape = struct.unpack_from(f"<{ndim}I", buf, pos)
        pos += 4 * ndim
        count = math.prod(shape)
        need(8 * count, "payload")
        arr = np.frombuffer(buf, dtype="<f8", count=count, offset=pos).reshape(shape)
        finite = np.isfinite(arr)
        if not finite.all():
            first = pos + 8 * int(np.argmin(finite.reshape(-1)))
            raise FormatError(f"{path}: entry {label} holds a non-finite value (offset {first})")
        entries[key] = arr
        pos += 8 * count
    return entries


def _snapshot(cfg: TrainConfig, manifest: Manifest, model: EmotionDistributionNet,
              opt: SGD, epoch: int) -> Checkpoint:
    return Checkpoint(
        config=cfg, n_labels=manifest.n_labels, label_names=list(manifest.label_names),
        epoch=epoch,
        params={k: t.data.copy() for k, t in model.parameters().items()},
        velocity={k: v.copy() for k, v in opt.velocity.items()},
        adjacency=model.static_adjacency.copy(),
    )


# ---------------------------------------------------------------- training
@dataclass
class EpochLog:
    epoch: int
    lr: float
    pred_loss: float
    adv_loss: float

    def line(self) -> str:
        return (f"epoch {self.epoch:4d}  lr {self.lr:.6f}  "
                f"pred {self.pred_loss:.6f}  adv {self.adv_loss:.6f}")


def train(cfg: TrainConfig, manifest: Manifest, root: str | Path,
          out_path: str | Path | None = None) -> tuple[Checkpoint, list[EpochLog]]:
    """Train from scratch on every record of the manifest.

    `root` is the directory image paths are relative to. Returns the
    final checkpoint and the per-epoch log; optionally writes the
    checkpoint to out_path.

    The corpus is held as uint8 pixels (`load_pixels`), one byte per
    value. Each batch is gathered and flipped in bytes, then divided by
    255.0 into the float64 input the model sees, which has the bits of
    the same rows of `load_images`.
    """
    if not manifest.records:
        raise ContractViolation("training manifest is empty")
    pixels = load_pixels(manifest, root, cfg.input_size)
    targets = manifest.distributions()
    model = build_model(cfg, manifest.n_labels)
    if model.gcn:
        model.set_static_adjacency(cooccurrence_adjacency(manifest))
    params = model.parameters()
    opt = SGD(params, lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    data_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    n = len(manifest.records)
    logs: list[EpochLog] = []
    last_good = _snapshot(cfg, manifest, model, opt, epoch=0)
    for epoch in range(1, cfg.epochs + 1):
        opt.lr = lr_at(cfg, epoch)
        order = data_rng.permutation(n)
        pred_sum = 0.0
        adv_sum = 0.0
        batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = pixels[idx]
            if cfg.flip:
                flip_mask = data_rng.random(len(idx)) < 0.5
                batch[flip_mask] = batch[flip_mask][..., ::-1]
            try:
                out = model.forward(Tensor(batch / 255.0))
                l_pred = pred_loss(out.y_e, out.y_emotion, targets[idx])
                l_adv = model.adversary(out)
                loss = total_loss(l_pred, l_adv)
                opt.zero_grad()
                loss.backward()
                opt.step()
            except TrainingError as exc:
                raise TrainingError(f"epoch {epoch}: {exc}", checkpoint=last_good) from exc
            pred_sum += l_pred.item()
            adv_sum += l_adv.item()
            batches += 1
        logs.append(EpochLog(epoch=epoch, lr=opt.lr,
                             pred_loss=pred_sum / batches, adv_loss=adv_sum / batches))
        last_good = _snapshot(cfg, manifest, model, opt, epoch=epoch)
    if out_path is not None:
        last_good.save(out_path)
    return last_good, logs


# -------------------------------------------------------------- evaluation
def predict_batch(model: EmotionDistributionNet, images: np.ndarray,
                  batch_size: int = 16) -> np.ndarray:
    """Final mixed distribution for every image, [N, C].

    `images` holds floats in [0, 1] or uint8 pixels (`load_pixels`); a
    uint8 batch is divided by 255.0 as it is taken, as `train` does, so
    only one batch of floats exists at a time. The forwards run under
    ``no_grad()``: no tape is built, so each batch's intermediates are
    freed as soon as it is done.
    """
    outputs = []
    with no_grad():
        for start in range(0, len(images), batch_size):
            batch = images[start:start + batch_size]
            if batch.dtype == np.uint8:
                batch = batch / 255.0
            outputs.append(model.forward(Tensor(batch)).y.data)
    return np.concatenate(outputs) if outputs else np.zeros((0, model.n_labels))


def evaluate(checkpoint: Checkpoint, manifest: Manifest, root: str | Path) -> MetricReport:
    """Metric report of the checkpointed model over a manifest."""
    if manifest.n_labels != checkpoint.n_labels:
        raise ConfigurationError(
            f"manifest has {manifest.n_labels} labels, checkpoint {checkpoint.n_labels}")
    model = checkpoint.build_model()
    pixels = load_pixels(manifest, root, checkpoint.config.input_size)
    preds = predict_batch(model, pixels)
    return evaluate_metrics(manifest.distributions(), preds)

