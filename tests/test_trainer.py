"""Config parsing, schedule, training loop behavior, checkpoint format."""
import dataclasses
import errno
import gc
import hashlib
import math
import re
import struct

import numpy as np
import pytest

import styledl.model as model_mod
import styledl.training as train_mod
from styledl.cli import main
from styledl.dataio import DatasetRecord, Manifest, load_images, load_pixels, synth_generate
from styledl.errors import ConfigurationError, ContractViolation, FormatError, TrainingError
from styledl.losses import pred_loss, total_loss
from styledl.metrics import evaluate_metrics
from styledl.model import ABLATION_PRESETS
from styledl.tensor import SGD, Tensor, no_grad, skip_init
from styledl.training import (Checkpoint, TrainConfig, build_model, evaluate,
                           load_train_config, lr_at, predict_batch, train)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = synth_generate(seed=11, n_samples=8, n_labels=4, input_size=32,
                              out_dir=root)
    return manifest, root


def _fast_cfg(**kw):
    kw.setdefault("input_size", 32)
    kw.setdefault("epochs", 2)
    kw.setdefault("ablation", "B")
    kw.setdefault("flip", False)
    return TrainConfig(**kw)


# ---------------------------------------------------------------- config
def _write_config(cfg, path):
    """The config as the key=value lines `load_train_config` reads."""
    path.write_text("".join(f"{f.name}={getattr(cfg, f.name)}\n"
                            for f in dataclasses.fields(cfg)), encoding="utf-8")


def test_config_round_trip(tmp_path):
    cfg = TrainConfig(R=3, lam=0.5, mu=0.4, lr=0.02, epochs=7, ablation="B+G",
                      flip=False, seed=9)
    path = tmp_path / "train.cfg"
    _write_config(cfg, path)
    assert load_train_config(path) == cfg


def test_config_file_parsing(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\nlr = 0.5\nepochs=3\nflip=no\nablation=B\n")
    cfg = load_train_config(p)
    assert cfg.lr == 0.5 and cfg.epochs == 3 and cfg.flip is False
    assert cfg.ablation == "B"
    assert cfg.mu == 0.6  # untouched default


def test_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("learning_rate=0.5\n")
    with pytest.raises(ConfigurationError):
        load_train_config(p)


def test_config_rejects_bad_values(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("flip=perhaps\n")
    with pytest.raises(FormatError):
        load_train_config(p)
    p.write_text("just a line\n")
    with pytest.raises(FormatError):
        load_train_config(p)
    p.write_text("lr=0.5\nepochs=abc\n")
    with pytest.raises(FormatError, match="config line 2"):
        load_train_config(p)
    p.write_text("lr=0.5\nepochs=2\nlr=0.001\n")
    with pytest.raises(FormatError, match="config line 3: 'lr' is already set on line 1"):
        load_train_config(p)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(ablation="everything")
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ConfigurationError):
        TrainConfig(lr_decay=0.5)
    for bad in (dict(lr=math.nan), dict(lr=math.inf), dict(lr_decay=math.nan),
                dict(lr_decay=math.inf), dict(weight_decay=math.nan),
                dict(weight_decay=math.inf), dict(weight_decay=-1e-4), dict(mu=1.5),
                dict(lam=-1.0), dict(momentum=1.0), dict(seed=-1), dict(input_size=33),
                dict(input_size=0), dict(input_size=-32)):
        with pytest.raises(ConfigurationError):
            TrainConfig(**bad)


@pytest.mark.parametrize("bad", [dict(flip=2), dict(gram_normalize=0), dict(batch_size=4.0),
                                 dict(epochs=1.0), dict(seed=0.0), dict(input_size=32.0),
                                 dict(R=True), dict(lr=True), dict(ablation=["full"])],
                         ids=lambda bad: "-".join(f"{k}={v!r}" for k, v in bad.items()))
def test_config_rejects_a_value_of_another_type(bad):
    # each of these once built a config that failed later, inside train() or
    # Checkpoint.load, or raised a bare TypeError
    (name, value), = bad.items()
    with pytest.raises(ConfigurationError, match=f"^{name} must be of type"):
        TrainConfig(**bad)


def test_config_numpy_scalars_round_trip(tmp_path):
    cfg = TrainConfig(R=np.int64(2), lr=np.float64(0.001), flip=np.True_, lam=1, input_size=32)
    path = tmp_path / "np.ckpt"
    _pinned_checkpoint(config=cfg).save(path)
    assert Checkpoint.load(path).config == cfg
    _write_config(cfg, tmp_path / "np.cfg")
    assert load_train_config(tmp_path / "np.cfg") == cfg


def test_config_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        TrainConfig().mu = 0.5


def test_config_not_utf8_names_the_path(tmp_path):
    p = tmp_path / "latin1.cfg"
    p.write_bytes(b"lr=0.5\n# \xe9\n")
    with pytest.raises(FormatError, match="latin1.cfg: not utf-8"):
        load_train_config(p)


def test_overfit_preset():
    cfg = TrainConfig.overfit(seed=3)
    assert cfg.epochs == 300 and cfg.lr_decay == 1.0 and cfg.flip is False
    assert cfg.lr == pytest.approx(0.001)
    assert cfg.seed == 3
    trimmed = TrainConfig.overfit(epochs=10)
    assert trimmed.epochs == 10


# -------------------------------------------------------------- schedule
def test_lr_schedule_reference_points():
    cfg = TrainConfig(lr=0.01, lr_decay=10.0)
    assert lr_at(cfg, 1) == pytest.approx(0.01)
    assert lr_at(cfg, 10) == pytest.approx(0.01)
    assert lr_at(cfg, 11) == pytest.approx(0.001)
    assert lr_at(cfg, 30) == pytest.approx(0.001)
    assert lr_at(cfg, 31) == pytest.approx(0.0001)
    assert lr_at(cfg, 50) == pytest.approx(0.0001)


def test_lr_schedule_flat_when_decay_one():
    cfg = TrainConfig(lr=0.02, lr_decay=1.0)
    assert all(lr_at(cfg, e) == 0.02 for e in (1, 10, 40, 300))


# ------------------------------------------------------------- training
def test_train_writes_logs_and_checkpoint(corpus, tmp_path):
    manifest, root = corpus
    out = tmp_path / "model.ckpt"
    ckpt, logs = train(_fast_cfg(epochs=3), manifest, root, out_path=out)
    assert out.exists()
    assert [log.epoch for log in logs] == [1, 2, 3]
    assert ckpt.epoch == 3
    assert all(np.isfinite(log.pred_loss) for log in logs)
    assert "lr" in logs[0].line()


def test_training_error_carries_last_checkpoint(corpus, monkeypatch):
    manifest, root = corpus
    real = train_mod.pred_loss
    calls = {"n": 0}

    def sabotage(y_e, y_emotion, targets):
        calls["n"] += 1
        if calls["n"] > 1:  # first epoch is one batch on this corpus
            return Tensor(np.array(np.nan), requires_grad=True)
        return real(y_e, y_emotion, targets)

    monkeypatch.setattr(train_mod, "pred_loss", sabotage)
    with pytest.raises(TrainingError) as info:
        train(_fast_cfg(epochs=5, batch_size=8), manifest, root)
    ckpt = info.value.checkpoint
    assert isinstance(ckpt, Checkpoint)
    assert ckpt.epoch == 1  # epoch 2 blew up, epoch 1 survives


def test_snapshot_is_not_changed_by_a_later_step(corpus):
    manifest, _ = corpus
    cfg = _fast_cfg()
    model = build_model(cfg, manifest.n_labels)
    params = model.parameters()
    opt = SGD(params, lr=0.1, momentum=0.9, weight_decay=1e-2)
    r = np.random.default_rng(3)
    for t in params.values():
        t.grad = r.standard_normal(t.shape)
    opt.step()  # nonzero velocity, so the next step moves it
    snap = train_mod._snapshot(cfg, manifest, model, opt, epoch=1)
    kept = [{k: a.copy() for k, a in d.items()} for d in (snap.params, snap.velocity)]
    opt.step()
    for held, copy in zip((snap.params, snap.velocity), kept):
        for k, a in held.items():
            np.testing.assert_array_equal(a, copy[k])
    for k, t in params.items():
        assert not np.array_equal(t.data, kept[0][k])
        assert not np.array_equal(opt.velocity[k], kept[1][k])


def test_train_rejects_empty_manifest(corpus):
    manifest, root = corpus
    empty = dataclasses.replace(manifest, records=[])
    with pytest.raises(Exception):
        train(_fast_cfg(), empty, root)


def test_train_feeds_each_decoded_image_once_per_epoch(corpus, monkeypatch):
    # the uint8 corpus, gathered, flipped and scaled per batch, gives the
    # model rows of load_images or their mirror images
    manifest, root = corpus
    images = load_images(manifest, root, 32)
    seen = []
    real = model_mod.EmotionDistributionNet.forward

    def recording(self, x):
        seen.append(x.data.copy())
        return real(self, x)

    monkeypatch.setattr(model_mod.EmotionDistributionNet, "forward", recording)
    train(_fast_cfg(epochs=2, batch_size=3, flip=True, seed=4), manifest, root)
    n = len(images)
    rows = np.concatenate(seen)
    assert rows.dtype == np.float64 and len(rows) == 2 * n
    flipped = 0
    for epoch in (rows[:n], rows[n:]):
        sources = []
        for row in epoch:
            plain = [j for j in range(n) if np.array_equal(row, images[j])]
            mirror = [j for j in range(n) if np.array_equal(row, images[j][..., ::-1])]
            assert len(plain) + len(mirror) == 1
            sources += plain + mirror
            flipped += bool(mirror)
        assert sorted(sources) == list(range(n))
    assert flipped > 0


def test_determinism_same_seed(corpus, tmp_path):
    manifest, root = corpus
    cfg = _fast_cfg(epochs=2, ablation="full", flip=True, seed=5)
    out1, out2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    _, logs1 = train(cfg, manifest, root, out_path=out1)
    _, logs2 = train(cfg, manifest, root, out_path=out2)
    assert [log.line() for log in logs1] == [log.line() for log in logs2]
    assert out1.read_bytes() == out2.read_bytes()


def test_overfit_preset_decreases_pred_loss(corpus):
    manifest, root = corpus
    cfg = TrainConfig.overfit(epochs=10, input_size=32, seed=2)
    _, logs = train(cfg, manifest, root)
    losses = [log.pred_loss for log in logs]
    for e in range(5, 10):
        assert losses[e] < losses[e - 5], (
            f"no decrease across window ending at epoch {e + 1}: {losses}")


# ------------------------------------------------------------ checkpoint
def test_checkpoint_round_trip_bit_exact(corpus, tmp_path):
    manifest, root = corpus
    cfg = _fast_cfg(epochs=1, ablation="full")
    ckpt, _ = train(cfg, manifest, root)
    x = np.random.default_rng(0).random((2, 3, 32, 32))
    before = ckpt.build_model().forward(Tensor(x)).y.data
    path = tmp_path / "rt.ckpt"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    after = loaded.build_model().forward(Tensor(x)).y.data
    np.testing.assert_array_equal(before, after)
    assert loaded.config == cfg
    assert loaded.label_names == manifest.label_names
    np.testing.assert_array_equal(loaded.adjacency, ckpt.adjacency)
    assert set(loaded.velocity) == set(ckpt.velocity)


def test_checkpoint_preset_codes_survive_a_new_preset(corpus, tmp_path, monkeypatch):
    # files store a preset as its position in ABLATION_PRESETS; these nine are on disk
    assert tuple(ABLATION_PRESETS)[:9] == ("B", "B+E", "B+G", "B+G+V", "B+V", "full",
                                           "inter_only", "noAN", "static_gcn_only")
    manifest, root = corpus
    path = tmp_path / "full.ckpt"
    train(_fast_cfg(epochs=1, ablation="full"), manifest, root, out_path=path)
    monkeypatch.setitem(ABLATION_PRESETS, "A", ABLATION_PRESETS["B"])
    assert Checkpoint.load(path).config.ablation == "full"


def _pinned_checkpoint(**overrides):
    """A small checkpoint from fixed arrays: preset noAN, no default config
    value, a transposed, a Fortran-order, a float32 and a 0-d array."""
    cfg = TrainConfig(R=3, lam=0.5, mu=0.25, lr=0.02, momentum=0.5, weight_decay=1e-3,
                      batch_size=4, epochs=7, lr_decay=2.0, seed=5, ablation="noAN",
                      input_size=32, flip=False, gram_normalize=True)
    grid = np.arange(12.0).reshape(3, 4) / 8 - 0.75
    fields = dict(
        config=cfg, n_labels=3, label_names=["joy", "awe", "fear"], epoch=7,
        params={"stem/w": grid, "stem/w_t": grid.T,
                "head/b": np.array([0.5, -1.25], np.float32), "scale": np.array(2.0)},
        velocity={"stem/w": grid * -0.5, "stem/w_t": np.asfortranarray(grid.T),
                  "head/b": np.zeros(2), "scale": np.array(-0.125)},
        adjacency=np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.125, 0.375, 0.5]]))
    fields.update(overrides)
    return Checkpoint(**fields)


# SHA-256 of the SEDL1 file that `_pinned_checkpoint().save` wrote while
# `save` wrote SEDL1, and that `_save_sedl1` writes now; it pins the record
# order, the config-field order and the preset codes.
PINNED_SEDL1_SHA256 = "978aa12b9dcf8e154344bcd3fff2934e31e080d9f6988a63156690f6dc7d399a"
# SHA-256 of the SEDL2 file `_pinned_checkpoint().save` writes: the same
# records with their payloads 64-byte aligned and a 0-d array of rank 0
PINNED_SEDL2_SHA256 = "1de13769bf27f45c8f132dde88f9ba546e4d7c2195e36b62d6e33c72dac25578"


def _save_sedl1(ckpt, path):
    """Write `ckpt` as SEDL1, the format `save` wrote before SEDL2: each
    record's key length, key, rank, extents and payload with no padding
    between them, and a 0-d array stored with shape (1,)."""
    entries = []
    for field in dataclasses.fields(TrainConfig):
        value = getattr(ckpt.config, field.name)
        if field.name == "ablation":
            value = list(ABLATION_PRESETS).index(value)
        entries.append((f"config/{field.name}", float(value)))
    entries += [("meta/epoch", float(ckpt.epoch)), ("meta/n_labels", float(ckpt.n_labels)),
                ("meta/label_names", np.frombuffer(",".join(ckpt.label_names).encode(), np.uint8)),
                ("adjacency/static", ckpt.adjacency)]
    entries += [(f"param/{k}", v) for k, v in ckpt.params.items()]
    entries += [(f"momentum/{k}", v) for k, v in ckpt.velocity.items()]
    out = [b"SEDL1"]
    for key, arr in entries:
        data = np.atleast_1d(np.asarray(arr, dtype="<f8"))
        kb = key.encode()
        out.append(struct.pack(f"<I{len(kb)}sI{data.ndim}I", len(kb), kb, data.ndim, *data.shape))
        out.append(data.tobytes(order="C"))
    path.write_bytes(b"".join(out))


def _records(buf):
    """(key, offset of the extents, shape, offset of the payload) of each
    record of the checkpoint bytes `buf`, SEDL1 or SEDL2, parsed here
    apart from `Checkpoint.load`."""
    align = {b"SEDL1": 1, b"SEDL2": 64}[bytes(buf[:5])]
    pos = 5
    while pos < len(buf):
        (klen,) = struct.unpack_from("<I", buf, pos)
        key = bytes(buf[pos + 4:pos + 4 + klen]).decode()
        pos += 4 + klen
        (ndim,) = struct.unpack_from("<I", buf, pos)
        extents_at = pos + 4
        shape = struct.unpack_from(f"<{ndim}I", buf, extents_at)
        pos = extents_at + 4 * ndim
        pos += -pos % align
        yield key, extents_at, shape, pos
        pos += 8 * math.prod(shape)


def _record(buf, key):
    """(offset of the extents, shape, offset of the payload) of record `key`."""
    found = [rec[1:] for rec in _records(buf) if rec[0] == key]
    assert len(found) == 1, (key, found)
    return found[0]


def _assert_loads_as(loaded, ckpt, sedl1=False):
    """`loaded` holds `ckpt`'s fields and arrays bit for bit, in order; a
    SEDL1 file gives a 0-d array back with shape (1,)."""
    assert loaded.config == ckpt.config
    assert (loaded.n_labels, loaded.label_names, loaded.epoch) == (
        ckpt.n_labels, ckpt.label_names, ckpt.epoch)
    np.testing.assert_array_equal(loaded.adjacency, ckpt.adjacency, strict=True)
    for loaded_arrays, arrays in ((loaded.params, ckpt.params), (loaded.velocity, ckpt.velocity)):
        assert list(loaded_arrays) == list(arrays)
        for key, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.float64)
            if sedl1:
                arr = np.atleast_1d(arr)
            np.testing.assert_array_equal(loaded_arrays[key], arr, strict=True)


def test_checkpoint_bytes_are_pinned(tmp_path):
    ckpt = _pinned_checkpoint()
    path = tmp_path / "pinned.ckpt"
    ckpt.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SEDL2_SHA256
    loaded = Checkpoint.load(path)
    assert loaded.params["scale"].shape == () == loaded.velocity["scale"].shape
    _assert_loads_as(loaded, ckpt)


def test_sedl1_file_loads_as_it_did(tmp_path):
    """The pinned checkpoint written as SEDL1 has the recorded bytes, and
    loads with the SEDL2 file's values; its 0-d arrays come back as (1,)."""
    ckpt = _pinned_checkpoint()
    path = tmp_path / "v1.ckpt"
    _save_sedl1(ckpt, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SEDL1_SHA256
    loaded = Checkpoint.load(path)
    assert loaded.params["scale"].shape == (1,) == loaded.velocity["scale"].shape
    _assert_loads_as(loaded, ckpt, sedl1=True)


@pytest.mark.parametrize("preset", ["full", "B"])
def test_sedl1_file_loads_as_the_same_model(preset, tmp_path):
    """A stepped model's checkpoint written as SEDL1 and as SEDL2 loads to
    bit-equal parameters, and the two predictors predict the same bits."""
    model, ckpt, x = _stepped_checkpoint(_fast_cfg(ablation=preset))
    _save_sedl1(ckpt, tmp_path / "v1.ckpt")
    ckpt.save(tmp_path / "v2.ckpt")
    v1, v2 = (Checkpoint.load(tmp_path / name) for name in ("v1.ckpt", "v2.ckpt"))
    _assert_loads_as(v1, ckpt, sedl1=True)
    _assert_loads_as(v2, ckpt)
    p1, p2 = v1.build_model(), v2.build_model()
    for (k1, t1), (k2, t2) in zip(p1.parameters().items(), p2.parameters().items(), strict=True):
        assert k1 == k2
        np.testing.assert_array_equal(t1.data, t2.data, strict=True)
    expected = predict_batch(model, x)
    assert predict_batch(p1, x).tobytes() == predict_batch(p2, x).tobytes() == expected.tobytes()


def test_sedl2_payloads_are_64_byte_aligned(full_checkpoint_bytes, tmp_path):
    """In the file and in its mapping: every pad is zeros, every payload
    starts at a multiple of 64, and the records end the file."""
    buf = full_checkpoint_bytes
    assert buf[:5] == b"SEDL2"
    records = list(_records(buf))
    assert len(records) > 150
    end = 5
    for key, extents_at, shape, at in records:
        assert at % 64 == 0, key
        assert buf[extents_at + 4 * len(shape):at] == bytes(at - extents_at - 4 * len(shape)), key
        end = at + 8 * math.prod(shape)
    assert end == len(buf)
    path = tmp_path / "aligned.ckpt"
    path.write_bytes(buf)
    ckpt = Checkpoint.load(path)
    for arr in [*ckpt.params.values(), *ckpt.velocity.values(), ckpt.adjacency]:
        assert arr.ctypes.data % 64 == 0


@pytest.mark.parametrize("key", ["config/R", "meta/label_names", "param/stem/w", "momentum/scale"])
def test_checkpoint_non_zero_pad_byte_is_a_format_error(tmp_path, key):
    path = tmp_path / "pad.ckpt"
    _pinned_checkpoint().save(path)
    buf = bytearray(path.read_bytes())
    extents_at, shape, at = _record(buf, key)
    assert at - extents_at - 4 * len(shape) > 0  # the record has a pad
    buf[at - 1] = 0x20
    path.write_bytes(bytes(buf))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: entry '{key}' has a non-zero pad byte (offset {at - 1})")):
        Checkpoint.load(path)


class _FillsUp:
    """A file whose writes fail as on a full disk once 1 KiB is written."""

    def __init__(self, path, mode):
        self.file = open(path, mode)
        self.written = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def fileno(self):
        return self.file.fileno()

    def write(self, data):
        if self.written > 1024:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.written += memoryview(data).nbytes
        return self.file.write(data)


def test_checkpoint_save_that_fails_keeps_the_old_file(tmp_path, monkeypatch):
    """A save whose writes fail part way leaves the previous checkpoint's
    bytes in place and no temporary behind."""
    path = tmp_path / "run.ckpt"
    _pinned_checkpoint().save(path)
    old = path.read_bytes()
    monkeypatch.setattr(train_mod, "open", _FillsUp, raising=False)
    with pytest.raises(OSError, match="No space left"):
        _pinned_checkpoint(epoch=8).save(path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]


def test_checkpoint_rejects_a_repeated_record(tmp_path):
    path = tmp_path / "twice.ckpt"
    _pinned_checkpoint().save(path)
    key = b"meta/epoch"
    extra = struct.pack(f"<I{len(key)}sII", len(key), key, 1, 1) + np.array([7.0], "<f8").tobytes()
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(FormatError, match=f"twice.ckpt: entry 'meta/epoch' appears a second time "
                                          f"\\(offset {size + 4}\\)"):
        Checkpoint.load(path)


def test_checkpoint_save_rejects_a_comma_in_a_label_name(tmp_path):
    # load splits the joined names at commas, so this file would not load
    path = tmp_path / "comma.ckpt"
    with pytest.raises(ContractViolation, match="label name 'joy,calm'"):
        _pinned_checkpoint(label_names=["joy,calm", "awe", "fear"]).save(path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("overrides, entry", [
    (("meta/n_labels", "payload", np.array(2.0).tobytes()), "meta/label_names"),
    (("adjacency/static", "extents", struct.pack("<2I", 1, 9)), "adjacency/static")])
def test_checkpoint_label_count_must_agree(tmp_path, capsys, overrides, entry):
    """`save` refuses such a checkpoint, so each file is a saved one with
    one record edited: `overrides` is (record, its part, new bytes). Three
    label names for 2 labels, or a [1, 9] adjacency for 3 labels."""
    path = tmp_path / "mismatch.ckpt"
    _pinned_checkpoint().save(path)
    key, part, new = overrides
    buf = bytearray(path.read_bytes())
    extents_at, _, payload_at = _record(buf, key)
    at = extents_at if part == "extents" else payload_at
    buf[at:at + len(new)] = new
    path.write_bytes(bytes(buf))
    with pytest.raises(FormatError, match=f"mismatch.ckpt: entry '{entry}'"):
        Checkpoint.load(path)
    assert main(["predict", "--checkpoint", str(path), "--image", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: entry '{entry}'") and err.count("\n") == 1, err


@pytest.mark.parametrize("overrides, bad", [
    (dict(velocity={"stem/w": np.zeros((3, 4))}), "momentum keys"),
    (dict(params={}, velocity={}), "momentum keys"),
    (dict(label_names=["joy", "awe"]), "2 label names for 3 labels"),
    (dict(adjacency=np.eye(2)), re.escape("adjacency (2, 2) for 3 labels")),
    (dict(epoch=-1), "epoch -1 is below 0"),
    (dict(epoch=1.5), "epoch 1.5 is not an integer"),
    (dict(epoch=True), "epoch True is not an integer"),
    (dict(epoch=2**60 + 1), re.escape("epoch 1152921504606846977 is above 2**53")),
    (dict(epoch=2**53 + 1), re.escape("epoch 9007199254740993 is above 2**53")),
    (dict(n_labels=3.5), "n_labels 3.5 is not an integer"),
    (dict(n_labels=0, label_names=[], adjacency=np.zeros((0, 0))), "n_labels 0 is below 1"),
    (dict(config=TrainConfig(seed=2**53 + 1)), re.escape("config seed 9007199254740993 is above"))],
    ids=["momentum-keys", "no-params", "label-names", "adjacency", "negative-epoch",
         "fractional-epoch", "bool-epoch", "epoch-2**60+1", "epoch-2**53+1", "fractional-labels",
         "no-labels", "seed-2**53+1"])
def test_checkpoint_save_refuses_what_load_rejects(tmp_path, overrides, bad):
    # each of these saved and then failed `load` with FormatError, or loaded
    # back as another value (2**60 + 1 as 2**60, True as 1); now the
    # previous file keeps its bytes and no temporary is left
    path = tmp_path / "run.ckpt"
    _pinned_checkpoint().save(path)
    old = path.read_bytes()
    with pytest.raises(ContractViolation, match=bad):
        _pinned_checkpoint(**overrides).save(path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]


def test_checkpoint_save_takes_any_integer_count_up_to_2_53(tmp_path):
    path = tmp_path / "run.ckpt"
    _pinned_checkpoint(epoch=np.int64(7), n_labels=np.uint8(3)).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SEDL2_SHA256
    _pinned_checkpoint(epoch=2**53).save(path)
    assert Checkpoint.load(path).epoch == 2**53


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(FormatError):
        Checkpoint.load(p)


@pytest.mark.parametrize("content", [b"", b"SEDL"])
def test_checkpoint_shorter_than_the_magic_is_a_format_error(tmp_path, capsys, content):
    """An empty file cannot be mapped, so the magic is checked first."""
    p = tmp_path / "short.ckpt"
    p.write_bytes(content)
    with pytest.raises(FormatError, match="short.ckpt: bad checkpoint magic"):
        Checkpoint.load(p)
    assert main(["predict", "--checkpoint", str(p), "--image", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p}: bad checkpoint magic {content!r}\n"


def _cut_points(size):
    """Every cut in the first 200 bytes (each field of the first config
    records), then an even spread up to the last byte."""
    return sorted(set(range(0, 200)) | set(np.linspace(200, size - 1, 60).astype(int)))


def test_checkpoint_truncations_raise_format_error(corpus, tmp_path, capsys):
    manifest, root = corpus
    whole = tmp_path / "whole.ckpt"
    train(_fast_cfg(epochs=1, ablation="full"), manifest, root, out_path=whole)
    buf = whole.read_bytes()
    image = str(root / manifest.records[0].image_path)
    cut = tmp_path / "cut.ckpt"
    for n in _cut_points(len(buf)):
        cut.write_bytes(buf[:n])
        with pytest.raises(FormatError, match="cut.ckpt"):
            Checkpoint.load(cut)
        if n % 7 == 0:
            assert main(["predict", "--checkpoint", str(cut), "--image", image]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("key, value", [
    ("config/ablation", 99.0), ("config/lr", -1.0), ("meta/epoch", 1.5),
    ("meta/n_labels", np.nan), ("meta/label_names", 255.0), ("config/mu", 1.5),
    ("config/lam", -1.0), ("config/momentum", 1.0), ("config/seed", -1.0),
    ("config/input_size", 33.0), ("config/flip", 2.0), ("config/flip", -7.0),
    ("config/gram_normalize", 0.5), ("meta/label_names", 362.0), ("meta/label_names", 106.5),
    ("meta/label_names", -150.0), ("meta/epoch", -1.0)])
def test_checkpoint_corrupt_values_raise_format_error(corpus, tmp_path, key, value):
    manifest, root = corpus
    path = tmp_path / "bad.ckpt"
    train(_fast_cfg(epochs=1), manifest, root, out_path=path)
    buf = bytearray(path.read_bytes())
    _, shape, at = _record(buf, key)
    assert math.prod(shape) == 1 or key == "meta/label_names"
    buf[at:at + 8] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(buf))
    with pytest.raises(FormatError, match=key.split("/")[-1]):
        Checkpoint.load(path)


def test_loaded_records_are_read_only_and_the_rebuilt_model_owns_its_params(corpus, tmp_path):
    """The predictor of a loaded SEDL2 file owns only its adjacency: its
    weights are the loaded records themselves, read-only."""
    manifest, root = corpus
    path = tmp_path / "views.ckpt"
    train(_fast_cfg(epochs=1, ablation="full"), manifest, root, out_path=path)
    ckpt = Checkpoint.load(path)
    for arr in [*ckpt.params.values(), *ckpt.velocity.values(), ckpt.adjacency]:
        assert not arr.flags.writeable
    model = ckpt.build_model()
    assert model.static_adjacency.flags.owndata
    for key, t in model.parameters().items():
        assert t.data is ckpt.params[key] and not t.data.flags.writeable, key
    # a save over the mapped file renames a new file into place, so the
    # loaded views and the predictor keep the old bytes
    old = {k: v.copy() for k, v in ckpt.params.items()}
    dataclasses.replace(ckpt, params={k: v + 1.0 for k, v in old.items()}).save(path)
    np.testing.assert_array_equal(Checkpoint.load(path).params["fusion/conv_sc/w"],
                                  old["fusion/conv_sc/w"] + 1.0)
    for key, arr in ckpt.params.items():
        np.testing.assert_array_equal(arr, old[key])
    for key, t in model.parameters().items():
        np.testing.assert_array_equal(t.data, old[key])


def test_predictor_weights_share_the_mapping_and_outlive_the_checkpoint(full_checkpoint_bytes,
                                                                        corpus, tmp_path):
    manifest, root = corpus
    path = tmp_path / "shared.ckpt"
    path.write_bytes(full_checkpoint_bytes)
    ckpt = Checkpoint.load(path)
    model = ckpt.build_model()
    params = model.parameters()
    assert params and all(not k.startswith("adversary/") for k in params)
    for key, t in params.items():
        assert not t.data.flags.writeable, key
        assert np.shares_memory(t.data, ckpt.params[key]), key
    with pytest.raises(ContractViolation, match=f"parameter {re.escape(next(iter(params)))} is "
                                                f"read-only"):
        SGD(params, lr=0.01)
    pixels = load_pixels(manifest, root, 32)
    expected = predict_batch(model, pixels)
    copied = dataclasses.replace(ckpt, params={k: v.copy() for k, v in ckpt.params.items()})
    del ckpt
    gc.collect()
    # the mapping stays while the predictor holds its records
    assert predict_batch(model, pixels).tobytes() == expected.tobytes()
    assert predict_batch(copied.build_model(), pixels).tobytes() == expected.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_value_is_a_format_error(corpus, tmp_path, capsys, value):
    manifest, root = corpus
    path = tmp_path / "nonfinite.ckpt"
    train(_fast_cfg(epochs=1, ablation="full"), manifest, root, out_path=path)
    key = "param/backbone/stage0/down/w"
    buf = bytearray(path.read_bytes())
    at = _record(buf, key)[2] + 8 * 5  # the 6th value
    buf[at:at + 8] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(buf))
    message = f"{path}: entry '{key}' holds a non-finite value (offset {at})"
    with pytest.raises(FormatError, match=re.escape(message)):
        Checkpoint.load(path)
    image = str(root / manifest.records[0].image_path)
    assert main(["predict", "--checkpoint", str(path), "--image", image]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_checkpoint_record_whose_sum_overflows_loads(tmp_path):
    ckpt = _pinned_checkpoint()
    ckpt.params["stem/w"] = np.full((3, 4), 1e308)  # finite values, an infinite sum
    path = tmp_path / "big.ckpt"
    ckpt.save(path)
    np.testing.assert_array_equal(Checkpoint.load(path).params["stem/w"], ckpt.params["stem/w"])


@pytest.fixture(scope="module")
def full_checkpoint_bytes(corpus, tmp_path_factory):
    manifest, root = corpus
    path = tmp_path_factory.mktemp("full") / "full.ckpt"
    train(_fast_cfg(epochs=1, ablation="full"), manifest, root, out_path=path)
    return path.read_bytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["param/backbone/stage4/keep/w", "momentum/backbone/stage4/keep/w",
                                 "adjacency/static"])
def test_checkpoint_non_finite_last_value_is_a_format_error(full_checkpoint_bytes, tmp_path,
                                                            key, value):
    """The largest record, its momentum and the adjacency, each with the
    bad value last, where a check that stopped early would miss it."""
    buf = bytearray(full_checkpoint_bytes)
    _, shape, payload_at = _record(buf, key)
    at = payload_at + 8 * (math.prod(shape) - 1)
    buf[at:at + 8] = np.array([value], dtype="<f8").tobytes()
    path = tmp_path / "last.ckpt"
    path.write_bytes(bytes(buf))
    message = f"{path}: entry '{key}' holds a non-finite value (offset {at})"
    with pytest.raises(FormatError, match=re.escape(message)):
        Checkpoint.load(path)


@pytest.mark.parametrize("value", [1e200, -1e200, 1.5e154])
def test_checkpoint_record_whose_squares_overflow_loads(tmp_path, value):
    # finite values whose sum is finite but whose sum of squares is not
    ckpt = _pinned_checkpoint()
    ckpt.params["stem/w"] = np.full((3, 4), value)
    ckpt.velocity["stem/w"] = np.full((3, 4), -value)
    path = tmp_path / "squares.ckpt"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.params["stem/w"].tobytes() == ckpt.params["stem/w"].tobytes()
    assert loaded.velocity["stem/w"].tobytes() == ckpt.velocity["stem/w"].tobytes()


def test_checkpoint_record_with_a_zero_extent_loads(tmp_path):
    ckpt = _pinned_checkpoint()
    ckpt.params["stem/w"] = np.zeros((3, 0))
    ckpt.velocity["stem/w"] = np.zeros((0, 4))
    path = tmp_path / "empty.ckpt"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.params["stem/w"].shape == (3, 0) and loaded.velocity["stem/w"].shape == (0, 4)
    for key in ckpt.params:
        if key != "stem/w":
            np.testing.assert_array_equal(loaded.params[key],
                                          np.asarray(ckpt.params[key], np.float64), strict=True)


def test_evaluate_label_mismatch(corpus, tmp_path):
    manifest, root = corpus
    ckpt, _ = train(_fast_cfg(epochs=1), manifest, root)
    other_root = tmp_path / "other"
    other = synth_generate(seed=2, n_samples=2, n_labels=6, input_size=32,
                           out_dir=other_root)
    with pytest.raises(ConfigurationError):
        evaluate(ckpt, other, other_root)


def test_evaluate_rejects_reordered_labels(corpus):
    # the same images and targets with the header and every row reversed
    manifest, root = corpus
    ckpt, _ = train(_fast_cfg(epochs=1), manifest, root)
    reordered = Manifest(manifest.label_names[::-1],
                         [DatasetRecord(r.image_path, r.distribution[::-1])
                          for r in manifest.records])
    with pytest.raises(ConfigurationError, match="differ"):
        evaluate(ckpt, reordered, root)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_predict_batch_rejects_batch_size_below_one(corpus, batch_size):
    manifest, root = corpus
    model = build_model(_fast_cfg(), manifest.n_labels)
    with pytest.raises(ContractViolation, match="batch_size"):
        predict_batch(model, load_pixels(manifest, root, 32)[:2], batch_size=batch_size)


def test_evaluate_produces_report(corpus):
    manifest, root = corpus
    ckpt, _ = train(_fast_cfg(epochs=1), manifest, root)
    report = evaluate(ckpt, manifest, root)
    assert report.n == len(manifest)
    assert 0 <= report.mean["intersection"] <= 1
    # uint8 pixels scaled per batch give the bits of the float64 corpus
    model = ckpt.build_model()
    floats = predict_batch(model, load_images(manifest, root, 32))
    np.testing.assert_array_equal(predict_batch(model, load_pixels(manifest, root, 32)), floats)
    assert report.mean == evaluate_metrics(manifest.distributions(), floats).mean


def test_build_model_respects_config():
    cfg = TrainConfig(R=3, ablation="full", input_size=32)
    model = build_model(cfg, n_labels=5)
    assert model.effective_orders == 3 and model.n_labels == 5


# ------------------------------------------------ rebuilding a checkpoint
class _CountingRng:
    """A generator that counts its `normal` calls."""

    def __init__(self, rng):
        self.rng = rng
        self.normal_calls = 0

    def normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self.rng.normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.fixture
def init_rngs(monkeypatch):
    """Every generator the model makes while the test runs, counting its draws."""
    made = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(_CountingRng(real(*args, **kwargs)))
        return made[-1]

    monkeypatch.setattr(model_mod.np.random, "default_rng", counting)
    return made


def _stepped_checkpoint(cfg):
    """A 4-label model after one SGD step, so no weight equals its init,
    and its checkpoint; the static adjacency is not the identity."""
    rng = np.random.default_rng(8)
    x = rng.random((3, 3, cfg.input_size, cfg.input_size))
    targets = rng.dirichlet(np.ones(4), size=3)
    adjacency = rng.dirichlet(np.ones(4), size=4)
    model = build_model(cfg, 4)
    model.set_static_adjacency(adjacency)
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
    out = model.forward(Tensor(x))
    total_loss(pred_loss(out.y_e, out.y_emotion, targets), model.adversary(out)).backward()
    opt.step()
    ckpt = Checkpoint(config=cfg, n_labels=4, label_names=list("abcd"), epoch=1,
                      params={k: t.data.copy() for k, t in model.parameters().items()},
                      velocity={k: v.copy() for k, v in opt.velocity.items()},
                      adjacency=adjacency)
    return model, ckpt, x


@pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
def test_rebuilt_model_draws_no_init_and_predicts_like_the_trained_one(preset, tmp_path,
                                                                       init_rngs):
    cfg = _fast_cfg(ablation=preset)
    model, ckpt, x = _stepped_checkpoint(cfg)
    assert sum(r.normal_calls for r in init_rngs) > 0  # the guard sees the init draws
    path = tmp_path / f"{preset}.ckpt"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    known = len(init_rngs)
    rebuilt = loaded.build_model()
    assert len(init_rngs) == known + 1 and init_rngs[-1].normal_calls == 0
    np.testing.assert_array_equal(predict_batch(rebuilt, x), predict_batch(model, x))


def test_rebuilt_models_own_their_parameters():
    """An in-memory checkpoint's writable records are not the predictor's:
    each predictor gets read-only copies of its own."""
    _, ckpt, _ = _stepped_checkpoint(_fast_cfg(ablation="full"))
    first = ckpt.build_model().parameters()
    second = ckpt.build_model().parameters()
    forward_keys = [k for k in ckpt.params if not k.startswith("adversary/")]
    assert len(forward_keys) < len(ckpt.params)
    assert list(first) == list(second) == forward_keys
    for key in forward_keys:
        arr = ckpt.params[key]
        np.testing.assert_array_equal(first[key].data, arr, strict=True)
        for t in (first[key], second[key]):
            assert t.data.flags.owndata and not t.data.flags.writeable, key
        assert not np.shares_memory(first[key].data, second[key].data)
        assert not np.shares_memory(first[key].data, arr)
        assert not np.shares_memory(second[key].data, arr)


@pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
def test_predictor_holds_no_adversary(preset):
    """The predictor's parameters are the checkpoint's minus `adversary/*`,
    in checkpoint order. Its `adversary()` raises where the preset has an
    adversary, and is the constant 0 where it has none, as in training."""
    model, ckpt, x = _stepped_checkpoint(_fast_cfg(ablation=preset))
    predictor = ckpt.build_model()
    assert list(predictor.parameters()) == [k for k in ckpt.params
                                            if not k.startswith("adversary/")]
    out = predictor.forward(Tensor(x))
    if model.adv_head3 is not None:
        with pytest.raises(ContractViolation, match="no adversary heads"):
            predictor.adversary(out)
    else:
        assert predictor.adversary(out).item() == 0.0 == model.adversary(out).item()


@pytest.mark.parametrize("edit", ["missing", "reshaped"])
def test_build_model_still_checks_the_adversary_records(edit):
    _, ckpt, _ = _stepped_checkpoint(_fast_cfg(ablation="full"))
    params = dict(ckpt.params)
    key = "adversary/stage3/fc1/w"
    if edit == "missing":
        del params[key]
    else:
        params[key] = params[key].reshape(-1, 1)
    with pytest.raises(FormatError, match="keys do not match" if edit == "missing" else key):
        dataclasses.replace(ckpt, params=params).build_model()


def test_build_model_draws_the_same_init_after_skip_init():
    cfg = _fast_cfg(ablation="full")
    before = {k: t.data.copy() for k, t in build_model(cfg, 4).parameters().items()}
    with pytest.raises(FormatError):
        with skip_init():
            build_model(cfg, 4)
            raise FormatError("leaving the block by an exception")
    Checkpoint(config=cfg, n_labels=4, label_names=list("abcd"), epoch=0, params=before,
               velocity=before, adjacency=np.eye(4)).build_model()
    after = build_model(cfg, 4).parameters()
    assert set(after) == set(before)
    for key, arr in before.items():
        np.testing.assert_array_equal(after[key].data, arr)


# ----------------------------------------------------------- inference
@pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
def test_predict_batch_matches_taped_forward(preset):
    model = build_model(_fast_cfg(ablation=preset), n_labels=4)
    x = np.random.default_rng(3).random((3, 3, 32, 32))
    taped = model.forward(Tensor(x)).y
    assert taped._grad_fn is not None
    np.testing.assert_array_equal(predict_batch(model, x), taped.data)


def test_training_after_predict_records_tape():
    model = build_model(_fast_cfg(ablation="full"), n_labels=4)
    x = np.random.default_rng(4).random((2, 3, 32, 32))
    targets = np.random.default_rng(5).dirichlet(np.ones(4), size=2)
    predict_batch(model, x)
    params = model.parameters()
    assert all(t.requires_grad for t in params.values())

    def loss_value():
        out = model.forward(Tensor(x))
        return pred_loss(out.y_e, out.y_emotion, targets)

    loss = loss_value()
    assert loss._grad_fn is not None
    loss.backward()
    h = 1e-6
    for key in ("backbone/stage0/down/w", "fusion/conv_sc/w", "gcn/w_s"):
        param = params[key]
        flat = param.data.reshape(-1)
        for i in (0, flat.size // 2):
            keep = flat[i]
            with no_grad():
                flat[i] = keep + h
                up = loss_value().item()
                flat[i] = keep - h
                down = loss_value().item()
            flat[i] = keep
            numeric = (up - down) / (2 * h)
            analytic = param.grad.reshape(-1)[i]
            assert abs(analytic - numeric) <= 1e-6 + 1e-4 * abs(numeric), (key, i)
