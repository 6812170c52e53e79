"""Config parsing, schedule, training loop behavior, checkpoint format."""
import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

import styledl.model as model_mod
import styledl.training as train_mod
from styledl.cli import main
from styledl.dataio import load_images, load_pixels, synth_generate
from styledl.errors import ConfigurationError, FormatError, TrainingError
from styledl.losses import pred_loss, total_loss
from styledl.metrics import evaluate_metrics
from styledl.model import ABLATION_PRESETS
from styledl.tensor import SGD, Tensor, no_grad, skip_init
from styledl.training import (Checkpoint, TrainConfig, build_model, evaluate,
                           load_train_config, lr_at, predict_batch, save_train_config,
                           train)


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
def test_config_round_trip(tmp_path):
    cfg = TrainConfig(R=3, lam=0.5, mu=0.4, lr=0.02, epochs=7, ablation="B+G",
                      flip=False, seed=9)
    path = tmp_path / "train.cfg"
    save_train_config(cfg, path)
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


# SHA-256 of the SEDL1 file `_pinned_checkpoint().save` wrote when it was
# recorded; it pins the record order, the config-field order and the preset codes.
PINNED_SEDL1_SHA256 = "978aa12b9dcf8e154344bcd3fff2934e31e080d9f6988a63156690f6dc7d399a"


def test_checkpoint_bytes_are_pinned(tmp_path):
    ckpt = _pinned_checkpoint()
    path = tmp_path / "pinned.ckpt"
    ckpt.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SEDL1_SHA256
    loaded = Checkpoint.load(path)
    assert loaded.config == ckpt.config
    assert (loaded.n_labels, loaded.label_names, loaded.epoch) == (3, ["joy", "awe", "fear"], 7)
    np.testing.assert_array_equal(loaded.adjacency, ckpt.adjacency)
    for loaded_arrays, arrays in ((loaded.params, ckpt.params), (loaded.velocity, ckpt.velocity)):
        assert list(loaded_arrays) == list(arrays)
        for key, arr in arrays.items():
            arr = np.atleast_1d(arr)  # SEDL1 stores a 0-d array with shape (1,)
            assert loaded_arrays[key].dtype == np.float64 and loaded_arrays[key].shape == arr.shape
            np.testing.assert_array_equal(loaded_arrays[key], arr)


@pytest.mark.parametrize("overrides, entry", [
    (dict(label_names=["joy", "awe"]), "meta/label_names"),
    (dict(adjacency=np.eye(2)), "adjacency/static")])
def test_checkpoint_label_count_must_agree(tmp_path, capsys, overrides, entry):
    path = tmp_path / "mismatch.ckpt"
    _pinned_checkpoint(**overrides).save(path)
    with pytest.raises(FormatError, match=f"mismatch.ckpt: entry '{entry}'"):
        Checkpoint.load(path)
    assert main(["predict", "--checkpoint", str(path), "--image", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: entry '{entry}'") and err.count("\n") == 1, err


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(FormatError):
        Checkpoint.load(p)


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
    ("config/gram_normalize", 0.5)])
def test_checkpoint_corrupt_values_raise_format_error(corpus, tmp_path, key, value):
    manifest, root = corpus
    path = tmp_path / "bad.ckpt"
    train(_fast_cfg(epochs=1), manifest, root, out_path=path)
    buf = bytearray(path.read_bytes())
    at = buf.index(key.encode()) + len(key) + 8  # past the rank and the one extent
    buf[at:at + 8] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(buf))
    with pytest.raises(FormatError, match=key.split("/")[-1]):
        Checkpoint.load(path)


def test_loaded_records_are_read_only_and_the_rebuilt_model_owns_its_params(corpus, tmp_path):
    manifest, root = corpus
    path = tmp_path / "views.ckpt"
    train(_fast_cfg(epochs=1, ablation="full"), manifest, root, out_path=path)
    ckpt = Checkpoint.load(path)
    for arr in [*ckpt.params.values(), *ckpt.velocity.values(), ckpt.adjacency]:
        assert not arr.flags.writeable
    model = ckpt.build_model()
    assert model.static_adjacency.flags.owndata
    for key, t in model.parameters().items():
        assert t.data.flags.owndata and t.data.flags.writeable, key
        np.testing.assert_array_equal(t.data, ckpt.params[key])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_value_is_a_format_error(corpus, tmp_path, capsys, value):
    manifest, root = corpus
    path = tmp_path / "nonfinite.ckpt"
    train(_fast_cfg(epochs=1, ablation="full"), manifest, root, out_path=path)
    key = "param/backbone/stage0/down/w"
    buf = bytearray(path.read_bytes())
    at = buf.index(key.encode()) + len(key) + 4 + 4 * 4 + 8 * 5  # rank, 4 extents, 6th value
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


def test_evaluate_label_mismatch(corpus, tmp_path):
    manifest, root = corpus
    ckpt, _ = train(_fast_cfg(epochs=1), manifest, root)
    other_root = tmp_path / "other"
    other = synth_generate(seed=2, n_samples=2, n_labels=6, input_size=32,
                           out_dir=other_root)
    with pytest.raises(ConfigurationError):
        evaluate(ckpt, other, other_root)


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
    _, ckpt, _ = _stepped_checkpoint(_fast_cfg(ablation="full"))
    first = ckpt.build_model().parameters()
    second = ckpt.build_model().parameters()
    assert set(first) == set(second) == set(ckpt.params)
    for key, arr in ckpt.params.items():
        np.testing.assert_array_equal(first[key].data, arr)
        assert not np.shares_memory(first[key].data, second[key].data)
        assert not np.shares_memory(first[key].data, arr)
        assert not np.shares_memory(second[key].data, arr)


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
