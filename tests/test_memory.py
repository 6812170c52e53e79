"""Heap held by one training step: the backward frees the tape it walks,
no conv puts a patch matrix on it, every conv unfold stays under one cap,
each chain of conv blocks keeps only its x_hats and its last output, and
SGD applied in the walk frees each parameter gradient at once. Heap held
by a training run and by `evaluate`: the corpus stays resident as uint8
pixels. Heap held at inference: a loaded checkpoint maps its file, the
rebuilt model's weights are the mapped records, and a forward frees the
style taps before the deep stages."""
import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

import styledl.tensor as T
from styledl.backbone import BackboneConfig
from styledl.dataio import synth_generate
from styledl.losses import pred_loss, total_loss
from styledl.tensor import SGD, Tensor
from styledl.training import (Checkpoint, TrainConfig, build_model, evaluate, predict_batch,
                              train)


def _forward_loss(model, x, targets):
    out = model.forward(Tensor(x))
    return total_loss(pred_loss(out.y_e, out.y_emotion, targets), model.adversary(out))


@functools.lru_cache(maxsize=None)
def _step_heap(preset: str, size: int, walk_applied: bool = False) -> tuple[int, int, int, int]:
    """Heap after the forward, at the backward's peak and after it, for
    one batch-8 step after a warm-up step; and the parameter bytes. With
    `walk_applied` the backward applies SGD as it pops each parameter, as
    `train()` does."""
    model = build_model(TrainConfig(ablation=preset, R=2, input_size=size), n_labels=8)
    opt = SGD(model.parameters(), lr=0.01, momentum=0.9)
    r = np.random.default_rng(2)
    x = r.random((8, 3, size, size))
    targets = r.dirichlet(np.ones(8), size=8)
    _forward_loss(model, x, targets).backward()
    opt.step()
    opt.zero_grad()

    tracemalloc.start()
    try:
        loss = _forward_loss(model, x, targets)
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward(opt.update if walk_applied else None)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    param_bytes = sum(t.data.nbytes for t in model.parameters().values())
    return after_forward, peak, held, param_bytes


def _block_tape_bytes(size: int, R: int) -> int:
    """Bytes the backbone's stage chains must keep on a batch-8 tape: the
    x_hat of both blocks of each stage and the stage's output; stages 3
    and 4 run on the R stacked attention orders."""
    total = 0
    for i, c in enumerate(BackboneConfig().stage_channels):
        side = size >> (i + 1)
        rows = 8 if i < 3 else 8 * R
        total += 3 * rows * c * side * side * 8
    return total


def test_backward_frees_the_forward_buffers():
    """One `full` step at 64 px, batch 8. The forward leaves at least the
    backbone's x_hats and stage outputs live (3.3 MB); the backward may
    rise above what it leaves by the 3.6 MB that a quarter of the 14.5 MB
    the tape held with stride-2 patch matrices admitted, and once it is
    done while the loss is still referenced only the parameter gradients
    stay held."""
    after_forward, peak, held, param_bytes = _step_heap("full", 64)
    assert after_forward > _block_tape_bytes(64, R=2), after_forward
    assert peak - after_forward <= 3.6e6, (after_forward, peak)
    assert held <= param_bytes + 64 * 1024, (param_bytes, held)
    # the tape held 31.4 MB while every conv kept its im2col matrix, 14.5 MB
    # (step peak 17.9 MB) while the stride-2 convs kept theirs, and 9.0 MB
    # (step peak 12.5 MB) while each stage kept its first block's output
    assert after_forward <= 7.8e6, after_forward
    assert peak <= 11.5e6, peak


def test_backbone_tape_at_128px_keeps_no_stride1_patch_matrix():
    """Preset `B` at 128 px, batch 8: the stride-1 convs' patch matrices,
    9x their input, were 50 of the 87 MB the forward left live, and the
    stride-2 ones, 2.25x their input, 15.9 of 32.8 MB (step peak 39.3 MB).
    The backward's rise is bounded by the 8.2 MB that a quarter of those
    32.8 MB admitted."""
    after_forward, peak, held, param_bytes = _step_heap("B", 128)
    assert after_forward <= 13.5e6, after_forward
    assert peak - after_forward <= 8.2e6, (after_forward, peak)
    assert peak <= 19.0e6, peak
    assert held <= param_bytes + 64 * 1024, (param_bytes, held)


def test_conv_blocks_keep_only_x_hat_and_output_at_128px():
    """Preset `B` at 128 px, batch 8: with conv, layer_norm and relu as
    three tape nodes (conv output, x_hat, LN output, mask, relu output per
    block) the forward left 50.1 MB live; as one node per block, 32.8 MB
    with stride-2 patch matrices and 16.9 MB without; as one chain per
    stage, whose first block's output the backward recomputes, 12.8 MB."""
    after_forward = _step_heap("B", 128)[0]
    assert after_forward <= 13.5e6, after_forward


def test_sgd_in_the_walk_holds_no_parameter_gradient():
    """The same steps with SGD applied as the walk pops each parameter:
    every gradient is dropped once applied, so the backward's peak lies
    below the plain backward's (full 64 px: 10.97 MB; B 128 px: 18.22 MB)
    and nothing but the loss's own gradient stays held."""
    for preset, size, peak_bound in (("full", 64, 9.9e6), ("B", 128, 17.6e6)):
        after_forward, peak, held, _ = _step_heap(preset, size, walk_applied=True)
        assert peak <= peak_bound, (preset, peak)
        assert peak < _step_heap(preset, size)[1], preset
        assert held <= 64 * 1024, (preset, held)


def test_untracked_chain_keeps_no_x_hat():
    """A batch-16 `predict_batch` of preset `B` at 128 px runs its stage
    chains without a tape. Blocks run one `conv_block` at a time peaked
    at 13.18 MB; a chain that kept each block's x_hat through the next
    block's conv, at 16.85 MB; the chain now peaks at 12.65 MB."""
    model = build_model(TrainConfig(ablation="B", R=2, input_size=128), n_labels=8)
    images = np.random.default_rng(4).random((16, 3, 128, 128))
    predict_batch(model, images)
    tracemalloc.start()
    try:
        predict_batch(model, images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13.2e6, peak


def test_every_conv_unfold_fits_the_cap(monkeypatch):
    """Every patch matrix `conv2d` unfolds in a `full` 64 px train step, a
    `B` 128 px train step (batch 8 each) and a batch-16 `predict_batch`
    stays under `_UNFOLD_BYTES`, unless it covers one sample that alone
    exceeds it. Unfolding the whole batch at once made a 7.1 MB stem
    matrix at 128 px and a 9.0 MiB one in the 64 px predict forward."""
    unfolds, im2col = [], T._im2col

    def recorded(x, *args):
        cols = im2col(x, *args)
        unfolds.append((x.shape[0], cols.nbytes))
        return cols

    monkeypatch.setattr(T, "_im2col", recorded)
    r = np.random.default_rng(3)
    for preset, size in (("full", 64), ("B", 128)):
        model = build_model(TrainConfig(ablation=preset, R=2, input_size=size), n_labels=8)
        _forward_loss(model, r.random((8, 3, size, size)),
                      r.dirichlet(np.ones(8), size=8)).backward()
    model = build_model(TrainConfig(ablation="full", R=2, input_size=64), n_labels=8)
    predict_batch(model, r.random((16, 3, 64, 64)), batch_size=16)
    assert len(unfolds) > 30
    too_large = [(n, nbytes) for n, nbytes in unfolds if nbytes > T._UNFOLD_BYTES and n > 1]
    assert too_large == [], too_large


def _train_peak(manifest, root) -> int:
    cfg = TrainConfig(ablation="B", epochs=1, input_size=64, lr=0.001)
    tracemalloc.start()
    try:
        train(cfg, manifest, root)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_corpus_is_resident_as_uint8(tmp_path):
    """Preset `B` at 64 px, one epoch of batch-8 steps on 8 and on 40
    images: the 32 extra images may raise the run's peak by at most twice
    their uint8 bytes. A float64 corpus would raise it by eight times."""
    manifest = synth_generate(seed=0, n_samples=40, n_labels=8, input_size=64,
                              out_dir=tmp_path)
    small = _train_peak(dataclasses.replace(manifest, records=manifest.records[:8]), tmp_path)
    large = _train_peak(manifest, tmp_path)
    extra_bytes = 32 * 3 * 64 * 64
    assert large - small <= 2 * extra_bytes, (small, large)


def test_evaluate_holds_the_corpus_as_uint8(tmp_path):
    """`evaluate` of preset `B` at 128 px on 64 images: a float64 corpus
    (24 MiB here) put its peak at 70.5 MiB; uint8 pixels scaled one batch
    at a time put it at 55.5 MiB, 37.7 MB of it the whole-batch unfold of
    the 64 px stride-1 conv; chunked unfolds put it at 23.9 MiB."""
    manifest = synth_generate(seed=0, n_samples=64, n_labels=8, input_size=128,
                              out_dir=tmp_path)
    cfg = TrainConfig(ablation="B", epochs=1, input_size=128, lr=0.001)
    checkpoint, _ = train(cfg, dataclasses.replace(manifest, records=manifest.records[:8]),
                          tmp_path)
    tracemalloc.start()
    try:
        evaluate(checkpoint, manifest, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * 2**20, peak


def _traced(fn):
    """What `fn()` returns, and the heap it leaves held and its peak."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def _save_full_checkpoint(path, size: int) -> int:
    """Save a `full` checkpoint of an untrained model at `size` px to
    `path`, parameters and momentum; return its parameter bytes."""
    model = build_model(TrainConfig(ablation="full", input_size=size), n_labels=8)
    params = {k: t.data for k, t in model.parameters().items()}
    Checkpoint(config=model.cfg, n_labels=8, label_names=[f"l{i}" for i in range(8)], epoch=0,
               params=params, velocity={k: np.zeros_like(v) for k, v in params.items()},
               adjacency=np.eye(8)).save(path)
    return sum(v.nbytes for v in params.values())


@pytest.fixture(scope="module")
def full_checkpoint(tmp_path_factory) -> tuple[str, int]:
    """A `full` 64 px checkpoint file (7.08 MB) and its parameter bytes."""
    path = tmp_path_factory.mktemp("ckpt") / "full.ckpt"
    return path, _save_full_checkpoint(path, 64)


def test_checkpoint_load_maps_the_file(full_checkpoint):
    """Reading the whole file held a private 7.08 MB copy of it; mapped,
    the load holds only its dicts and array headers."""
    path, _ = full_checkpoint
    _, held, peak = _traced(lambda: Checkpoint.load(path))
    assert held <= 256 * 1024, held
    assert peak <= 256 * 1024, peak


def test_build_model_holds_one_copy_of_each_weight(full_checkpoint):
    """`Checkpoint.load(p).build_model()` peaked at 11.88 MB for 3.54 MB
    of parameters: the file's copy, every placeholder and every copy of a
    record. Copied into the placeholders, it peaked at the parameters and
    held the 2.73 MB of weights the forward reads. The one copy is now the
    file's mapping: the predictor's weights are its records, and the heap
    holds only the model's objects (24 KB held, 93 KB peak)."""
    path, _ = full_checkpoint
    model, held, peak = _traced(lambda: Checkpoint.load(path).build_model())
    assert sum(t.data.nbytes for t in model.parameters().values()) > 2.7e6
    assert held <= 64 * 1024, held
    assert peak <= 256 * 1024, peak


def test_predictor_holds_only_its_forward_weights(full_checkpoint):
    """The adversary heads, 0.80 of the 3.54 MB of parameters, only train:
    the predictor checks their records but does not keep them. Seen on an
    in-memory checkpoint, whose kept records the predictor copies."""
    path, _ = full_checkpoint
    ckpt = Checkpoint.load(path)
    ckpt = dataclasses.replace(ckpt, params={k: v.copy() for k, v in ckpt.params.items()})
    forward_bytes = sum(v.nbytes for k, v in ckpt.params.items()
                        if not k.startswith("adversary/"))
    assert forward_bytes < 2.8e6
    _, held, _ = _traced(ckpt.build_model)
    assert held <= forward_bytes + 64 * 1024, (forward_bytes, held)


@pytest.mark.parametrize("size", [64, 128])
def test_build_model_peaks_at_the_predictor_weights(tmp_path, size):
    """While the dropped adversary heads got buffers of their own, loading
    and building a `full` checkpoint peaked at 1.34x (64 px) and 2.16x
    (128 px) the predictor's parameter bytes. With shape-only
    placeholders it peaked at the kept copies plus the load's records;
    with the records kept in place it peaks at the model's objects."""
    path = tmp_path / "full.ckpt"
    _save_full_checkpoint(path, size)
    model, _, peak = _traced(lambda: Checkpoint.load(path).build_model())
    own = sum(t.data.nbytes for t in model.parameters().values())
    assert peak <= 1.05 * own, (own, peak, peak / own)


def test_forward_frees_the_style_taps_before_the_deep_stages():
    """A batch-16 `predict_batch` of `full` at 64 px peaked at 5.99 MB
    while the taps lived through the attention and stages 3-4; the style
    path now runs first and the forward drops them, 4.69 MB."""
    model = build_model(TrainConfig(ablation="full", input_size=64), n_labels=8)
    images = np.random.default_rng(4).random((16, 3, 64, 64))
    predict_batch(model, images)
    _, _, peak = _traced(lambda: predict_batch(model, images))
    assert peak <= 4.85e6, peak
