"""Heap held by one training step: the backward frees the tape it walks,
no conv puts a patch matrix on it, every conv unfold stays under one cap,
and each ConvBlock keeps only x_hat and its output. Heap held by a
training run and by `evaluate`: the corpus stays resident as uint8
pixels."""
import dataclasses
import functools
import tracemalloc

import numpy as np

import styledl.tensor as T
from styledl.backbone import BackboneConfig
from styledl.dataio import synth_generate
from styledl.losses import pred_loss, total_loss
from styledl.tensor import SGD, Tensor
from styledl.training import TrainConfig, build_model, evaluate, predict_batch, train


def _forward_loss(model, x, targets):
    out = model.forward(Tensor(x))
    return total_loss(pred_loss(out.y_e, out.y_emotion, targets), model.adversary(out))


@functools.lru_cache(maxsize=None)
def _step_heap(preset: str, size: int) -> tuple[int, int, int, int]:
    """Heap after the forward, at the backward's peak and after it, for
    one batch-8 step after a warm-up step; and the parameter bytes."""
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
        loss.backward()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    param_bytes = sum(t.data.nbytes for t in model.parameters().values())
    return after_forward, peak, held, param_bytes


def _block_tape_bytes(size: int, R: int) -> int:
    """Bytes the backbone's ConvBlocks must keep on a batch-8 tape: x_hat
    and the output of both blocks of each stage; stages 3 and 4 run on the
    R stacked attention orders."""
    total = 0
    for i, c in enumerate(BackboneConfig().stage_channels):
        side = size >> (i + 1)
        rows = 8 if i < 3 else 8 * R
        total += 2 * 2 * rows * c * side * side * 8
    return total


def test_backward_frees_the_forward_buffers():
    """One `full` step at 64 px, batch 8. The forward leaves at least the
    backbone's x_hat and block outputs live (4.5 MB); the backward may rise
    above what it leaves by the 3.6 MB that a quarter of the 14.5 MB the
    tape held with stride-2 patch matrices admitted, and once it is done
    while the loss is still referenced only the parameter gradients stay
    held."""
    after_forward, peak, held, param_bytes = _step_heap("full", 64)
    assert after_forward > _block_tape_bytes(64, R=2), after_forward
    assert peak - after_forward <= 3.6e6, (after_forward, peak)
    assert held <= param_bytes + 64 * 1024, (param_bytes, held)
    # the tape held 31.4 MB while every conv kept its im2col matrix, and
    # 14.5 MB (step peak 17.9 MB) while the stride-2 convs kept theirs
    assert after_forward <= 10e6, after_forward
    assert peak <= 13.5e6, peak


def test_backbone_tape_at_128px_keeps_no_stride1_patch_matrix():
    """Preset `B` at 128 px, batch 8: the stride-1 convs' patch matrices,
    9x their input, were 50 of the 87 MB the forward left live, and the
    stride-2 ones, 2.25x their input, 15.9 of 32.8 MB (step peak 39.3 MB).
    The backward's rise is bounded by the 8.2 MB that a quarter of those
    32.8 MB admitted."""
    after_forward, peak, held, param_bytes = _step_heap("B", 128)
    assert after_forward <= 20e6, after_forward
    assert peak - after_forward <= 8.2e6, (after_forward, peak)
    assert peak <= 24e6, peak
    assert held <= param_bytes + 64 * 1024, (param_bytes, held)


def test_conv_blocks_keep_only_x_hat_and_output_at_128px():
    """Preset `B` at 128 px, batch 8: with conv, layer_norm and relu as
    three tape nodes (conv output, x_hat, LN output, mask, relu output per
    block) the forward left 50.1 MB live; as one node per block, 32.8 MB."""
    after_forward = _step_heap("B", 128)[0]
    assert after_forward <= 40e6, after_forward


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
