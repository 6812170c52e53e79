"""Heap held by one training step: the backward frees the tape it walks,
and stride-1 convs put no patch matrix on it. Heap held by a training
run: the corpus stays resident as uint8 pixels."""
import dataclasses
import tracemalloc

import numpy as np

from styledl.dataio import synth_generate
from styledl.losses import pred_loss, total_loss
from styledl.tensor import SGD, Tensor
from styledl.training import TrainConfig, build_model, train


def _forward_loss(model, x, targets):
    out = model.forward(Tensor(x))
    return total_loss(pred_loss(out.y_e, out.y_emotion, targets), model.adversary(out))


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


def test_backward_frees_the_forward_buffers():
    """One `full` step at 64 px, batch 8. Relative to the heap the forward
    leaves live (activations, stride-2 patch matrices, x_hat, masks), the
    backward may rise by at most a quarter, and at most a quarter may stay
    held once it is done while the loss is still referenced: the parameter
    gradients and little else."""
    after_forward, peak, held, param_bytes = _step_heap("full", 64)
    assert after_forward > 10e6
    assert peak - after_forward <= 0.25 * after_forward, (after_forward, peak)
    assert held <= 0.25 * after_forward, (after_forward, held)
    assert held <= param_bytes + 64 * 1024, (param_bytes, held)
    # the tape held 31.4 MB while every conv kept its im2col matrix
    assert after_forward <= 25e6, after_forward


def test_backbone_tape_at_128px_keeps_no_stride1_patch_matrix():
    """Preset `B` at 128 px, batch 8: the stride-1 convs' patch matrices,
    9x their input, were 50 of the 87 MB the forward left live."""
    after_forward, peak, held, param_bytes = _step_heap("B", 128)
    assert after_forward <= 60e6, after_forward
    assert peak - after_forward <= 0.25 * after_forward, (after_forward, peak)
    assert held <= param_bytes + 64 * 1024, (param_bytes, held)


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
