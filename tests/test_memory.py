"""Heap held by one training step: the backward frees the tape it walks."""
import tracemalloc

import numpy as np

from styledl.losses import pred_loss, total_loss
from styledl.tensor import SGD, Tensor
from styledl.training import TrainConfig, build_model


def _forward_loss(model, x, targets):
    out = model.forward(Tensor(x))
    return total_loss(pred_loss(out.y_e, out.y_emotion, targets), model.adversary(out))


def test_backward_frees_the_forward_buffers():
    """One `full` step at 64 px, batch 8. Relative to the heap the forward
    leaves live (saved im2col matrices, x_hat, masks), the backward may
    rise by at most a quarter, and at most a quarter may stay held once it
    is done while the loss is still referenced (the parameter gradients)."""
    model = build_model(TrainConfig(ablation="full", R=2, input_size=64), n_labels=8)
    opt = SGD(model.parameters(), lr=0.01, momentum=0.9)
    r = np.random.default_rng(2)
    x = r.random((8, 3, 64, 64))
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
    assert after_forward > 10e6
    assert peak - after_forward <= 0.25 * after_forward, (after_forward, peak)
    assert held <= 0.25 * after_forward, (after_forward, held)
