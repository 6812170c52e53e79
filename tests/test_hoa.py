"""Attention orders, stacked per-order encoding, pyramid fusion, adversary."""
import numpy as np
import pytest

from conftest import gradcheck
import styledl.tensor as T
from styledl.errors import ContractViolation
from styledl.hoa import (AdversaryHead, HighOrderAttention, adversary_loss,
                         encode_orders, fpn_fuse)
from styledl.layers import Conv1x1, ConvBlock
from styledl.tensor import Tensor

rng = np.random.default_rng(21)


def _seeded_attention(channels=2, orders=2, seed=0):
    return HighOrderAttention(np.random.default_rng(seed), channels, orders)


def test_order_one_is_double_projection():
    att = _seeded_attention(channels=1, orders=1)
    att.inner[0][0].w.data[:] = 2.0
    att.inner[0][0].b.data[:] = 0.0
    att.outer[0][0].w.data[:] = 3.0
    att.outer[0][0].b.data[:] = 1.0
    x = Tensor(np.array([[[[1.0, -2.0], [0.5, 4.0]]]]))
    (out,) = att(x)
    np.testing.assert_allclose(out.data, 6.0 * x.data + 1.0)


def test_order_two_multiplies_projections():
    att = _seeded_attention(channels=1, orders=2)
    for conv, scale in zip(att.inner[1], (2.0, 3.0)):
        conv.w.data[:] = scale
        conv.b.data[:] = 0.0
    for conv, scale in zip(att.outer[1], (1.0, 1.0)):
        conv.w.data[:] = scale
        conv.b.data[:] = 0.0
    x = Tensor(np.full((1, 1, 1, 1), 5.0))
    outs = att(x)
    assert len(outs) == 2
    # order 2: (2x)(3x) = 6 x^2 = 150, then two unit outer convs sum to 300
    np.testing.assert_allclose(outs[1].data, [[[[300.0]]]])


def test_orders_count_and_param_count():
    att = _seeded_attention(channels=3, orders=3)
    outs = att(Tensor(rng.random((2, 3, 4, 4))))
    assert len(outs) == 3
    assert all(o.shape == (2, 3, 4, 4) for o in outs)
    # 1+2+3 inner plus as many outer convs, each with w and b
    assert len(att.params("hoa")) == 2 * (6 + 6)


def test_rejects_bad_order_and_input():
    att = _seeded_attention(channels=2)
    with pytest.raises(ContractViolation):
        att(Tensor(np.zeros((1, 3, 4, 4))))


def test_encode_orders_runs_stages_in_sequence():
    att_maps = [Tensor(rng.random((1, 2, 8, 8))) for _ in range(2)]
    f3 = ConvBlock(np.random.default_rng(1), 2, 4, stride=2)
    f4 = ConvBlock(np.random.default_rng(2), 4, 8, stride=2)
    x3, x4 = encode_orders(att_maps, f3, f4)
    assert x3.shape == (2, 4, 4, 4)
    assert x4.shape == (2, 8, 2, 2)
    with pytest.raises(ContractViolation):
        encode_orders([], f3, f4)


@pytest.mark.parametrize("orders", [1, 2, 3])
def test_encode_orders_stacked_matches_per_order(orders):
    att_maps = [Tensor(rng.standard_normal((2, 2, 8, 8))) for _ in range(orders)]
    f3 = ConvBlock(np.random.default_rng(1), 2, 4, stride=2)
    f4 = ConvBlock(np.random.default_rng(2), 4, 8, stride=2)
    x3, x4 = encode_orders(att_maps, f3, f4)
    assert x3.shape[0] == x4.shape[0] == 2 * orders
    for r, a in enumerate(att_maps):
        alone = f3(a)
        block = slice(2 * r, 2 * r + 2)
        np.testing.assert_allclose(x3.data[block], alone.data, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(x4.data[block], f4(alone).data, rtol=1e-12, atol=1e-12)


def test_fpn_shapes_and_mismatch():
    lateral = Conv1x1(np.random.default_rng(3), 8, 4)
    x3 = Tensor(rng.random((2, 4, 4, 4)))
    x4 = Tensor(rng.random((2, 8, 2, 2)))
    assert fpn_fuse(x3, x4, lateral).shape == (2, 4, 4, 4)
    with pytest.raises(ContractViolation):
        fpn_fuse(x3, Tensor(rng.random((1, 8, 2, 2))), lateral)


def test_fpn_additive_identity():
    # zero lateral conv leaves the shallow map untouched
    lateral = Conv1x1(np.random.default_rng(4), 8, 4)
    lateral.w.data[:] = 0.0
    lateral.b.data[:] = 0.0
    x3 = Tensor(rng.random((1, 4, 4, 4)))
    x4 = Tensor(rng.random((1, 8, 2, 2)))
    np.testing.assert_array_equal(fpn_fuse(x3, x4, lateral).data, x3.data)


class _StubHead:
    """Returns scripted projections regardless of input: row block r of
    the stacked rows gets outputs[r]."""

    def __init__(self, outputs):
        self.outputs = np.asarray(outputs, dtype=np.float64)

    def __call__(self, x):
        return Tensor(np.repeat(self.outputs, x.shape[0] // len(self.outputs), axis=0))


def test_adversary_zero_at_single_order():
    head = AdversaryHead(np.random.default_rng(5), in_dim=8)
    x3 = Tensor(rng.random((2, 2, 2, 1)))
    x4 = Tensor(rng.random((2, 2, 2, 1)))
    loss = adversary_loss(x3, x4, head, head, 1)
    assert loss.item() == 0.0


def test_adversary_hand_value_100():
    # projections [0,0] and [3,4]: each ordered pair contributes 25,
    # two pairs per stage, two stages -> 100
    stub = _StubHead([[0.0, 0.0], [3.0, 4.0]])
    stacked = Tensor(np.concatenate([np.zeros((1, 2, 1, 1)), np.ones((1, 2, 1, 1))]))
    loss = adversary_loss(stacked, stacked, stub, stub, 2)
    assert loss.item() == 100.0


def test_adversary_batch_mean():
    stub = _StubHead([[0.0, 0.0], [3.0, 4.0]])
    stacked = Tensor(np.concatenate([np.zeros((4, 2, 1, 1)), np.ones((4, 2, 1, 1))]))
    loss = adversary_loss(stacked, stacked, stub, stub, 2)
    # per stage with batch 4: (25+25)*4 rows / 4 = 50; two stages -> 100
    assert loss.item() == 100.0
    with pytest.raises(ContractViolation):
        adversary_loss(stacked, stacked, stub, stub, 3)


def test_adversary_sums_every_ordered_pair():
    # three orders, projections 0, 1 and 3 on one axis: ordered pairs give
    # 2 * (1 + 9 + 4) = 28 per stage
    stub = _StubHead([[0.0], [1.0], [3.0]])
    stacked = Tensor(np.zeros((3, 1, 1, 1)))
    assert adversary_loss(stacked, stacked, stub, stub, 3).item() == 56.0


def test_adversary_gradient_is_reversed():
    head = AdversaryHead(np.random.default_rng(6), in_dim=4, hidden=8, out_dim=3)
    base = rng.standard_normal((2, 1, 2, 2))
    other = rng.standard_normal((2, 1, 2, 2))

    def run(reverse: bool):
        a = Tensor(base.copy(), requires_grad=True)
        b = Tensor(other.copy(), requires_grad=True)
        if reverse:
            stacked = T.concat([a, b], axis=0)
            # stage 4 gets a constant copy, so a and b see stage 3's gradient only
            loss = adversary_loss(stacked, Tensor(stacked.data), head, head, 2)
        else:
            flatten = [t.reshape(2, -1) for t in (a, b)]
            projections = [head(f) for f in flatten]
            diff01 = projections[0] - projections[1]
            diff10 = projections[1] - projections[0]
            loss = ((diff01 * diff01).sum() + (diff10 * diff10).sum()) / 2
        loss.backward()
        return a.grad, b.grad

    ga_rev, gb_rev = run(True)
    ga_fwd, gb_fwd = run(False)
    np.testing.assert_allclose(ga_rev, -ga_fwd, rtol=1e-12)
    np.testing.assert_allclose(gb_rev, -gb_fwd, rtol=1e-12)


def test_grad_hoa_to_fpn_composite():
    att = _seeded_attention(channels=2, orders=2, seed=7)
    f3 = ConvBlock(np.random.default_rng(8), 2, 2, stride=2)
    f4 = ConvBlock(np.random.default_rng(9), 2, 2, stride=2)
    lateral = Conv1x1(np.random.default_rng(10), 2, 2)

    def path(x):
        x3, x4 = encode_orders(att(x), f3, f4)
        return fpn_fuse(x3, x4, lateral)

    gradcheck(path, rng.standard_normal((1, 2, 4, 4)))
