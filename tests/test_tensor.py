"""Autograd engine: finite-difference oracles for every op, API contracts,
the SGD update rule, and the tape the backward consumes."""
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import styledl.tensor as T
from conftest import away_from_kinks, gradcheck, guard_incoming_gradients, tape
from styledl.errors import ConfigurationError, ContractViolation, TrainingError
from styledl.layers import ConvBlock
from styledl.losses import pred_loss, total_loss
from styledl.tensor import SGD, Tensor
from styledl.training import TrainConfig, build_model

rng = np.random.default_rng(7)


# --------------------------------------------------------- gradient oracles
def test_grad_add():
    gradcheck(lambda a, b: a + b, rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))


def test_grad_add_scalar():
    gradcheck(lambda a: a + 2.5, rng.standard_normal((2, 3)))


def test_grad_mul():
    gradcheck(lambda a, b: a * b, rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))


def test_grad_mul_scalar():
    gradcheck(lambda a: a * -1.7, rng.standard_normal((4,)))


def test_grad_neg_sub():
    gradcheck(lambda a, b: -a - b, rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))


def test_grad_rsub_div():
    gradcheck(lambda a: (1.0 - a) / 3.0, rng.standard_normal((3, 3)))


def test_grad_matmul():
    gradcheck(lambda a, b: a @ b, rng.standard_normal((3, 4)), rng.standard_normal((4, 2)))


def test_grad_matmul_batched():
    gradcheck(lambda a, b: a @ b,
              rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4, 2)))


def test_grad_matmul_broadcast_rhs():
    gradcheck(lambda a, b: a @ b,
              rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 2)))


def test_grad_linear():
    gradcheck(lambda x, w, b: T.linear(x, w, b),
              rng.standard_normal((3, 4)), rng.standard_normal((4, 2)),
              rng.standard_normal((2,)))


def test_grad_reshape_flatten_transpose():
    gradcheck(lambda a: a.reshape(2, 6), rng.standard_normal((3, 4)))
    gradcheck(lambda a: a.flatten(), rng.standard_normal((2, 3)))
    gradcheck(lambda a: a.transpose(1, 0), rng.standard_normal((3, 4)))
    gradcheck(lambda a: a.transpose(0, 2, 1), rng.standard_normal((2, 3, 4)))


def test_grad_sum_mean():
    gradcheck(lambda a: a.sum(), rng.standard_normal((3, 4)))
    gradcheck(lambda a: a.sum(axis=1), rng.standard_normal((3, 4)))
    gradcheck(lambda a: a.mean(axis=0), rng.standard_normal((3, 4)))
    gradcheck(lambda a: a.mean(axis=2), rng.standard_normal((2, 3, 4)))


def test_grad_max():
    x = rng.standard_normal((3, 5))
    gradcheck(lambda a: a.max(axis=1), x)
    gradcheck(lambda a: a.max(axis=0), x)


def test_grad_relu_family():
    x = away_from_kinks(rng.standard_normal((4, 4)))
    gradcheck(lambda a: a.relu(), x)
    gradcheck(lambda a: a.leaky_relu(0.2), x)


def test_grad_sigmoid_log_softmax():
    gradcheck(lambda a: a.sigmoid(), rng.standard_normal((3, 4)))
    gradcheck(lambda a: a.log(), rng.random((3, 4)) + 0.5)
    gradcheck(lambda a: a.softmax(axis=1), rng.standard_normal((3, 5)))
    gradcheck(lambda a: a.softmax(axis=0), rng.standard_normal((4, 2)))


def test_grad_clamp_min():
    x = rng.standard_normal((4, 4))
    x = x + np.sign(x - 0.3) * 0.05  # keep clear of the clamp threshold
    gradcheck(lambda a: a.clamp_min(0.3), x)


def test_grad_conv2d():
    x = rng.standard_normal((2, 3, 5, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    gradcheck(lambda a, c, d: T.conv2d(a, c, d), x, w, b)
    gradcheck(lambda a, c, d: T.conv2d(a, c, d, stride=2),
              rng.standard_normal((1, 2, 6, 6)), rng.standard_normal((3, 2, 3, 3)),
              rng.standard_normal(3))
    gradcheck(lambda a, c, d: T.conv2d(a, c, d),
              rng.standard_normal((1, 2, 4, 4)), rng.standard_normal((2, 2, 1, 1)),
              rng.standard_normal(2))
    # batches > 1 mix samples in one im2col matrix; each must get its own gradient
    for bsz in (2, 3):
        gradcheck(lambda a, c, d: T.conv2d(a, c, d, stride=2),
                  rng.standard_normal((bsz, 2, 6, 6)), rng.standard_normal((3, 2, 3, 3)),
                  rng.standard_normal(3))
        gradcheck(lambda a, c, d: T.conv2d(a, c, d),
                  rng.standard_normal((bsz, 3, 3, 3)), rng.standard_normal((2, 3, 1, 1)),
                  rng.standard_normal(2))
        gradcheck(lambda a, c, d: T.conv2d(a, c, d, stride=2),
                  rng.standard_normal((bsz, 2, 5, 7)), rng.standard_normal((2, 2, 3, 3)),
                  rng.standard_normal(2))


def _conv_reference(x, w, b, stride, proj):
    """Forward and the three gradients of sum(conv(x) * proj), by direct
    loops over x zero-padded by k // 2."""
    bsz, cin, h, wid = x.shape
    cout, _, k, _ = w.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wid + 2 * pad - k) // stride + 1
    out = np.zeros((bsz, cout, ho, wo))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for n in range(bsz):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[n, :, i * stride:i * stride + k, j * stride:j * stride + k]
                    out[n, o, i, j] = (patch * w[o]).sum() + b[o]
                    gw[o] += proj[n, o, i, j] * patch
                    gxp[n, :, i * stride:i * stride + k, j * stride:j * stride + k] += (
                        proj[n, o, i, j] * w[o])
    return out, gxp[:, :, pad:pad + h, pad:pad + wid], gw, proj.sum(axis=(0, 2, 3))


# ids read pad-stride-k, the pad being k // 2
K_STRIDE = [pytest.param(k, stride, id=f"{k // 2}-{stride}-{k}")
            for k in (1, 3) for stride in (1, 2)]


@pytest.mark.parametrize("bsz", [1, 3])
@pytest.mark.parametrize("k, stride", K_STRIDE)
def test_conv2d_matches_loop_reference(bsz, k, stride):
    """On a 5x6 map; on a 2x2 one, which a batch of 3 runs
    batch-innermost; and on a 17x18 one, whose output side stays above
    `_BATCH_INNER_SIDE` at either stride."""
    r = np.random.default_rng(100 * bsz + 10 * k + 2 * stride)
    for h, wid in ((5, 6), (2, 2), (17, 18)):
        x = Tensor(r.standard_normal((bsz, 3, h, wid)), requires_grad=True)
        w = Tensor(r.standard_normal((4, 3, k, k)), requires_grad=True)
        b = Tensor(r.standard_normal(4), requires_grad=True)
        out = T.conv2d(x, w, b, stride=stride)
        proj = r.standard_normal(out.shape)
        (out * Tensor(proj)).sum().backward()
        ref_out, ref_gx, ref_gw, ref_gb = _conv_reference(x.data, w.data, b.data, stride, proj)
        for got, want in ((out.data, ref_out), (x.grad, ref_gx), (w.grad, ref_gw),
                          (b.grad, ref_gb)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _as_batch_inner(a):
    """The values of [B,C,H,W] a in a [C,H,W,B] buffer, as a [B,C,H,W] view."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


@pytest.mark.parametrize("k, stride", K_STRIDE)
def test_conv2d_order_comes_from_its_output_not_its_input(k, stride):
    """A conv whose output side is at most `_BATCH_INNER_SIDE` and below
    its batch returns an NCHW view of a [C,H,W,B] buffer; batch 1, a
    batch no larger than the side and larger maps return C order. Either
    way the same values given C-ordered or as a batch-innermost view give
    bit-identical outputs and gradients."""
    r = np.random.default_rng(2000 + 10 * k + 2 * stride)
    for bsz, side in ((5, 4), (3, 6), (9, 20), (1, 6)):
        data = (r.standard_normal((bsz, 3, side, side)), r.standard_normal((4, 3, k, k)),
                r.standard_normal(4))
        proj = r.standard_normal((bsz, 4, (side - 1) // stride + 1, (side - 1) // stride + 1))
        runs = []
        for x_data in (data[0], _as_batch_inner(data[0])):
            x, w, b = (Tensor(a, requires_grad=True) for a in (x_data, *data[1:]))
            out = T.conv2d(x, w, b, stride=stride)
            (out * Tensor(proj)).sum().backward()
            runs.append((out.data, x.grad, w.grad, b.grad))
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)
        out = runs[0][0]
        if out.shape[-1] <= T._BATCH_INNER_SIDE and bsz > out.shape[-1]:
            assert out.transpose(1, 2, 3, 0).flags.c_contiguous and not out.flags.c_contiguous
        else:
            assert out.flags.c_contiguous, (bsz, side)


@pytest.mark.parametrize("k, stride", K_STRIDE)
@pytest.mark.parametrize("tracked", ["x", "w"])
def test_conv2d_one_tracked_operand_matches_loop_reference(k, stride, tracked):
    """With only x or only w tracked, the backward takes the branch that
    computes that one gradient and still matches the loops."""
    r = np.random.default_rng(1000 + 10 * k + 2 * stride)
    x = Tensor(r.standard_normal((2, 3, 5, 6)), requires_grad=tracked == "x")
    w = Tensor(r.standard_normal((4, 3, k, k)), requires_grad=tracked == "w")
    b = Tensor(r.standard_normal(4))
    out = T.conv2d(x, w, b, stride=stride)
    proj = r.standard_normal(out.shape)
    (out * Tensor(proj)).sum().backward()
    _, ref_gx, ref_gw, _ = _conv_reference(x.data, w.data, b.data, stride, proj)
    got, want, untracked = (x.grad, ref_gx, w) if tracked == "x" else (w.grad, ref_gw, x)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert got.flags.c_contiguous and untracked.grad is None and b.grad is None


def test_conv_keeps_no_patch_matrix():
    """A conv's tape holds x and w, which the caller holds anyway, and no
    [Cin*9, B*H'*W'] patch matrix (9x the input at stride 1, 2.25x at
    stride 2), at either stride."""
    r = np.random.default_rng(4)
    x = Tensor(r.standard_normal((8, 8, 32, 32)), requires_grad=True)
    w = Tensor(r.standard_normal((8, 8, 3, 3)), requires_grad=True)
    b = Tensor(r.standard_normal(8), requires_grad=True)
    for stride in (1, 2):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = T.conv2d(x, w, b, stride=stride)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= out.data.nbytes + 64 * 1024, (stride, held, x.data.nbytes)


@pytest.mark.parametrize("stride, side", [(1, 32), (2, 64)])
def test_conv_split_unfold_matches_loop_reference(monkeypatch, stride, side):
    """A conv whose unfold exceeds the cap runs in batch chunks (3 + 1
    samples here, forward and backward) and still matches the loops; the
    output and the input gradient have the bits of an unsplit run."""
    hwo = (side // stride) ** 2
    assert list(T._sample_chunks(4, 8 * 9 * hwo * 8)) == [(0, 3), (3, 4)]
    r = np.random.default_rng(13)
    x_data, w_data, b_data = (r.standard_normal((4, 8, side, side)),
                              r.standard_normal((8, 8, 3, 3)), r.standard_normal(8))
    proj = r.standard_normal((4, 8, side // stride, side // stride))

    def run():
        x, w, b = (Tensor(a, requires_grad=True) for a in (x_data, w_data, b_data))
        out = T.conv2d(x, w, b, stride=stride)
        (out * Tensor(proj)).sum().backward()
        return out.data, x.grad, w.grad, b.grad

    split = run()
    for got, want in zip(split, _conv_reference(x_data, w_data, b_data, stride, proj)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    monkeypatch.setattr(T, "_UNFOLD_BYTES", 1 << 40)
    whole = run()
    np.testing.assert_array_equal(split[0], whole[0])
    np.testing.assert_array_equal(split[1], whole[1])
    np.testing.assert_allclose(split[2], whole[2], rtol=1e-12, atol=1e-12)


def test_conv2d_batch_rows_match_batch_one():
    r = np.random.default_rng(8)
    x = r.standard_normal((5, 4, 7, 7))
    w = Tensor(r.standard_normal((6, 4, 3, 3)))
    b = Tensor(r.standard_normal(6))
    for stride in (1, 2):
        batch = T.conv2d(Tensor(x), w, b, stride=stride).data
        for n in range(len(x)):
            one = T.conv2d(Tensor(x[n:n + 1]), w, b, stride=stride).data
            np.testing.assert_allclose(batch[n:n + 1], one, rtol=1e-12, atol=1e-12)


def test_grad_layer_norm():
    for bsz in (2, 3):
        x = rng.standard_normal((bsz, 3, 2, 2))
        gamma = rng.random(3) + 0.5
        beta = rng.standard_normal(3)
        gradcheck(lambda a, g, b: T.layer_norm(a, g, b), x, gamma, beta)


def test_layer_norm_matches_textbook_reference():
    """With the input and its gradient C-ordered and batch-innermost, the
    two orders whose sums the helpers take as gemv products."""
    r = np.random.default_rng(12)
    x_data = r.standard_normal((3, 4, 5, 6)) * 3.0 + 1.5
    gamma_data, beta_data = r.random(4) + 0.5, r.standard_normal(4)
    g = r.standard_normal(x_data.shape)
    for order in (np.ascontiguousarray, _as_batch_inner):
        _check_layer_norm(order(x_data), gamma_data, beta_data, order(g))


def _check_layer_norm(x_data, gamma_data, beta_data, g):
    x, gamma, beta = (Tensor(a, requires_grad=True) for a in (x_data, gamma_data, beta_data))
    out = T.layer_norm(x, gamma, beta)
    (out * Tensor(g)).sum().backward()
    # per sample: y = gamma * (x - m) / s + beta over its n = C*H*W values
    eps, n = 1e-6, x.data[0].size
    want_out, want_gx = np.empty_like(x.data), np.empty_like(x.data)
    want_gg, want_gb = np.zeros(4), np.zeros(4)
    for i in range(3):
        xi, gi = x.data[i], g[i]
        m = xi.mean()
        s = np.sqrt(((xi - m) ** 2).mean() + eps)
        xhat = (xi - m) / s
        want_out[i] = gamma.data[:, None, None] * xhat + beta.data[:, None, None]
        want_gg += (gi * xhat).sum(axis=(1, 2))
        want_gb += gi.sum(axis=(1, 2))
        dxhat = gi * gamma.data[:, None, None]
        want_gx[i] = (n * dxhat - dxhat.sum() - xhat * (dxhat * xhat).sum()) / (n * s)
    for got, want in ((out.data, want_out), (x.grad, want_gx), (gamma.grad, want_gg),
                      (beta.grad, want_gb)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _block_inputs(bsz, track_x, seed, side):
    r = np.random.default_rng(seed)
    return (Tensor(r.standard_normal((bsz, 3, side, side)), requires_grad=track_x),
            Tensor(r.standard_normal((4, 3, 3, 3)), requires_grad=True),
            Tensor(r.standard_normal(4), requires_grad=True),
            Tensor(r.random(4) + 0.5, requires_grad=True),
            Tensor(r.standard_normal(4), requires_grad=True))


@pytest.mark.parametrize("bsz", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("track_x", [True, False])
def test_conv_block_has_the_bits_of_three_ops(bsz, stride, track_x):
    """The fused block matches conv2d -> layer_norm -> relu bit for bit,
    forward and every gradient, also with x untracked as in the stem; on
    a 2x2 map, whose output a batch of 3 (and at stride 2 one of 2) runs
    batch-innermost, and on 6x6 and 32x32 ones."""
    seed = 10 * bsz + stride
    for side in (2, 6, 32):
        fused = _block_inputs(bsz, track_x, seed, side)
        x, w, b, gamma, beta = three = _block_inputs(bsz, track_x, seed, side)
        want = T.layer_norm(T.conv2d(x, w, b, stride=stride), gamma, beta).relu()
        got = T.conv_block(fused[0], (*fused[1:], stride))
        proj = np.random.default_rng(seed).standard_normal(got.shape)
        for out in (want, got):
            (out * Tensor(proj)).sum().backward()
        np.testing.assert_array_equal(got.data, want.data)
        assert (fused[0].grad is None) == (three[0].grad is None) == (not track_x)
        for f, t in zip(fused, three):
            if t.grad is not None:
                np.testing.assert_array_equal(f.grad, t.grad)


def _chain_blocks(strides, seed):
    r = np.random.default_rng(seed)
    blocks, cin = [], 3
    for stride, cout in zip(strides, (4, 5)):
        blocks.append((Tensor(r.standard_normal((cout, cin, 3, 3)), requires_grad=True),
                       Tensor(r.standard_normal(cout), requires_grad=True),
                       Tensor(r.random(cout) + 0.5, requires_grad=True),
                       Tensor(r.standard_normal(cout), requires_grad=True), stride))
        cin = cout
    return blocks


@pytest.mark.parametrize("strides", [(2, 1), (2, 2)])
@pytest.mark.parametrize("track_x", [True, False])
def test_conv_chain_has_the_bits_of_its_blocks_one_at_a_time(strides, track_x):
    """A two-block chain, which recomputes its inner output in the
    backward, matches the same blocks run as two `conv_block` nodes bit
    for bit: the forward and every gradient. On a 4x4 input both blocks
    run batch-innermost, on an 8x8 one only the second one at strides
    (2, 2), and on a 32x32 one neither."""
    seed = 7 * strides[1] + track_x
    for side in (4, 8, 32):
        x_data = np.random.default_rng(seed).standard_normal((3, 3, side, side))
        chain_x, apart_x = (Tensor(x_data, requires_grad=track_x) for _ in range(2))
        chain_blocks, apart_blocks = _chain_blocks(strides, seed), _chain_blocks(strides, seed)
        got = T.conv_block(chain_x, *chain_blocks)
        want = T.conv_block(T.conv_block(apart_x, apart_blocks[0]), apart_blocks[1])
        assert tape(got) == [got]
        proj = np.random.default_rng(seed).standard_normal(got.shape)
        for out in (want, got):
            (out * Tensor(proj)).sum().backward()
        np.testing.assert_array_equal(got.data, want.data)
        assert (chain_x.grad is None) == (apart_x.grad is None) == (not track_x)
        if track_x:
            np.testing.assert_array_equal(chain_x.grad, apart_x.grad)
        for chained, apart in zip(chain_blocks, apart_blocks):
            for c, a in zip(chained[:4], apart[:4]):
                np.testing.assert_array_equal(c.grad, a.grad)


def test_conv_block_pads_by_half_the_kernel():
    """A 1x1 block keeps the map's H x W, as a 3x3 one does, and has the
    bits of conv2d -> layer_norm -> relu."""
    r = np.random.default_rng(9)
    x = Tensor(r.standard_normal((2, 3, 5, 5)))
    w, b, gamma, beta = (Tensor(a, requires_grad=True) for a in (
        r.standard_normal((4, 3, 1, 1)), r.standard_normal(4), r.random(4) + 0.5,
        r.standard_normal(4)))
    got = T.conv_block(x, (w, b, gamma, beta, 1))
    assert got.shape == (2, 4, 5, 5)
    np.testing.assert_array_equal(got.data,
                                  T.layer_norm(T.conv2d(x, w, b), gamma, beta).relu().data)


def test_conv_block_is_one_tape_node():
    block = ConvBlock(np.random.default_rng(3), 3, 4, stride=2)
    x = Tensor(np.random.default_rng(4).standard_normal((2, 3, 8, 8)), requires_grad=True)
    out = block(x)
    assert tape(out) == [out]
    assert set(out._parents) == {x, block.w, block.b, block.ln_gamma, block.ln_beta}


def test_grad_resample():
    gradcheck(lambda a: T.resample_nearest(a, 4, 4), rng.standard_normal((1, 2, 2, 2)))
    gradcheck(lambda a: T.resample_nearest(a, 4, 6), rng.standard_normal((2, 1, 2, 2)))
    gradcheck(lambda a: T.resample_nearest(a, 2, 2), rng.standard_normal((1, 2, 4, 4)))
    gradcheck(lambda a: T.resample_nearest(a, 3, 5), rng.standard_normal((1, 1, 4, 4)))
    gradcheck(lambda a: T.resample_nearest(a, 6, 2), rng.standard_normal((1, 2, 3, 4)))


@pytest.mark.parametrize("src, dst", [
    ((2, 2), (4, 6)),   # whole-factor upsample, unequal factors
    ((8, 8), (4, 2)),   # whole-factor downsample
    ((2, 8), (4, 4)),   # up in H, down in W
    ((4, 4), (3, 3)),   # no whole factor
    ((3, 5), (3, 5)),   # identity
    # the ratios a `full` model resamples at 64 px: the FPN upsample, the
    # three Gram maps stacked at the widest side, the style map to stages 3-4
    ((2, 2), (4, 4)), ((8, 8), (32, 32)), ((16, 16), (32, 32)), ((32, 32), (32, 32)),
    ((8, 8), (4, 4)), ((8, 8), (2, 2)),
    # and at 96 px, where the style map's ratios are not whole
    ((3, 3), (6, 6)), ((8, 8), (6, 6)), ((8, 8), (3, 3)),
])
def test_resample_backward_matches_scatter_add(src, dst):
    r = np.random.default_rng(sum(src) + sum(dst))
    x = Tensor(r.standard_normal((2, 3) + src), requires_grad=True)
    out = T.resample_nearest(x, *dst)
    g = r.standard_normal(out.shape)
    (out * Tensor(g)).sum().backward()
    want = np.zeros((6,) + src)
    rows, cols = T.nearest_index(src[0], dst[0]), T.nearest_index(src[1], dst[1])
    np.add.at(want, (np.arange(6)[:, None, None], rows[None, :, None], cols[None, None, :]),
              g.reshape((6,) + dst))
    # a block sum may add in another order than the scatter-add
    np.testing.assert_allclose(x.grad, want.reshape(x.shape), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("src, factor", [
    ((4, 4), (2, 2)),   # the FPN upsample
    ((8, 8), (4, 4)),   # a Gram map stacked at 4x its side
    ((3, 5), (2, 4)),
    ((2, 3), (3, 1)),
    ((1, 1), (2, 2)),   # adds in another order than the reshape-sum
])
def test_upsample_backward_matches_reshape_sum(src, factor):
    r = np.random.default_rng(src[0] * factor[1])
    x = Tensor(r.standard_normal((2, 3) + src), requires_grad=True)
    out = T.resample_nearest(x, src[0] * factor[0], src[1] * factor[1])
    g = r.standard_normal(out.shape)
    (out * Tensor(g)).sum().backward()
    want = g.reshape(2, 3, src[0], factor[0], src[1], factor[1]).sum(axis=(3, 5))
    np.testing.assert_allclose(x.grad, want, rtol=1e-15, atol=0)


def test_grad_concat_repeat():
    gradcheck(lambda a, b: T.concat([a, b], axis=1),
              rng.standard_normal((2, 3)), rng.standard_normal((2, 2)))
    gradcheck(lambda a, b: T.concat([a, b], axis=0),
              rng.standard_normal((1, 2, 2, 2)), rng.standard_normal((3, 2, 2, 2)))
    gradcheck(lambda a: T.repeat_axis(a, 1, 4), rng.standard_normal((2, 1, 3)))
    # one tensor as every part, the way fusion tiles style over the order blocks
    gradcheck(lambda a: T.concat([a] * 3, axis=0) * T.concat([a] * 3, axis=0),
              rng.standard_normal((2, 3)))


def test_grad_reverse_flips_sign():
    x = rng.standard_normal((3, 3))
    gradcheck(lambda a: T.grad_reverse(a), x, sign=-1.0)


def test_grad_reverse_shares_its_input_array():
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    y = T.grad_reverse(x)
    assert np.shares_memory(y.data, x.data)
    np.testing.assert_array_equal(y.data, x.data)


def test_fanout_accumulates():
    x = Tensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)
    y = (x * x + x).sum()
    y.backward()
    np.testing.assert_allclose(x.grad, 2 * x.data + 1, rtol=1e-12)


def test_deep_chain_no_recursion_limit():
    x = Tensor(np.ones(4), requires_grad=True)
    y = x
    for _ in range(3000):
        y = y + 1.0
    y.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones(4))


# -------------------------------------------------------- tape consumption
def test_backward_frees_intermediates_while_the_loss_lives():
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    mid = (a * 2.0).relu()
    # Tensor has no __weakref__ slot; its data array is owned by it alone
    probe = weakref.ref(mid.data)
    loss = (mid * mid + mid).sum()
    del mid
    assert probe() is not None
    loss.backward()
    assert probe() is None and a.grad is not None


def test_backward_fills_leaves_and_clears_intermediates():
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    h = (a @ w).sigmoid()
    s = h.sum(axis=1)
    loss = (s * s).mean(axis=0)
    loss.backward()
    assert a.grad is not None and w.grad is not None
    assert a.grad.shape == a.shape and w.grad.shape == w.shape
    for t in (h, s, loss):
        assert t.grad is None and t._parents == ()


def test_second_backward_over_a_consumed_graph_raises():
    a = Tensor(rng.standard_normal(3), requires_grad=True)
    mid = a * a
    loss = mid.sum()
    loss.backward()
    first = a.grad.copy()
    with pytest.raises(ContractViolation, match="earlier backward"):
        loss.backward()
    with pytest.raises(ContractViolation, match="earlier backward"):
        (mid * 2.0).sum().backward()
    np.testing.assert_array_equal(a.grad, first)


def test_leaf_gradients_own_their_memory():
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    (a + b).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    x.sum(axis=1).sum().backward()
    assert x.grad.flags.owndata and x.grad.flags.writeable
    # sum() hands back a read-only broadcast view of g; a transposed leaf
    # still gets owned, C-ordered ones
    t = Tensor(rng.standard_normal((3, 4)).T, requires_grad=True)
    assert not t.data.flags.c_contiguous
    t.sum().backward()
    assert t.grad.flags.owndata and t.grad.flags.writeable and t.grad.flags.c_contiguous
    np.testing.assert_array_equal(t.grad, np.ones((4, 3)))


def test_no_closure_writes_into_its_incoming_gradient():
    """The full model's tape hands gradients on without copying them, which
    is only safe if no gradient closure writes into the g it is given."""
    cfg = TrainConfig(ablation="full", R=2, input_size=32)
    model = build_model(cfg, n_labels=4)
    r = np.random.default_rng(9)
    out = model.forward(Tensor(r.random((2, 3, 32, 32))))
    loss = total_loss(pred_loss(out.y_e, out.y_emotion, r.dirichlet(np.ones(4), size=2)),
                      model.adversary(out))
    n_nodes = len(tape(loss))
    calls, written = guard_incoming_gradients(loss)
    loss.backward()
    assert len(calls) == n_nodes > 100
    assert written == []
    assert all(t.grad is not None for t in model.parameters().values())


# ----------------------------------------------------------- API contracts
def test_backward_needs_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractViolation):
        t.backward()


def test_backward_rejects_nonfinite():
    t = Tensor(np.array(np.nan), requires_grad=True)
    with pytest.raises(TrainingError):
        t.backward()


def test_add_shape_mismatch():
    with pytest.raises(ContractViolation):
        Tensor(np.ones((2, 3))) + Tensor(np.ones((3, 2)))


def test_div_by_tensor_rejected():
    with pytest.raises(ContractViolation):
        Tensor(np.ones(2)) / Tensor(np.ones(2))


def test_matmul_rejects_vectors():
    with pytest.raises(ContractViolation):
        Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


def test_conv2d_validation():
    x, w, b = Tensor(np.ones((1, 3, 8, 8))), Tensor(np.ones((4, 3, 3, 3))), Tensor(np.ones(4))
    with pytest.raises(ContractViolation):
        T.conv2d(Tensor(np.ones((3, 8, 8))), w, b)
    with pytest.raises(ContractViolation):
        T.conv2d(x, Tensor(np.ones((4, 2, 3, 3))), b)
    with pytest.raises(ContractViolation):
        T.conv2d(x, w, Tensor(np.ones(3)))
    with pytest.raises(ConfigurationError):
        T.conv2d(x, w, b, stride=0)


@pytest.mark.parametrize("k", [2, 4])
def test_conv2d_rejects_an_even_kernel(k):
    """Half padding, k // 2 on every side, centers only an odd kernel."""
    with pytest.raises(ContractViolation, match="k odd"):
        T.conv2d(Tensor(np.ones((1, 3, 8, 8))), Tensor(np.ones((4, 3, k, k))), Tensor(np.ones(4)))


@pytest.mark.parametrize("shape", [(1, 3, 0, 8), (1, 3, 8, 0)])
def test_conv2d_rejects_an_empty_spatial_extent(shape):
    with pytest.raises(ConfigurationError):
        T.conv2d(Tensor(np.ones(shape)), Tensor(np.ones((4, 3, 3, 3))), Tensor(np.ones(4)))


def test_conv2d_output_shape_floor():
    """H' = (H - 1) // stride + 1 for either kernel, also where the kernel
    exceeds the input."""
    x, b = Tensor(np.ones((1, 1, 7, 7))), Tensor(np.ones(1))
    for k in (1, 3):
        w = Tensor(np.ones((1, 1, k, k)))
        assert T.conv2d(x, w, b, stride=2).shape == (1, 1, 4, 4)
        assert T.conv2d(x, w, b).shape == (1, 1, 7, 7)
    assert T.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 5, 5))), b).shape == (
        1, 1, 2, 2)


def test_item_and_detach():
    t = Tensor(np.array(3.5), requires_grad=True)
    assert t.item() == 3.5
    d = Tensor((t * 2.0).data)
    assert not d.requires_grad
    with pytest.raises(ContractViolation):
        Tensor(np.ones(3)).item()


def test_max_uses_first_argmax_on_ties():
    x = Tensor(np.array([[1.0, 3.0, 3.0]]), requires_grad=True)
    x.max(axis=1).sum().backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])


@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_are_simplex(c, n, seed):
    x = np.random.default_rng(seed).standard_normal((n, c)) * 5
    s = Tensor(x).softmax(axis=1).data
    assert (s >= 0).all()
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_sigmoid_bounded_and_stable(seed):
    x = np.random.default_rng(seed).standard_normal(16) * 50
    s = Tensor(x).sigmoid().data
    assert np.isfinite(s).all() and (s >= 0).all() and (s <= 1).all()


# ---------------------------------------------------------------- no_grad
def _every_op(x, w, b, gamma):
    """One output per op kind, all built from tracked inputs."""
    img = T.conv2d(x, w, b)
    flat = img.reshape(2, -1)
    return [
        img, T.conv2d(x, w, b, stride=2), T.layer_norm(img, gamma, b),
        T.conv_block(x, (w, b, gamma, b, 1)),
        T.resample_nearest(img, 3, 3), T.resample_nearest(img, 8, 8),
        flat @ flat.transpose(1, 0), T.linear(flat, flat.transpose(1, 0), Tensor(np.ones(2))),
        img + img, img * 2.0, 1.0 - img, img / 4.0, T.grad_reverse(img),
        T.concat([img, img], axis=1), T.repeat_axis(img.sum(axis=1).reshape(2, 1, 4, 4), 1, 3),
        img.flatten(), img.sum(), img.mean(axis=0), img.max(axis=1), img.relu(),
        img.leaky_relu(0.2), img.sigmoid(), img.softmax(axis=1), img.clamp_min(0.0),
        img.clamp_min(0.1).log(),
    ]


def _op_inputs():
    r = np.random.default_rng(5)
    return (Tensor(r.standard_normal((2, 3, 4, 4)), requires_grad=True),
            Tensor(r.standard_normal((3, 3, 3, 3)), requires_grad=True),
            Tensor(r.standard_normal(3), requires_grad=True),
            Tensor(r.random(3) + 0.5, requires_grad=True))


def _untracked(t):
    return t._parents == () and t._grad_fn is None and not t.requires_grad


def test_no_grad_outputs_carry_no_tape():
    inputs = _op_inputs()
    taped = _every_op(*inputs)
    assert all(t.requires_grad and t._grad_fn is not None for t in taped)
    with T.no_grad():
        free = _every_op(*inputs)
    assert all(_untracked(t) for t in free)
    for a, b in zip(taped, free):
        np.testing.assert_array_equal(a.data, b.data)
    assert all(t.requires_grad for t in inputs)


def test_no_grad_restored_after_exception_and_nesting():
    w = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractViolation):
        with T.no_grad():
            Tensor(np.ones(2)) + Tensor(np.ones(3))
    assert (w * 2.0)._grad_fn is not None
    with T.no_grad():
        with T.no_grad():
            assert _untracked(w * 2.0)
        assert _untracked(w * 2.0)
    y = (w * w).sum()
    y.backward()
    np.testing.assert_allclose(w.grad, 2 * w.data)


# -------------------------------------------------------------- skip_init
def _draws_from(rng) -> bool:
    state = rng.bit_generator.state
    T.he_normal(rng, (3,), fan_in=3)
    return rng.bit_generator.state != state


def test_he_normal_in_skip_init_draws_nothing():
    r = np.random.default_rng(0)
    state = r.bit_generator.state
    with T.skip_init():
        w = T.he_normal(r, (4, 3, 3, 3), fan_in=27)
        with pytest.raises(ConfigurationError):
            T.he_normal(r, (2, 2), fan_in=0)
    assert r.bit_generator.state == state
    assert w.shape == (4, 3, 3, 3) and w.data.dtype == np.float64 and w.requires_grad
    assert w.grad is None and w._grad_fn is None
    # a read-only placeholder that holds no buffer of its shape
    assert not w.data.flags.writeable and not any(w.data.strides)
    tracemalloc.start()
    try:
        with T.skip_init():
            big = T.he_normal(r, (256, 256, 3, 3), fan_in=2304)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert big.shape == (256, 256, 3, 3) and peak < 4096, peak


def test_skip_init_restored_after_exception_and_nesting():
    r = np.random.default_rng(1)
    with pytest.raises(ContractViolation):
        with T.skip_init():
            Tensor(np.ones(2)) + Tensor(np.ones(3))
    assert _draws_from(r)
    with T.skip_init():
        with T.skip_init():
            assert not _draws_from(r)
        assert not _draws_from(r)
    assert _draws_from(r)


# ------------------------------------------------------------------- SGD
def test_sgd_zero_lr_is_noop():
    p = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    before = p.data.copy()
    opt = SGD({"p": p}, lr=0.0, momentum=0.9, weight_decay=1e-4)
    p.grad = np.ones_like(p.data)
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_sgd_momentum_arithmetic():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD({"p": p}, lr=0.1, momentum=0.5, weight_decay=0.0)
    p.grad = np.array([1.0])
    opt.step()  # v=1, p=1-0.1
    np.testing.assert_allclose(p.data, [0.9])
    p.grad = np.array([1.0])
    opt.step()  # v=1.5, p=0.9-0.15
    np.testing.assert_allclose(p.data, [0.75])


def test_sgd_weight_decay_pulls_toward_zero():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = SGD({"p": p}, lr=0.1, momentum=0.0, weight_decay=0.5)
    p.grad = np.array([0.0])
    opt.step()  # v = 0 + 0 + 0.5*2 = 1, p = 2 - 0.1
    np.testing.assert_allclose(p.data, [1.9])


def test_sgd_validates_hyperparams():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ConfigurationError):
        SGD({"p": p}, lr=-1.0)
    with pytest.raises(ConfigurationError):
        SGD({"p": p}, lr=0.1, momentum=1.5)
    for bad in (dict(lr=np.nan), dict(lr=np.inf), dict(lr=0.1, weight_decay=np.nan),
                dict(lr=0.1, weight_decay=np.inf), dict(lr=0.1, weight_decay=-1e-4)):
        with pytest.raises(ConfigurationError):
            SGD({"p": p}, **bad)


def test_sgd_in_place_step_matches_out_of_place_formula():
    r = np.random.default_rng(5)
    params = {k: Tensor(r.standard_normal(shape), requires_grad=True)
              for k, shape in (("w", (4, 3)), ("b", (3,)), ("unused", (2, 2)))}
    ref_p = {k: t.data.copy() for k, t in params.items()}
    ref_v = {k: np.zeros_like(a) for k, a in ref_p.items()}
    opt = SGD(params, lr=0.05, momentum=0.9, weight_decay=1e-3)
    for _ in range(3):
        for k, t in params.items():
            t.grad = None if k == "unused" else r.standard_normal(t.shape)
        for k, t in params.items():
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            ref_v[k] = 0.9 * ref_v[k] + g + 1e-3 * ref_p[k]
            ref_p[k] = ref_p[k] - 0.05 * ref_v[k]
        opt.step()
        for k, t in params.items():
            np.testing.assert_array_equal(t.data, ref_p[k])
            np.testing.assert_array_equal(opt.velocity[k], ref_v[k])


def _train_steps(walk_applied: bool, steps: int = 3):
    """Parameters and velocities after `steps` train steps of a small
    `full` model, each applying SGD either in the backward walk
    (`SGD.update`) or after it; and, for the walk, the most parameters
    that held a gradient when a gradient closure started."""
    model = build_model(TrainConfig(ablation="full", R=2, input_size=32), n_labels=4)
    params = model.parameters()
    opt = SGD(params, lr=0.05, momentum=0.9, weight_decay=1e-3)
    r = np.random.default_rng(6)
    most = 0

    def counted(fn):
        def run(g):
            nonlocal most
            most = max(most, sum(p.grad is not None for p in params.values()))
            fn(g)
        return run

    for _ in range(steps):
        out = model.forward(Tensor(r.random((2, 3, 32, 32))))
        loss = total_loss(pred_loss(out.y_e, out.y_emotion, r.dirichlet(np.ones(4), size=2)),
                          model.adversary(out))
        opt.zero_grad()
        if walk_applied:
            for node in tape(loss):
                node._grad_fn = counted(node._grad_fn)
            loss.backward(opt.update)
            assert all(p.grad is None for p in params.values())
        else:
            loss.backward()
        opt.step()
    return ({k: p.data for k, p in params.items()}, opt.velocity, most)


def test_sgd_update_in_the_walk_matches_backward_then_step():
    """Applying each parameter's update as the walk pops it gives the bits
    of `backward(); step()` over several steps with momentum and weight
    decay, and frees each gradient at once: no closure ever starts while
    more than one parameter holds a gradient."""
    after_params, after_velocity, _ = _train_steps(walk_applied=False)
    walk_params, walk_velocity, most = _train_steps(walk_applied=True)
    assert most <= 1, most
    for got, want in ((walk_params, after_params), (walk_velocity, after_velocity)):
        assert list(got) == list(want)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_sgd_step_updates_only_what_the_walk_did_not():
    used, unused = (Tensor(np.array([1.0, -2.0]), requires_grad=True) for _ in range(2))
    other = Tensor(3.0, requires_grad=True)  # tracked, but no parameter
    opt = SGD({"used": used, "unused": unused}, lr=0.1, momentum=0.5, weight_decay=0.25)
    (used * other).sum().backward(opt.update)
    assert used.grad is None and other.grad is not None
    np.testing.assert_array_equal(used.data, [1.0 - 0.1 * (3.0 + 0.25), -2.0 - 0.1 * (3.0 - 0.5)])
    np.testing.assert_array_equal(unused.data, [1.0, -2.0])
    opt.step()
    np.testing.assert_array_equal(used.data, [1.0 - 0.1 * (3.0 + 0.25), -2.0 - 0.1 * (3.0 - 0.5)])
    np.testing.assert_array_equal(unused.data, [1.0 - 0.1 * 0.25, -2.0 + 0.1 * 0.5])
    opt.step()  # the next step updates both again
    assert not np.array_equal(used.data, [1.0 - 0.1 * (3.0 + 0.25), -2.0 - 0.1 * (3.0 - 0.5)])


def test_sgd_zero_grad_clears():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD({"p": p}, lr=0.1)
    p.grad = np.array([3.0])
    opt.zero_grad()
    assert p.grad is None


def test_he_normal_scale():
    big = T.he_normal(np.random.default_rng(0), (200, 200), fan_in=200)
    assert abs(big.data.std() - np.sqrt(2.0 / 200)) < 0.01
