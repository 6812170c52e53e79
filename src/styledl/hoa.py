"""High-order attention over the mid-level tap, per-order content encoding,
pyramid fusion, and the order-diversity adversary.

Order r forms an r-way elementwise product of pointwise projections of X2
and maps it back through r pointwise convs whose sum is the attended map.
The R maps are then stacked order-major on the batch axis and encoded
together by the two remaining backbone stages; every later module takes
them in that [R*B, ...] layout, row block r being order r. The
adversary pushes the per-order encodings apart: a gradient-reversed MLP
head tries to make order projections agree, so minimizing its loss w.r.t.
the head while the reversed gradient maximizes separation upstream.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .errors import ContractViolation
from .layers import Conv1x1, Dense
from .tensor import Tensor


class HighOrderAttention:
    """Holds r inner and r outer 1x1 convs per order r = 1..R (TrainConfig.R >= 1)."""

    def __init__(self, rng: np.random.Generator, channels: int, orders: int):
        self.orders = orders
        self.inner: list[list[Conv1x1]] = []
        self.outer: list[list[Conv1x1]] = []
        for r in range(1, orders + 1):
            self.inner.append([Conv1x1(rng, channels, channels) for _ in range(r)])
            self.outer.append([Conv1x1(rng, channels, channels) for _ in range(r)])

    def __call__(self, x2: Tensor) -> list[Tensor]:
        atts = []
        for r_idx in range(self.orders):
            zs = [conv(x2) for conv in self.inner[r_idx]]
            prod = zs[0]
            for z in zs[1:]:
                prod = prod * z
            summands = [conv(prod) for conv in self.outer[r_idx]]
            att = summands[0]
            for s in summands[1:]:
                att = att + s
            atts.append(att)
        return atts

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for r_idx in range(self.orders):
            for s_idx, conv in enumerate(self.inner[r_idx]):
                out.update(conv.params(f"{prefix}/r{r_idx + 1}/inner{s_idx + 1}"))
            for s_idx, conv in enumerate(self.outer[r_idx]):
                out.update(conv.params(f"{prefix}/r{r_idx + 1}/outer{s_idx + 1}"))
        return out


def encode_orders(atts: Sequence[Tensor], f3: Callable[[Tensor], Tensor],
                  f4: Callable[[Tensor], Tensor]) -> tuple[Tensor, Tensor]:
    """Apply stage f3 then f4 to every attended map in one pass.

    The R maps of [B, ...] are stacked order-major on the batch axis, so
    row block r (rows r*B to (r+1)*B) of both [R*B, ...] results is order
    r. Every stage op (conv, per-sample layer norm, relu) treats samples
    independently, so a block is that order's own encoding, at one GEMM
    per conv for all orders.
    """
    x3 = f3(T.concat(atts, axis=0))
    return x3, f4(x3)


def fpn_fuse(x3: Tensor, x4: Tensor, lateral: Conv1x1) -> Tensor:
    """Upsample the deep map, project to c3 channels, add the shallow map:
    multi-scale content at the shallow resolution, row for row."""
    up = T.resample_nearest(x4, x3.shape[2], x3.shape[3])
    return lateral(up) + x3


class AdversaryHead:
    """Two dense layers squeezing a flattened stage encoding to 16 dims.

    `_stage_separation` takes differences of projections, so the `fc2` bias
    cancels out of the adversary loss and its gradient is zero up to
    rounding. It is kept only so that existing checkpoints, which store
    it, still load; checkpoint format v2 can drop it.
    """

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int = 64, out_dim: int = 16):
        self.fc1 = Dense(rng, in_dim, hidden)
        self.fc2 = Dense(rng, hidden, out_dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).relu())

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = self.fc1.params(f"{prefix}/fc1")
        out.update(self.fc2.params(f"{prefix}/fc2"))
        return out


def _stage_separation(x: Tensor, head: Callable[[Tensor], Tensor], orders: int) -> Tensor:
    """Sum of squared projection distances over ordered order pairs,
    averaged over the batch. Row block r of x is order r; the head runs
    once over all rows."""
    batch, rem = divmod(x.shape[0], orders)
    if rem:
        raise ContractViolation(f"{x.shape[0]} rows do not split into {orders} orders")
    proj = head(T.grad_reverse(x.reshape(x.shape[0], -1))).reshape(orders, 1, -1)
    # diff[i, j] = projection block i - block j; the diagonal is zero
    diff = (T.repeat_axis(proj, 1, orders)
            - T.repeat_axis(proj.reshape(1, orders, -1), 0, orders))
    return (diff * diff).sum() / batch


def adversary_loss(x3: Tensor, x4: Tensor, head3: AdversaryHead, head4: AdversaryHead,
                   orders: int) -> Tensor:
    """Order-diversity loss summed over both encoded stages, each stacked
    as `orders` row blocks of [R*B, ...].

    Exactly zero (constant, no graph) when only one order exists.
    """
    if orders < 2:
        return Tensor(0.0)
    return _stage_separation(x3, head3, orders) + _stage_separation(x4, head4, orders)
