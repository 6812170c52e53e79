"""High-order attention over the mid-level tap, per-order content encoding,
pyramid fusion, and the order-diversity adversary.

Order r forms an r-way elementwise product of pointwise projections of X2
and maps it back through r pointwise convs whose sum is the attended map.
Each order is then encoded by the two remaining backbone stages. The
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
    """Holds r inner and r outer 1x1 convs per order r = 1..R."""

    def __init__(self, rng: np.random.Generator, channels: int, orders: int = 2):
        if orders < 1:
            raise ContractViolation(f"order count must be >= 1, got {orders}")
        self.orders = orders
        self.channels = channels
        self.inner: list[list[Conv1x1]] = []
        self.outer: list[list[Conv1x1]] = []
        for r in range(1, orders + 1):
            self.inner.append([Conv1x1(rng, channels, channels) for _ in range(r)])
            self.outer.append([Conv1x1(rng, channels, channels) for _ in range(r)])

    def __call__(self, x2: Tensor) -> list[Tensor]:
        if x2.ndim != 4 or x2.shape[1] != self.channels:
            raise ContractViolation(f"attention expects [B,{self.channels},h,w], got {x2.shape}")
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

    def params(self, prefix: str = "hoa") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for r_idx in range(self.orders):
            for s_idx, conv in enumerate(self.inner[r_idx]):
                out.update(conv.params(f"{prefix}/r{r_idx + 1}/inner{s_idx + 1}"))
            for s_idx, conv in enumerate(self.outer[r_idx]):
                out.update(conv.params(f"{prefix}/r{r_idx + 1}/outer{s_idx + 1}"))
        return out


def encode_orders(atts: Sequence[Tensor], f3: Callable[[Tensor], Tensor],
                  f4: Callable[[Tensor], Tensor]) -> tuple[list[Tensor], list[Tensor]]:
    """Apply stage f3 then f4 to every attended map; order index leads.

    The orders share one pass: their maps are stacked on the batch axis,
    run through f3 and f4 once and cut back per order. Every stage op
    (conv, per-sample layer norm, relu) treats samples independently, so
    this is the per-order result, at one GEMM per conv for all orders.
    """
    if not atts:
        raise ContractViolation("encode_orders needs at least one order")
    x3 = f3(T.concat(atts, axis=0))
    x4 = f4(x3)
    return T.split(x3, len(atts), 0), T.split(x4, len(atts), 0)


def fpn_fuse(x3: Sequence[Tensor], x4: Sequence[Tensor], lateral: Conv1x1) -> list[Tensor]:
    """Per order: upsample the deep map, project to c3 channels, add the
    shallow map. Multi-scale content at the shallow resolution."""
    if len(x3) != len(x4):
        raise ContractViolation(f"order counts differ: {len(x3)} vs {len(x4)}")
    fused = []
    for shallow, deep in zip(x3, x4):
        up = T.upsample_nearest(deep, shallow.shape[2], shallow.shape[3])
        fused.append(lateral(up) + shallow)
    return fused


class AdversaryHead:
    """Two dense layers squeezing a flattened stage encoding to 16 dims."""

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int = 64, out_dim: int = 16):
        self.fc1 = Dense(rng, in_dim, hidden)
        self.fc2 = Dense(rng, hidden, out_dim)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).relu())

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = self.fc1.params(f"{prefix}/fc1")
        out.update(self.fc2.params(f"{prefix}/fc2"))
        return out


def _stage_separation(slices: Sequence[Tensor], head: Callable[[Tensor], Tensor]) -> Tensor | None:
    """Sum of squared projection distances over ordered order pairs,
    averaged over the batch. None when there are no pairs."""
    if len(slices) < 2:
        return None
    batch = slices[0].shape[0]
    projections = []
    for s in slices:
        flat = s.reshape(batch, -1)
        projections.append(head(T.grad_reverse(flat)))
    total: Tensor | None = None
    for i in range(len(projections)):
        for j in range(len(projections)):
            if i == j:
                continue
            diff = projections[i] - projections[j]
            term = (diff * diff).sum() / batch
            total = term if total is None else total + term
    return total


def adversary_loss(x3: Sequence[Tensor], x4: Sequence[Tensor],
                   head3: AdversaryHead, head4: AdversaryHead) -> Tensor:
    """Order-diversity loss summed over both encoded stages.

    Exactly zero (constant, no graph) when only one order exists.
    """
    parts = [p for p in (_stage_separation(x3, head3), _stage_separation(x4, head4))
             if p is not None]
    if not parts:
        return Tensor(0.0)
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total
