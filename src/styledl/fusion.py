"""Fusing style with the stacked content encodings into label-channel
features, and ``pooled_scores``, which pools those and the graph-enhanced
features of ``gcn`` into distributions.

Content arrives as R order blocks stacked on the batch axis, [R*B, ...]
with row block r being order r (see ``hoa.encode_orders``); every result
here keeps that layout."""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractViolation
from .layers import Conv1x1
from .tensor import Tensor


class FusionHead:
    """Two pointwise fusion convs, shared across orders.

    One fuses style with the shallow content encoding, the other fuses
    style with the deep encoding; both emit one channel per label.
    """

    def __init__(self, rng: np.random.Generator, n_labels: int, content_channels: int,
                 deep_channels: int, style_channels: int | None):
        sc_in = content_channels + (style_channels or 0)
        s4_in = deep_channels + (style_channels or 0)
        self.conv_sc = Conv1x1(rng, sc_in, n_labels)
        self.conv_s4 = Conv1x1(rng, s4_in, n_labels)

    def __call__(self, style: Tensor | None, content: Tensor, deep: Tensor) -> Tensor:
        """Fused features [R*B, C, D_e] with D_e = h3*w3 + h4*w4, from
        stacked content [R*B, c3, h3, w3] and deep [R*B, c4, h4, w4] and
        the [B, ...] style map, which every order block shares."""
        f_sc = self._fuse(self.conv_sc, style, content)
        f_s4 = self._fuse(self.conv_s4, style, deep)
        return T.concat([_flatten_spatial(f_sc), _flatten_spatial(f_s4)], axis=2)

    def _fuse(self, conv: Conv1x1, style: Tensor | None, partner: Tensor) -> Tensor:
        if style is None:
            return conv(partner)
        aligned = T.resample_nearest(style, partner.shape[2], partner.shape[3])
        tiled = T.concat([aligned] * (partner.shape[0] // style.shape[0]), axis=0)
        return conv(T.concat([tiled, partner], axis=1))

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = self.conv_sc.params(f"{prefix}/conv_sc")
        out.update(self.conv_s4.params(f"{prefix}/conv_s4"))
        return out


def _flatten_spatial(x: Tensor) -> Tensor:
    b, c, h, w = x.shape
    return x.reshape(b, c, h * w)


def pooled_scores(features: Tensor, lam: float) -> Tensor:
    """Softmax over labels of mean + lam * max along the trailing feature
    axis of [B, C, D]. `lam` is finite and >= 0, which TrainConfig checks."""
    logits = features.mean(axis=2) + lam * features.max(axis=2)
    return logits.softmax(axis=1)


def style_distribution(y_e: Tensor, orders: int) -> Tensor:
    """Arithmetic mean of the per-order distributions, the `orders` row
    blocks of y_e: [R*B, C] -> [B, C]."""
    rows, labels = y_e.shape
    if orders < 1 or rows % orders:
        raise ContractViolation(f"{rows} rows do not split into {orders} orders")
    return y_e.reshape(orders, rows // orders, labels).sum(axis=0) * (1.0 / orders)
