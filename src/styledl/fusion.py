"""Fusing style with the per-order content encodings into label-channel
features and pooling those into per-order distributions."""
from __future__ import annotations

from typing import Sequence

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
                 deep_channels: int, style_channels: int | None = None):
        self.n_labels = n_labels
        self.style_channels = style_channels
        sc_in = content_channels + (style_channels or 0)
        s4_in = deep_channels + (style_channels or 0)
        self.conv_sc = Conv1x1(rng, sc_in, n_labels)
        self.conv_s4 = Conv1x1(rng, s4_in, n_labels)

    def __call__(self, style: Tensor | None, content: Sequence[Tensor],
                 deep: Sequence[Tensor]) -> list[Tensor]:
        """Per order, a [B, C, D_e] slice with D_e = h3*w3 + h4*w4."""
        if len(content) != len(deep):
            raise ContractViolation(f"order counts differ: {len(content)} vs {len(deep)}")
        if (style is None) != (self.style_channels is None):
            raise ContractViolation("style presence does not match this head's build")
        slices = []
        for shallow_r, deep_r in zip(content, deep):
            f_sc = self._fuse(self.conv_sc, style, shallow_r)
            f_s4 = self._fuse(self.conv_s4, style, deep_r)
            slices.append(T.concat([_flatten_spatial(f_sc), _flatten_spatial(f_s4)], axis=2))
        return slices

    def _fuse(self, conv: Conv1x1, style: Tensor | None, partner: Tensor) -> Tensor:
        if style is None:
            return conv(partner)
        aligned = T.resample_nearest(style, partner.shape[2], partner.shape[3])
        return conv(T.concat([aligned, partner], axis=1))

    def params(self, prefix: str = "fusion") -> dict[str, Tensor]:
        out = self.conv_sc.params(f"{prefix}/conv_sc")
        out.update(self.conv_s4.params(f"{prefix}/conv_s4"))
        return out


def _flatten_spatial(x: Tensor) -> Tensor:
    b, c, h, w = x.shape
    return x.reshape(b, c, h * w)


def pooled_scores(features: Tensor, lam: float) -> Tensor:
    """Softmax over labels of mean + lam * max along the trailing feature
    axis of [B, C, D]."""
    if features.ndim != 3:
        raise ContractViolation(f"pooling expects [B,C,D], got {features.shape}")
    if not np.isfinite(lam) or lam < 0:
        raise ContractViolation(f"pooling coefficient {lam}")
    logits = features.mean(axis=2) + lam * features.max(axis=2)
    return logits.softmax(axis=1)


def pooled_distribution(fe_slices: Sequence[Tensor], lam: float) -> list[Tensor]:
    """One distribution per order from its fused feature slice."""
    return [pooled_scores(fe, lam) for fe in fe_slices]


def style_distribution(y_e: Sequence[Tensor]) -> Tensor:
    """Arithmetic mean of the per-order distributions."""
    if not y_e:
        raise ContractViolation("style_distribution over zero orders")
    total = y_e[0]
    for y in y_e[1:]:
        total = total + y
    return total * (1.0 / len(y_e))
