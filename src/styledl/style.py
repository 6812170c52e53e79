"""Gram-based style statistics and the learned cross-layer correlation map.

Per backbone tap, the channel-by-channel inner products of the flattened
maps give a symmetric PSD matrix that ignores spatial layout. The three
matrices (the raw taps, in the `inter_only` ablation) are nearest-upsampled
to a common side, stacked as channels, and pushed through two strided conv
blocks to produce the style representation.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractViolation
from .layers import ConvBlock, conv_chain
from .tensor import Tensor

STYLE_WIDTHS = (16, 32)


def gram(x: Tensor, normalize: bool = False) -> Tensor:
    """Per-sample G = M @ M.T for the [C, H*W] flattening M of [B,C,H,W].

    `normalize` divides by H*W, which tames magnitudes on wide maps but is
    off by default.
    """
    if x.ndim != 4:
        raise ContractViolation(f"gram expects [B,C,H,W], got {x.shape}")
    b, c, h, w = x.shape
    m = x.reshape(b, c, h * w)
    g = T.matmul(m, m.transpose(0, 2, 1))
    if normalize:
        g = g * (1.0 / (h * w))
    return g


def stack_grams(*maps: Tensor) -> Tensor:
    """Upsample square maps to the widest side S and stack them on channels:
    a [B,c,c] Gram becomes 1 channel, a [B,C,s,s] tap C channels."""
    for m in maps:
        if m.ndim not in (3, 4) or m.shape[-1] != m.shape[-2]:
            raise ContractViolation(f"stack_grams expects batched square maps, got {m.shape}")
    side = max(m.shape[-1] for m in maps)
    lifted = []
    for m in maps:
        up = T.resample_nearest(m, side, side)
        lifted.append(up if up.ndim == 4 else up.reshape(up.shape[0], 1, side, side))
    return T.concat(lifted, axis=1)


class InterLayerCorrelation:
    """Two conv(3x3, stride 2)+LN+relu blocks over the stacked matrices,
    run as one two-block `conv_chain`."""

    def __init__(self, rng: np.random.Generator, in_channels: int = 3,
                 widths: tuple[int, int] = STYLE_WIDTHS):
        self.block1 = ConvBlock(rng, in_channels, widths[0], stride=2)
        self.block2 = ConvBlock(rng, widths[0], widths[1], stride=2)
        self.out_channels = widths[1]

    def __call__(self, stack: Tensor) -> Tensor:
        return conv_chain(stack, self.block1, self.block2)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = self.block1.params(f"{prefix}/cc1")
        out.update(self.block2.params(f"{prefix}/cc2"))
        return out
