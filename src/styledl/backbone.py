"""Five-stage strided CNN exposing the tap points the rest of the model reads.

`taps` returns the outputs of stages 0..2, the style taps; the model runs
`stages[3]` and `stages[4]` later, on all attention orders at once. Each
stage is a stride-2 conv block then a stride-1 one, so the extent halves
once per stage and an input of size s yields taps of sizes s/2, s/4, s/8.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .layers import ConvBlock, conv_chain
from .tensor import Tensor


@dataclass(frozen=True)
class BackboneConfig:
    """The model builds it from a `TrainConfig`, whose `input_size` is checked."""
    in_channels: int = 3
    stage_channels: tuple[int, ...] = (8, 16, 32, 64, 128)
    input_size: int = 64


class Stage:
    """One halving stage: conv(s2)+LN+relu then conv(s1)+LN+relu.

    The two blocks run as one two-block `conv_chain`: the tape holds both
    x_hats and the stage's output, but not the output of `down`, which the
    backward recomputes from its x_hat.
    """

    def __init__(self, rng: np.random.Generator, cin: int, cout: int):
        self.down = ConvBlock(rng, cin, cout, stride=2)
        self.keep = ConvBlock(rng, cout, cout, stride=1)

    def __call__(self, x: Tensor) -> Tensor:
        return conv_chain(x, self.down, self.keep)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = self.down.params(f"{prefix}/down")
        out.update(self.keep.params(f"{prefix}/keep"))
        return out


class Backbone:
    def __init__(self, cfg: BackboneConfig, rng: np.random.Generator):
        self.cfg = cfg
        chans = (cfg.in_channels,) + tuple(cfg.stage_channels)
        self.stages = [Stage(rng, chans[i], chans[i + 1]) for i in range(5)]

    def taps(self, images: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """The outputs (x0, x1, x2) of stages 0..2 for [B,C,s,s] images."""
        s = self.cfg.input_size
        if images.shape[-2:] != (s, s):
            raise ContractViolation(f"backbone expects {s}x{s} input, got {images.shape}")
        x0 = self.stages[0](images)
        x1 = self.stages[1](x0)
        return x0, x1, self.stages[2](x1)

    def tap_spatial(self, k: int) -> int:
        """Spatial side of tap k (0-based stage index)."""
        return self.cfg.input_size // (2 ** (k + 1))

    def params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, stage in enumerate(self.stages):
            out.update(stage.params(f"{prefix}/stage{i}"))
        return out


def check_input_size(size: int) -> None:
    """Five stride-2 stages halve the input exactly only at a multiple of 32."""
    if size % 32 != 0 or size <= 0:
        raise ConfigurationError(f"input_size {size} must be a positive multiple of 32")

