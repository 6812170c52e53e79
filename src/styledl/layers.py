"""Small parameterized building blocks shared by the network modules."""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Conv1x1:
    """Pointwise convolution with bias."""

    def __init__(self, rng: np.random.Generator, cin: int, cout: int):
        self.w = T.he_normal(rng, (cout, cin, 1, 1), fan_in=cin)
        self.b = T.zeros_param(cout)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.w, self.b)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}/w": self.w, f"{prefix}/b": self.b}


class ConvBlock:
    """conv(3x3) -> layer_norm -> relu, strided when it has to downsample.

    The three run as one `conv_block` op: one tape node that keeps only
    the normalized conv output and its own output, with the bits of the
    three ops run in turn. The conv keeps no patch matrix at either
    stride; its backward unfolds again.
    """

    def __init__(self, rng: np.random.Generator, cin: int, cout: int, stride: int = 1):
        self.stride = stride
        self.w = T.he_normal(rng, (cout, cin, 3, 3), fan_in=cin * 9)
        self.b = T.zeros_param(cout)
        self.ln_gamma = T.ones_param(cout)
        self.ln_beta = T.zeros_param(cout)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv_block(x, self.w, self.b, self.ln_gamma, self.ln_beta, self.stride)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}/w": self.w,
            f"{prefix}/b": self.b,
            f"{prefix}/ln_gamma": self.ln_gamma,
            f"{prefix}/ln_beta": self.ln_beta,
        }


class Dense:
    """Fully-connected layer y = x @ w + b."""

    def __init__(self, rng: np.random.Generator, din: int, dout: int):
        self.w = T.he_normal(rng, (din, dout), fan_in=din)
        self.b = T.zeros_param(dout)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}/w": self.w, f"{prefix}/b": self.b}
