"""Static and per-sample dynamic graph convolutions over the label axis.

The static pass propagates fused features along a fixed co-occurrence
adjacency. Its output regenerates a fresh adjacency per sample through a
sigmoid projection, and the dynamic pass propagates along that.
``fusion.pooled_scores`` pools the result into a distribution.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractViolation
from .tensor import Tensor


def graph_conv(adjacency: Tensor | np.ndarray, features: Tensor, weight: Tensor) -> Tensor:
    """LeakyReLU(A @ F @ W), for the static pass (A [C,C], shared across
    the batch) and the dynamic one (A [B,C,C], one per sample) alike."""
    return T.matmul(T.matmul(adjacency, features), weight).leaky_relu(0.2)


def dynamic_adjacency(f_sgcn: Tensor, w_a: Tensor) -> Tensor:
    """Per-sample adjacency from each label row joined with the global mean.

    Returns sigmoid([F_sgcn | mean_labels(F_sgcn)] @ W_A), shape [B,C,C].
    """
    if f_sgcn.ndim != 3:
        raise ContractViolation(f"expected [B,C,D'], got {f_sgcn.shape}")
    b, c, width = f_sgcn.shape
    global_desc = f_sgcn.mean(axis=1).reshape(b, 1, width)
    joined = T.concat([f_sgcn, T.repeat_axis(global_desc, 1, c)], axis=2)
    return T.matmul(joined, w_a).sigmoid()


class StylisticGcn:
    """Parameter container for the two-pass label graph."""

    def __init__(self, rng: np.random.Generator, n_labels: int, in_width: int,
                 hidden: int = 128, *, dynamic: bool):
        self.dynamic = dynamic
        self.w_s = T.he_normal(rng, (in_width, hidden), fan_in=in_width)
        if dynamic:
            self.w_d = T.he_normal(rng, (hidden, hidden), fan_in=hidden)
            self.w_a = T.he_normal(rng, (2 * hidden, n_labels), fan_in=2 * hidden)

    def __call__(self, a_static: Tensor | np.ndarray, features: Tensor) -> Tensor:
        enhanced = graph_conv(a_static, features, self.w_s)
        if not self.dynamic:
            return enhanced
        a_d = dynamic_adjacency(enhanced, self.w_a)
        return graph_conv(a_d, enhanced, self.w_d)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}/w_s": self.w_s}
        if self.dynamic:
            out[f"{prefix}/w_d"] = self.w_d
            out[f"{prefix}/w_a"] = self.w_a
        return out
