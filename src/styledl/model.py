"""Assembly of the full network and its runnable ablation variants.

The forward pass runs backbone taps, the style-correlation path, the
attended per-order content path, the fusion head, and the label-graph
enhancement, then mixes the two distribution heads. Each ablation preset
switches whole subgraphs off; the parameter set shrinks accordingly so a
preset is a different (smaller) model, not a masked one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .backbone import Backbone, BackboneConfig
from .errors import ConfigurationError, ContractViolation
from .fusion import FusionHead, style_distribution
# one rule, two names: bench/tracer.py patches each name to time its call site
from .fusion import pooled_scores as emotion_distribution, pooled_scores as pooled_distribution
from .gcn import StylisticGcn
from .hoa import AdversaryHead, HighOrderAttention, adversary_loss, encode_orders, fpn_fuse
from .layers import Conv1x1
from .losses import combine_final
from .style import STYLE_WIDTHS, InterLayerCorrelation, gram, stack_grams
from .tensor import Tensor

if TYPE_CHECKING:
    from .training import TrainConfig


@dataclass(frozen=True)
class AblationFlags:
    style: bool
    gram_intra: bool
    attention: bool
    gcn: bool
    gcn_dynamic: bool
    adversary: bool


# A checkpoint stores its preset as the preset's position in this dict.
# Append new presets at the end and never reorder, or old files load as
# a different model.
ABLATION_PRESETS: dict[str, AblationFlags] = {
    "B": AblationFlags(False, True, False, False, False, False),
    "B+E": AblationFlags(False, True, False, True, True, False),
    "B+G": AblationFlags(True, True, False, False, False, False),
    "B+G+V": AblationFlags(True, True, True, False, False, True),
    "B+V": AblationFlags(False, True, True, False, False, True),
    "full": AblationFlags(True, True, True, True, True, True),
    "inter_only": AblationFlags(True, False, True, True, True, True),
    "noAN": AblationFlags(True, True, True, True, True, False),
    "static_gcn_only": AblationFlags(True, True, True, True, False, True),
}

@dataclass
class ForwardOutput:
    """Everything a training step needs from one forward pass.

    y, y_style and y_emotion are [B, C]. The per-order tensors stay
    stacked order-major on the batch axis: y_e is [R*B, C] and x3/x4 are
    the [R*B, ...] stage encodings, row block r being order r.
    """

    y: Tensor
    y_style: Tensor
    y_emotion: Tensor | None
    y_e: Tensor
    x3: Tensor
    x4: Tensor


class EmotionDistributionNet:
    """The trainable network, built from a checked TrainConfig and specialized by its preset."""

    def __init__(self, cfg: TrainConfig, n_labels: int):
        if n_labels < 2:
            raise ConfigurationError(f"need at least 2 labels, got {n_labels}")
        self.cfg = cfg
        self.n_labels = n_labels
        self.flags = ABLATION_PRESETS[cfg.ablation]
        rng = np.random.default_rng(cfg.seed)

        backbone_cfg = BackboneConfig(input_size=cfg.input_size)
        self.backbone = Backbone(backbone_cfg, rng)
        c0, c1, c2, c3, c4 = backbone_cfg.stage_channels
        w3 = self.backbone.tap_spatial(3)
        w4 = self.backbone.tap_spatial(4)

        flags = self.flags
        self.style_module: InterLayerCorrelation | None = None
        if flags.style:
            # each Gram map stacks as 1 channel, each raw tap as its own channels
            stack_channels = 3 if flags.gram_intra else c0 + c1 + c2
            self.style_module = InterLayerCorrelation(rng, stack_channels, STYLE_WIDTHS)

        self.attention: HighOrderAttention | None = None
        self.lateral: Conv1x1 | None = None
        if flags.attention:
            self.attention = HighOrderAttention(rng, c2, cfg.R)
            self.lateral = Conv1x1(rng, c4, c3)
        self.effective_orders = cfg.R if flags.attention else 1

        style_c = self.style_module.out_channels if self.style_module else None
        self.fusion = FusionHead(rng, n_labels, content_channels=c3, deep_channels=c4,
                                 style_channels=style_c)

        self.gcn: StylisticGcn | None = None
        if flags.gcn:
            gcn_in = self.effective_orders * (w3 * w3 + w4 * w4)
            self.gcn = StylisticGcn(rng, n_labels, gcn_in, dynamic=flags.gcn_dynamic)
        self.static_adjacency = np.eye(n_labels)

        self.adv_head3: AdversaryHead | None = None
        self.adv_head4: AdversaryHead | None = None
        if flags.adversary and self.effective_orders > 1:
            self.adv_head3 = AdversaryHead(rng, c3 * w3 * w3)
            self.adv_head4 = AdversaryHead(rng, c4 * w4 * w4)

    # ------------------------------------------------------------ forward
    def set_static_adjacency(self, adjacency: np.ndarray) -> None:
        if adjacency.shape != (self.n_labels, self.n_labels):
            raise ContractViolation(f"adjacency {adjacency.shape} for {self.n_labels} labels")
        self.static_adjacency = np.array(adjacency, dtype=np.float64)

    def forward(self, images: Tensor | np.ndarray) -> ForwardOutput:
        x = images if isinstance(images, Tensor) else Tensor(images)
        taps = self.backbone.taps(x)
        x2 = taps[2]
        # The style path runs before the deep stages and the taps are
        # dropped after it, so without a tape x0 and x1 are freed before
        # the attention and stages 3-4 run. With a tape the graph, and so
        # the backward walk, is the same in either order.
        style = None
        if self.style_module:
            if self.flags.gram_intra:
                taps = [gram(t, self.cfg.gram_normalize) for t in taps]
            style = self.style_module(stack_grams(*taps))
        del taps

        atts = self.attention(x2) if self.attention else [x2]
        x3, x4 = encode_orders(atts, self.backbone.stages[3], self.backbone.stages[4])
        content = fpn_fuse(x3, x4, self.lateral) if self.lateral else x3

        orders = self.effective_orders
        fe = self.fusion(style, content, x4)
        y_e = pooled_distribution(fe, self.cfg.lam)
        y_style = style_distribution(y_e, orders)

        y_emotion = None
        if self.gcn:
            # [R*B, C, D_e] -> [B, C, R*D_e]: order r fills columns r*D_e to (r+1)*D_e
            batch, labels, width = x.shape[0], fe.shape[1], fe.shape[2]
            joined = (fe.reshape(orders, batch, labels, width).transpose(1, 2, 0, 3)
                      .reshape(batch, labels, orders * width))
            enhanced = self.gcn(self.static_adjacency, joined)
            y_emotion = emotion_distribution(enhanced, self.cfg.lam)
            y = combine_final(y_emotion, y_style, self.cfg.mu)
        else:
            y = y_style
        return ForwardOutput(y=y, y_style=y_style, y_emotion=y_emotion, y_e=y_e, x3=x3, x4=x4)

    def adversary(self, out: ForwardOutput) -> Tensor:
        """Order-diversity loss for this forward pass; constant zero when
        the preset or order count leaves nothing to separate. A predictor
        from `Checkpoint.build_model` holds no adversary heads, so it
        raises ContractViolation where the preset has one."""
        if not (self.flags.adversary and self.effective_orders > 1):
            return Tensor(0.0)
        if self.adv_head3 is None or self.adv_head4 is None:
            raise ContractViolation("this model holds no adversary heads: it was built for "
                                    "prediction, which never reads them")
        return adversary_loss(out.x3, out.x4, self.adv_head3, self.adv_head4, self.effective_orders)

    # --------------------------------------------------------- parameters
    def parameters(self) -> dict[str, Tensor]:
        """Every parameter by key, in the order checkpoints store them and
        SGD walks them; a preset's absent modules add nothing."""
        params: dict[str, Tensor] = {}
        for prefix, module in (("backbone", self.backbone), ("style", self.style_module),
                               ("hoa", self.attention), ("fpn/lateral", self.lateral),
                               ("adversary/stage3", self.adv_head3),
                               ("adversary/stage4", self.adv_head4),
                               ("fusion", self.fusion), ("gcn", self.gcn)):
            if module is not None:
                params.update(module.params(prefix))
        return params
