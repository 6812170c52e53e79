"""Emotion distribution learning from image style, built on a small
numpy autograd engine."""

from .errors import (ConfigurationError, ContractViolation, FormatError,
                     TrainingError, ValidationError)
from .losses import combine_final, kl_loss, pred_loss, total_loss
from .metrics import MetricReport, average_rank, competition_rank, evaluate_metrics, rank_table
from .model import ABLATION_PRESETS, AblationFlags, EmotionDistributionNet
from .tensor import SGD, Tensor
from .training import Checkpoint, TrainConfig, build_model, evaluate, lr_at, train

__version__ = "0.1.0"

__all__ = [
    "ABLATION_PRESETS", "AblationFlags", "Checkpoint", "ConfigurationError",
    "ContractViolation", "EmotionDistributionNet", "FormatError", "MetricReport",
    "SGD", "Tensor", "TrainConfig", "TrainingError", "ValidationError",
    "average_rank", "build_model", "combine_final", "competition_rank",
    "evaluate", "evaluate_metrics", "kl_loss", "lr_at", "pred_loss",
    "rank_table", "total_loss", "train",
]
