"""Training losses: KL against simplex targets, intermediate supervision,
the adaptive adversarial balance, and the final convex combine."""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .tensor import Tensor

SIMPLEX_TOL = 1e-6
KL_EPS = 1e-12
ADV_FLOOR = 1e-8


def _check_simplex(values: np.ndarray, what: str) -> None:
    if np.any(values < -SIMPLEX_TOL):
        raise ContractViolation(f"{what} has negative entries")
    sums = values.sum(axis=-1)
    if values.size and np.any(np.abs(sums - 1.0) > SIMPLEX_TOL):
        raise ContractViolation(f"{what} rows must sum to 1, got sums in "
                                f"[{sums.min():.8f}, {sums.max():.8f}]")


def kl_loss(target: np.ndarray | Tensor, pred: Tensor) -> Tensor:
    """KL(target || pred) with the prediction clamped below at KL_EPS.

    Zero-mass target entries contribute nothing. A 2-d input is treated
    as a batch and the per-row divergences are averaged.
    """
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    if t.shape != pred.shape:
        raise ContractViolation(f"kl_loss shapes {t.shape} vs {pred.shape}")
    if t.ndim not in (1, 2):
        raise ContractViolation(f"kl_loss expects [C] or [B,C], got {t.shape}")
    _check_simplex(t, "kl target")
    _check_simplex(pred.data, "kl prediction")
    rows = 1 if t.ndim == 1 else t.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(t > 0, t * np.log(t), 0.0).sum()
    mask = Tensor(t)
    cross = (mask * pred.clamp_min(KL_EPS).log()).sum()
    return (float(ent) - cross) * (1.0 / rows)


def pred_loss(y_e: Tensor, y_emotion: Tensor | None,
              target: np.ndarray | Tensor) -> Tensor:
    """Batch-mean KL of the stacked per-order heads y_e [R*B, C] against
    the [B, C] targets tiled once per order block (the mean over orders
    of each order's KL), plus the graph-enhanced head's KL when present."""
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    orders = y_e.shape[0] // len(t) if t.ndim == 2 and len(t) else 0
    if orders < 1 or orders * len(t) != y_e.shape[0]:
        raise ContractViolation(f"pred_loss: {y_e.shape[0]} stacked rows for targets {t.shape}")
    total = kl_loss(np.tile(t, (orders, 1)), y_e)
    if y_emotion is not None:
        total = total + kl_loss(t, y_emotion)
    return total


def total_loss(l_pred: Tensor, l_adv: Tensor) -> Tensor:
    """Adaptive balance: L_pred + c * L_adv with c detached as
    L_pred / max(L_adv, ADV_FLOOR), so the adversary term's weight tracks the
    prediction loss but contributes gradient only through L_adv."""
    coeff = l_pred.item() / max(l_adv.item(), ADV_FLOOR)
    return l_pred + coeff * l_adv


def combine_final(y_emotion: Tensor, y_style: Tensor, mu: float) -> Tensor:
    """Convex mix of the two distribution heads."""
    if not 0.0 <= mu <= 1.0:
        raise ConfigurationError(f"combine coefficient {mu} outside [0,1]")
    return mu * y_emotion + (1.0 - mu) * y_style
