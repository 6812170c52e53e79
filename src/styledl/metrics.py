"""The six distribution-comparison metrics and average-rank tabulation.

All functions here are plain numpy over [N, C] arrays of targets and
predictions; nothing is differentiated. Clark and Canberra default to
their normalized forms (divide by sqrt(C) and C) so values are
comparable across label counts; pass normalize=False for the raw sums.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolation, FormatError, ValidationError
from .losses import KL_EPS

METRIC_NAMES = ("kl", "chebyshev", "clark", "canberra", "cosine", "intersection")
LOWER_IS_BETTER = {
    "kl": True,
    "chebyshev": True,
    "clark": True,
    "canberra": True,
    "cosine": False,
    "intersection": False,
}


def _as_rows(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise ContractViolation(f"expected [C] or [N,C] distributions, got shape {a.shape}")
    return a


@dataclass
class MetricReport:
    """Per-sample metric values plus their dataset means."""

    per_sample: dict[str, np.ndarray]
    mean: dict[str, float]
    n: int

    def to_json(self, name: str) -> str:
        doc = {
            "n": self.n,
            "metrics": {
                m: {"mean": self.mean[m], "per_sample": self.per_sample[m].tolist()}
                for m in METRIC_NAMES
            },
            "name": name,
        }
        return json.dumps(doc, indent=2)

    def to_text(self) -> str:
        lines = [f"samples: {self.n}"]
        for m in METRIC_NAMES:
            lines.append(f"{m:<13}{self.mean[m]:.6f}")
        return "\n".join(lines)


def load_report(path: str | Path) -> tuple[str, dict[str, float]]:
    """Read a `MetricReport.to_json` file back as (name, metric means).

    The name falls back to the file stem for an older report that carries none.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: not a JSON report ({exc})") from None
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    if not isinstance(metrics, dict):
        raise FormatError(f"{path}: expected an object with a 'metrics' object")
    means = {}
    for m, entry in metrics.items():
        mean = entry.get("mean") if isinstance(entry, dict) else None
        # bool is an int subclass, but `true` is no metric value
        if not isinstance(mean, (int, float)) or isinstance(mean, bool):
            raise FormatError(f"{path}: metric '{m}' has no numeric 'mean'")
        means[m] = float(mean)
    name = doc.get("name") or path.stem
    if not isinstance(name, str):
        raise FormatError(f"{path}: 'name' must be a string, got {name!r}")
    return name, means


def evaluate_metrics(targets, preds, normalize: bool = True) -> MetricReport:
    """Compute all six metrics per sample and their means; zero rows raise
    ValidationError."""
    t = _as_rows(targets)
    p = _as_rows(preds)
    if t.shape != p.shape:
        raise ContractViolation(f"target/prediction shapes differ: {t.shape} vs {p.shape}")
    n, c = t.shape
    if n == 0:
        raise ValidationError("no samples to evaluate: the metrics of zero rows are undefined")
    diff = p - t
    denom = p + t
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_terms = np.where(t > 0, t * (np.log(t) - np.log(np.maximum(p, KL_EPS))), 0.0)
        clark_terms = np.where(denom > 0, (diff / denom) ** 2, 0.0)
        canb_terms = np.where(denom > 0, np.abs(diff) / denom, 0.0)
    kl = kl_terms.sum(axis=1)
    chebyshev = np.abs(diff).max(axis=1)
    clark = np.sqrt(clark_terms.sum(axis=1))
    canberra = canb_terms.sum(axis=1)
    if normalize:
        clark = clark / np.sqrt(c)
        canberra = canberra / c
    norms = np.linalg.norm(p, axis=1) * np.linalg.norm(t, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosine = np.where(norms > 0, (p * t).sum(axis=1) / norms, 0.0)
    intersection = np.minimum(p, t).sum(axis=1)
    per_sample = {
        "kl": kl,
        "chebyshev": chebyshev,
        "clark": clark,
        "canberra": canberra,
        "cosine": cosine,
        "intersection": intersection,
    }
    mean = {m: float(v.mean()) for m, v in per_sample.items()}
    return MetricReport(per_sample=per_sample, mean=mean, n=n)


def competition_rank(values, lower_is_better: bool) -> np.ndarray:
    """Ranks where ties share the smallest position and the next is
    skipped (1, 2, 2, 4). NaN entries get NaN ranks with a warning."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ContractViolation(f"ranking expects a vector, got shape {v.shape}")
    ranks = np.full(v.shape, np.nan)
    finite = ~np.isnan(v)
    if not finite.all():
        warnings.warn(f"excluding {np.count_nonzero(~finite)} NaN scores from ranking")
    sign = 1.0 if lower_is_better else -1.0
    scored = sign * v[finite]
    ranks[finite] = 1 + (scored[:, None] > scored[None, :]).sum(axis=1)
    return ranks


def average_rank(scores, lower_flags) -> tuple[np.ndarray, np.ndarray]:
    """Per-metric competition ranks and their per-method average.

    `scores` is [methods, metrics]; `lower_flags` says, per metric,
    whether smaller is better. Methods with NaN on a metric are excluded
    from that column and from their own average for it.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ContractViolation(f"scores must be [methods, metrics], got {s.shape}")
    if s.shape[1] != len(lower_flags):
        raise ContractViolation(f"{s.shape[1]} metrics but {len(lower_flags)} directions")
    ranks = np.column_stack([
        competition_rank(s[:, j], lower_flags[j]) for j in range(s.shape[1])
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        averages = np.nanmean(ranks, axis=1)
    return ranks, averages


def rank_table(entries: list[tuple[str, dict[str, float]]]) -> str:
    """Render a comparison table with parenthesized competition ranks.

    `entries` pairs a method name with its metric means; every entry must
    cover `METRIC_NAMES`.
    """
    if not entries:
        raise ValidationError("rank_table needs at least one report")
    for name, means in entries:
        missing = [m for m in METRIC_NAMES if m not in means]
        if missing:
            raise ValidationError(f"report '{name}' lacks metrics {missing}")
    methods = [name for name, _ in entries]
    scores = np.array([[means[m] for m in METRIC_NAMES] for _, means in entries])
    lower = [LOWER_IS_BETTER[m] for m in METRIC_NAMES]
    ranks, averages = average_rank(scores, lower)
    avg_rank = competition_rank(averages, lower_is_better=True)
    width = max(len(m) for m in methods) + 2
    header = "method".ljust(width) + "  ".join(f"{m:>12}" for m in METRIC_NAMES)
    header += f"  {'avg rank':>12}"
    lines = [header]

    def cell(score: float, rank: float) -> str:
        if np.isnan(rank):
            return f"{score:.2f}(--)".rjust(12)
        return f"{score:.2f}({int(rank)})".rjust(12)

    for i, name in enumerate(methods):
        cells = [cell(scores[i, j], ranks[i, j]) for j in range(len(METRIC_NAMES))]
        cells.append(cell(averages[i], avg_rank[i]))
        lines.append(name.ljust(width) + "  ".join(cells))
    return "\n".join(lines)
