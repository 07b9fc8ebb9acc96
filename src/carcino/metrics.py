"""Evaluation metrics.

Five levels: Dice for segmentation, precision/recall/F1 for per-station
involvement, RMSE (and its normalized form, in score levels) for the
total score, precision/recall/F1 per indication class, and balanced
accuracy for the frame relevance discriminator; plus mean/std summaries
across folds or models.

Undefined values are explicit: an operation returns None, never a
silent 0 or an exception, for Dice over two empty masks, a ratio over a
zero denominator, balanced accuracy with a class absent, and a summary
with no defined run value. Summaries report how many run values they
excluded. Standard deviations are population standard deviations,
fixed for determinism.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Indication, ScoringConstants
from .errors import CarcinoError

__all__ = [
    "ConfusionCounts",
    "MetricSummary",
    "dice",
    "precision_recall_f1",
    "station_confusions",
    "fs_rmse",
    "normalized_rmse",
    "balanced_accuracy",
    "its_confusions",
    "summarize_runs",
    "macro_average",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            tn=self.tn + other.tn,
            fn=self.fn + other.fn,
        )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricSummary:
    """Mean and population standard deviation over fold/model values;
    excluded counts the undefined run values left out."""

    mean: float
    std: float
    n: int
    excluded: int = 0

    def to_dict(self) -> dict:
        return {"mean": self.mean, "std": self.std, "n": self.n, "excluded": self.excluded}


def dice(gt: np.ndarray, pred: np.ndarray) -> float | None:
    """Dice similarity 2|A.B| / (|A| + |B|) between two binary masks.

    None (undefined) when both masks are empty; such frames are excluded
    from averages rather than inflating them.
    """
    gt = np.asarray(gt, dtype=bool)
    pred = np.asarray(pred, dtype=bool)
    if gt.shape != pred.shape:
        raise CarcinoError(f"mask shapes differ: {gt.shape} vs {pred.shape}")
    denom = int(np.count_nonzero(gt)) + int(np.count_nonzero(pred))
    if denom == 0:
        return None
    inter = int(np.count_nonzero(np.logical_and(gt, pred)))
    return 2.0 * inter / denom


def precision_recall_f1(
    c: ConfusionCounts,
) -> tuple[float | None, float | None, float | None]:
    """Precision, recall and F1 from confusion counts.

    Each value is None when its denominator is zero; F1 is None whenever
    precision or recall is, and 0.0 when both are defined but zero.
    """
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else None
    if precision is None or recall is None:
        f1 = None
    elif precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def _confusion(pairs: Iterable[tuple[bool, bool]]) -> ConfusionCounts:
    """Confusion counts over (predicted, actual) flag pairs."""
    n = Counter(pairs)
    return ConfusionCounts(
        tp=n[True, True], fp=n[True, False], tn=n[False, False], fn=n[False, True]
    )


def station_confusions(
    predictions: Sequence[Sequence[bool]],
    ground_truth: Sequence[Sequence[bool] | None],
) -> list[ConfusionCounts]:
    """Per-station confusion counts over videos; the positive class is
    "station involved"."""
    if len(predictions) != len(ground_truth):
        raise CarcinoError(
            f"{len(predictions)} predictions vs {len(ground_truth)} ground truths"
        )
    for i, (pred, gt) in enumerate(zip(predictions, ground_truth)):
        if gt is None:
            raise CarcinoError(f"video index {i} has no ground truth")
        if len(pred) != 6 or len(gt) != 6:
            raise CarcinoError("station vectors must have 6 entries")
    return [
        _confusion((bool(pred[s]), bool(gt[s])) for pred, gt in zip(predictions, ground_truth))
        for s in range(6)
    ]


def fs_rmse(pred_fs: Sequence[float], gt_fs: Sequence[float]) -> float:
    """Root mean square error between predicted and reference scores."""
    if len(pred_fs) != len(gt_fs):
        raise CarcinoError(f"{len(pred_fs)} predictions vs {len(gt_fs)} references")
    if not pred_fs:
        raise CarcinoError("RMSE over an empty cohort is undefined")
    total = 0.0
    for p, g in zip(pred_fs, gt_fs):
        total += (float(p) - float(g)) ** 2
    return math.sqrt(total / len(pred_fs))


def normalized_rmse(rmse: float, constants: ScoringConstants | None = None) -> float:
    """RMSE expressed in score levels: RMSE divided by the score step, the
    points per positive station."""
    if rmse < 0:
        raise ValueError("rmse must be non-negative")
    return rmse / (constants or ScoringConstants()).points_per_positive_station


def balanced_accuracy(c: ConfusionCounts) -> float | None:
    """Mean of sensitivity and specificity; robust to class imbalance.

    None (undefined) unless both classes are present."""
    if c.tp + c.fn == 0 or c.tn + c.fp == 0:
        return None
    sensitivity = c.tp / (c.tp + c.fn)
    specificity = c.tn / (c.tn + c.fp)
    return (sensitivity + specificity) / 2.0


def its_confusions(
    pred_its: Sequence[Indication],
    gt_its: Sequence[Indication],
) -> dict[Indication, ConfusionCounts]:
    """One confusion per indication class, each treating that class as
    positive (two report rows: score below the cutoff, and at/above)."""
    if len(pred_its) != len(gt_its):
        raise CarcinoError(f"{len(pred_its)} predictions vs {len(gt_its)} references")
    return {
        cls: _confusion((p is cls, g is cls) for p, g in zip(pred_its, gt_its))
        for cls in Indication
    }


def summarize_runs(values: Iterable[float | None]) -> MetricSummary | None:
    """Arithmetic mean and population standard deviation over run values.

    Undefined (None) values are excluded and counted; None when no value
    is defined. Summation order is the input order, fixed for bitwise
    reproducibility.
    """
    values = list(values)
    defined = [float(v) for v in values if v is not None]
    excluded = len(values) - len(defined)
    if not defined:
        return None
    n = len(defined)
    mean = sum(defined) / n
    variance = sum((v - mean) ** 2 for v in defined) / n
    return MetricSummary(mean=mean, std=math.sqrt(variance), n=n, excluded=excluded)


def macro_average(values: Iterable[float | None]) -> float | None:
    """Unweighted mean over the defined values; None if none are."""
    defined = [float(v) for v in values if v is not None]
    if not defined:
        return None
    return sum(defined) / len(defined)
