"""Classification metric suite.

Weighted accuracy is the overall fraction correct; unweighted accuracy is
the mean per-class recall over classes that actually occur. F1 comes in a
support-weighted and an unweighted (macro over present classes) flavor.
The task-level numbers are the plain averages of each pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class MetricsReport:
    confusion: np.ndarray  # rows = true class, cols = predicted
    acc_weighted: float
    acc_unweighted: float
    f1_weighted: float
    f1_unweighted: float
    acc_task: float
    f1_task: float

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.tolist(),
            "acc_weighted": self.acc_weighted,
            "acc_unweighted": self.acc_unweighted,
            "f1_weighted": self.f1_weighted,
            "f1_unweighted": self.f1_unweighted,
            "acc_task": self.acc_task,
            "f1_task": self.f1_task,
        }


def _as_label_array(values, n_classes: int, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a non-empty 1-D label sequence")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == arr.astype(int)):
            raise ValidationError(f"{name} contains non-integer labels")
        arr = arr.astype(int)
    if arr.min() < 0 or arr.max() >= n_classes:
        raise ValidationError(f"{name} labels out of range for n_classes={n_classes}")
    return arr


def compute_metrics(true_labels, predicted_labels, n_classes: int) -> MetricsReport:
    y = _as_label_array(true_labels, n_classes, "true_labels")
    p = _as_label_array(predicted_labels, n_classes, "predicted_labels")
    if y.size != p.size:
        raise ValidationError(f"length mismatch: {y.size} true vs {p.size} predicted labels")

    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (y, p), 1)

    total = confusion.sum()
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    tp = np.diag(confusion).astype(np.float64)
    present = support > 0

    acc_weighted = float(tp.sum() / total)
    recalls = np.zeros(n_classes)
    recalls[present] = tp[present] / support[present]
    acc_unweighted = float(recalls[present].mean())

    denom = 2.0 * tp + (predicted - tp) + (support - tp)
    f1 = np.where(denom > 0, 2.0 * tp / np.where(denom > 0, denom, 1.0), 0.0)
    f1_weighted = float((support * f1).sum() / total)
    f1_unweighted = float(f1[present].mean())

    return MetricsReport(
        confusion=confusion,
        acc_weighted=acc_weighted,
        acc_unweighted=acc_unweighted,
        f1_weighted=f1_weighted,
        f1_unweighted=f1_unweighted,
        acc_task=(acc_weighted + acc_unweighted) / 2.0,
        f1_task=(f1_weighted + f1_unweighted) / 2.0,
    )
