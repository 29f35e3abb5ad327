"""ACC and AUC evaluation, plus a brute-force AUC oracle for testing.

AUC is the rank statistic: the probability that a random positive
scores above a random negative, with ties worth one half. The fast path
uses midranks; ``auc_pairwise`` is the O(n^2) pair-counting oracle kept
here so tests can check the two routes against each other exactly.

Multiclass AUC is macro one-vs-rest, multilabel AUC is macro over
labels; classes missing from the evaluated labels are skipped with a
warning. Accuracy is exact-match for index tasks and macro per-label
agreement (scores thresholded at 0) for multilabel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import DatasetBundle, Split, TaskKind, label_columns
from .errors import ContractError, DimensionError, UndefinedMetricError
from .model import CMixerModel
from .train import _to_model_layout

__all__ = [
    "EvalReport",
    "accuracy",
    "auc_binary",
    "auc_pairwise",
    "auc_task",
    "evaluate",
    "report_rows",
]


@dataclass
class EvalReport:
    acc: float
    auc: float
    per_class: dict[int, dict[str, float]]
    n: int


def accuracy(pred_labels, true_labels) -> float:
    """Exact-match fraction; macro per-label agreement for 2-D 0/1 inputs."""
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.size == 0:
        raise ContractError("accuracy of an empty prediction set")
    if pred.shape != true.shape:
        if pred.ndim == 1 and true.ndim == 2 and true.shape[1] == 1:
            true = true.reshape(-1)
        else:
            raise ContractError(f"shape mismatch: {pred.shape} vs {true.shape}")
    if pred.ndim == 2 and pred.shape[1] > 1:
        return float(np.mean([np.mean(pred[:, j] == true[:, j]) for j in range(pred.shape[1])]))
    return float(np.mean(pred.reshape(-1) == true.reshape(-1)))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged; exact in float64 (values are halves)."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    n = len(ordered)
    # tie group k spans sorted positions i..j and ranks (i + 1 + j + 1) / 2
    i = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    j = np.append(i[1:], n) - 1
    ranks = np.empty(n)
    ranks[order] = np.repeat((i + 1 + j + 1) / 2.0, j - i + 1)
    return ranks


def auc_binary(scores, labels01) -> float:
    """Rank-based AUC; equals P(score_pos > score_neg) + P(tie)/2."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels01).reshape(-1)
    if s.shape != y.shape:
        raise ContractError("scores and labels must have the same length")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos + n_neg != len(y):
        raise ContractError("labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    ranks = _midranks(s)
    rank_sum = ranks[y == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_pairwise(scores, labels01) -> float:
    """O(n^2) pair-counting oracle: wins count 1, ties count 1/2."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels01).reshape(-1)
    pos = s[y == 1]
    neg = s[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    total = 0.0
    for p in pos:
        total += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return total / (len(pos) * len(neg))


def auc_task(score_matrix, labels, task: TaskKind) -> float:
    """Aggregate AUC per task kind (macro over classes or labels)."""
    scores = np.asarray(score_matrix, dtype=np.float64)
    y = np.asarray(labels)
    if scores.ndim != 2:
        raise ContractError(f"score matrix must be 2-D, got {scores.shape}")
    task = TaskKind(task)
    if task is TaskKind.BINARY:
        return auc_binary(scores[:, 1], y.reshape(-1))
    parts = []
    skipped = []
    cols = label_columns(y, task, scores.shape[1])
    for k in range(scores.shape[1]):
        if cols[:, k].min() == cols[:, k].max():
            skipped.append(k)
            continue
        parts.append(auc_binary(scores[:, k], cols[:, k]))
    if skipped:
        warnings.warn(f"AUC skipped single-class columns {skipped}", stacklevel=2)
    if not parts:
        raise UndefinedMetricError("no class had both positives and negatives")
    return float(np.mean(parts))


def predictions_for_task(scores: np.ndarray, task: TaskKind) -> np.ndarray:
    """argmax for index tasks; per-label threshold at 0 for multilabel
    (the projection head is symmetric about zero)."""
    if task is TaskKind.MULTILABEL:
        return (scores > 0.0).astype(np.int64)
    return scores.argmax(axis=1)


def evaluate(
    model: CMixerModel,
    bundle: DatasetBundle,
    split: Split = Split.TEST,
    rng: np.random.Generator | None = None,
    batch_size: int = 256,
) -> EvalReport:
    """Score one split and report ACC/AUC with a per-class breakdown.

    The model scores under its own ``toggles``. Noise is drawn fresh from
    ``rng``, once per batch (with the no-noise toggle the pass is
    deterministic); passing a seeded generator freezes the evaluation.
    A class count other than the bundle's is a ``DimensionError``, and a
    ``batch_size`` below 1 a ``ContractError``.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be at least 1, got {batch_size}")
    if model.config.num_classes != bundle.num_classes:
        raise DimensionError(
            f"model has {model.config.num_classes} classes, data has {bundle.num_classes}"
        )
    rng = rng if rng is not None else np.random.default_rng()
    idx = bundle.indices(split)
    if len(idx) == 0:
        raise ContractError(f"split {split} is empty")
    chunks = []
    for start in range(0, len(idx), batch_size):
        part = idx[start : start + batch_size]
        chunks.append(model.scores(_to_model_layout(bundle.images[part]), rng=rng))
    scores = np.concatenate(chunks)
    labels = bundle.labels[idx]
    preds = predictions_for_task(scores, bundle.task)
    acc = accuracy(preds, labels)
    auc = auc_task(scores, labels, bundle.task)

    per_class: dict[int, dict[str, float]] = {}
    cols = label_columns(labels, bundle.task, bundle.num_classes)
    hits = label_columns(preds, bundle.task, bundle.num_classes) == cols
    for k, col in enumerate(cols.T):
        if col.min() == col.max():
            continue
        # a label's ACC is its agreement over all samples, a class's its recall
        agree = hits[:, k] if bundle.task is TaskKind.MULTILABEL else hits[col == 1, k]
        per_class[k] = {"acc": float(np.mean(agree)), "auc": auc_binary(scores[:, k], col)}
    return EvalReport(acc=float(acc), auc=float(auc), per_class=per_class, n=len(idx))


def report_rows(report: EvalReport, split_name: str) -> list[tuple]:
    """Flatten a report into train-log CSV rows (step,epoch,split,metric,value)."""
    rows = [
        (0, 0, split_name, "acc", report.acc),
        (0, 0, split_name, "auc", report.auc),
        (0, 0, split_name, "n", float(report.n)),
    ]
    for k, metrics_k in sorted(report.per_class.items()):
        for name, value in sorted(metrics_k.items()):
            rows.append((0, 0, split_name, f"class{k}_{name}", value))
    return rows
