"""Accuracy and ROC-AUC (rank-sum Mann-Whitney form, ties counted 0.5)."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ShapeMismatchError
from .nn import BINARY, MULTICLASS


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their block."""
    _, block, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # 1-based rank of each block's last member
    return 0.5 * ((ends - counts + 1) + ends)[block]


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative.

    Computed from the rank sum: (sum of positive ranks - n_pos(n_pos+1)/2) /
    (n_pos * n_neg). Returns NaN (with a warning) when only one class is present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ShapeMismatchError(f"scores {scores.shape} and labels {labels.shape} do not align")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        warnings.warn("ROC-AUC undefined with a single-class label set; returning NaN")
        return float("nan")
    ranks = _midranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def macro_ovr_auc(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """One-vs-rest AUC averaged over the classes present in the labels."""
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0]:
        raise ShapeMismatchError("probabilities must be (n, C) aligned with labels")
    aucs = []
    for c in range(probs.shape[1]):
        binary = (labels == c).astype(int)
        if binary.min() == binary.max():
            continue
        aucs.append(roc_auc(probs[:, c], binary))
    if not aucs:
        warnings.warn("ROC-AUC undefined with a single-class label set; returning NaN")
        return float("nan")
    return float(np.mean(aucs))


def accuracy(probabilities: np.ndarray, labels: np.ndarray, task: str, threshold: float = 0.5) -> float:
    """Fraction correct; binary thresholds P(class 1), multiclass takes argmax."""
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape[0] != labels.shape[0]:
        raise ShapeMismatchError("probabilities and labels do not align")
    if task == BINARY:
        p1 = probs[:, 0] if probs.ndim == 2 else probs
        preds = (p1 >= threshold).astype(int)
    elif task == MULTICLASS:
        preds = probs.argmax(axis=1)
    else:
        raise ValueError(f"unknown task {task!r}")
    return float((preds == labels).mean())


def compute_metrics(
    probabilities: np.ndarray, labels: np.ndarray, task: str, threshold: float = 0.5
) -> dict[str, float]:
    """Accuracy plus ROC-AUC (macro one-vs-rest for multiclass)."""
    probs = np.asarray(probabilities, dtype=np.float64)
    if task == BINARY:
        p1 = probs[:, 0] if probs.ndim == 2 else probs
        auc = roc_auc(p1, np.asarray(labels))
    else:
        auc = macro_ovr_auc(probs, np.asarray(labels))
    return {"accuracy": accuracy(probs, labels, task, threshold), "auc": auc}
