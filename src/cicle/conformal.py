"""Split conformal prediction over classifier probabilities.

Calibration scores each held-out item with the nonconformity s = 1 - p(true
class) and takes the threshold q_hat as the r-th smallest score, with
r = ceil((n+1)(1-alpha)); when r exceeds n the threshold saturates at 1.0
(the finite-sample correction). A prediction set then contains every class y
with 1 - p(y) <= q_hat, ordered by descending probability. Under
exchangeability the true class lands in the set with probability >= 1-alpha.

An empty raw set (possible because the threshold can undercut even the top
probability) falls back to the argmax singleton, flagged as forced_fallback,
so every item stays classified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# not called here; perfbench/spans.py wraps this name
from .classifier import predict_proba as predict_proba_many


@dataclass
class ConformalCalibration:
    """Sorted calibration scores and the derived set-inclusion threshold."""

    scores: np.ndarray
    q_hat: float


@dataclass
class ConformalSet:
    """Candidate classes as (class index, probability), descending by probability."""

    candidates: list[tuple[int, float]]
    forced_fallback: bool = False

    def __len__(self) -> int:
        return len(self.candidates)

    def classes(self) -> list[int]:
        return [c for c, _ in self.candidates]

    def contains(self, class_index: int) -> bool:
        return any(c == class_index for c, _ in self.candidates)


def quantile_rank(n: int, alpha: float) -> int:
    """1-based rank of the conformal quantile: ceil((n+1)(1-alpha)).

    The product is nudged down by one part in 1e12 before the ceiling so that
    IEEE representation noise (e.g. 10 * 0.9 -> 9.000000000000002) cannot
    bump an exactly-integer rank up by one.
    """
    v = (n + 1) * (1.0 - alpha)
    return math.ceil(v - v * 1e-12)


def calibration_from_scores(scores, alpha: float) -> ConformalCalibration:
    """Build a calibration from raw nonconformity scores in [0, 1]."""
    scores = np.sort(np.asarray(scores, dtype=float))
    n = len(scores)
    r = quantile_rank(n, alpha)
    q_hat = float(scores[r - 1]) if r <= n else 1.0
    return ConformalCalibration(scores=scores, q_hat=q_hat)


def calibrate(probs, y, alpha: float) -> ConformalCalibration:
    """Score held-out probability rows, whose true class indices are y.

    Each row contributes the score 1 - p(true class).
    """
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    return calibration_from_scores(1.0 - probs[np.arange(len(y)), y], alpha)


def predict_set(calibration: ConformalCalibration, probs) -> ConformalSet:
    """Candidate classes whose nonconformity clears the calibrated threshold.

    Candidates are ordered by descending probability, ties broken by class
    index. An empty raw set yields the argmax singleton with
    forced_fallback=True.
    """
    probs = np.asarray(probs, dtype=float)
    include = (1.0 - probs) <= calibration.q_hat
    order = np.argsort(-probs, kind="stable")
    candidates = [(int(i), float(probs[i])) for i in order if include[i]]
    if not candidates:
        top = int(np.argmax(probs))
        return ConformalSet(candidates=[(top, float(probs[top]))], forced_fallback=True)
    return ConformalSet(candidates=candidates)
