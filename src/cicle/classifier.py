"""Multinomial logistic regression over sparse tf-idf vectors.

Objective (bias unregularized, matching the usual l2-penalized multinomial
formulation with inverse regularization strength C):

    L(W, b) = sum_i -ln softmax(W x_i + b)_{y_i} + (1 / 2C) * ||W||_F^2

Training is deterministic: zero initialization and a full-batch L-BFGS
minimizer driven by the analytic gradient below, stopping when the gradient
infinity-norm falls below ``tol``, after ``max_iter`` iterations, or when a
line search can make no further progress. L-BFGS-B's relative-reduction test
is off (``ftol`` 0), so a fit never stops on a flat stretch of the loss while
its gradient is still above ``tol``. Only the first stop counts as converged.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from .corpus import LabelSpace

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    C: float = 1.0
    tol: float = 1e-4
    max_iter: int = 1000

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class LogisticModel:
    """Trained weights; immutable after training, safe for concurrent predict."""

    W: np.ndarray
    b: np.ndarray
    label_space: LabelSpace
    converged: bool = True


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    # max subtraction keeps exp() finite for any logit magnitude
    Zs = Z - Z.max(axis=1, keepdims=True)
    P = np.exp(Zs)
    P /= P.sum(axis=1, keepdims=True)
    return P


def nll_and_grad(W: np.ndarray, b: np.ndarray, X: sp.csr_matrix, y: np.ndarray,
                 C: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Penalized negative log-likelihood and its analytic gradient.

    Returns (loss, dW, db). Kept public so the gradient can be checked
    against finite differences of the loss alone.
    """
    n = X.shape[0]
    Z = X @ W.T + b
    Zmax = Z.max(axis=1, keepdims=True)
    lse = Zmax[:, 0] + np.log(np.exp(Z - Zmax).sum(axis=1))
    rows = np.arange(n)
    loss = float(np.sum(lse - Z[rows, y]) + 0.5 / C * np.sum(W * W))
    P = np.exp(Z - lse[:, None])
    P[rows, y] -= 1.0
    dW = (X.T @ P).T + W / C
    db = P.sum(axis=0)
    return loss, np.asarray(dW), db


def train(X: sp.csr_matrix, y, label_space: LabelSpace,
          config: TrainConfig | None = None) -> LogisticModel:
    """Fit the model on the CSR rows of X and their class indices y.

    Training data must contain at least two distinct classes. A model that fails to reach
    the gradient tolerance within max_iter is still returned, flagged with
    ``converged=False`` and a logged warning.
    """
    config = config or TrainConfig()
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] != len(y) or len(y) == 0:
        raise ValueError(f"X has {X.shape[0]} rows but y has {len(y)} entries")
    K = len(label_space)
    if y.min() < 0 or y.max() >= K:
        raise ValueError("y contains class indices outside the label space")
    if len(np.unique(y)) < 2:
        raise ValueError("training data contains a single class; need at least two")
    V = X.shape[1]

    def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
        W = params[: K * V].reshape(K, V)
        b = params[K * V:]
        loss, dW, db = nll_and_grad(W, b, X, y, config.C)
        return loss, np.concatenate([dW.ravel(), db])

    result = minimize(
        objective,
        np.zeros(K * V + K),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": config.max_iter, "gtol": config.tol, "ftol": 0.0},
    )
    W = result.x[: K * V].reshape(K, V).copy()
    b = result.x[K * V:].copy()
    grad_norm = np.abs(result.jac).max()
    converged = bool(grad_norm <= config.tol)
    if not converged:
        log.warning("training did not converge: gradient inf-norm %.3e > tol %.3e after %d "
                    "iterations; L-BFGS-B stopped with: %s",
                    grad_norm, config.tol, result.nit, result.message)
    return LogisticModel(W=W, b=b, label_space=label_space, converged=converged)


def predict_proba(model: LogisticModel, X: sp.csr_matrix) -> np.ndarray:
    """Softmax class probabilities, one row per row of X.

    One ``X @ W.T + b`` product and a max-shifted softmax. A row's bits do
    not depend on the rows beside it.
    """
    if X.shape[1] != model.W.shape[1]:
        raise ValueError(f"dimension mismatch: matrix has {X.shape[1]}, "
                         f"model expects {model.W.shape[1]}")
    return _softmax_rows(np.asarray(X @ model.W.T) + model.b)
