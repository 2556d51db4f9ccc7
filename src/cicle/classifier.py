"""Multinomial logistic regression over sparse tf-idf vectors.

Objective (bias unregularized, matching the usual l2-penalized multinomial
formulation with inverse regularization strength C):

    L(W, b) = sum_i -ln softmax(W x_i + b)_{y_i} + (1 / 2C) * ||W||_F^2

Training is deterministic: zero initialization and scipy's Newton-CG, a
truncated Newton method (Lin, Weng & Keerthi, "Trust region Newton method for
large-scale logistic regression", JMLR 9, 2008). Each iteration solves the
Newton system by conjugate gradients, using exact Hessian-vector products at
the current softmax, then line-searches along that direction. The solver
stops when an iteration moves the parameters by at most ``XTOL`` on average,
when its line search can make no further progress, or after ``MAX_ITER``
iterations. Whatever the stop, the fit counts as converged only when the
gradient infinity-norm at the returned weights, computed after the solve, is
at most ``TOL``.

The solve runs with every OpenBLAS in the process set to one thread. Its dot
products span all K*V+K parameters, and OpenBLAS splits a dot longer than
10,000 entries across threads: that makes the weights depend on the thread
count, and a main thread that shares a CPU with an OpenBLAS worker waits for
a scheduler tick at each hand-off (on 2 vCPUs, 0.7 s on a 0.04 s fit).
"""

from __future__ import annotations

import ctypes
import functools
import logging
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from .corpus import LabelSpace

log = logging.getLogger(__name__)

# Newton-CG stops once an iteration moves the parameters by at most this much
# on average. On the benchmark grid (corpus seeds 1-3) the final gradient
# inf-norm is then 6e-11 to 1.2e-8, far below TOL; with 1e-10 more fits end in
# scipy's "precision loss" stop instead.
XTOL = 1e-9
# the largest final gradient inf-norm of a converged fit
TOL = 1e-4
MAX_ITER = 1000
# the inverse regularization strength
C = 1.0
# (prefix, suffix) of the thread-count functions: numpy's wheel, scipy's wheel,
# a system OpenBLAS; each library's first pair that exists is the one used
_OPENBLAS_SYMBOLS = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))


@dataclass
class LogisticModel:
    """Trained weights; immutable after training, safe for concurrent predict."""

    W: np.ndarray
    b: np.ndarray
    converged: bool = True


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    # max subtraction keeps exp() finite for any logit magnitude
    Zs = Z - Z.max(axis=1, keepdims=True)
    P = np.exp(Zs)
    P /= P.sum(axis=1, keepdims=True)
    return P


def nll_and_grad(W: np.ndarray, b: np.ndarray, X: sp.csr_matrix, y: np.ndarray,
                 C: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Penalized negative log-likelihood, its analytic gradient and the softmax
    it used: (loss, dW, db, P)."""
    n = X.shape[0]
    Z = X @ W.T + b
    Zmax = Z.max(axis=1, keepdims=True)
    lse = Zmax[:, 0] + np.log(np.exp(Z - Zmax).sum(axis=1))
    rows = np.arange(n)
    loss = float(np.sum(lse - Z[rows, y]) + 0.5 / C * np.sum(W * W))
    P = np.exp(Z - lse[:, None])
    R = P.copy()
    R[rows, y] -= 1.0
    dW = (X.T @ R).T + W / C
    db = R.sum(axis=0)
    return loss, np.asarray(dW), db, P


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get_num_threads, set_num_threads) of each OpenBLAS mapped into this
    process; empty where /proc/self/maps names none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({fields[5].strip() for fields in (line.split(maxsplit=5) for line in maps)
                            if len(fields) == 6 and "openblas" in fields[5]})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                controls.append((get, set_))
                break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Set every OpenBLAS to one thread, and back to its own count on exit."""
    controls = _openblas_thread_controls()
    counts = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, set_), n in zip(controls, counts):
            set_(n)


def train(X: sp.csr_matrix, y, label_space: LabelSpace) -> LogisticModel:
    """Fit the model on the CSR rows of X and their class indices y.

    Training data must contain at least two distinct classes. Only the classes
    y holds are fitted; any other class gets zero weights and a bias of -inf,
    so its probability is exactly 0. A model whose final gradient is above the
    tolerance is still returned, flagged with ``converged=False`` and a logged
    warning.
    """
    classes, y = np.unique(np.asarray(y, dtype=np.int64), return_inverse=True)
    if len(classes) < 2:
        raise ValueError("training data contains a single class; need at least two")
    # C is read once, so the closures below keep this solve's strength
    K, V, strength = len(classes), X.shape[1], C
    # the latest evaluated point, so that the Hessian products and the final
    # check reuse its softmax and gradient instead of recomputing them
    last: dict = {"params": None}

    def evaluate(params: np.ndarray) -> dict:
        if not np.array_equal(params, last["params"]):
            loss, dW, db, P = nll_and_grad(params[: K * V].reshape(K, V), params[K * V:],
                                           X, y, strength)
            last.update(params=params.copy(), loss=loss,
                        grad=np.concatenate([dW.ravel(), db]), P=P)
        return last

    def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
        point = evaluate(params)
        return point["loss"], point["grad"]

    def hessp(params: np.ndarray, v: np.ndarray) -> np.ndarray:
        # the Hessian at params times v = (dW, db): row i's logits move by
        # A_i = dW x_i + db, which the softmax Jacobian at P_i maps to
        # G_i = P_i * A_i - P_i (P_i . A_i)
        P = evaluate(params)["P"]
        dW = v[: K * V].reshape(K, V)
        PA = P * (X @ dW.T + v[K * V:])
        G = PA - P * PA.sum(axis=1, keepdims=True)
        return np.concatenate([((X.T @ G).T + dW / strength).ravel(), G.sum(axis=0)])

    with _one_blas_thread():
        result = minimize(
            objective,
            np.zeros(K * V + K),
            jac=True,
            hessp=hessp,
            method="Newton-CG",
            options={"maxiter": MAX_ITER, "xtol": XTOL},
        )
    W = np.zeros((len(label_space), V))
    W[classes] = result.x[: K * V].reshape(K, V)
    b = np.full(len(label_space), -np.inf)
    b[classes] = result.x[K * V:]
    # Newton-CG's result.jac is the gradient before its last step, so take the final one
    grad_norm = np.abs(evaluate(result.x)["grad"]).max()
    converged = bool(grad_norm <= TOL)
    if not converged:
        log.warning("training did not converge: gradient inf-norm %.3e > tol %.3e after %d "
                    "iterations; Newton-CG stopped with: %s",
                    grad_norm, TOL, result.nit, result.message)
    return LogisticModel(W=W, b=b, converged=converged)


def predict_proba(model: LogisticModel, X: sp.csr_matrix) -> np.ndarray:
    """Softmax class probabilities, one row per row of X.

    One ``X @ W.T + b`` product and a max-shifted softmax. A row's bits do
    not depend on the rows beside it.
    """
    return _softmax_rows(np.asarray(X @ model.W.T) + model.b)
