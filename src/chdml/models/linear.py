"""L2-regularized logistic regression trained by full-batch gradient descent.

The objective is the mean negative log-likelihood plus (lambda/2n)*||w||^2
with the bias left unpenalized:

    J(w, b) = mean_i [ log(1 + exp(z_i)) - y_i * z_i ] + lambda/(2n) * w.w,
    z_i = w.x_i + b.

Each iteration starts from the configured step size and halves it until
the candidate point does not increase the loss, so the training loss is
non-increasing across accepted iterations.  Training stops when the
gradient's infinity norm drops below ``tol`` or after ``max_iter``
iterations (the model then carries ``converged=False`` instead of
raising).

Each evaluated point costs one matrix-vector product and one
``logaddexp``: :func:`_margins` returns z and s = log(1 + exp(-|z|)), the
loss term is max(z, 0) + s and the sigmoid is exp(-(max(-z, 0) + s)).  Both
are numpy's own ``logaddexp(0, t)`` = max(0, t) + log1p(exp(-|t|)) term for
term, so they are bit-identical to calling it, and the gradient at an
accepted candidate reuses the pair its loss was computed from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..preprocess import Dataset
from .base import ClassifierSpec

__all__ = ["sigmoid", "nll_loss", "nll_gradient", "LogisticModel", "fit"]

_MAX_HALVINGS = 60


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    return np.exp(-np.logaddexp(0.0, -np.asarray(z, dtype=np.float64)))


def _margins(w: np.ndarray, b: float, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The margins z = Xw + b and s = log(1 + exp(-|z|)), which
    :func:`nll_loss` and :func:`nll_gradient` share at one point."""
    z = X @ w + b
    return z, np.logaddexp(0.0, -np.abs(z))


def nll_loss(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, lam: float,
    margins: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Regularized mean negative log-likelihood; ``margins`` is
    ``_margins(w, b, X)`` when the caller already has it."""
    n = len(y)
    z, s = _margins(w, b, X) if margins is None else margins
    # log(1 + e^z) - y z, with log(1 + e^z) = max(z, 0) + s; sum / n is
    # the arithmetic of np.mean without its per-call overhead
    data_term = float((np.maximum(z, 0.0) + s - y * z).sum()) / n
    return data_term + lam / (2.0 * n) * float(np.dot(w, w))


def nll_gradient(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, lam: float,
    margins: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, float]:
    """Analytic gradient of :func:`nll_loss` in (w, b)."""
    n = len(y)
    z, s = _margins(w, b, X) if margins is None else margins
    residual = np.exp(-(np.maximum(-z, 0.0) + s)) - y  # sigmoid(z) - y
    grad_w = X.T @ residual / n + (lam / n) * w
    grad_b = float(residual.sum()) / n
    return grad_w, grad_b


@dataclass(frozen=True)
class LogisticModel:
    spec: ClassifierSpec
    weights: np.ndarray
    bias: float
    converged: bool

    @property
    def n_features(self) -> int:
        return len(self.weights)

    def score_many(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(X @ self.weights + self.bias)


def fit(spec: ClassifierSpec, train: Dataset) -> LogisticModel:
    hp = spec.resolved()
    lam = hp["lambda"]
    step0 = hp["step"]
    max_iter = hp["max_iter"]
    tol = hp["tol"]

    X = train.features
    y = train.labels.astype(np.float64)
    w = np.zeros(train.n_features, dtype=np.float64)
    b = 0.0
    margins = _margins(w, b, X)
    loss = nll_loss(w, b, X, y, lam, margins)
    converged = False

    for _ in range(max_iter):
        grad_w, grad_b = nll_gradient(w, b, X, y, lam, margins)
        if max(float(np.max(np.abs(grad_w))), abs(grad_b)) < tol:
            converged = True
            break
        step = step0
        accepted = False
        for _ in range(_MAX_HALVINGS):
            w_next = w - step * grad_w
            b_next = b - step * grad_b
            margins_next = _margins(w_next, b_next, X)
            loss_next = nll_loss(w_next, b_next, X, y, lam, margins_next)
            if loss_next <= loss:
                accepted = True
                break
            step /= 2.0
        if not accepted:
            break  # loss cannot be decreased further at any step size
        w, b, loss, margins = w_next, b_next, loss_next, margins_next
    else:
        grad_w, grad_b = nll_gradient(w, b, X, y, lam, margins)
        converged = max(float(np.max(np.abs(grad_w))), abs(grad_b)) < tol

    return LogisticModel(spec=spec, weights=w, bias=b, converged=converged)
