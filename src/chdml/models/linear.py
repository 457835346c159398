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
loss term is max(z, 0) + s and the sigmoid (:func:`_sigmoid`, which
scoring uses too) is exp(-(max(-z, 0) + s)).  Both are numpy's own
``logaddexp(0, t)`` = max(0, t) + log1p(exp(-|t|)) term for term, so they
are bit-identical to calling it, and the gradient at an accepted candidate
reuses the pair its loss was computed from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..preprocess import Dataset
from .base import ClassifierSpec

__all__ = ["nll_loss", "nll_gradient", "LogisticModel", "fit"]

_MAX_HALVINGS = 60


def _margins(w: np.ndarray, b: float, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The margins z = Xw + b and s = log(1 + exp(-|z|)), which
    :func:`nll_loss` and :func:`nll_gradient` share at one point."""
    z = X @ w + b
    return z, np.logaddexp(0.0, -np.abs(z))


def _sigmoid(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The logistic function of the margins ``(z, s)`` from :func:`_margins`."""
    return np.exp(-(np.maximum(-z, 0.0) + s))


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
    residual = _sigmoid(z, s) - y
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
        return _sigmoid(*_margins(self.weights, self.bias, X))


def _descend(
    X: np.ndarray, y: np.ndarray, lam: float, step0: float, max_iter: int, tol: float
) -> tuple[np.ndarray, float, bool]:
    """Gradient descent from zero: the final ``(w, b, converged)``."""
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    margins = _margins(w, b, X)
    loss = nll_loss(w, b, X, y, lam, margins)

    for it in range(max_iter + 1):  # the last gradient is only tested
        grad_w, grad_b = nll_gradient(w, b, X, y, lam, margins)
        converged = max(float(np.max(np.abs(grad_w))), abs(grad_b)) < tol
        if converged or it == max_iter:
            break
        step = step0
        for _ in range(_MAX_HALVINGS):
            w_next = w - step * grad_w
            b_next = b - step * grad_b
            margins_next = _margins(w_next, b_next, X)
            loss_next = nll_loss(w_next, b_next, X, y, lam, margins_next)
            if loss_next <= loss:
                break
            step /= 2.0
        else:
            break  # loss cannot be decreased further at any step size
        w, b, loss, margins = w_next, b_next, loss_next, margins_next
    return w, b, converged


def fit(spec: ClassifierSpec, train: Dataset) -> LogisticModel:
    """Fit by gradient descent.  A ``step`` with which the descent
    overflows, where numpy would warn and no halving of the step might
    lower the loss, is refused with a :class:`ConfigError`; a fit that
    does not overflow is unaffected."""
    hp = spec.resolved()
    y = train.labels.astype(np.float64)
    try:
        with np.errstate(over="raise"):  # set once per fit, not per iteration
            w, b, converged = _descend(
                train.features, y, hp["lambda"], hp["step"], hp["max_iter"], hp["tol"]
            )
    except FloatingPointError:
        raise ConfigError(
            f"LR hyperparameter 'step' {hp['step']!r} is too large for this training "
            "data: a gradient step overflowed"
        ) from None
    return LogisticModel(spec=spec, weights=w, bias=b, converged=converged)
