"""Soft-margin RBF-kernel SVM trained by sequential minimal optimization.

Internally labels live in {-1, +1} and the decision value is

    f(x) = sum_i alpha_i y_i K(x_i, x) + b,      K(x, z) = exp(-gamma ||x - z||^2)

which is returned unbounded (no probability squashing); the sign is the
class.  The dual is solved by SMO: repeatedly pick a pair of multipliers
violating the KKT conditions, solve the two-variable subproblem
analytically, and update the error cache.  Pair selection follows the
classic two-loop scheme but with every arbitrary choice made
deterministic (ties and fallback scans resolve to the lowest index), so
equal inputs give bitwise-equal models.

When ``gamma`` is left at 0 it resolves to 1 / (d * mean per-feature
variance) of the training matrix.  The solver stops when a full sweep
finds no KKT violator beyond ``tol``, or gives up (``converged=False``)
after 10n sweeps.

The solver's scalar steps run on Python floats read with ``.item()``: the
same IEEE double operations, in the same order, as on numpy scalars would
be.  A boolean mask of the non-bound multipliers (0 < alpha < C) is kept up
to date for the two indices each step changes, and their index array is
rebuilt from it only when one of them enters or leaves the bounds.  The
error-cache update writes into two preallocated buffers, term by term in
the order of the plain expression.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..preprocess import Dataset, sq_distance_chunks
from .base import ClassifierSpec

__all__ = ["SvmModel", "fit", "rbf_kernel"]

_EPS = 1e-12
#: kernel-row cache budget in bytes (the full Gram matrix is never built)
_CACHE_BYTES = 64_000_000


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * squared distance) for every row pair, chunked."""
    out = np.empty((A.shape[0], B.shape[0]), dtype=np.float64)
    for rows, d2 in sq_distance_chunks(A, B):
        out[rows] = np.exp(-gamma * d2)
    return out


@dataclass(frozen=True)
class SvmModel:
    spec: ClassifierSpec
    support_vectors: np.ndarray   # rows of the training matrix with alpha > 0
    support_labels: np.ndarray    # in {-1, +1}
    dual_coef: np.ndarray         # alpha_i * y_i, same order
    support_indices: np.ndarray   # positions within the training data
    bias: float
    gamma: float
    converged: bool
    n_features: int

    def score_many(self, X: np.ndarray) -> np.ndarray:
        if len(self.dual_coef) == 0:
            return np.full(X.shape[0], self.bias, dtype=np.float64)
        K = rbf_kernel(X, self.support_vectors, self.gamma)
        return K @ self.dual_coef + self.bias


class _Smo:
    def __init__(self, X: np.ndarray, y: np.ndarray, C: float, gamma: float, tol: float):
        self.y = y.astype(np.float64)
        self.C = float(C)
        self.tol = float(tol)
        self.n = X.shape[0]
        self.alpha = np.zeros(self.n, dtype=np.float64)
        self.free = np.zeros(self.n, dtype=bool)  # 0 < alpha < C
        self.non_bound = np.flatnonzero(self.free)  # rebuilt whenever free changes
        self.b = 0.0
        # E_i = f(x_i) - y_i; with all alphas at zero, f = b = 0
        self.errors = -self.y.copy()
        self._update = np.empty(self.n, dtype=np.float64)
        self._term = np.empty(self.n, dtype=np.float64)
        # LRU cache of kernel rows K(i, all training points)
        self.kernel_row = functools.lru_cache(max(2, _CACHE_BYTES // (8 * self.n)))(
            lambda i: rbf_kernel(X[i : i + 1], X, gamma)[0]
        )

    def take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        C, alpha, y, errors = self.C, self.alpha, self.y, self.errors
        a1, a2 = alpha.item(i1), alpha.item(i2)
        y1, y2 = y.item(i1), y.item(i2)
        E1, E2 = errors.item(i1), errors.item(i2)
        s = y1 * y2
        if s < 0:
            L = max(0.0, a2 - a1)
            H = min(C, C + a2 - a1)
        else:
            L = max(0.0, a1 + a2 - C)
            H = min(C, a1 + a2)
        if L >= H:
            return False
        row1 = self.kernel_row(i1)
        row2 = self.kernel_row(i2)
        k11, k12, k22 = row1.item(i1), row1.item(i2), row2.item(i2)
        eta = k11 + k22 - 2.0 * k12
        if eta > 0.0:
            a2_new = a2 + y2 * (E1 - E2) / eta
            a2_new = min(max(a2_new, L), H)
        else:
            # degenerate curvature: compare the objective at both clip ends
            f1 = y1 * (E1 + self.b) - a1 * k11 - s * a2 * k12
            f2 = y2 * (E2 + self.b) - s * a1 * k12 - a2 * k22
            L1 = a1 + s * (a2 - L)
            H1 = a1 + s * (a2 - H)
            obj_L = L1 * f1 + L * f2 + 0.5 * L1**2 * k11 + 0.5 * L**2 * k22 + s * L * L1 * k12
            obj_H = H1 * f1 + H * f2 + 0.5 * H1**2 * k11 + 0.5 * H**2 * k22 + s * H * H1 * k12
            if obj_L < obj_H - _EPS:
                a2_new = L
            elif obj_L > obj_H + _EPS:
                a2_new = H
            else:
                return False
        if abs(a2_new - a2) < _EPS * (a2_new + a2 + _EPS):
            return False
        a1_new = a1 + s * (a2 - a2_new)
        # snap to the box corners so support vectors are exactly 0 or C
        if a1_new < _EPS:
            a1_new = 0.0
        elif a1_new > C - _EPS:
            a1_new = C
        d1 = y1 * (a1_new - a1)
        d2 = y2 * (a2_new - a2)
        b1 = self.b - E1 - d1 * k11 - d2 * k12
        b2 = self.b - E2 - d1 * k12 - d2 * k22
        free1 = 0.0 < a1_new < C
        free2 = 0.0 < a2_new < C
        if free1:
            b_new = b1
        elif free2:
            b_new = b2
        else:
            b_new = (b1 + b2) / 2.0
        # errors += (d1 * row1 + d2 * row2) + (b_new - b), term by term
        update, term = self._update, self._term
        np.multiply(row1, d1, out=update)
        np.multiply(row2, d2, out=term)
        update += term
        update += b_new - self.b
        errors += update
        alpha[i1] = a1_new
        alpha[i2] = a2_new
        if self.free.item(i1) != free1 or self.free.item(i2) != free2:
            self.free[i1] = free1
            self.free[i2] = free2
            self.non_bound = np.flatnonzero(self.free)
        self.b = b_new
        return True

    def examine(self, i2: int) -> bool:
        y2, a2, E2 = self.y.item(i2), self.alpha.item(i2), self.errors.item(i2)
        r2 = E2 * y2
        violates = (r2 < -self.tol and a2 < self.C) or (r2 > self.tol and a2 > 0.0)
        if not violates:
            return False
        non_bound = self.non_bound
        if non_bound.size > 1:
            # second-choice heuristic: widest error gap, ties to low index
            i1 = int(non_bound[np.argmax(np.abs(self.errors[non_bound] - E2))])
            if self.take_step(i1, i2):
                return True
        for i1 in non_bound.tolist():  # ascending index, deterministic
            if self.take_step(i1, i2):
                return True
        for i1 in range(self.n):
            if self.take_step(i1, i2):
                return True
        return False

    def solve(self, max_sweeps: int) -> bool:
        examine_all = True
        changed = 0
        sweeps = 0
        while changed > 0 or examine_all:
            if sweeps >= max_sweeps:
                return False
            sweeps += 1
            changed = 0
            targets = range(self.n) if examine_all else self.non_bound.tolist()
            for i2 in targets:
                changed += self.examine(i2)
            if examine_all:
                examine_all = False
            elif changed == 0:
                examine_all = True
        return True


def fit(spec: ClassifierSpec, train: Dataset) -> SvmModel:
    hp = spec.resolved()
    C = hp["C"]
    tol = hp["tol"]
    if not math.isfinite(4.0 * C * C):  # a flat-curvature step squares multipliers up to 2C
        raise ConfigError(
            f"SVM hyperparameter 'C' {C!r} is too large: the solver squares multipliers "
            "up to 2C, and (2C)**2 is not finite"
        )

    X = train.features
    y = np.where(train.labels == 1, 1.0, -1.0)
    gamma = hp["gamma"]
    if gamma == 0.0:
        mean_var = float(X.var(axis=0).mean())
        gamma = 1.0 / (X.shape[1] * mean_var) if mean_var > 0.0 else 1.0 / X.shape[1]
    # no squared distance between two training rows exceeds the summed
    # squared feature ranges, so no kernel exponent overflows
    spread = float(((X.max(axis=0) - X.min(axis=0)) ** 2).sum())
    if not math.isfinite(gamma * spread):
        raise ConfigError(
            f"SVM hyperparameter 'gamma' {gamma!r} is too large for this training "
            "data: its product with the summed squared feature ranges is not finite"
        )

    solver = _Smo(X, y, C=C, gamma=gamma, tol=tol)
    converged = solver.solve(max_sweeps=10 * train.n_rows)

    keep = np.flatnonzero(solver.alpha > 0.0)
    return SvmModel(
        spec=spec,
        support_vectors=X[keep],
        support_labels=y[keep].astype(np.int64),
        dual_coef=solver.alpha[keep] * y[keep],
        support_indices=keep,
        bias=solver.b,
        gamma=gamma,
        converged=converged,
        n_features=train.n_features,
    )
