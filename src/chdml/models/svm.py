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
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..preprocess import Dataset, sq_distance_chunks
from .base import ClassifierSpec, check_matrix, check_train

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


class _RowCache:
    """LRU cache of kernel rows K(i, all training points)."""

    def __init__(self, X: np.ndarray, gamma: float):
        self.X = X
        self.gamma = gamma
        self.rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self.capacity = max(2, _CACHE_BYTES // (8 * X.shape[0]))

    def get(self, i: int) -> np.ndarray:
        row = self.rows.get(i)
        if row is None:
            row = rbf_kernel(self.X[i : i + 1], self.X, self.gamma)[0]
            if len(self.rows) >= self.capacity:
                self.rows.popitem(last=False)
            self.rows[i] = row
        else:
            self.rows.move_to_end(i)
        return row


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

    @property
    def n_features(self) -> int:
        return self.support_vectors.shape[1]

    def score_many(self, X: np.ndarray) -> np.ndarray:
        X = check_matrix(X, self.n_features)
        if len(self.dual_coef) == 0:
            return np.full(X.shape[0], self.bias, dtype=np.float64)
        K = rbf_kernel(X, self.support_vectors, self.gamma)
        return K @ self.dual_coef + self.bias

    def parameters_doc(self) -> dict[str, Any]:
        return {
            "support_vectors": [[float(v) for v in r] for r in self.support_vectors],
            "support_labels": [int(v) for v in self.support_labels],
            "dual_coef": [float(v) for v in self.dual_coef],
            "support_indices": [int(v) for v in self.support_indices],
            "bias": float(self.bias),
            "gamma": float(self.gamma),
            "converged": bool(self.converged),
        }

    @classmethod
    def from_parameters_doc(
        cls, spec: ClassifierSpec, doc: Mapping[str, Any]
    ) -> "SvmModel":
        sv = np.asarray(doc["support_vectors"], dtype=np.float64)
        if sv.size == 0:
            sv = sv.reshape(0, 0)
        return cls(
            spec=spec,
            support_vectors=sv,
            support_labels=np.asarray(doc["support_labels"], dtype=np.int64),
            dual_coef=np.asarray(doc["dual_coef"], dtype=np.float64),
            support_indices=np.asarray(doc["support_indices"], dtype=np.int64),
            bias=float(doc["bias"]),
            gamma=float(doc["gamma"]),
            converged=bool(doc["converged"]),
        )


class _Smo:
    def __init__(self, X: np.ndarray, y: np.ndarray, C: float, gamma: float, tol: float):
        self.X = X
        self.y = y.astype(np.float64)
        self.C = C
        self.tol = tol
        self.n = X.shape[0]
        self.alpha = np.zeros(self.n, dtype=np.float64)
        self.b = 0.0
        # E_i = f(x_i) - y_i; with all alphas at zero, f = b = 0
        self.errors = -self.y.copy()
        self.cache = _RowCache(X, gamma)

    def _non_bound(self) -> np.ndarray:
        return np.flatnonzero((self.alpha > 0.0) & (self.alpha < self.C))

    def take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        a1, a2 = self.alpha[i1], self.alpha[i2]
        y1, y2 = self.y[i1], self.y[i2]
        E1, E2 = self.errors[i1], self.errors[i2]
        s = y1 * y2
        if s < 0:
            L = max(0.0, a2 - a1)
            H = min(self.C, self.C + a2 - a1)
        else:
            L = max(0.0, a1 + a2 - self.C)
            H = min(self.C, a1 + a2)
        if L >= H:
            return False
        row1 = self.cache.get(i1)
        row2 = self.cache.get(i2)
        k11, k12, k22 = row1[i1], row1[i2], row2[i2]
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
        elif a1_new > self.C - _EPS:
            a1_new = self.C
        d1 = y1 * (a1_new - a1)
        d2 = y2 * (a2_new - a2)
        b1 = self.b - E1 - d1 * k11 - d2 * k12
        b2 = self.b - E2 - d1 * k12 - d2 * k22
        if 0.0 < a1_new < self.C:
            b_new = b1
        elif 0.0 < a2_new < self.C:
            b_new = b2
        else:
            b_new = (b1 + b2) / 2.0
        self.errors += d1 * row1 + d2 * row2 + (b_new - self.b)
        self.alpha[i1] = a1_new
        self.alpha[i2] = a2_new
        self.b = b_new
        return True

    def examine(self, i2: int) -> bool:
        y2, a2, E2 = self.y[i2], self.alpha[i2], self.errors[i2]
        r2 = E2 * y2
        violates = (r2 < -self.tol and a2 < self.C) or (r2 > self.tol and a2 > 0.0)
        if not violates:
            return False
        non_bound = self._non_bound()
        if non_bound.size > 1:
            # second-choice heuristic: widest error gap, ties to low index
            i1 = int(non_bound[np.argmax(np.abs(self.errors[non_bound] - E2))])
            if self.take_step(i1, i2):
                return True
        for i1 in non_bound:  # ascending index, deterministic
            if self.take_step(int(i1), i2):
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
            targets = range(self.n) if examine_all else self._non_bound()
            for i2 in targets:
                changed += self.examine(int(i2))
            if examine_all:
                examine_all = False
            elif changed == 0:
                examine_all = True
        return True


def fit(spec: ClassifierSpec, train: Dataset) -> SvmModel:
    check_train(train, require_both_classes=True)
    hp = spec.resolved()
    C = float(hp["C"])
    tol = float(hp["tol"])

    X = train.features
    y = np.where(train.labels == 1, 1.0, -1.0)
    gamma = float(hp["gamma"])
    if gamma == 0.0:
        mean_var = float(X.var(axis=0).mean())
        gamma = 1.0 / (X.shape[1] * mean_var) if mean_var > 0.0 else 1.0 / X.shape[1]

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
    )
