"""The logistic-regression and SVM solvers against the loops they replaced.

``ref_lr_fit`` (with its loss and gradient) and ``RefSmo`` / ``ref_svm_fit``
below are the earlier implementations, copied verbatim but for their names:
the descent loop evaluated ``X @ w + b`` and ``logaddexp`` twice per
accepted point, and SMO did its scalar steps on numpy scalars and rebuilt
the non-bound set from ``alpha`` on every ``examine``.  Every fitted model
must match them bit for bit, so models and reports are unchanged.  The
operation-count guards and the ``logaddexp`` identities the new loss and
gradient rest on are checked here too.
"""

from __future__ import annotations

import functools
import inspect
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chdml.models import ClassifierSpec, fit
from chdml.models import linear
from chdml.models.linear import LogisticModel
from chdml.models.svm import _CACHE_BYTES, _EPS, SvmModel, rbf_kernel
from chdml.preprocess import Dataset

_MAX_HALVINGS = 60


def ref_sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    return np.exp(-np.logaddexp(0.0, -np.asarray(z, dtype=np.float64)))


def ref_nll_loss(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, lam: float
) -> float:
    """Regularized mean negative log-likelihood."""
    n = len(y)
    z = X @ w + b
    # log(1 + e^z) - y z, computed via logaddexp for stability
    data_term = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return data_term + lam / (2.0 * n) * float(np.dot(w, w))


def ref_nll_gradient(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, lam: float
) -> tuple[np.ndarray, float]:
    """Analytic gradient of :func:`nll_loss` in (w, b)."""
    n = len(y)
    residual = ref_sigmoid(X @ w + b) - y
    grad_w = X.T @ residual / n + (lam / n) * w
    grad_b = float(np.mean(residual))
    return grad_w, grad_b


def ref_lr_fit(spec: ClassifierSpec, train: Dataset) -> LogisticModel:
    hp = spec.resolved()
    lam = hp["lambda"]
    step0 = hp["step"]
    max_iter = hp["max_iter"]
    tol = hp["tol"]

    X = train.features
    y = train.labels.astype(np.float64)
    w = np.zeros(train.n_features, dtype=np.float64)
    b = 0.0
    loss = ref_nll_loss(w, b, X, y, lam)
    converged = False

    for _ in range(max_iter):
        grad_w, grad_b = ref_nll_gradient(w, b, X, y, lam)
        if max(float(np.max(np.abs(grad_w))), abs(grad_b)) < tol:
            converged = True
            break
        step = step0
        accepted = False
        for _ in range(_MAX_HALVINGS):
            w_next = w - step * grad_w
            b_next = b - step * grad_b
            loss_next = ref_nll_loss(w_next, b_next, X, y, lam)
            if loss_next <= loss:
                accepted = True
                break
            step /= 2.0
        if not accepted:
            break  # loss cannot be decreased further at any step size
        w, b, loss = w_next, b_next, loss_next
    else:
        grad_w, grad_b = ref_nll_gradient(w, b, X, y, lam)
        converged = max(float(np.max(np.abs(grad_w))), abs(grad_b)) < tol

    return LogisticModel(spec=spec, weights=w, bias=b, converged=converged)


class RefSmo:
    def __init__(self, X: np.ndarray, y: np.ndarray, C: float, gamma: float, tol: float):
        self.y = y.astype(np.float64)
        self.C = C
        self.tol = tol
        self.n = X.shape[0]
        self.alpha = np.zeros(self.n, dtype=np.float64)
        self.b = 0.0
        # E_i = f(x_i) - y_i; with all alphas at zero, f = b = 0
        self.errors = -self.y.copy()
        # LRU cache of kernel rows K(i, all training points)
        self.kernel_row = functools.lru_cache(max(2, _CACHE_BYTES // (8 * self.n)))(
            lambda i: rbf_kernel(X[i : i + 1], X, gamma)[0]
        )

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
        row1 = self.kernel_row(i1)
        row2 = self.kernel_row(i2)
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


def ref_svm_fit(spec: ClassifierSpec, train: Dataset) -> SvmModel:
    hp = spec.resolved()
    C = hp["C"]
    tol = hp["tol"]

    X = train.features
    y = np.where(train.labels == 1, 1.0, -1.0)
    gamma = hp["gamma"]
    if gamma == 0.0:
        mean_var = float(X.var(axis=0).mean())
        gamma = 1.0 / (X.shape[1] * mean_var) if mean_var > 0.0 else 1.0 / X.shape[1]

    solver = RefSmo(X, y, C=C, gamma=gamma, tol=tol)
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


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def problem(seed: int, n: int = 60, d: int = 3, duplicates: int = 0,
            integer: bool = False) -> Dataset:
    """Noisy two-class data; ``duplicates`` copies the first rows over the
    last ones, which keep their labels, and ``integer`` rounds every feature."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.5, (n, d))
    if integer:
        X = np.rint(X)
    y = (X[:, 0] + rng.normal(0.0, 1.0, n) > 0).astype(np.int64)
    if duplicates:
        X[-duplicates:] = X[:duplicates]
    y[:2] = [0, 1]
    return Dataset(X, y)


#: (data, hyperparameters, converged): defaults that stop at max_iter, a
#: loose tol, long steps that halve, lambda 0, one feature, duplicate rows,
#: tied integer features, and a fit cut at max_iter 3 (the final gradient).
LR_CASES = [
    (problem(0), {}, False),
    (problem(1), {"tol": 1e-2}, True),
    (problem(2), {"step": 20.0, "lambda": 0.0, "max_iter": 200}, True),
    (problem(3, d=1), {"max_iter": 300}, False),
    (problem(4, duplicates=20), {"step": 5.0}, True),
    (problem(5, n=40, integer=True), {"lambda": 3.0, "tol": 1e-4}, True),
    (problem(6, n=25, d=6), {"max_iter": 3, "step": 50.0}, False),
]


@pytest.mark.parametrize("data, hyperparameters, converged", LR_CASES)
def test_lr_fit_matches_the_earlier_loop(data, hyperparameters, converged):
    spec = ClassifierSpec("LR", hyperparameters=hyperparameters)
    got, want = fit(spec, data), ref_lr_fit(spec, data)
    assert bits(got.weights) == bits(want.weights)
    assert bits(got.bias) == bits(want.bias)
    assert got.converged is want.converged is converged


def test_lr_fit_calls_logaddexp_once_per_evaluated_point(monkeypatch):
    counts = {"logaddexp": 0, "nll_loss": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(np, "logaddexp")
    counted(linear, "nll_loss")
    model = fit(ClassifierSpec("LR", hyperparameters={"step": 20.0, "max_iter": 8}),
                problem(7))
    assert not model.converged
    assert counts["nll_loss"] > 8 + 1  # the start, each iteration, and some halvings
    assert counts["logaddexp"] == counts["nll_loss"]


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, 1e-17,
           -1e-17, 40.0, -40.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf]


@given(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False)),
                min_size=1, max_size=40))
def test_logaddexp_identities_are_bit_exact(values):
    z = np.array(values, dtype=np.float64)
    s = np.logaddexp(0.0, -np.abs(z))
    pairs = [
        (np.maximum(z, 0.0) + s, np.logaddexp(0.0, z)),
        (np.exp(-(np.maximum(-z, 0.0) + s)), linear.sigmoid(z)),
    ]
    for got, want in pairs:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def blobs(seed: int, n_per: int = 20, d: int = 2, gap: float = 2.0) -> Dataset:
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0.0, 1.0, (n_per, d)), rng.normal(gap, 1.0, (n_per, d))])
    return Dataset(X, np.array([0] * n_per + [1] * n_per))


def lines_run(code, call):
    """``call()`` and the line numbers it ran in the function of ``code``."""
    seen: set[int] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        return call(), seen
    finally:
        sys.settrace(previous)


def degenerate_line():
    """The line of ``_Smo.take_step`` that runs only when eta <= 0."""
    from chdml.models.svm import _Smo

    lines, start = inspect.getsourcelines(_Smo.take_step)
    offset = next(i for i, line in enumerate(lines) if "obj_L =" in line)
    return _Smo.take_step.__code__, start + offset


#: (data, hyperparameters): defaults, C small enough that alphas reach the
#: bound, one feature, duplicate rows with other labels (eta = 0) and tied
#: integer features, overlapping classes with a fixed gamma.
SVM_CASES = [
    (blobs(0), {}),
    (blobs(1, gap=1.0), {"C": 0.05}),
    (blobs(2, d=1, gap=1.0), {}),
    (problem(3, n=50, duplicates=15), {"C": 2.0}),
    (problem(4, n=60, d=2, integer=True), {"C": 0.5}),
    (blobs(5, n_per=30, d=4, gap=0.5), {"gamma": 0.7, "tol": 1e-4}),
]


@pytest.mark.parametrize("data, hyperparameters", SVM_CASES)
def test_svm_fit_matches_the_earlier_solver(data, hyperparameters):
    spec = ClassifierSpec("SVM", hyperparameters=hyperparameters)
    got, want = fit(spec, data), ref_svm_fit(spec, data)
    assert bits(got.dual_coef) == bits(want.dual_coef)
    assert np.array_equal(got.support_indices, want.support_indices)
    assert bits(got.bias) == bits(want.bias)
    assert got.converged is want.converged


def test_svm_cases_reach_the_bound_and_the_degenerate_branch():
    bounded = ref_svm_fit(ClassifierSpec("SVM", hyperparameters={"C": 0.05}), SVM_CASES[1][0])
    assert (np.abs(bounded.dual_coef) == 0.05).any()
    code, line = degenerate_line()
    for data, hyperparameters in SVM_CASES[3:5]:
        spec = ClassifierSpec("SVM", hyperparameters=hyperparameters)
        _, seen = lines_run(code, lambda: fit(spec, data))
        assert line in seen
