"""CART-style binary decision tree minimizing weighted Gini impurity.

Nodes live in flat parallel arrays (no recursion, no depth limits from the
Python stack).  Candidate thresholds are midpoints between consecutive
distinct sorted values of a feature; the best split is the one with the
lowest weighted child Gini, ties broken by lower feature index, then lower
threshold.  A node becomes a leaf when it is pure, all candidate features
are constant, it is smaller than ``min_samples_split``, or the depth cap
is reached.  Leaves score the positive fraction of their training rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..preprocess import Dataset
from .base import ClassifierSpec, check_matrix, check_train

__all__ = ["Tree", "build_tree", "CartModel", "fit"]


@dataclass(frozen=True)
class Tree:
    """Flat node store: ``feature`` is -1 at leaves, children are ids."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # positive fraction of training rows at the node

    @property
    def node_count(self) -> int:
        return len(self.feature)

    def score_many(self, X: np.ndarray) -> np.ndarray:
        cur = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            rows = np.flatnonzero(self.feature[cur] >= 0)
            if rows.size == 0:
                break
            node = cur[rows]
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            cur[rows] = np.where(go_left, self.left[node], self.right[node])
        return self.value[cur]


def _best_split(
    X: np.ndarray, y: np.ndarray, idx: np.ndarray, features: np.ndarray
) -> tuple[int, float] | None:
    """Lowest weighted-Gini split over the given features, or None.

    ``features`` must be in ascending order; the first strict minimum
    encountered wins, which realizes the (feature index, threshold) tie
    rule.
    """
    m = idx.size
    total_pos = int(y[idx].sum())
    best: tuple[float, int, float] | None = None
    for f in features:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        cuts = np.flatnonzero(sv[1:] > sv[:-1])  # cut after sorted position i
        if cuts.size == 0:
            continue
        cum_pos = np.cumsum(y[idx][order])
        n_left = cuts + 1
        p_left = cum_pos[cuts]
        n_right = m - n_left
        p_right = total_pos - p_left
        gini_left = 1.0 - (p_left**2 + (n_left - p_left) ** 2) / n_left**2
        gini_right = 1.0 - (p_right**2 + (n_right - p_right) ** 2) / n_right**2
        weighted = (n_left * gini_left + n_right * gini_right) / m
        j = int(np.argmin(weighted))  # first minimum = lowest threshold
        if best is None or weighted[j] < best[0]:
            lo, hi = sv[cuts[j]], sv[cuts[j] + 1]
            thr = lo / 2.0 + hi / 2.0
            if thr >= hi:  # midpoint rounded up to hi: fall back to lo
                thr = lo
            best = (float(weighted[j]), int(f), float(thr))
    if best is None:
        return None
    return best[1], best[2]


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    min_samples_split: int = 2,
    max_depth: int = 0,
    rng: np.random.Generator | None = None,
    mtry: int | None = None,
) -> Tree:
    """Grow a tree on (X, y); ``max_depth`` 0 means unrestricted.

    When ``rng`` and ``mtry`` are given, every split evaluates a fresh uniform
    subset of ``mtry`` features (sampled without replacement, then sorted
    ascending so the tie rule stays well-defined).  Nodes are expanded
    depth-first, left child first, so generator consumption is a fixed
    function of the data.
    """
    n, d = X.shape
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    all_features = np.arange(d)
    stack: list[tuple[np.ndarray, int, int, bool]] = [
        (np.arange(n), 0, -1, False)
    ]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        node_id = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        m = idx.size
        pos = int(y[idx].sum())
        value.append(pos / m)
        if parent >= 0:
            (left if is_left else right)[parent] = node_id

        if pos == 0 or pos == m:
            continue
        if m < min_samples_split:
            continue
        if max_depth and depth >= max_depth:
            continue
        if rng is not None and mtry is not None and mtry < d:
            candidates = np.sort(rng.choice(d, size=mtry, replace=False))
        else:
            candidates = all_features
        split = _best_split(X, y, idx, candidates)
        if split is None:
            continue
        f, thr = split
        feature[node_id] = f
        threshold[node_id] = thr
        mask = X[idx, f] <= thr
        # right first so the left child is expanded (and numbered) first
        stack.append((idx[~mask], depth + 1, node_id, False))
        stack.append((idx[mask], depth + 1, node_id, True))

    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


@dataclass(frozen=True)
class CartModel:
    spec: ClassifierSpec
    n_features: int
    tree: Tree

    def score_many(self, X: np.ndarray) -> np.ndarray:
        X = check_matrix(X, self.n_features)
        return self.tree.score_many(X)


def fit(spec: ClassifierSpec, train: Dataset) -> CartModel:
    check_train(train, require_both_classes=False)
    hp = spec.resolved()
    tree = build_tree(
        train.features,
        train.labels,
        min_samples_split=int(round(hp["min_samples_split"])),
        max_depth=int(round(hp["max_depth"])),
    )
    return CartModel(spec=spec, tree=tree, n_features=train.n_features)
