"""CART-style binary decision tree minimizing weighted Gini impurity.

Nodes live in flat parallel arrays (no recursion, no depth limits from the
Python stack).  Candidate thresholds are midpoints between consecutive
distinct sorted values of a feature; the best split is the one with the
lowest weighted child Gini, ties broken by lower feature index, then lower
threshold.  A node becomes a leaf when it is pure, all candidate features
are constant, it is smaller than ``min_samples_split``, or the depth cap
is reached.  Leaves score the positive fraction of their training rows.

A tree is grown from one argsort per feature: each node holds its rows in
every feature's sorted order, a split partitions them with a stable mask,
and all cuts of all candidate features of a node are scored in one
vectorized pass.  The Gini sums, their int64 counts and the float
operations are those of a per-feature scan, so the trees, their node
order and the draws of the feature generator do not depend on this layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..preprocess import Dataset
from .base import ClassifierSpec

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
    Xt: np.ndarray, y: np.ndarray, orders: np.ndarray, features: np.ndarray, pos: int
) -> tuple[int, float, int, int] | None:
    """Lowest weighted-Gini split over ``features``, or None if all are constant.

    ``orders`` holds, for every feature, the node's ``m`` rows in ascending
    order of that feature; ``pos`` counts the node's positives.  All cuts of
    all candidates are scored in one (k, m - 1) pass; cuts between equal
    values read ``inf``.  With ``features`` ascending, the first minimum of
    the feature-major array realizes the tie rule.  Returns the feature, the
    threshold, and the left child's row and positive counts.
    """
    rows = orders[features]
    m = rows.shape[1]
    sv = Xt[features[:, None], rows]
    p_left = y[rows[:, :-1]].cumsum(axis=1)
    # left then right child of every cut, side by side
    n_left = np.arange(1, m)
    n = np.concatenate((n_left, m - n_left))
    p = np.concatenate((p_left, pos - p_left), axis=1)
    n_gini = n * (1.0 - (p**2 + (n - p) ** 2) / n**2)
    weighted = (n_gini[:, : m - 1] + n_gini[:, m - 1 :]) / m
    weighted = np.where(sv[:, 1:] > sv[:, :-1], weighted, np.inf)
    k, i = divmod(int(weighted.argmin()), m - 1)
    if weighted[k, i] == np.inf:
        return None
    lo, hi = sv[k, i], sv[k, i + 1]
    thr = lo / 2.0 + hi / 2.0
    if thr >= hi:  # midpoint rounded up to hi: fall back to lo
        thr = lo
    return int(features[k]), float(thr), i + 1, int(p_left[k, i])


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    min_samples_split: int = 2,
    max_depth: int = 0,
    rng: np.random.Generator | None = None,
    mtry: int | None = None,
) -> Tree:
    """Grow a tree on (X, y); ``max_depth`` 0 means unrestricted.

    Every feature is argsorted once per tree.  A split gathers one
    goes-left flag per row into a mask over all features' sorted rows, and
    each child keeps its part of every row, which stays sorted; a child that
    is a leaf by count (pure, smaller than ``min_samples_split``, or at the
    depth cap) is never partitioned.  Row and positive counts come from the
    parent's chosen cut, not from a pass over the rows.

    When ``rng`` and ``mtry`` are given, every split evaluates a fresh uniform
    subset of ``mtry`` features (sampled without replacement, then sorted
    ascending so the tie rule stays well-defined).  Nodes are expanded
    depth-first, left child first, and numbered in that preorder, so
    generator consumption is a fixed function of the data.
    """
    n, d = X.shape
    Xt = np.ascontiguousarray(X.T)
    orders = np.argsort(Xt, axis=1, kind="stable")
    goes_left = np.zeros(n, dtype=bool)
    all_features = np.arange(d)
    nodes: list[list] = []  # [feature, threshold, left, right, value]
    # (parent's sorted rows, this child's part of them or None for all,
    # rows, positives, depth, parent, is_left)
    stack = [(orders, None, n, int(y.sum()), 0, -1, False)]
    while stack:
        orders, keep, m, pos, depth, parent, is_left = stack.pop()
        node_id = len(nodes)
        nodes.append([-1, np.nan, -1, -1, pos / m])
        if parent >= 0:
            nodes[parent][2 if is_left else 3] = node_id
        if pos in (0, m) or m < min_samples_split or max_depth and depth >= max_depth:
            continue
        if keep is not None:
            orders = orders.compress(keep).reshape(d, -1)
        if rng is not None and mtry is not None and mtry < d:
            candidates = np.sort(rng.choice(d, size=mtry, replace=False))
        else:
            candidates = all_features
        split = _best_split(Xt, y, orders, candidates, pos)
        if split is None:
            continue
        f, thr, n_left, p_left = split
        nodes[node_id][:2] = f, thr
        goes_left[orders[f, :n_left]] = True
        goes_left[orders[f, n_left:]] = False
        mask = goes_left[orders].ravel()
        # right first so the left child is expanded (and numbered) first
        depth += 1
        stack.append((orders, ~mask, m - n_left, pos - p_left, depth, node_id, False))
        stack.append((orders, mask, n_left, p_left, depth, node_id, True))

    feature, threshold, left, right, value = zip(*nodes)
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
        return self.tree.score_many(X)


def fit(spec: ClassifierSpec, train: Dataset) -> CartModel:
    hp = spec.resolved()
    tree = build_tree(
        train.features,
        train.labels,
        min_samples_split=hp["min_samples_split"],
        max_depth=hp["max_depth"],
    )
    return CartModel(spec=spec, tree=tree, n_features=train.n_features)
