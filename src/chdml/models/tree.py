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

Two shortcuts cut the fixed cost of a node and keep every tree the same
bit for bit.  In a node of at most 512 rows, a child's weighted impurity
``n * gini`` is read from a process-wide table indexed by (n, p), the rows
and positives of the child; its entries come from the same function, and
so the same int64 and float64 operations, that larger nodes call inline.
The table is built once, on first use, for all 512 rows: 131,841 floats
(1.05 MB).  Random feature subsets are drawn by Floyd's algorithm
64 nodes at a time from one bounded-integer call: the same draws, in the
same order, as one ``Generator.choice(d, mtry, replace=False)`` per node.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..preprocess import Dataset
from .base import ClassifierSpec

__all__ = ["Tree", "build_tree", "CartModel", "fit"]

#: Largest node whose cuts read their weighted Gini from ``_gini_table()``.
_TABLE_ROWS = 512
#: Feature subsets drawn per generator call.
_CHUNK = 64
#: ``_TRI[n]`` = n(n+1)/2, where row n of the table starts.
_TRI = np.cumsum(np.arange(_TABLE_ROWS + 2))


def _weighted_gini(n: np.ndarray | int, p: np.ndarray) -> np.ndarray:
    """``n * gini`` of a node of ``n`` rows, ``p`` of them positive."""
    return n * (1.0 - (p**2 + (n - p) ** 2) / n**2)


@functools.cache
def _gini_table() -> np.ndarray:
    """``table[_TRI[n] + p]`` = ``_weighted_gini(n, p)`` for 1 <= n <= 512
    and 0 <= p <= n; the NaN entry of n = 0 is never read.

    Rows are filled one by one because one vectorized expression over the
    whole table allocates temporaries several times its 1.05 MB.
    """
    table = np.full(_TRI[_TABLE_ROWS + 1], np.nan)
    for n in range(1, _TABLE_ROWS + 1):
        table[_TRI[n] : _TRI[n + 1]] = _weighted_gini(n, np.arange(n + 1))
    return table


def _feature_subsets(
    rng: np.random.Generator, d: int, mtry: int
) -> Iterator[np.ndarray]:
    """Endless sorted ``mtry``-subsets of ``range(d)``, uniform, one per node.

    Floyd's algorithm (Bentley & Floyd, 1987) draws from [0, j] for
    j = d-mtry .. d-1 and takes j itself when the draw is already in the
    subset; then the subset is shuffled, drawing from [0, i] for
    i = mtry-1 .. 1.  Those are the draws of numpy's
    ``choice(d, mtry, replace=False)`` for d <= 10,000, so the subsets and
    the generator's state after a whole chunk match it.  The draws of
    ``_CHUNK`` nodes come from one call, so the generator advances in
    whole chunks; the shuffle's draws are only consumed, since the subset
    is sorted.
    """
    highs = np.concatenate((np.arange(d - mtry + 1, d + 1), np.arange(mtry, 1, -1)))
    highs = np.tile(highs, _CHUNK)
    while True:
        subsets = rng.integers(0, highs).reshape(_CHUNK, -1)[:, :mtry]
        for c in range(1, mtry):
            drawn = (subsets[:, :c] == subsets[:, c : c + 1]).any(axis=1)
            subsets[drawn, c] = d - mtry + c
        subsets.sort(axis=1)
        yield from subsets


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
    Xt: np.ndarray,
    y: np.ndarray,
    orders: np.ndarray,
    features: np.ndarray,
    pos: int,
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
    if m <= _TABLE_ROWS:
        # left child of cut i has i+1 rows, the right one m-i-1
        gini = _gini_table()
        weighted = (
            gini.take(_TRI[1:m] + p_left) + gini.take((_TRI[m - 1 : 0 : -1] + pos) - p_left)
        ) / m
    else:
        # left then right child of every cut, side by side
        n_left = np.arange(1, m)
        n = np.concatenate((n_left, m - n_left))
        n_gini = _weighted_gini(n, np.concatenate((p_left, pos - p_left), axis=1))
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
    generator consumption is a fixed function of the data.  The subsets are
    those of ``np.sort(rng.choice(d, mtry, replace=False))`` node after
    node, but drawn by ``_feature_subsets`` 64 nodes at a time: the
    generator advances in whole chunks, so after the call its state is not
    the one per-node draws would leave.  Do not read ``rng`` afterwards
    (``forest.fit`` gives every tree a fresh generator and draws its
    bootstrap sample first).

    Nodes of at most 512 rows read their cuts' weighted Gini from a table
    shared by all trees of the process, built once for all 512 rows
    (1.05 MB) by the first tree that needs it; larger nodes compute it
    inline with the same function.
    """
    n, d = X.shape
    Xt = np.ascontiguousarray(X.T)
    orders = np.argsort(Xt, axis=1, kind="stable")
    goes_left = np.zeros(n, dtype=bool)
    subsets = None
    if rng is not None and mtry is not None and mtry < d:
        subsets = _feature_subsets(rng, d, mtry)
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
        candidates = all_features if subsets is None else next(subsets)
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
