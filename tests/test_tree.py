"""The presorted ``build_tree`` against the per-feature scan it replaced.

``_best_split`` and ``build_tree`` below are the earlier implementation,
copied verbatim: one argsort of every candidate feature at every node.
Every node array of every tree must match it byte for byte, generator
draws included, so forests and their reports are unchanged.  The cases
above 512 rows compare nodes on both sides of the weighted-Gini table's
cap; the chunked feature-subset draw and the table are also checked
directly against numpy's ``choice`` and the inline Gini formula.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chdml.models import ClassifierSpec, fit, forest, tree
from chdml.models.tree import Tree
from chdml.preprocess import Dataset

NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")


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


def assert_same_tree(got: Tree, want: Tree) -> None:
    for name in NODE_ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def assert_matches_reference(X, y, seed=None, **kwargs) -> None:
    """Both versions on the same data; with ``seed``, each draws its ``mtry``
    candidates from its own generator seeded alike."""
    def grow(build):
        rng = None if seed is None else np.random.default_rng(seed)
        return build(X, y, rng=rng, **kwargs)

    assert_same_tree(grow(tree.build_tree), grow(build_tree))


def cohort(kind: str, n: int = 80, d: int = 5, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if kind == "ties":
        X = rng.integers(0, 4, size=(n, d)).astype(np.float64)
    elif kind == "bootstrap":
        X = X[rng.integers(0, n, size=n)]
    elif kind == "constant":
        X[:, [0, 2]] = 1.5
    y = (X[:, 1] + rng.normal(size=n) > 0).astype(np.int64)
    return X, y


KINDS = ("continuous", "ties", "bootstrap", "constant")


@pytest.mark.parametrize("kind", KINDS)
def test_all_features_every_node(kind):
    assert_matches_reference(*cohort(kind))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mtry", [1, 2, 4])
def test_mtry_draws_from_generators_seeded_alike(kind, mtry):
    assert_matches_reference(*cohort(kind, seed=mtry), seed=7, mtry=mtry)


@pytest.mark.parametrize("label", [0, 1])
def test_single_class_is_one_leaf(label):
    X, _ = cohort("continuous")
    y = np.full(X.shape[0], label, dtype=np.int64)
    assert_matches_reference(X, y, seed=3, mtry=2)
    assert tree.build_tree(X, y).node_count == 1


@pytest.mark.parametrize("min_samples_split", [3, 10])
@pytest.mark.parametrize("max_depth", [1, 2, 3])
def test_stopping_rules(min_samples_split, max_depth):
    X, y = cohort("ties", n=120)
    assert_matches_reference(
        X, y, seed=5, mtry=3, min_samples_split=min_samples_split, max_depth=max_depth
    )


def test_forest_with_bootstrap(monkeypatch):
    X, y = cohort("ties", n=100, d=6)
    spec = ClassifierSpec("RF", hyperparameters={"n_trees": 8, "bootstrap": 1}, seed=11)
    got = fit(spec, Dataset(X, y))
    monkeypatch.setattr(forest, "build_tree", build_tree)
    want = fit(spec, Dataset(X, y))
    assert len(got.trees) == len(want.trees) == 8
    for g, w in zip(got.trees, want.trees):
        assert_same_tree(g, w)


@pytest.mark.parametrize("kind", ["ties", "continuous"])
def test_nodes_on_both_sides_of_the_table_cap(kind):
    X, y = cohort(kind, n=1500)
    assert_matches_reference(X, y, seed=2, mtry=2)


def test_forest_with_bootstrap_above_the_table_cap(monkeypatch):
    X, y = cohort("continuous", n=1200, d=6)
    spec = ClassifierSpec("RF", hyperparameters={"n_trees": 3, "bootstrap": 1}, seed=4)
    got = fit(spec, Dataset(X, y))
    monkeypatch.setattr(forest, "build_tree", build_tree)
    want = fit(spec, Dataset(X, y))
    for g, w in zip(got.trees, want.trees):
        assert_same_tree(g, w)


@pytest.mark.parametrize("d", range(2, 16))
def test_chunked_subsets_are_numpy_choice_draws(d):
    """Subset for subset, the draws of ``choice(d, mtry, replace=False)``;
    after two whole chunks both generators are in the same state.  A numpy
    release that changes ``choice``'s stream fails here by name."""
    for seed in range(100):
        mtry = 1 + seed % (d - 1)
        ours = np.random.default_rng([d, seed])
        theirs = np.random.default_rng([d, seed])
        subsets = tree._feature_subsets(ours, d, mtry)
        for _ in range(2 * tree._CHUNK):
            want = np.sort(theirs.choice(d, size=mtry, replace=False))
            assert next(subsets).tolist() == want.tolist(), (d, mtry, seed)
        assert ours.integers(0, 2**62) == theirs.integers(0, 2**62), (d, mtry, seed)


def _inline_gini(n: np.ndarray, p: np.ndarray) -> np.ndarray:
    return n * (1.0 - (p**2 + (n - p) ** 2) / n**2)


def test_gini_table_is_the_inline_formula_bit_for_bit():
    table = tree._gini_table()
    assert len(table) == 512 * 513 // 2 + 513
    sizes = np.arange(1, 513)
    n = np.repeat(sizes, sizes + 1)
    p = np.concatenate([np.arange(k + 1) for k in sizes])
    assert table[1:].view(np.int64).tolist() == _inline_gini(n, p).view(np.int64).tolist()


@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-2, 2), min_size=3 * n, max_size=3 * n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    ),
    st.integers(1, 3),
    st.integers(0, 4),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_matches_reference_on_drawn_data(
    cells_labels, mtry, min_samples_split, max_depth, seed
):
    cells, labels = cells_labels
    X = np.array(cells, dtype=np.float64).reshape(-1, 3)
    y = np.array(labels, dtype=np.int64)
    assert_matches_reference(
        X, y, seed=seed, mtry=mtry, min_samples_split=min_samples_split,
        max_depth=max_depth,
    )
