"""Property tests: the oracles of the unit and acceptance tests, on inputs
hypothesis draws (small, tie-heavy integer data)."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from chdml.eval import roc_auc, stratified_kfold
from chdml.models import ClassifierSpec, fit, score_many
from chdml.preprocess import Dataset, nearest_columns, sq_distance_chunks
from chdml.resample import SmoteParams, minority_neighbors, smote


@st.composite
def labelled(draw, min_per_class=1, max_rows=30):
    """Labels with each class present at least ``min_per_class`` times."""
    labels = draw(st.lists(st.integers(0, 1), max_size=max_rows))
    labels += [0] * min_per_class + [1] * min_per_class
    return np.array(draw(st.permutations(labels)))


@st.composite
def datasets(draw, min_per_class=1, max_rows=30):
    """A Dataset of small integer features, so rows and distances tie often."""
    labels = draw(labelled(min_per_class, max_rows))
    d = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(-3, 3), min_size=labels.size * d,
                          max_size=labels.size * d))
    return Dataset(np.array(cells, dtype=np.float64).reshape(-1, d), labels)


@given(st.data(), labelled())
def test_roc_auc_equals_pair_counting(data, labels):
    scores = np.array(data.draw(st.lists(st.integers(0, 4), min_size=labels.size,
                                         max_size=labels.size)), dtype=np.float64)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = float((pos[:, None] > neg[None, :]).sum())
    ties = float((pos[:, None] == neg[None, :]).sum())
    assert roc_auc(scores, labels) == (wins + 0.5 * ties) / (pos.size * neg.size)


@given(st.integers(2, 5).flatmap(lambda k: st.tuples(st.just(k), labelled(k))),
       st.integers(0, 2**32 - 1))
def test_stratified_kfold_partitions_by_class(k_labels, seed):
    k, labels = k_labels
    data = Dataset(np.zeros((labels.size, 1)), labels)
    folds = stratified_kfold(data, k, seed)
    assert len(folds) == k
    assert sorted(np.concatenate(folds).tolist()) == list(range(labels.size))
    for label in (0, 1):
        sizes = [int((labels[fold] == label).sum()) for fold in folds]
        assert max(sizes) - min(sizes) <= 1


@given(datasets(min_per_class=2), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_smote_rows_lie_on_neighbor_segments(data, k, seed):
    out = smote(data, SmoteParams(k_neighbors=k, seed=seed))
    n0, n1 = data.class_counts()
    minority = data.features[data.labels == (1 if n1 <= n0 else 0)]
    neighbors = minority_neighbors(minority, k)
    bases = np.repeat(minority, neighbors.shape[1], axis=0)
    ends = minority[neighbors.ravel()]
    step = ends - bases
    length2 = np.maximum((step**2).sum(axis=1), 1e-300)
    for row in out.features[data.n_rows:]:
        t = np.clip(((row - bases) * step).sum(axis=1) / length2, 0.0, 1.0)
        gap = np.abs(bases + t[:, None] * step - row).max(axis=1)
        assert gap.min() <= 1e-9


@given(datasets(max_rows=20), st.integers(0, 2**32 - 1))
def test_tree_scores_are_probabilities(data, seed):
    for spec in (ClassifierSpec("CART"),
                 ClassifierSpec("RF", hyperparameters={"n_trees": 5}, seed=seed)):
        model = fit(spec, data)
        scores = score_many(model, data.features + 0.5)
        assert ((scores >= 0.0) & (scores <= 1.0)).all()
        for tree in (model.tree,) if spec.algorithm == "CART" else model.trees:
            assert_tree_layout(tree, data.n_features)


def assert_tree_layout(tree, n_features):
    """The layout that makes scoring end at a leaf: a leaf has no children and
    a NaN threshold; a split has a finite threshold, a feature of the model
    and both children numbered after it and before the end."""
    ids = np.arange(tree.feature.size)
    leaf = tree.feature == -1
    assert (tree.left[leaf] == -1).all() and (tree.right[leaf] == -1).all()
    assert np.isnan(tree.threshold[leaf]).all()
    split = ~leaf
    assert np.isfinite(tree.threshold[split]).all()
    for child in (tree.left[split], tree.right[split]):
        assert ((child > ids[split]) & (child < ids.size)).all()
    assert ((tree.feature[split] >= 0) & (tree.feature[split] < n_features)).all()


def stable_first(d2, k):
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


@given(st.integers(1, 12).flatmap(lambda cols: st.tuples(
    st.integers(1, cols),
    st.lists(st.lists(st.integers(0, 3), min_size=cols, max_size=cols), min_size=1,
             max_size=8))))
def test_nearest_columns_is_a_stable_argsort_prefix(k_rows):
    k, rows = k_rows
    d2 = np.array(rows, dtype=np.float64)
    assert np.array_equal(nearest_columns(d2, k), stable_first(d2, k))


@given(datasets(min_per_class=2), st.integers(1, 40))
def test_neighbour_searches_match_a_stable_argsort(data, k):
    X = data.features
    d2 = np.vstack([chunk for _, chunk in sq_distance_chunks(X, X)])
    model = fit(ClassifierSpec("KNN", hyperparameters={"k": k}), data)
    want = data.labels[stable_first(d2, min(k, data.n_rows))].mean(axis=1)
    assert np.array_equal(score_many(model, X), want)
    np.fill_diagonal(d2, np.inf)
    assert np.array_equal(minority_neighbors(X, k), stable_first(d2, min(k, data.n_rows - 1)))
