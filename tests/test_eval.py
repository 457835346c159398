"""ROC analysis, stratified splitting, cross-validation, grid search."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import chdml
from chdml.errors import ConfigError, DataError
from chdml.eval import (
    SmoteMode,
    _midranks,
    cross_validate,
    grid_search,
    holdout_evaluate,
    iter_cv_splits,
    roc_auc,
    score_folds,
    stratified_kfold,
    stratified_split,
)
from chdml.models import ClassifierSpec
from chdml.preprocess import Dataset
from chdml.resample import SmoteParams


class TestRocAuc:
    def test_four_point_fixture(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == 0.75

    def test_perfect_ranking(self):
        assert roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1])) == 1.0

    def test_reversed_ranking(self):
        assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([0, 0, 1, 1])) == 0.0

    def test_all_tied_is_half(self):
        assert roc_auc(np.full(6, 0.3), np.array([0, 1, 0, 1, 0, 1])) == 0.5

    def test_tie_counts_half(self):
        # one positive tied with one negative: expected (1 + 0.5)/2 ... laid
        # out: pairs (p1,n1)=win, (p1,n2)=tie -> auc = 1.5/2.
        scores = np.array([0.5, 0.9, 0.5])
        labels = np.array([0, 1, 1])
        assert roc_auc(scores, labels) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="needs both classes present"):
            roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(5, 60))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert roc_auc(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_matches_the_midrank_loop_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for trial in range(300):
            n = int(rng.integers(2, 80))
            labels = np.arange(n) % 2
            rng.shuffle(labels)
            grid = [0.0, -0.0, 0.5, 1.0, -np.inf, np.inf, 1e-300]
            scores = rng.choice(grid[: int(rng.integers(1, len(grid) + 1))], n)
            if trial % 3 == 0:
                scores = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
            ranks = _midranks_loop(scores)
            assert ranks.tobytes() == _midranks(scores).tobytes()
            r1 = float(ranks[labels == 1].sum())
            n1, n0 = int(labels.sum()), int((labels == 0).sum())
            expected = (r1 - n1 * (n1 + 1) / 2.0) / (n1 * n0)
            assert np.float64(roc_auc(scores, labels)).tobytes() == np.float64(expected).tobytes()

    def test_nan_score_rejected(self):
        with pytest.raises(DataError, match="contain NaN"):
            roc_auc(np.array([0.1, np.nan, 0.2]), np.array([0, 1, 1]))


def _midranks_loop(values):
    """The midrank loop ``eval._midranks`` replaced, kept as its reference."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    n = len(values)
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def two_blobs(n0=30, n1=20, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(0.0, 1.0, (n0, 3)),
        rng.normal(2.5, 1.0, (n1, 3)),
    ])
    y = np.array([0] * n0 + [1] * n1)
    return Dataset(X, y)


class TestStratifiedSplit:
    def test_counts_round_half_up(self):
        data = two_blobs(n0=30, n1=20)
        train, test = stratified_split(data, test_fraction=0.2, seed=0)
        assert test.class_counts() == (6, 4)
        assert train.class_counts() == (24, 16)

    def test_disjoint_and_complete(self):
        data = two_blobs()
        train, test = stratified_split(data, test_fraction=0.2, seed=1)
        assert train.n_rows + test.n_rows == data.n_rows
        combined = np.vstack([train.features, test.features])
        assert (
            np.unique(combined, axis=0).shape == np.unique(data.features, axis=0).shape
        )

    def test_deterministic(self):
        data = two_blobs()
        a_train, a_test = stratified_split(data, 0.2, seed=5)
        b_train, b_test = stratified_split(data, 0.2, seed=5)
        assert np.array_equal(a_test.features, b_test.features)
        assert np.array_equal(a_train.features, b_train.features)

    def test_tiny_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(5, 2))
        y = np.array([0, 0, 0, 0, 1])
        with pytest.raises(DataError, match="at least 2 rows to split"):
            stratified_split(Dataset(X, y), 0.2, seed=0)


class TestStratifiedKfold:
    def test_fold_sizes_balanced(self):
        data = two_blobs(n0=33, n1=17)
        folds = stratified_kfold(data, k=5, seed=0)
        sizes = sorted(len(test) for test in folds)
        assert sum(sizes) == 50
        # 33 -> 7,7,7,6,6 and 17 -> 4,4,3,3,3 per class
        assert max(sizes) - min(sizes) <= 2

    def test_every_row_tested_once(self):
        data = two_blobs()
        folds = stratified_kfold(data, k=5, seed=3)
        seen = np.concatenate(folds)
        assert sorted(seen.tolist()) == list(range(50))

    def test_both_classes_in_every_fold(self):
        data = two_blobs()
        for test in stratified_kfold(data, k=5, seed=2):
            labels = data.labels[test]
            assert 0 in labels and 1 in labels

    def test_class_smaller_than_k_rejected(self):
        X = np.random.default_rng(0).normal(size=(8, 2))
        y = np.array([0, 0, 0, 0, 0, 0, 1, 1])
        with pytest.raises(DataError, match="at least 3 rows for 3 folds"):
            stratified_kfold(Dataset(X, y), k=3, seed=0)

    def test_huge_k_is_refused_before_its_folds_are_built(self):
        data = two_blobs()
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="at least 1000000 rows for 1000000 folds"):
                stratified_kfold(data, k=10**6, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # a list per fold would take tens of MB


class TestCrossValidate:
    def test_summary_shape(self):
        data = two_blobs()
        summary = cross_validate(
            ClassifierSpec("NB"), data, k=5, seed=0, mode=SmoteMode.NONE
        )
        assert len(summary.fold_aucs) == 5
        assert 0.0 <= summary.mean <= 1.0
        assert summary.std >= 0.0
        assert summary.mean == pytest.approx(float(np.mean(summary.fold_aucs)))

    def test_deterministic(self):
        data = two_blobs()
        spec = ClassifierSpec("RF", hyperparameters={"n_trees": 5}, seed=1)
        a = cross_validate(spec, data, k=5, seed=2, mode=SmoteMode.NONE)
        b = cross_validate(spec, data, k=5, seed=2, mode=SmoteMode.NONE)
        assert a.fold_aucs == b.fold_aucs

    def test_informative_features_beat_chance(self):
        data = two_blobs()
        summary = cross_validate(
            ClassifierSpec("NB"), data, k=5, seed=0, mode=SmoteMode.NONE
        )
        assert summary.mean > 0.8

    def test_oversample_whole_dataset_mode(self):
        data = two_blobs(n0=40, n1=15)
        summary = cross_validate(
            ClassifierSpec("NB"),
            data,
            k=5,
            seed=0,
            mode=SmoteMode.PAPER_FAITHFUL,
            smote_params=SmoteParams(k_neighbors=3, seed=0),
        )
        assert len(summary.fold_aucs) == 5

    def test_leakage_free_mode_runs(self):
        data = two_blobs(n0=40, n1=15)
        summary = cross_validate(
            ClassifierSpec("NB"),
            data,
            k=5,
            seed=0,
            mode=SmoteMode.LEAKAGE_FREE,
            smote_params=SmoteParams(k_neighbors=3, seed=0),
        )
        assert len(summary.fold_aucs) == 5


class TestLeakageFreeSplits:
    def test_test_folds_contain_no_synthetic_rows(self):
        data = two_blobs(n0=40, n1=15, seed=4)
        originals = {tuple(row) for row in data.features}
        for train, test in iter_cv_splits(
            data,
            k=5,
            seed=0,
            mode=SmoteMode.LEAKAGE_FREE,
            smote_params=SmoteParams(k_neighbors=3, seed=0),
        ):
            for row in test.features:
                assert tuple(row) in originals
            # train side grew by synthetic minority rows
            assert train.class_counts()[0] == train.class_counts()[1]

    def test_plain_mode_never_resamples(self):
        data = two_blobs(n0=40, n1=15)
        for train, test in iter_cv_splits(
            data, k=5, seed=0, mode=SmoteMode.NONE, smote_params=None
        ):
            assert train.n_rows + test.n_rows == data.n_rows


class TestHoldout:
    def test_plain(self):
        data = two_blobs()
        auc = holdout_evaluate(ClassifierSpec("NB"), data, seed=0, mode=SmoteMode.NONE)
        assert 0.0 <= auc <= 1.0

    def test_oversampled_before_split(self):
        data = two_blobs(n0=40, n1=15)
        auc = holdout_evaluate(
            ClassifierSpec("NB"),
            data,
            seed=0,
            mode=SmoteMode.PAPER_FAITHFUL,
            smote_params=SmoteParams(k_neighbors=3, seed=0),
        )
        assert 0.0 <= auc <= 1.0

    def test_deterministic(self):
        data = two_blobs()
        spec = ClassifierSpec("RF", hyperparameters={"n_trees": 5}, seed=1)
        a = holdout_evaluate(spec, data, seed=3, mode=SmoteMode.NONE)
        b = holdout_evaluate(spec, data, seed=3, mode=SmoteMode.NONE)
        assert a == b

    def test_fits_with_the_specs_own_seed(self):
        data = two_blobs()
        spec = ClassifierSpec("RF", hyperparameters={"n_trees": 5}, seed=1)
        train, test = stratified_split(data, 0.2, seed=3)
        model = chdml.models.fit(spec, train)
        expected = roc_auc(chdml.models.score_many(model, test.features), test.labels)
        assert holdout_evaluate(spec, data, seed=3, mode=SmoteMode.NONE) == expected


class TestScoreFolds:
    @pytest.mark.parametrize("mode", list(SmoteMode), ids=lambda m: m.value)
    def test_matches_per_spec_scoring(self, mode):
        data = two_blobs(n0=40, n1=15, seed=5)
        params = SmoteParams(k_neighbors=3, seed=1)
        specs = [
            ClassifierSpec("LR", {"max_iter": 50}, seed=3),
            ClassifierSpec("KNN", {"k": 3}, seed=2),
            ClassifierSpec("CART", seed=4),
            ClassifierSpec("LR", {"max_iter": 50}, seed=3),
        ]
        summaries = score_folds(specs, data, 5, 6, mode, params, test_fraction=0.25)
        assert [s.spec for s in summaries] == specs
        for spec, summary in zip(specs, summaries):
            alone = cross_validate(spec, data, 5, 6, mode, params)
            auc = holdout_evaluate(spec, data, 6, mode, params, test_fraction=0.25)
            assert summary.to_doc() == dataclasses.replace(alone, holdout_auc=auc).to_doc()

    @pytest.mark.parametrize(
        "algorithms, per_pair",
        [(["LR", "SVM", "KNN", "NB"], 2), (["KNN"], 2), (["NB", "CART"], 0)],
        ids=["three-scaled", "one-scaled", "none-scaled"],
    )
    def test_one_z_score_per_pair(self, monkeypatch, algorithms, per_pair):
        calls = []
        standardize = chdml.eval.standardize
        monkeypatch.setattr(chdml.eval, "standardize",
                            lambda *args: calls.append(1) or standardize(*args))
        specs = [ClassifierSpec(a, {"max_iter": 20} if a == "LR" else {}) for a in algorithms]
        score_folds(specs, two_blobs(n0=40, n1=15, seed=5), 4, 0, test_fraction=0.25)
        assert len(calls) == per_pair * (4 + 1)


class TestSmoteMode:
    def test_from_string(self):
        assert SmoteMode.from_string("none") is SmoteMode.NONE
        assert SmoteMode.from_string("paper-faithful") is SmoteMode.PAPER_FAITHFUL
        assert SmoteMode.from_string("PAPER_FAITHFUL") is SmoteMode.PAPER_FAITHFUL
        assert SmoteMode.from_string("leakage-free") is SmoteMode.LEAKAGE_FREE

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            SmoteMode.from_string("bootstrap")


class TestGridSearch:
    def test_picks_best_and_reports_table(self):
        data = two_blobs()
        best, mean, table = grid_search(
            ClassifierSpec("KNN"),
            {"k": [1, 5]},
            data,
            k=5,
            seed=0,
            mode=SmoteMode.NONE,
        )
        assert best.resolved()["k"] in (1, 5)
        assert len(table) == 2
        assert mean == max(row["mean"] for row in table)

    def test_empty_grid_rejected(self):
        data = two_blobs()
        with pytest.raises(ConfigError):
            grid_search(
                ClassifierSpec("KNN"), {}, data, k=5, seed=0, mode=SmoteMode.NONE
            )

    def test_cells_score_as_alone(self):
        data = two_blobs(n0=40, n1=15)
        params = SmoteParams(k_neighbors=3, seed=1)
        _, _, table = grid_search(
            ClassifierSpec("KNN"), {"k": [1, 5]}, data, k=5, seed=0,
            mode=SmoteMode.LEAKAGE_FREE, smote_params=params,
        )
        for row in table:
            spec = ClassifierSpec("KNN", row["hyperparameters"])
            alone = cross_validate(spec, data, 5, 0, SmoteMode.LEAKAGE_FREE, params)
            assert (row["mean"], row["std"]) == (alone.mean, alone.std)

    @pytest.mark.parametrize("values", [[1], [1, 3, 5, 7]])
    def test_leakage_free_resamples_each_fold_once(self, monkeypatch, values):
        calls = []
        real = chdml.eval.smote
        monkeypatch.setattr(chdml.eval, "smote", lambda *a: calls.append(a) or real(*a))
        grid_search(
            ClassifierSpec("KNN"), {"k": values}, two_blobs(n0=40, n1=15), k=5, seed=0,
            mode=SmoteMode.LEAKAGE_FREE, smote_params=SmoteParams(k_neighbors=3),
        )
        assert len(calls) == 5

    def test_tie_keeps_earlier_combination(self):
        data = two_blobs()
        # identical candidate twice: the first must win
        best, _, table = grid_search(
            ClassifierSpec("KNN"),
            {"k": [3, 3]},
            data,
            k=5,
            seed=0,
            mode=SmoteMode.NONE,
        )
        assert table[0]["mean"] == table[1]["mean"]
        assert best.resolved()["k"] == 3


def test_standardized_algorithms_listed():
    assert chdml.eval.STANDARDIZED_ALGORITHMS == frozenset({"LR", "SVM", "KNN"})
