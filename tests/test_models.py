"""The six classifiers: fitting, scoring, edge cases."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from chdml.errors import ConfigError, DataError
from chdml.models import (
    ALGORITHMS,
    CartModel,
    ClassifierSpec,
    fit,
    score_many,
    threshold_for,
)
from chdml.models import svm
from chdml.models.linear import nll_gradient, nll_loss
from chdml.models.svm import _Smo
from chdml.preprocess import Dataset, sq_distance_chunks

XOR = Dataset(
    np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
    np.array([0, 1, 1, 0]),
)


#: Hyperparameters whose default is an integer.
INTEGER_HYPERPARAMETERS = {
    "max_iter", "k", "min_samples_split", "max_depth", "n_trees", "mtry", "bootstrap",
}


def blobs(n_per=20, d=2, gap=3.0, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(0.0, 1.0, (n_per, d)),
        rng.normal(gap, 1.0, (n_per, d)),
    ])
    y = np.array([0] * n_per + [1] * n_per)
    return Dataset(X, y)


def noisy_line(seed):
    """80 rows in 2-d whose label is the sign of x0 plus unit noise."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(80, 2))
    y = (X[:, 0] + rng.normal(size=80) > 0).astype(int)
    return Dataset(X, y)


class TestSpec:
    def test_defaults_filled(self):
        spec = ClassifierSpec("LR")
        hp = spec.resolved()
        assert hp["lambda"] == 1.0
        assert hp["step"] == 0.1

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            ClassifierSpec("GBM")

    def test_unknown_hyperparameter(self):
        with pytest.raises(ConfigError, match="KNN has no hyperparameter named 'leaves'"):
            ClassifierSpec("KNN", hyperparameters={"leaves": 3})

    def test_case_folding(self):
        assert ClassifierSpec("lr").algorithm == "LR"

    def test_replace(self):
        spec = ClassifierSpec("RF", seed=1)
        other = spec.replace(seed=9)
        assert other.seed == 9 and spec.seed == 1

    def test_doc_round_trip(self):
        spec = ClassifierSpec("SVM", hyperparameters={"C": 2.0}, seed=5)
        again = ClassifierSpec.from_doc(spec.to_doc())
        assert again == spec

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_resolved_types_follow_the_defaults(self, algorithm):
        defaults = ClassifierSpec(algorithm).resolved()
        fractions = {name: float(value) + 0.25 for name, value in defaults.items()}
        integers = {name: int(value) + 1 for name, value in defaults.items()}
        for overrides in ({}, fractions, integers):
            hp = ClassifierSpec(algorithm, overrides).resolved()
            for name, value in hp.items():
                kind = int if name in INTEGER_HYPERPARAMETERS else float
                assert type(value) is kind, (name, value)

    def test_resolved_rounds_integer_hyperparameters(self):
        assert ClassifierSpec("KNN", {"k": 3.0}).resolved() == {"k": 3}
        assert ClassifierSpec("KNN", {"k": 2.5}).resolved() == {"k": 2}
        assert ClassifierSpec("RF", {"n_trees": 6.6}).resolved()["n_trees"] == 7
        # the echo keeps the value as given
        assert ClassifierSpec("KNN", {"k": 3.0}).to_doc()["hyperparameters"] == {"k": 3.0}


class TestLogistic:
    def test_loss_and_gradient_at_zero(self):
        # At w=0, b=0 every sigma is 0.5: loss = ln 2, grad_b = mean(0.5-y).
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 0.0])
        w = np.zeros(1)
        assert nll_loss(w, 0.0, X, y, 0.0) == pytest.approx(math.log(2), abs=1e-15)
        gw, gb = nll_gradient(w, 0.0, X, y, 0.0)
        assert gw[0] == pytest.approx(-0.5)
        assert gb == pytest.approx(0.0)

    def test_ridge_term(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 0.0])
        w = np.array([2.0])
        plain = nll_loss(w, 0.0, X, y, 0.0)
        ridged = nll_loss(w, 0.0, X, y, 1.0)
        # lambda/(2n) * w.w = 1/(2*2) * 4 = 1
        assert ridged - plain == pytest.approx(1.0)

    def test_separates_blobs(self):
        data = blobs()
        model = fit(ClassifierSpec("LR", hyperparameters={"lambda": 0.01}), data)
        scores = score_many(model, data.features)
        assert ((scores > 0.5) == data.labels.astype(bool)).mean() >= 0.95

    def test_single_class_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(DataError, match="contains a single class"):
            fit(ClassifierSpec("LR"), Dataset(X, np.zeros(4, dtype=int)))

    def test_deterministic(self):
        data = blobs(seed=3)
        a = fit(ClassifierSpec("LR"), data)
        b = fit(ClassifierSpec("LR"), data)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias


class TestNaiveBayes:
    def test_degenerate_fixture(self):
        # Two exact clusters: posterior collapses to certainty.
        data = Dataset(np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([0, 0, 1, 1]))
        model = fit(ClassifierSpec("NB"), data)
        assert score_many(model, [[1.0]])[0] == 1.0
        assert score_many(model, [[0.0]])[0] == 0.0

    def test_prior_shifts_scores(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 1))
        y = np.array([0] * 20 + [1] * 10)
        model = fit(ClassifierSpec("NB"), Dataset(X, y))
        # identical likelihoods -> prior ratio decides; scores stay below 0.5
        assert model.log_priors[0] > model.log_priors[1]

    def test_blobs(self):
        data = blobs(seed=4)
        model = fit(ClassifierSpec("NB"), data)
        scores = score_many(model, data.features)
        assert ((scores > 0.5) == data.labels.astype(bool)).mean() >= 0.95


class TestKnn:
    TRAIN = Dataset(
        np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 0, 1, 1])
    )

    def test_exact_scores(self):
        model = fit(ClassifierSpec("KNN", hyperparameters={"k": 2}), self.TRAIN)
        assert score_many(model, [[1.6]])[0] == 0.5   # neighbors at 2 and 1
        assert score_many(model, [[2.9]])[0] == 1.0   # neighbors at 3 and 2
        assert score_many(model, [[0.1]])[0] == 0.0

    def test_distance_tie_prefers_lower_index(self):
        model = fit(ClassifierSpec("KNN", hyperparameters={"k": 1}), self.TRAIN)
        # 0.5 is equidistant from rows 0 and 1; stable sort keeps row 0.
        assert score_many(model, [[0.5]])[0] == 0.0

    def test_k_larger_than_train_clamped(self):
        model = fit(ClassifierSpec("KNN", hyperparameters={"k": 50}), self.TRAIN)
        assert score_many(model, [[0.0]])[0] == 0.5  # all four rows vote


class TestCart:
    def test_xor_at_depth_two(self):
        model = fit(ClassifierSpec("CART"), XOR)
        scores = score_many(model, XOR.features)
        assert scores.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_threshold_is_midpoint(self):
        data = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0, 0, 1, 1]))
        model = fit(ClassifierSpec("CART"), data)
        root = 0
        assert model.tree.feature[root] == 0
        assert model.tree.threshold[root] == 2.5

    def test_pure_node_is_leaf(self):
        data = Dataset(np.array([[1.0], [2.0]]), np.array([1, 1]))
        model = fit(ClassifierSpec("CART"), data)
        assert model.tree.node_count == 1
        assert score_many(model, [[5.0]])[0] == 1.0

    def test_max_depth_limits_nodes(self):
        model = fit(ClassifierSpec("CART", hyperparameters={"max_depth": 1}), XOR)
        assert model.tree.node_count <= 3

    def test_min_samples_split(self):
        data = Dataset(
            np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0, 1, 0, 1])
        )
        spec = ClassifierSpec("CART", hyperparameters={"min_samples_split": 5})
        model = fit(spec, data)
        assert model.tree.node_count == 1
        assert score_many(model, [[1.0]])[0] == 0.5

    def test_identical_columns_split_on_the_lower_feature(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        model = fit(ClassifierSpec("CART"), Dataset(X, np.array([0, 0, 1, 1])))
        assert (model.tree.feature[0], model.tree.threshold[0]) == (0, 2.5)

    def test_equal_gini_cuts_take_the_lower_threshold(self):
        # cuts at 1.5 and 5.5 both weigh (5 * (1 - 13/25)) / 6
        data = Dataset(np.arange(1.0, 7.0)[:, None], np.array([0, 1, 1, 0, 0, 1]))
        model = fit(ClassifierSpec("CART", hyperparameters={"max_depth": 1}), data)
        assert model.tree.threshold[0] == 1.5

    def test_midpoint_rounding_up_falls_back_to_lower_value(self):
        lo = np.nextafter(1.0, 2.0)
        hi = np.nextafter(lo, 2.0)
        assert lo / 2.0 + hi / 2.0 == hi
        X = np.array([[lo], [hi]])
        model = fit(ClassifierSpec("CART"), Dataset(X, np.array([0, 1])))
        assert model.tree.threshold[0] == lo
        assert score_many(model, X).tolist() == [0.0, 1.0]


class TestForest:
    def test_single_tree_identity_matches_cart(self):
        spec = ClassifierSpec(
            "RF", hyperparameters={"n_trees": 1, "bootstrap": 0, "mtry": 2}
        )
        forest_scores = score_many(fit(spec, XOR), XOR.features)
        cart_scores = score_many(fit(ClassifierSpec("CART"), XOR), XOR.features)
        assert np.array_equal(forest_scores, cart_scores)

    def test_deterministic_per_seed(self):
        data = blobs(seed=6)
        spec = ClassifierSpec("RF", hyperparameters={"n_trees": 10}, seed=3)
        a = score_many(fit(spec, data), data.features)
        b = score_many(fit(spec, data), data.features)
        assert np.array_equal(a, b)

    def test_seed_changes_forest(self):
        data = blobs(seed=6)
        base = ClassifierSpec("RF", hyperparameters={"n_trees": 10})
        a = score_many(fit(base.replace(seed=1), data), data.features)
        b = score_many(fit(base.replace(seed=2), data), data.features)
        assert not np.array_equal(a, b)

    def test_scores_are_vote_fractions(self):
        data = blobs(seed=7)
        spec = ClassifierSpec("RF", hyperparameters={"n_trees": 4}, seed=0)
        scores = score_many(fit(spec, data), data.features)
        assert ((scores * 4) == np.rint(scores * 4)).all()


class TestSvm:
    def test_separates_blobs(self):
        data = blobs(seed=8, gap=4.0)
        model = fit(ClassifierSpec("SVM"), data)
        assert model.converged
        scores = score_many(model, data.features)
        assert ((scores > 0.0) == data.labels.astype(bool)).mean() >= 0.95

    def test_dual_balance(self):
        data = blobs(seed=9)
        model = fit(ClassifierSpec("SVM"), data)
        assert abs(model.dual_coef.sum()) < 1e-8

    def test_box_constraint(self):
        data = blobs(seed=10, gap=1.0)  # overlapping -> bounded alphas bind
        C = 0.7
        model = fit(ClassifierSpec("SVM", hyperparameters={"C": C}), data)
        alphas = model.dual_coef * model.support_labels
        assert (alphas > 0).all()
        assert (alphas <= C + 1e-12).all()

    def test_threshold_is_zero(self):
        data = blobs(seed=8)
        model = fit(ClassifierSpec("SVM"), data)
        assert threshold_for(model) == 0.0

    def test_kernel_row_is_rbf_of_distance_row(self):
        data = blobs(seed=11)
        X = data.features
        gamma = 0.3
        solver = _Smo(X, np.where(data.labels == 1, 1.0, -1.0), C=1.0, gamma=gamma, tol=1e-3)
        d2 = np.vstack([chunk for _, chunk in sq_distance_chunks(X, X)])
        for i in (0, 17, len(X) - 1, 0):
            assert np.array_equal(solver.kernel_row(i), np.exp(-gamma * d2[i]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gives_up_at_the_sweep_cap(self, seed):
        # a tolerance of the smallest subnormal is never met, so SMO stops
        # at its 10n-sweep cap and says so
        data = noisy_line(seed)
        model = fit(ClassifierSpec("SVM", {"C": 10.0, "tol": 5e-324}), data)
        assert model.converged is False
        assert np.isfinite(score_many(model, data.features)).all()

    @pytest.mark.parametrize("n, capacity", [(4, 2), (1200, 400), (6000, 1333)])
    def test_kernel_row_cache_holds_a_third_of_the_rows_within_the_byte_budget(
        self, n, capacity
    ):
        # n // 3 rows, unless 64 MB holds fewer (n = 6000: 64e6 // 48000)
        X = np.zeros((n, 2))
        solver = _Smo(X, np.ones(n), C=1.0, gamma=1.0, tol=1e-3)
        assert solver.kernel_row.cache_info().maxsize == capacity

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cache_capacity_never_changes_a_model(self, seed, monkeypatch):
        data = noisy_line(seed)
        default = fit(ClassifierSpec("SVM"), data)
        monkeypatch.setattr(svm, "_CACHE_BYTES", 0)
        solver = _Smo(data.features, np.ones(80), C=1.0, gamma=1.0, tol=1e-3)
        assert solver.kernel_row.cache_info().maxsize == 2  # not the default 26
        small = fit(ClassifierSpec("SVM"), data)
        for field in dataclasses.fields(svm.SvmModel):
            a, b = getattr(default, field.name), getattr(small, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name
            else:
                assert a == b, field.name

    def test_memory_peak_is_under_half_the_gram_matrix(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(1200, 15))
        y = (X[:, 0] + X[:, 1] + rng.normal(size=1200) > 1.0).astype(np.int64)
        data = Dataset(X, y)
        tracemalloc.start()
        try:
            fit(ClassifierSpec("SVM"), data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1200 * 1200 * 8 / 2


class TestDispatch:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fit_score_predict(self, algorithm):
        data = blobs(seed=11)
        model = fit(ClassifierSpec(algorithm, seed=1), data)
        scores = score_many(model, data.features)
        assert np.isfinite(scores).all()
        labels = scores > threshold_for(model)
        assert (labels == data.labels.astype(bool)).mean() >= 0.9

    def test_svm_without_support_vectors_scores_its_bias(self):
        X = np.random.default_rng(4).normal(size=(6, 3))
        model = fit(
            ClassifierSpec("SVM", hyperparameters={"tol": 2.0}),
            Dataset(X, np.array([0, 1, 0, 1, 0, 1])),
        )
        assert len(model.dual_coef) == 0 and model.n_features == 3
        assert score_many(model, X).tolist() == [model.bias] * 6
        # the width check needs n_features, since there are no vectors to measure
        with pytest.raises(DataError, match="expected a matrix with 3 columns"):
            score_many(model, np.ones((2, 4)))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_wrong_width_is_data_error(self, algorithm):
        model = fit(ClassifierSpec(algorithm), blobs(seed=15))
        with pytest.raises(DataError, match="expected a matrix with 2 columns"):
            score_many(model, np.ones((4, 3)))
        with pytest.raises(DataError, match="expected a matrix with 2 columns"):
            score_many(model, np.ones(3))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_empty_train_rejected(self, algorithm):
        empty = Dataset(np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(DataError, match="training data is empty"):
            fit(ClassifierSpec(algorithm), empty)

    @pytest.mark.parametrize("algorithm", ["LR", "NB", "SVM"])
    def test_single_class_train_rejected(self, algorithm):
        X = np.random.default_rng(0).normal(size=(6, 2))
        data = Dataset(X, np.ones(6, dtype=int))
        with pytest.raises(DataError, match="contains a single class"):
            fit(ClassifierSpec(algorithm), data)

    @pytest.mark.parametrize("algorithm", ["KNN", "CART", "RF"])
    def test_single_class_train_predicts_constant(self, algorithm):
        X = np.random.default_rng(0).normal(size=(6, 2))
        model = fit(ClassifierSpec(algorithm), Dataset(X, np.ones(6, dtype=int)))
        assert score_many(model, X).tolist() == [1.0] * 6
