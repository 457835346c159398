"""The six classifiers: fitting, scoring, edge cases, serialization."""

import math

import numpy as np
import pytest

from chdml.errors import (
    ConfigError,
    DataError,
    DimensionMismatch,
    SingleClass,
    UnknownHyperparameter,
)
from chdml.models import (
    ALGORITHMS,
    CartModel,
    ClassifierSpec,
    fit,
    load_model,
    model_from_json,
    model_to_json,
    predict,
    save_model,
    score,
    score_many,
    threshold_for,
)
from chdml.models.linear import nll_gradient, nll_loss
from chdml.models.svm import _RowCache
from chdml.preprocess import Dataset, sq_distance_chunks

XOR = Dataset(
    np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
    np.array([0, 1, 1, 0]),
)


def blobs(n_per=20, d=2, gap=3.0, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(0.0, 1.0, (n_per, d)),
        rng.normal(gap, 1.0, (n_per, d)),
    ])
    y = np.array([0] * n_per + [1] * n_per)
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
        with pytest.raises(UnknownHyperparameter):
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
        with pytest.raises(SingleClass):
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
        assert score(model, np.array([1.0])) == 1.0
        assert score(model, np.array([0.0])) == 0.0

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
        assert score(model, np.array([1.6])) == 0.5   # neighbors at 2 and 1
        assert score(model, np.array([2.9])) == 1.0   # neighbors at 3 and 2
        assert score(model, np.array([0.1])) == 0.0

    def test_distance_tie_prefers_lower_index(self):
        model = fit(ClassifierSpec("KNN", hyperparameters={"k": 1}), self.TRAIN)
        # 0.5 is equidistant from rows 0 and 1; stable sort keeps row 0.
        assert score(model, np.array([0.5])) == 0.0

    def test_k_larger_than_train_clamped(self):
        model = fit(ClassifierSpec("KNN", hyperparameters={"k": 50}), self.TRAIN)
        assert score(model, np.array([0.0])) == 0.5  # all four rows vote


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
        assert score(model, np.array([5.0])) == 1.0

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
        assert score(model, np.array([1.0])) == 0.5


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
        X = blobs(seed=11).features
        gamma = 0.3
        cache = _RowCache(X, gamma)
        d2 = np.vstack([chunk for _, chunk in sq_distance_chunks(X, X)])
        for i in (0, 17, len(X) - 1):
            assert np.array_equal(cache.get(i), np.exp(-gamma * d2[i]))


class TestDispatch:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fit_score_predict(self, algorithm):
        data = blobs(seed=11)
        model = fit(ClassifierSpec(algorithm, seed=1), data)
        p = predict(model, data.features[0])
        assert p.label in (0, 1)
        assert np.isfinite(p.score)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_json_round_trip(self, algorithm, tmp_path):
        data = blobs(seed=12)
        model = fit(ClassifierSpec(algorithm, seed=2), data)
        again = model_from_json(model_to_json(model))
        assert np.array_equal(
            score_many(model, data.features), score_many(again, data.features)
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_file_round_trip(self, algorithm, tmp_path):
        data = blobs(seed=13)
        model = fit(ClassifierSpec(algorithm, seed=3), data)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        again = load_model(str(path))
        assert np.array_equal(
            score_many(model, data.features), score_many(again, data.features)
        )

    def test_format_version_checked(self, tmp_path):
        data = blobs(seed=14)
        doc = model_to_json(fit(ClassifierSpec("NB"), data))
        tampered = doc.replace('"format": 1', '"format": 99', 1)
        with pytest.raises(DataError):
            model_from_json(tampered)

    def test_dimension_mismatch(self):
        data = blobs(seed=15)
        model = fit(ClassifierSpec("NB"), data)
        with pytest.raises(DimensionMismatch):
            score(model, np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("algorithm", ["LR", "NB", "SVM"])
    def test_single_class_train_rejected(self, algorithm):
        X = np.random.default_rng(0).normal(size=(6, 2))
        data = Dataset(X, np.ones(6, dtype=int))
        with pytest.raises(SingleClass):
            fit(ClassifierSpec(algorithm), data)

    @pytest.mark.parametrize("algorithm", ["KNN", "CART", "RF"])
    def test_single_class_train_predicts_constant(self, algorithm):
        X = np.random.default_rng(0).normal(size=(6, 2))
        model = fit(ClassifierSpec(algorithm), Dataset(X, np.ones(6, dtype=int)))
        assert score_many(model, X).tolist() == [1.0] * 6
