"""The six classifiers: fitting, scoring, edge cases, serialization."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from chdml.errors import ConfigError, DataError
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
        p = predict(model, data.features[0])
        assert p.label in (0, 1)
        assert np.isfinite(p.score)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_json_round_trip(self, algorithm, tmp_path):
        data = blobs(seed=12)
        model = fit(ClassifierSpec(algorithm, seed=2), data)
        text = model_to_json(model)
        again = model_from_json(text)
        assert np.array_equal(
            score_many(model, data.features), score_many(again, data.features)
        )
        assert model_to_json(again) == text

    @pytest.mark.parametrize(
        "algorithm, keys",
        [
            ("LR", ["weights", "bias", "converged"]),
            ("NB", ["log_priors", "means", "variances"]),
            ("KNN", ["k", "train_features", "train_labels"]),
            ("CART", ["n_features", "tree"]),
            ("RF", ["n_features", "trees"]),
            (
                "SVM",
                [
                    "support_vectors", "support_labels", "dual_coef",
                    "support_indices", "bias", "gamma", "converged", "n_features",
                ],
            ),
        ],
    )
    def test_json_layout(self, algorithm, keys):
        model = fit(ClassifierSpec(algorithm, seed=2), blobs(seed=12))
        doc = json.loads(model_to_json(model))
        assert list(doc) == ["format", "spec", "parameters"]
        params = doc["parameters"]
        assert list(params) == keys
        for tree in params.get("trees", [params["tree"]] if "tree" in params else []):
            assert list(tree) == ["feature", "threshold", "left", "right", "value"]
            leaves = [f < 0 for f in tree["feature"]]
            assert [t is None for t in tree["threshold"]] == leaves
            assert all(isinstance(t, float) for t in tree["threshold"] if t is not None)

    def test_svm_without_support_vectors_round_trips(self):
        X = np.random.default_rng(4).normal(size=(6, 3))
        model = fit(
            ClassifierSpec("SVM", hyperparameters={"tol": 2.0}),
            Dataset(X, np.array([0, 1, 0, 1, 0, 1])),
        )
        assert len(model.dual_coef) == 0 and model.n_features == 3
        again = model_from_json(model_to_json(model))
        assert again.n_features == 3
        assert np.array_equal(score_many(again, X), score_many(model, X))

    def test_svm_file_without_n_features_loads(self):
        data = blobs(seed=12)
        model = fit(ClassifierSpec("SVM", seed=2), data)
        doc = json.loads(model_to_json(model))
        del doc["parameters"]["n_features"]
        again = model_from_json(json.dumps(doc, indent=2))
        assert again.n_features == 2
        assert np.array_equal(
            score_many(again, data.features), score_many(model, data.features)
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

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_parameter_names_checked(self, change):
        doc = json.loads(model_to_json(fit(ClassifierSpec("NB"), blobs(seed=14))))
        if change == "drop":
            del doc["parameters"]["means"]
        else:
            doc["parameters"]["extra"] = 1
        with pytest.raises(DataError, match="malformed NB model"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "algorithm, name, value",
        [
            ("CART", "tree", {"x": 1}),
            ("NB", "means", [None, "a"]),
            ("NB", "log_priors", ["a", 1.0]),
            ("SVM", "support_vectors", None),
            ("LR", "bias", "abc"),
            ("RF", "trees", []),
            ("KNN", "k", 0),
            ("KNN", "k", -2),
            ("KNN", "k", 2.5),
            ("KNN", "k", 1e400),
            ("NB", "variances", [[-1.0, 1.0], [1.0, 1.0]]),
            ("NB", "variances", [[1.0, 1.0], [1.0, 1e400]]),
        ],
        ids=[
            "tree-unknown-key", "null-and-text", "text-in-list", "svm-without-vectors",
            "text-scalar", "forest-without-trees", "knn-zero-k", "knn-negative-k",
            "knn-fractional-k", "knn-infinite-k", "nb-negative-variance",
            "nb-infinite-variance",
        ],
    )
    def test_malformed_parameter_is_data_error(self, algorithm, name, value):
        doc = json.loads(model_to_json(fit(ClassifierSpec(algorithm), blobs(seed=14))))
        if value is None:
            del doc["parameters"][name], doc["parameters"]["n_features"]
        else:
            doc["parameters"][name] = value
        with pytest.raises(DataError, match=f"malformed {algorithm} model: "):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "algorithm, array, node, value, message",
        [
            ("CART", "left", 0, 0, "node 0 is a split whose child is not after it"),
            ("RF", "right", 0, 0, "node 0 is a split whose child is not after it"),
            ("CART", "right", 0, "count", "node 0 is a split .* past the last node"),
            ("CART", "feature", 0, 2, r"node 0 is a split on a feature outside \[0, 2\)"),
            ("RF", "feature", 0, -2, r"node 0 is a split on a feature outside"),
            ("CART", "left", "leaf", 0, "is a leaf with children"),
            ("CART", "feature", 0, 0.5, "feature, left and right must be integers"),
        ],
        ids=[
            "self-loop", "rf-self-loop", "child-past-last-node",
            "feature-past-n-features", "negative-feature", "leaf-with-children",
            "fractional-feature",
        ],
    )
    def test_malformed_tree_is_data_error(self, algorithm, array, node, value, message):
        """Loading alone must fail: such a tree makes scoring loop forever or
        index out of range.  ``node`` "leaf" is the first leaf; ``value``
        "count" is the node count."""
        doc = json.loads(model_to_json(fit(ClassifierSpec(algorithm), blobs(seed=14))))
        params = doc["parameters"]
        tree = params["tree"] if algorithm == "CART" else params["trees"][0]
        node = tree["feature"].index(-1) if node == "leaf" else node
        tree[array][node] = len(tree["feature"]) if value == "count" else value
        with pytest.raises(DataError, match=f"malformed {algorithm} model: .*{message}"):
            model_from_json(json.dumps(doc))

    def test_tree_arrays_of_unequal_length_are_data_error(self):
        doc = json.loads(model_to_json(fit(ClassifierSpec("CART"), blobs(seed=14))))
        doc["parameters"]["tree"]["value"].pop()
        with pytest.raises(DataError, match="malformed CART model: .*of one length"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "spec", [{"algorithm": "GBM"}, ["x"]], ids=["unknown-algorithm", "list"]
    )
    def test_malformed_spec_is_data_error(self, spec):
        doc = json.loads(model_to_json(fit(ClassifierSpec("NB"), blobs(seed=14))))
        doc["spec"] = spec
        with pytest.raises(DataError, match="malformed model file: "):
            model_from_json(json.dumps(doc))

    def test_deeply_nested_model_file_is_data_error(self):
        with pytest.raises(DataError, match="^malformed model file: maximum recursion depth"):
            model_from_json("[" * 200_000 + "]" * 200_000)
        doc = json.loads(model_to_json(fit(ClassifierSpec("CART"), blobs(seed=14))))
        for _ in range(500):  # shallow enough for json, too deep to decode
            doc["parameters"]["tree"] = {"left": doc["parameters"]["tree"]}
        with pytest.raises(DataError, match="^malformed CART model: maximum recursion depth"):
            model_from_json(json.dumps(doc))

    def test_model_file_with_byte_order_mark_loads(self, tmp_path):
        data = blobs(seed=14)
        model = fit(ClassifierSpec("NB"), data)
        path = tmp_path / "model.json"
        path.write_text("\ufeff" + model_to_json(model), encoding="utf-8")
        again = load_model(str(path))
        assert np.array_equal(
            score_many(model, data.features), score_many(again, data.features)
        )

    def test_non_utf8_model_file_names_path(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff")
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
            load_model(str(path))

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda doc: "{oops",
            lambda doc: json.dumps([doc]),
            lambda doc: json.dumps({k: v for k, v in doc.items() if k != "spec"}),
            lambda doc: json.dumps({k: v for k, v in doc.items() if k != "parameters"}),
            lambda doc: json.dumps({**doc, "parameters": [1, 2]}),
        ],
        ids=["not-json", "not-object", "no-spec", "no-parameters", "parameters-not-object"],
    )
    def test_malformed_file_is_data_error(self, tamper):
        doc = json.loads(model_to_json(fit(ClassifierSpec("NB"), blobs(seed=14))))
        with pytest.raises(DataError, match="malformed model file"):
            model_from_json(tamper(doc))

    def test_dimension_mismatch(self):
        data = blobs(seed=15)
        model = fit(ClassifierSpec("NB"), data)
        with pytest.raises(DataError, match="expected a vector of length 2"):
            score(model, np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_wrong_width_is_data_error(self, algorithm):
        model = fit(ClassifierSpec(algorithm), blobs(seed=15))
        with pytest.raises(DataError, match="expected a matrix with 2 columns"):
            score_many(model, np.ones((4, 3)))
        with pytest.raises(DataError, match="expected a matrix with 2 columns"):
            score_many(model, np.ones(3))
        for x in (np.ones(3), np.ones(1), np.ones((1, 2))):
            with pytest.raises(DataError, match="expected a vector of length 2"):
                score(model, x)
            with pytest.raises(DataError, match="expected a vector of length 2"):
                predict(model, x)

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
