"""Six classifiers behind one train/score/predict contract.

========= ============================== =========================
algorithm model                          score
========= ============================== =========================
LR        logistic regression (GD)       probability in [0, 1]
KNN       k-nearest neighbors            probability in [0, 1]
CART      Gini decision tree             probability in [0, 1]
NB        Gaussian naive Bayes           probability in [0, 1]
SVM       RBF-kernel SVM (SMO)           unbounded decision value
RF        random forest                  probability in [0, 1]
========= ============================== =========================

Probability models predict label 1 strictly above 0.5; the SVM strictly
above 0, so a perfectly uninformative model predicts the negative class.

Model files (format 1) are JSON: ``{"format": 1, "spec": ..., "parameters":
...}``.  The parameters are the model's dataclass fields other than ``spec``,
in field order.  Arrays and tuples are written as (nested) lists, a tree as
the object of its five node arrays, and ``null`` stands for NaN, which only
a leaf's threshold holds.  Loading turns an object back into a tree, a list
of objects into a tuple of trees, a list of integers into an int64 array and
any other list into a float64 array.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Union

import numpy as np

from ..errors import ConfigError, DataError
from ..preprocess import Dataset
from . import bayes, forest, linear, neighbors, svm, tree
from .base import (
    ALGORITHMS,
    DEFAULT_HYPERPARAMETERS,
    FORMAT_VERSION,
    ClassifierSpec,
    Prediction,
    check_matrix,
    check_train,
    check_vector,
)
from .bayes import NaiveBayesModel
from .forest import ForestModel
from .linear import LogisticModel
from .neighbors import KnnModel
from .svm import SvmModel
from .tree import CartModel, Tree

__all__ = [
    "ALGORITHMS",
    "DEFAULT_HYPERPARAMETERS",
    "ClassifierSpec",
    "Prediction",
    "TrainedModel",
    "fit",
    "score",
    "score_many",
    "predict",
    "threshold_for",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
]

TrainedModel = Union[
    LogisticModel, NaiveBayesModel, KnnModel, CartModel, ForestModel, SvmModel
]

#: Each algorithm's fit function and model class.
_ALGORITHM_TABLE = {
    "LR": (linear.fit, LogisticModel),
    "NB": (bayes.fit, NaiveBayesModel),
    "KNN": (neighbors.fit, KnnModel),
    "CART": (tree.fit, CartModel),
    "RF": (forest.fit, ForestModel),
    "SVM": (svm.fit, SvmModel),
}

#: Algorithms that cannot train on a single class.
_TWO_CLASS_ONLY = frozenset({"LR", "NB", "SVM"})


def fit(spec: ClassifierSpec, train: Dataset) -> TrainedModel:
    """Train ``spec`` on ``train``; equal inputs give identical models.  An
    empty ``train``, or a single-class one for LR, NB and SVM, is a :class:`DataError`."""
    check_train(train, require_both_classes=spec.algorithm in _TWO_CLASS_ONLY)
    fit_algorithm, _ = _ALGORITHM_TABLE[spec.algorithm]
    return fit_algorithm(spec, train)


def threshold_for(model: TrainedModel) -> float:
    """Decision threshold: 0 for the SVM, 0.5 for probability models."""
    return 0.0 if isinstance(model, SvmModel) else 0.5


def score_many(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Score every row of ``X`` (a 1-D ``X`` is one row); :class:`DataError`
    when its width is not the model's."""
    return model.score_many(check_matrix(X, model.n_features))


def score(model: TrainedModel, x: np.ndarray) -> float:
    """Score one feature vector."""
    x = check_vector(x, model.n_features)
    return float(model.score_many(x[None, :])[0])


def predict(model: TrainedModel, x: np.ndarray) -> Prediction:
    """Threshold the score; ties go to label 0 (strict inequality)."""
    s = score(model, x)
    return Prediction(score=s, label=int(s > threshold_for(model)))


def _encode(value: Any) -> Any:
    if isinstance(value, Tree):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(Tree)}
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return None if isinstance(value, float) and np.isnan(value) else value


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        return Tree(**{name: _decode(v) for name, v in value.items()})
    if isinstance(value, str):  # no parameter is text; "abc" raises ValueError
        return float(value)
    if not isinstance(value, list):
        return value
    if value and isinstance(value[0], dict):
        return tuple(_decode(v) for v in value)
    arr = np.asarray(value)
    # null -> NaN; a string that is not a number raises ValueError
    return np.asarray(value, dtype=np.float64) if arr.dtype.kind in "OU" else arr


def _parameter_problem(model: TrainedModel) -> str | None:
    """Why the parameters of ``model`` are not ones :func:`fit` could have
    written, or None: a KNN ``k`` that is not an integer of at least 1, NB
    variances that are not all finite and positive, or trees without the
    layout :func:`tree.build_tree` writes.  That layout (five equal-length
    node arrays, leaves without children, every child numbered after its
    parent) is what makes scoring end at a leaf."""
    if isinstance(model, KnnModel):
        if type(model.k) is not int or model.k < 1:
            return f"k must be an integer of at least 1, not {model.k!r}"
        return None
    if isinstance(model, NaiveBayesModel):
        variances = np.asarray(model.variances, dtype=np.float64)
        if not (np.isfinite(variances) & (variances > 0)).all():
            return "variances must be finite and positive"
        return None
    if isinstance(model, CartModel):
        trees = (model.tree,)
    elif isinstance(model, ForestModel):
        trees = model.trees
        if not len(trees):
            return "a forest needs at least one tree"
    else:
        return None
    for t in trees:
        if not isinstance(t, Tree):
            return f"a tree must be an object of node arrays, not {t!r}"
        arrays = [np.asarray(getattr(t, f.name)) for f in fields(Tree)]
        shapes = {a.shape for a in arrays}
        if len(shapes) != 1 or arrays[0].ndim != 1 or not arrays[0].size:
            return "the node arrays of a tree must be non-empty lists of one length"
        feature, _, left, right, _ = arrays
        if any(a.dtype.kind != "i" for a in (feature, left, right)):
            return "a tree's feature, left and right must be integers"
        ids = np.arange(feature.size)
        leaf = feature == -1
        first, last = np.minimum(left, right), np.maximum(left, right)
        for what, bad in (
            ("a leaf with children", leaf & ((left != -1) | (right != -1))),
            ("a split whose child is not after it or past the last node",
             ~leaf & ((first <= ids) | (last >= ids.size))),
            (f"a split on a feature outside [0, {model.n_features})",
             ~leaf & ((feature < 0) | (feature >= model.n_features))),
        ):
            if bad.any():
                return f"tree node {int(np.argmax(bad))} is {what}"
    return None


def model_to_json(model: TrainedModel) -> str:
    """Serialize a model; floats keep full repr precision."""
    doc = {
        "format": FORMAT_VERSION,
        "spec": model.spec.to_doc(),
        "parameters": {
            f.name: _encode(getattr(model, f.name))
            for f in fields(model)
            if f.name != "spec"
        },
    }
    return json.dumps(doc, indent=2)


def model_from_json(text: str) -> TrainedModel:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"malformed model file: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError("malformed model file: not a JSON object")
    if doc.get("format") != FORMAT_VERSION:
        raise DataError(f"unsupported model format {doc.get('format')!r}")
    if "spec" not in doc or not isinstance(doc.get("parameters"), dict):
        raise DataError('malformed model file: needs "spec" and a "parameters" object')
    try:
        spec = ClassifierSpec.from_doc(doc["spec"])
    except ConfigError as exc:
        raise DataError(f"malformed model file: {exc}") from None
    # TypeError: a missing or unknown parameter name; ValueError: a value that
    # is not a number; KeyError: an SVM file without its vectors;
    # RecursionError: objects nested too deeply to decode
    try:
        params = {name: _decode(v) for name, v in doc["parameters"].items()}
        if spec.algorithm == "SVM" and "n_features" not in params:
            # SVM files written before n_features was stored: width of the vectors
            params["n_features"] = np.shape(params["support_vectors"])[-1]
        _, model_class = _ALGORITHM_TABLE[spec.algorithm]
        model = model_class(spec=spec, **params)
        problem = _parameter_problem(model)
    except (TypeError, ValueError, KeyError, RecursionError) as exc:
        raise DataError(f"malformed {spec.algorithm} model: {exc}") from None
    if problem is not None:
        raise DataError(f"malformed {spec.algorithm} model: {problem}")
    return model


def save_model(model: TrainedModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(model_to_json(model))


def load_model(path: str) -> TrainedModel:
    with open(path, encoding="utf-8-sig") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return model_from_json(text)
