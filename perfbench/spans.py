"""Outside-in tracing of the chdml package and the per-layer metrics.

:func:`instrument` replaces public functions of the package, at the names
their callers look up, with wrappers that record a :class:`Span` and pass
arguments and return values through untouched.  Nothing under ``src/``
changes.  Spans stay in memory; :meth:`Tracer.export` turns them into
plain dicts once the traced call is over, and :func:`layer_metrics`
reduces them to the per-layer figures the benchmark reports.

Layer times are reported as shares of the traced call (``*.share``) so
that a layer a workload never enters reads 0 without posing as a measured
time; multiply by ``trace.run_s`` for seconds.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

ALGORITHMS = ("LR", "KNN", "CART", "NB", "SVM", "RF")

#: Spans of the program's entry points; their self time is glue, not a layer.
ENTRY_SPANS = ("bench.call", "pipeline.run_pipeline", "cli.main")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    run: int  # the traced call's number within its benchmark run
    attrs: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects spans of one process; a stack gives each span its parent."""

    def __init__(self, run: int) -> None:
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(name, time.perf_counter(), 0.0,
                      self._stack[-1] if self._stack else -1, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             describe: Callable[..., dict] | None = None) -> Callable:
        """``fn`` inside a span; ``describe(result, *args, **kwargs)``
        returns the span's counts and runs after the span has ended."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            with self.span(label) as record:
                result = fn(*args, **kwargs)
            if describe is not None:
                record.attrs = describe(result, *args, **kwargs)
            return result

        return traced

    def export(self) -> list[dict[str, Any]]:
        out = []
        for s in self.spans:
            attrs = dict(s.attrs)
            tree = attrs.pop("tree", None)
            if tree is not None:
                attrs["depth"] = tree_depth(tree.left, tree.right)
            out.append({"name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "run": s.run, "attrs": attrs})
        return out


def tree_depth(left, right) -> int:
    """Depth of the deepest leaf, the root being at depth 0."""
    import numpy as np

    frontier, depth = np.array([0]), -1
    while frontier.size:
        depth += 1
        children = np.concatenate([left[frontier], right[frontier]])
        frontier = children[children >= 0]
    return depth


def _digest(*parts: Any) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return h.hexdigest()


def _rows(result, table, *args, **kwargs) -> dict:
    return {"rows": table.row_count}


def _rows_in_out(result, table, *args, **kwargs) -> dict:
    out = result[0] if isinstance(result, tuple) else result
    return {"rows_in": table.row_count, "rows_out": out.row_count}


def _loaded(result, *args, **kwargs) -> dict:
    return {"rows": result.row_count}


def _smote(result, dataset, params) -> dict:
    return {"key": _digest(dataset.features, dataset.labels, params),
            "synth_rows": result.n_rows - dataset.n_rows}


def _split(result, dataset, *args, **kwargs) -> dict:
    return {"key": _digest(dataset.features, dataset.labels, args, sorted(kwargs.items()))}


def _fit(model, spec, train) -> dict:
    attrs = {"rows": train.n_rows}
    if hasattr(model, "converged"):
        attrs["converged"] = bool(model.converged)
    if spec.algorithm == "SVM":
        attrs["support_vectors"] = int(len(model.dual_coef))
    return attrs


def _score(result, model, X) -> dict:
    queries = int(X.shape[0])
    algorithm = model.spec.algorithm
    if algorithm == "SVM":
        return {"kernel_evals": queries * int(len(model.dual_coef))}
    if algorithm == "KNN":
        return {"dist_evals": queries * int(model.train_features.shape[0])}
    return {}


def _tree(result, *args, **kwargs) -> dict:
    return {"nodes": result.node_count, "tree": result}


#: (modules, attribute, span name, describe).  Each function is wrapped in
#: every module that imported it by name, since that is where calls look
#: it up.
PLAN: tuple[tuple[tuple[str, ...], str, Any, Any], ...] = (
    (("chdml.pipeline",), "run_pipeline", "pipeline.run_pipeline", None),
    (("chdml.pipeline",), "emit_tables", "pipeline.emit_tables", None),
    (("chdml.cli",), "main", "cli.main", None),
    (("chdml.pipeline", "chdml.cli"), "load_csv", "ingest.load_csv", _loaded),
    (("chdml.cli",), "write_csv", "ingest.write_csv", _rows),
    (("chdml.pipeline", "chdml.cli"), "missing_report", "ingest.missing_report", None),
    (("chdml.pipeline", "chdml.cli"), "class_balance", "ingest.class_balance", None),
    (("chdml.pipeline", "chdml.cli"), "drop_rows_missing", "preprocess.clean", _rows_in_out),
    (("chdml.pipeline", "chdml.cli"), "impute_mean", "preprocess.clean", None),
    (("chdml.pipeline", "chdml.cli"), "remove_outliers", "preprocess.clean", _rows_in_out),
    (("chdml.pipeline", "chdml.cli"), "to_dataset", "preprocess.to_dataset", None),
    (("chdml.pipeline", "chdml.cli"), "feature_kinds", "preprocess.feature_kinds", None),
    (("chdml.pipeline", "chdml.cli"), "select_features", "preprocess.select_features", None),
    (("chdml.pipeline", "chdml.cli"), "score_features", "features.score_features", None),
    (("chdml.pipeline", "chdml.cli"), "select_k_best", "features.select_k_best", None),
    (("chdml.pipeline", "chdml.eval"), "smote", "resample.smote", _smote),
    (("chdml.pipeline", "chdml.cli"), "cross_validate", "eval.cross_validate", None),
    (("chdml.pipeline", "chdml.cli"), "holdout_evaluate", "eval.holdout_evaluate", None),
    (("chdml.eval",), "stratified_kfold", "eval.split", _split),
    (("chdml.eval",), "stratified_split", "eval.split", _split),
    (("chdml.eval",), "roc_auc", "eval.roc_auc", None),
    (("chdml.models",), "fit", lambda spec, train: f"models.{spec.algorithm}.fit", _fit),
    (("chdml.models",), "score_many",
     lambda model, X: f"models.{model.spec.algorithm}.score", _score),
    (("chdml.models.tree",), "build_tree", "models.tree.build_tree", _tree),
    (("chdml.models.forest",), "build_tree", "models.forest.build_tree", _tree),
)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every function in :data:`PLAN`; restore the originals on exit."""
    saved = []
    try:
        for modules, attr, name, describe in PLAN:
            for module_name in modules:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(original, name, describe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced call, as name -> (value, unit).

    ``spans`` must hold exactly one root, the span around the whole call.
    """
    roots = [s for s in spans if s["parent"] < 0]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    total = roots[0]["end"] - roots[0]["start"]
    own = self_times(spans)
    inclusive: dict[str, float] = {}
    exclusive: dict[str, float] = {}
    by_name: dict[str, list[dict]] = {}
    for s, t in zip(spans, own):
        inclusive[s["name"]] = inclusive.get(s["name"], 0.0) + s["end"] - s["start"]
        exclusive[s["name"]] = exclusive.get(s["name"], 0.0) + t
        by_name.setdefault(s["name"], []).append(s["attrs"])

    def share(name: str, times: dict[str, float] = inclusive) -> tuple[float, str]:
        return (times.get(name, 0.0) / total, "share")

    def attrs(name: str) -> list[dict]:
        return by_name.get(name, [])

    def count(value: float, unit: str = "count") -> tuple[float, str]:
        return (value, unit)

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def unique_ratio(name: str) -> tuple[float, str]:
        keys = [a["key"] for a in attrs(name)]
        return (len(set(keys)) / len(keys) if keys else 0.0, "share")

    cleaned = attrs("preprocess.clean")
    m: dict[str, tuple[float, str]] = {
        "trace.run_s": (total, "s"),
        "trace.coverage": (1.0 - sum(exclusive.get(n, 0.0) for n in ENTRY_SPANS) / total,
                           "share"),
        "ingest.load_csv.share": share("ingest.load_csv"),
        "ingest.write_csv.share": share("ingest.write_csv"),
        "ingest.rows": count(sum(a["rows"] for a in attrs("ingest.load_csv")), "rows"),
        "ingest.rows_written": count(sum(a["rows"] for a in attrs("ingest.write_csv")), "rows"),
        "preprocess.clean.share": share("preprocess.clean"),
        "preprocess.rows_removed": count(
            sum(a["rows_in"] - a["rows_out"] for a in cleaned if a), "rows"),
        "features.score_features.share": share("features.score_features"),
        "resample.smote.share": share("resample.smote"),
        "resample.smote.calls": count(len(attrs("resample.smote"))),
        "resample.smote.synth_rows": count(
            sum(a["synth_rows"] for a in attrs("resample.smote")), "rows"),
        "resample.smote.unique_ratio": unique_ratio("resample.smote"),
        "eval.cross_validate.share": share("eval.cross_validate"),
        "eval.holdout_evaluate.share": share("eval.holdout_evaluate"),
        "eval.self.share": (
            (exclusive.get("eval.cross_validate", 0.0)
             + exclusive.get("eval.holdout_evaluate", 0.0)) / total, "share"),
        "eval.split.calls": count(len(attrs("eval.split"))),
        "eval.split.unique_ratio": unique_ratio("eval.split"),
        "eval.roc_auc.share": share("eval.roc_auc"),
    }
    for a in ALGORITHMS:
        fits = attrs(f"models.{a}.fit")
        m[f"models.{a}.fit.share"] = share(f"models.{a}.fit")
        m[f"models.{a}.score.share"] = share(f"models.{a}.score")
        m[f"models.{a}.fits"] = count(len(fits))
        m[f"models.{a}.train_rows"] = count(mean([f["rows"] for f in fits]), "rows")
    trees = attrs("models.forest.build_tree")  # RF trees; CART's are its fits
    svm_fits = attrs("models.SVM.fit")
    m.update({
        "models.tree.build.share": (
            (inclusive.get("models.tree.build_tree", 0.0)
             + inclusive.get("models.forest.build_tree", 0.0)) / total, "share"),
        "models.tree.trees": count(len(trees)),
        "models.tree.nodes": count(sum(t["nodes"] for t in trees)),
        "models.tree.max_depth": count(max((t["depth"] for t in trees), default=0)),
        "models.SVM.support_vectors": count(mean([f["support_vectors"] for f in svm_fits])),
        "models.SVM.converged_frac": (mean([f["converged"] for f in svm_fits]), "share"),
        "models.SVM.kernel_evals": count(
            sum(s["kernel_evals"] for s in attrs("models.SVM.score"))),
        "models.KNN.dist_evals": count(
            sum(s["dist_evals"] for s in attrs("models.KNN.score"))),
        "models.LR.converged_frac": (
            mean([f["converged"] for f in attrs("models.LR.fit")]), "share"),
        "pipeline.emit_tables.share": share("pipeline.emit_tables"),
        "pipeline.self.share": share("pipeline.run_pipeline", exclusive),
        "cli.self.share": share("cli.main", exclusive),
    })
    return m
