import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

import spans

ROOT = Path(__file__).resolve().parents[2]


def _span(name, start, end, parent, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": 0, "attrs": attrs}


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 3.5, 6.0, 0),       # overlaps a by 0.5: counted once
        _span("c", 9.0, 12.0, 0),      # runs past the root: clipped to 1.0
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 6.0, 2.0, 1.0, 2.5, 3.0])


def test_layer_metrics_on_a_hand_built_trace():
    key_a, key_b = "a" * 40, "b" * 40
    tree = [
        _span("bench.call", 0.0, 10.0, -1),
        _span("pipeline.run_pipeline", 0.0, 10.0, 0),
        _span("resample.smote", 0.0, 1.0, 1, key=key_a, synth_rows=5),
        _span("resample.smote", 1.0, 2.0, 1, key=key_a, synth_rows=5),
        _span("resample.smote", 2.0, 3.0, 1, key=key_b, synth_rows=7),
        _span("eval.cross_validate", 3.0, 9.5, 1),
        _span("models.RF.fit", 4.0, 8.0, 5, rows=30),
        _span("models.forest.build_tree", 4.0, 6.0, 6, nodes=9, depth=3),
        _span("models.forest.build_tree", 6.0, 8.0, 6, nodes=5, depth=2),
    ]
    m = {k: v for k, (v, _) in spans.layer_metrics(tree).items()}
    assert m["trace.run_s"] == 10.0
    assert m["trace.coverage"] == pytest.approx(0.95)   # 0.5 s of pipeline glue
    assert m["resample.smote.calls"] == 3
    assert m["resample.smote.synth_rows"] == 17
    assert m["resample.smote.unique_ratio"] == pytest.approx(2 / 3)
    assert m["resample.smote.share"] == pytest.approx(0.3)
    assert m["eval.self.share"] == pytest.approx(0.25)
    assert m["models.RF.fit.share"] == pytest.approx(0.4)
    assert m["models.RF.fits"] == 1 and m["models.RF.train_rows"] == 30
    assert m["models.tree.trees"] == 2 and m["models.tree.nodes"] == 14
    assert m["models.tree.max_depth"] == 3
    assert m["models.tree.build.share"] == pytest.approx(0.4)
    assert m["models.SVM.fits"] == 0 and m["models.SVM.converged_frac"] == 0.0


def test_benchmark_json_lists_every_layer_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in doc["per_layer"]}
    produced = {k: u for k, (_, u) in
                spans.layer_metrics([_span("bench.call", 0.0, 1.0, -1)]).items()}
    produced["trace.overhead_frac"] = "share"
    assert listed == produced


def test_tracing_leaves_the_report_byte_identical(tmp_path, monkeypatch):
    import chdml.pipeline

    monkeypatch.chdir(ROOT)
    out = tmp_path / "out"
    config = dataclasses.replace(
        chdml.pipeline.PipelineConfig.from_file("tests/data/fixture_config.json"),
        output_dir=str(out),
    )
    original = chdml.pipeline.run_pipeline

    def report_digest():
        return hashlib.sha256((out / "report.json").read_bytes()).hexdigest()

    chdml.pipeline.run_pipeline(config)
    plain = report_digest()
    tracer = spans.Tracer(run=7)
    with spans.instrument(tracer), tracer.span("bench.call"):
        chdml.pipeline.run_pipeline(config)
    assert chdml.pipeline.run_pipeline is original
    assert report_digest() == plain
    exported = tracer.export()
    assert {s["run"] for s in exported} == {7}
    names = {s["name"] for s in exported}
    assert {"pipeline.run_pipeline", "resample.smote", "models.RF.fit",
            "models.forest.build_tree", "eval.split"} <= names
