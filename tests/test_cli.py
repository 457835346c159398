"""Command-line entry points, exercised in-process through main()."""

import hashlib
import json
import warnings
from pathlib import Path

import pytest

from chdml.cli import main
from chdml.pipeline import PipelineConfig, clean_stage, feature_stage, run_pipeline

DATA = Path(__file__).parent / "data"
FIXTURE = str(DATA / "fixture.csv")
NESTED = b"[" * 200_000 + b"]" * 200_000  # too deep for the json module
HEADER = Path(FIXTURE).read_bytes().partition(b"\n")[0] + b"\n"


def with_config(tmp_path, **overrides):
    doc = {
        "input_path": FIXTURE,
        "seed": 7,
        "cv_k": 5,
        "algorithms": ["NB", "CART"],
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestClean:
    def test_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["clean", "--input", FIXTURE, "--output", str(out)])
        assert code == 0
        assert (out / "cleaned.csv").is_file()
        assert (out / "missing_report.json").is_file()
        assert (out / "outlier_report.json").is_file()
        assert (out / "class_balance.json").is_file()
        balance = json.loads((out / "class_balance.json").read_text())
        assert balance["clean"] == [37, 19]

    def test_cleaned_csv_reloads(self, tmp_path):
        out = tmp_path / "out"
        assert main(["clean", "--input", FIXTURE, "--output", str(out)]) == 0
        import chdml

        table = chdml.load_csv(str(out / "cleaned.csv"))
        assert table.row_count == 56

    def test_console_summary(self, tmp_path, capsys):
        main(["clean", "--input", FIXTURE, "--output", str(tmp_path / "o")])
        printed = capsys.readouterr().out
        assert "56" in printed


    def test_report_bytes_of_the_shipped_fixture_config(self, tmp_path, monkeypatch):
        """The cell-count reports and the selection keep these bytes."""
        monkeypatch.chdir(DATA.parent.parent)
        config_path = "tests/data/fixture_config.json"
        out = tmp_path / "clean"
        assert main(["clean", "--config", config_path, "--output", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("missing_report.json", "outlier_report.json")
        }
        assert digests == {
            "missing_report.json":
                "f980697ec37d8ff8398a4a74213a5718cf8ad513dc021ee21a9b485e126ceb2b",
            "outlier_report.json":
                "2c9c76b03862335bcfd22140a89171742131cae826c83e626adf4ce761ebf8eb",
        }
        doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
        doc.update(select_k=5, output_dir=str(tmp_path / "run"))
        config = PipelineConfig.from_dict(doc)
        assert feature_stage(config, clean_stage(config).table)[2] == (1, 14, 2, 13, 12)
        run_pipeline(config)
        report = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))
        assert report["selection"] == {"k": 5, "selected": [1, 14, 2, 13, 12]}


class TestScoreFeatures:
    def test_writes_scores(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["score-features", "--input", FIXTURE, "--output", str(out)])
        assert code == 0
        text = (out / "feature_scores.txt").read_text()
        assert text.startswith("Feature 0: ")
        doc = json.loads((out / "feature_scores.json").read_text())
        assert len(doc) == 15
        assert {"index", "name", "score"} <= set(doc[0])


class TestEvaluate:
    def test_single_mode_eval(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = with_config(tmp_path)
        code = main([
            "evaluate", "--config", config, "--output", str(out), "--mode", "none",
        ])
        assert code == 0
        doc = json.loads((out / "eval.json").read_text())
        assert doc["mode"] == "none"
        assert set(doc["results"]) == {"NB", "CART"}
        assert {"cv_mean", "cv_std", "holdout_auc"} <= set(doc["results"]["NB"])
        printed = capsys.readouterr().out
        assert "NB" in printed and "CART" in printed

    def test_repeated_algorithm_keyed_like_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        shallow = {"algorithm": "CART", "hyperparameters": {"max_depth": 2}}
        algorithms = ["NB", shallow, "CART"]
        config = with_config(tmp_path, algorithms=algorithms)
        assert main(["evaluate", "--config", config, "--output", str(out)]) == 0
        doc = json.loads((out / "eval.json").read_text())
        assert list(doc["results"]) == ["NB", "CART", "CART#2"]
        assert doc["results"]["CART"] != doc["results"]["CART#2"]


class TestAgreesWithRun:
    """The subcommands and ``chdml run`` go through the same stages."""

    @pytest.mark.parametrize("mode", ["paper-faithful", "leakage-free"])
    def test_evaluate_matches_smote_arm(self, tmp_path, capsys, mode):
        config = with_config(tmp_path, algorithms=["LR", "KNN", "NB", "SVM", "CART"])
        run_out, eval_out = tmp_path / "run", tmp_path / "eval"
        assert main([
            "run", "--config", config, "--output", str(run_out), "--mode", mode,
        ]) == 0
        assert main([
            "evaluate", "--config", config, "--output", str(eval_out), "--mode", mode,
        ]) == 0
        report = json.loads((run_out / "report.json").read_text())
        results = json.loads((eval_out / "eval.json").read_text())["results"]
        assert list(results) == list(report["cv"]["smote"])
        for algo, got in results.items():
            summary = report["cv"]["smote"][algo]
            assert got == {
                "cv_mean": summary["mean"],
                "cv_std": summary["std"],
                "holdout_auc": report["holdout"]["smote"][algo],
            }

    def test_clean_balance_matches_report(self, tmp_path, capsys):
        config = with_config(tmp_path)
        run_out, clean_out = tmp_path / "run", tmp_path / "clean"
        assert main(["run", "--config", config, "--output", str(run_out)]) == 0
        assert main(["clean", "--config", config, "--output", str(clean_out)]) == 0
        report = json.loads((run_out / "report.json").read_text())
        balance = json.loads((clean_out / "class_balance.json").read_text())
        assert balance == {
            "raw": report["class_balance"]["raw"],
            "clean": report["class_balance"]["clean"],
        }


class TestRun:
    def test_full_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = with_config(tmp_path)
        code = main(["run", "--config", config, "--output", str(out)])
        assert code == 0
        for name in (
            "cv_original.csv", "cv_smote.csv", "holdout.csv",
            "boxplot_stats.csv", "feature_scores.txt", "report.json",
        ):
            assert (out / name).is_file(), name

    def test_seed_override_changes_report(self, tmp_path):
        config = with_config(tmp_path)
        out_a, out_b, out_c = (tmp_path / s for s in ("a", "b", "c"))
        main(["run", "--config", config, "--output", str(out_a), "--seed", "1"])
        main(["run", "--config", config, "--output", str(out_b), "--seed", "2"])
        main(["run", "--config", config, "--output", str(out_c), "--seed", "1"])
        a = (out_a / "cv_smote.csv").read_bytes()
        b = (out_b / "cv_smote.csv").read_bytes()
        c = (out_c / "cv_smote.csv").read_bytes()
        assert a != b
        assert a == c

    def test_seed_flag_replaces_explicit_seeds(self, tmp_path):
        config = with_config(
            tmp_path, seed=5, algorithms=["CART", {"algorithm": "NB", "seed": 5}],
            smote={"seed": 9},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--output", str(out), "--seed", "1"]) == 0
        echo = json.loads((out / "report.json").read_text())["config"]
        assert echo["seed"] == echo["smote"]["seed"] == 1
        assert [entry["seed"] for entry in echo["algorithms"]] == [1, 1]

    def test_mode_override(self, tmp_path):
        config = with_config(tmp_path)
        out = tmp_path / "out"
        code = main([
            "run", "--config", config, "--output", str(out), "--mode", "none",
        ])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["smote_mode"] == "none"


class TestExitCodes:
    def test_missing_input_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("CHD_DATA", raising=False)
        code = main(["run", "--output", str(tmp_path / "o")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        code = main(["run", "--config", str(bad), "--output", str(tmp_path / "o")])
        assert code == 2

    def test_unreadable_input_is_io_error(self, tmp_path, capsys):
        code = main([
            "clean", "--input", str(tmp_path / "absent.csv"),
            "--output", str(tmp_path / "o"),
        ])
        assert code == 4

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("sex,age\n1,44\n", encoding="utf-8")
        code = main([
            "clean", "--input", str(bad), "--output", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_more_folds_than_rows_is_one_line(self, tmp_path, capsys):
        config = with_config(tmp_path, cv_k=10**6, algorithms=["NB"])
        code = main(["run", "--config", config, "--output", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "data error: each class needs at least 1000000 rows for 1000000 folds\n"

    @pytest.mark.parametrize("command", ["clean", "run"])
    @pytest.mark.parametrize("key", ["drop_columns", "impute_columns", "outlier_columns"])
    def test_target_in_a_cleaning_list_is_one_line(self, tmp_path, capsys, command, key):
        config = with_config(tmp_path, outlier_method="IQR", **{key: ["sysBP", "TenYearCHD"]})
        assert main([command, "--config", config, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == (
            "configuration error: 'TenYearCHD' is the target column; "
            "only predictors can be cleaned\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["clean", "run"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_empty_output_dir_is_one_line(self, tmp_path, capsys, monkeypatch, command, where):
        monkeypatch.chdir(tmp_path)
        if where == "config":
            argv = ["--config", with_config(tmp_path, output_dir="")]
        else:
            argv = ["--config", with_config(tmp_path), "--output", ""]
        assert main([command, *argv]) == 2
        assert capsys.readouterr().err == (
            "configuration error: output_dir must name a directory, not ''\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command", ["clean", "run"])
    @pytest.mark.parametrize("where", ["input_path", "--input", "schema_path"])
    def test_empty_input_or_schema_path_is_one_line(
        self, tmp_path, capsys, monkeypatch, command, where
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CHD_DATA", FIXTURE)  # an empty input_path must not fall back
        if where == "--input":
            argv = ["--config", with_config(tmp_path), "--input", ""]
        else:
            argv = ["--config", with_config(tmp_path, **{where: ""})]
        assert main([command, *argv, "--output", str(tmp_path / "o")]) == 2
        key = "schema_path" if where == "schema_path" else "input_path"
        assert capsys.readouterr().err == f"configuration error: {key} must name a file, not ''\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "kind, code, prefix",
        [("csv", 3, "data error: "), ("config", 2, "configuration error: "),
         ("schema", 2, "configuration error: ")],
        ids=["csv", "config", "schema"],
    )
    def test_non_utf8_file_is_one_line(self, tmp_path, capsys, kind, code, prefix):
        bad = tmp_path / "bad.bin"
        if kind == "csv":
            bad.write_bytes(Path(FIXTURE).read_bytes().replace(b"\n1,50,", b"\n1,5\xff,", 1))
            config = with_config(tmp_path, input_path=str(bad))
        elif kind == "config":
            bad.write_bytes(b'{"seed": 7, "output_dir": "\xff"}')
            config = str(bad)
        else:
            bad.write_bytes(b'[{"name": "\xff", "kind": "binary"}]')
            config = with_config(tmp_path, schema_path=str(bad))
        assert main(["clean", "--config", config, "--output", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{prefix}{bad}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "entry",
        [
            {"hyperparameters": {}},
            42,
            {"algorithm": "KNN", "hyperparameters": {"k": "abc"}},
            {"algorithm": "RF", "hyperparameters": {"n_trees": -5}},
            {"algorithm": "KNN", "hyperparameters": [1, 2]},
            {"algorithm": "KNN", "seed": "abc"},
            {"algorithm": "SVM", "hyperparameters": {"C": -1}},
            {"algorithm": "LR", "hyperparameters": {"step": 0}},
            {"algorithm": "SVM", "hyperparameters": {"gamma": -2}},
            {"algorithm": "KNN", "hyperparameters": {"k": True}},
            {"algorithm": "CART", "hyperparameters": {"max_depth": -1}},
            {"algorithm": "LR", "hyperparameters": {"max_iter": -5}},
            {"algorithm": "LR", "hyperparameters": {"lambda": -50}},
            {"algorithm": "RF", "hyperparameters": {"mtry": -3}},
            {"algorithm": "NB", "hyperparameters": {"var_floor_ratio": -1}},
            {"algorithm": "CART", "hyperparameters": {"min_samples_split": 0}},
        ],
        ids=[
            "no-algorithm-key", "not-an-object", "text-k", "negative-n-trees",
            "hyperparameters-not-object", "text-seed", "negative-C", "zero-step",
            "negative-gamma", "bool-k", "negative-max-depth", "negative-max-iter",
            "negative-lambda", "negative-mtry", "negative-var-floor-ratio",
            "zero-min-samples-split",
        ],
    )
    def test_bad_algorithm_entry_is_config_error(self, tmp_path, capsys, entry):
        config = with_config(tmp_path, algorithms=["NB", entry])
        code = main(["run", "--config", config, "--output", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: algorithms[1] ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "entry, name",
        [
            ({"algorithm": "NB", "hyperparameters": {"var_floor_ratio": 1e308}},
             "var_floor_ratio"),
            ({"algorithm": "SVM", "hyperparameters": {"gamma": 1e308}}, "gamma"),
            ({"algorithm": "LR", "hyperparameters": {"step": 1e308, "max_iter": 20}}, "step"),
            ({"algorithm": "SVM", "hyperparameters": {"C": 1e308, "gamma": 5e-324}}, "C"),
        ],
        ids=["huge-var-floor-ratio", "huge-gamma", "huge-step", "huge-C"],
    )
    def test_hyperparameter_too_large_for_the_data_is_one_line(
        self, tmp_path, capsys, entry, name
    ):
        config = with_config(tmp_path, algorithms=[entry])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", config, "--output", str(tmp_path / "o")])
        assert code == 2
        assert not caught  # numpy warned of overflow before the check
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {entry['algorithm']} hyperparameter {name!r} ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"cv_k": "abc"}, "cv_k"),
            ({"seed": "x"}, "seed"),
            ({"drop_columns": 5}, "drop_columns"),
            ({"mi_bins": None}, "mi_bins"),
            ({"test_fraction": "a"}, "test_fraction"),
            ({"select_k": "a"}, "select_k"),
            ({"smote": [1, 2]}, "smote"),
            ({"cv_k": 2.7}, "cv_k"),
            ({"output_dir": None}, "output_dir"),
            ({"algorithms": "LR"}, "algorithms"),
            ({"smote": {"k_neighbors": 2.5}}, "k_neighbors"),
            ({"smote": {"target_ratio": 1e300}}, "target_ratio"),
        ],
        ids=[
            "text-cv_k", "text-seed", "number-drop_columns", "null-mi_bins",
            "text-test_fraction", "text-select_k", "list-smote", "fractional-cv_k",
            "null-output_dir", "text-algorithms", "fractional-k_neighbors",
            "huge-target_ratio",
        ],
    )
    def test_bad_config_value_is_one_line(self, tmp_path, capsys, overrides, key):
        config = with_config(tmp_path, **overrides)
        assert main(["evaluate", "--config", config, "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert f"{key} must be " in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "schema, age, code, message",
        [
            (
                '[{"name": "x", "kind": "continuous"}, {"kind": "binary", "target": true}]',
                None, 2, "configuration error: {schema}: schema entry 1 ",
            ),
            ("[{oops", None, 2, "configuration error: {schema}: not valid JSON "),
            ('{"x": "continuous"}', None, 2, "configuration error: {schema}: schema must "),
            (
                '[{"name": "x", "kind": "text"}]',
                None, 2, "configuration error: {schema}: schema entry 0: unknown feature",
            ),
            (
                '[{"name": "age", "kind": "ordinal", "low": "a"}]',
                None, 2, 'configuration error: {schema}: schema entry 0: "low" and "high" ',
            ),
            (
                '[{"name": "x", "kind": "continuous"}, {"name": "y", "kind": "binary"}]',
                None, 2,
                "configuration error: {schema}: schema must declare exactly one target",
            ),
            (
                '[{"name": "Age", "kind": "continuous"}, {"name": "age", "kind": "continuous"},'
                ' {"name": "y", "kind": "binary", "target": true}]',
                None, 2, "configuration error: {schema}: schema column names must be unique",
            ),
            (
                '[{"name": "x", "kind": "continuous", "target": "no"},'
                ' {"name": "y", "kind": "binary", "target": true}]',
                None, 2, 'configuration error: {schema}: schema entry 0: "name" must be ',
            ),
            (
                '[{"name": "age", "kind": "ordinal", "low": NaN, "high": 3}]',
                None, 2, 'configuration error: {schema}: schema entry 0: "low" and "high" '
                "must be finite numbers",
            ),
            (
                '[{"name": "x", "kind": "continuous"},'
                ' {"name": "age", "kind": "ordinal", "low": 1, "high": Infinity}]',
                None, 2, 'configuration error: {schema}: schema entry 1: "low" and "high" '
                "must be finite numbers",
            ),
            (
                '[{"name": "age", "kind": "ordinal", "low": -Infinity}]',
                None, 2, 'configuration error: {schema}: schema entry 0: "low" and "high" '
                "must be finite numbers",
            ),
            (
                '[{"name": "x", "kind": "continuous"},'
                ' {"name": "age", "kind": "ordinal", "low": 5, "high": 2.5}]',
                None, 2,
                'configuration error: {schema}: schema entry 1: "low" 5 is above "high" 2.5',
            ),
            (
                '[{"name": "x", "kind": "ordinal", "low": 1},'
                ' {"name": "age", "kind": "continuous", "low": 30, "high": 70}]',
                None, 2, 'configuration error: {schema}: schema entry 1: "low" and "high" '
                "apply only to ordinal columns",
            ),
            (None, "inf", 3, "data error: row 1, column 'age': cannot parse 'inf' "),
            (None, "-inf", 3, "data error: row 1, column 'age': cannot parse '-inf' "),
            (None, "nan", 3, "data error: row 1, column 'age': cannot parse 'nan' "),
        ],
        ids=[
            "schema-entry-without-name", "schema-not-json", "schema-not-an-array",
            "schema-unknown-kind", "schema-text-bound", "schema-no-target",
            "schema-names-differ-in-case", "schema-text-target", "schema-nan-bound",
            "schema-infinite-high", "schema-minus-infinite-low", "schema-low-above-high",
            "schema-bound-on-continuous",
            "inf", "-inf", "nan",
        ],
    )
    def test_malformed_input_is_one_line(
        self, tmp_path, capsys, schema, age, code, message
    ):
        schema_path = tmp_path / "schema.json"
        overrides = {}
        if schema is not None:
            schema_path.write_text(schema, encoding="utf-8")
            overrides["schema_path"] = str(schema_path)
        if age is not None:
            rows = Path(FIXTURE).read_text(encoding="utf-8").splitlines(keepends=True)
            assert rows[1].startswith("1,50,")
            rows[1] = rows[1].replace("1,50,", f"1,{age},", 1)
            data = tmp_path / "data.csv"
            data.write_text("".join(rows), encoding="utf-8")
            overrides["input_path"] = str(data)
        config = with_config(tmp_path, **overrides)
        assert main(["clean", "--config", config, "--output", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.startswith(message.format(schema=schema_path))
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "kind, payload, code, message",
        [
            ("csv", b"1,fifty,", 3, "column 'age': cannot parse 'fifty'"),
            ("csv", b"1,50,7,", 3, ": row 1 has 17 fields, expected 16"),
            ("csv", b"1,5\xff,", 3, ": not UTF-8 text ("),
            ("csv", b"1," + b"5" * 200_000 + b",", 3, ": row 1: field larger than field limit"),
            ("config", NESTED, 2, ": not valid JSON ("),
            ("schema", NESTED, 2, ": not valid JSON ("),
            ("csv-file", b"", 3, ": file is empty (no header row)"),
            ("csv-file", HEADER, 3, "sigma rule needs at least 2 values"),
            ("config", b"[]", 2, ": config must be a JSON object"),
        ],
        ids=["bad-cell", "field-count", "not-utf8", "over-long-field", "nested-config",
             "nested-schema", "empty-csv", "header-only-csv", "config-not-an-object"],
    )
    def test_malformed_file_is_one_line(
        self, tmp_path, capsys, kind, payload, code, message
    ):
        """``payload`` replaces the fixture's ``1,50,`` (kind "csv") or is the
        whole CSV, config or schema file."""
        bad = tmp_path / "bad"
        if kind == "csv":
            bad.write_bytes(Path(FIXTURE).read_bytes().replace(b"\n1,50,", b"\n" + payload, 1))
        else:
            bad.write_bytes(payload)
        if kind in ("csv", "csv-file"):
            config = with_config(tmp_path, input_path=str(bad))
        else:
            config = str(bad) if kind == "config" else with_config(tmp_path, schema_path=str(bad))
        assert main(["clean", "--config", config, "--output", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.startswith("data error: " if code == 3 else f"configuration error: {bad}: ")
        assert message in err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_env_var_supplies_input(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHD_DATA", FIXTURE)
        out = tmp_path / "out"
        assert main(["clean", "--output", str(out)]) == 0
        assert (out / "cleaned.csv").is_file()
