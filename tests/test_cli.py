"""Command-line entry points, exercised in-process through main()."""

import json
from pathlib import Path

import pytest

from chdml.cli import main

DATA = Path(__file__).parent / "data"
FIXTURE = str(DATA / "fixture.csv")


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

    def test_evaluate_matches_smote_arm(self, tmp_path, capsys):
        config = with_config(tmp_path, algorithms=["LR", "KNN", "NB", "SVM", "CART"])
        run_out, eval_out = tmp_path / "run", tmp_path / "eval"
        assert main(["run", "--config", config, "--output", str(run_out)]) == 0
        assert main([
            "evaluate", "--config", config, "--output", str(eval_out),
            "--mode", "paper-faithful",
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

    @pytest.mark.parametrize(
        "entry", [{"hyperparameters": {}}, 42], ids=["no-algorithm-key", "not-an-object"]
    )
    def test_bad_algorithm_entry_is_config_error(self, tmp_path, capsys, entry):
        config = with_config(tmp_path, algorithms=["NB", entry])
        code = main(["run", "--config", config, "--output", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: algorithms[1] ")
        assert len(err.splitlines()) == 1

    def test_env_var_supplies_input(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHD_DATA", FIXTURE)
        out = tmp_path / "out"
        assert main(["clean", "--output", str(out)]) == 0
        assert (out / "cleaned.csv").is_file()
