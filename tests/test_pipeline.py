"""End-to-end pipeline runs on the 60-row fixture."""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import chdml
from chdml.errors import ConfigError, DataError
from chdml.eval import SmoteMode
from chdml.pipeline import (
    ARM_ORIGINAL, ARM_SMOTE, DEFAULT_CONFIG, PipelineConfig, _five_number, evaluate_arm,
    run_pipeline,
)
from chdml.preprocess import Dataset

DATA = Path(__file__).parent / "data"

EXPECTED_FILES = [
    "cv_original.csv",
    "cv_smote.csv",
    "holdout.csv",
    "boxplot_stats.csv",
    "feature_scores.txt",
    "report.json",
]


def fast_config(tmp_path, **overrides):
    """Fixture config trimmed for speed: three cheap algorithms."""
    merged = {
        "input_path": str(DATA / "fixture.csv"),
        "seed": 7,
        "cv_k": 5,
        "algorithms": ["LR", "NB", "CART"],
        "output_dir": str(tmp_path / "out"),
    }
    merged.update(overrides)
    return PipelineConfig.from_dict(merged)


class TestConfig:
    def test_defaults(self):
        config = PipelineConfig.from_dict({})
        assert config.cv_k == 10
        assert config.smote_mode is SmoteMode.PAPER_FAITHFUL
        assert config.outlier_method == "Sigma"
        assert len(config.algorithms) == 6

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"cv_folds": 10})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"cv_k": 1})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"test_fraction": 1.5})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"algorithms": []})

    def test_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"cv_k": 5, "seed": 3}), encoding="utf-8")
        config = PipelineConfig.from_file(str(path))
        assert config.cv_k == 5
        assert config.seed == 3

    def test_from_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("\ufeff" + json.dumps({"cv_k": 4}), encoding="utf-8")
        assert PipelineConfig.from_file(str(path)).cv_k == 4

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(str(path))

    def test_algorithm_dicts(self):
        config = PipelineConfig.from_dict({
            "seed": 11,
            "algorithms": [
                {"algorithm": "KNN", "hyperparameters": {"k": 3}},
                "NB",
            ],
        })
        knn, nb = config.algorithms
        assert knn.resolved()["k"] == 3
        assert knn.seed == 11  # inherits the master seed
        assert nb.algorithm == "NB"

    def test_smote_seed_defaults_to_master(self):
        config = PipelineConfig.from_dict({"seed": 99})
        assert config.smote.seed == 99

    def test_missing_input_rejected(self, monkeypatch):
        monkeypatch.delenv("CHD_DATA", raising=False)
        config = PipelineConfig.from_dict({})
        with pytest.raises(ConfigError):
            config.resolve_input()

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv("CHD_DATA", "/some/file.csv")
        config = PipelineConfig.from_dict({})
        assert config.resolve_input() == "/some/file.csv"

    def test_to_dict_round_trip(self):
        config = PipelineConfig.from_dict({"cv_k": 4, "seed": 2})
        again = PipelineConfig.from_dict(config.to_dict())
        assert again == config

    def test_field_defaults_are_the_shipped_defaults(self):
        assert PipelineConfig() == PipelineConfig.from_dict({})
        assert PipelineConfig() == PipelineConfig.from_dict(DEFAULT_CONFIG)

    def test_every_key_round_trips(self):
        raw = {
            "input_path": "cohort.csv",
            "schema_path": "schema.json",
            "seed": 4,
            "drop_columns": ["BPMeds"],
            "impute_columns": ["glucose"],
            "outlier_method": "iqr",
            "outlier_columns": ["BMI"],
            "mi_bins": 5,
            "select_k": 3,
            "smote_mode": "leakage-free",
            "smote": {"target_ratio": 1, "nominal_columns": [0]},
            "algorithms": ["NB", {"algorithm": "KNN", "hyperparameters": {"k": 3}, "seed": 2}],
            "cv_k": 4,
            "test_fraction": 0.25,
            "output_dir": "elsewhere",
        }
        config = PipelineConfig.from_dict(raw)
        echo = config.to_dict()
        assert list(echo) == list(raw)
        assert PipelineConfig.from_dict(echo) == config
        assert echo["outlier_method"] == "IQR"
        assert echo["smote"] == {
            "k_neighbors": 5,
            "target_ratio": 1.0,
            "seed": 4,
            "round_nominal": False,
            "nominal_columns": [0],
        }
        assert '"target_ratio": 1.0' in json.dumps(echo)
        assert echo["algorithms"] == [
            {"algorithm": "NB", "hyperparameters": {}, "seed": 4},
            {"algorithm": "KNN", "hyperparameters": {"k": 3}, "seed": 2},
        ]

    def test_unknown_outlier_column_rejected(self):
        config = PipelineConfig.from_dict({"outlier_columns": ["nope"]})
        with pytest.raises(ConfigError):
            config.validate_columns(config.load_schema())


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    config = fast_config(tmp_path_factory.mktemp("pipe"))
    report = run_pipeline(config)
    return config, report


class TestRunPipeline:
    def test_counts_flow(self, run):
        _, report = run
        assert report.cohort.rows_loaded == 60
        assert report.cohort.rows_after_drop == 57
        assert report.cohort.table.row_count == 56
        assert report.cohort.balance_raw == (40, 20)
        assert report.cohort.balance_clean == (37, 19)
        assert report.class_balance_resampled == (37, 37)

    def test_both_arms_present(self, run):
        _, report = run
        for arm in (ARM_ORIGINAL, ARM_SMOTE):
            assert set(report.cv[arm]) == {"LR", "NB", "CART"}
            assert all(s.holdout_auc is not None for s in report.cv[arm].values())

    def test_files_written(self, run):
        config, _ = run
        out = Path(config.output_dir)
        for name in EXPECTED_FILES:
            assert (out / name).is_file(), name

    def test_cv_csv_layout(self, run):
        config, _ = run
        lines = (Path(config.output_dir) / "cv_original.csv").read_text().splitlines()
        assert lines[0] == "stat,LR,NB,CART"
        assert lines[1].startswith("Mean,")
        assert lines[2].startswith("Std,")
        for cell in lines[1].split(",")[1:]:
            assert 0.0 <= float(cell) <= 1.0

    def test_holdout_csv_layout(self, run):
        config, _ = run
        lines = (Path(config.output_dir) / "holdout.csv").read_text().splitlines()
        assert lines[0] == "arm,LR,NB,CART"
        assert lines[1].split(",")[0] == "original"
        assert lines[2].split(",")[0] == "smote"

    def test_boxplot_csv_layout(self, run):
        config, _ = run
        lines = (
            Path(config.output_dir) / "boxplot_stats.csv"
        ).read_text().splitlines()
        assert lines[0] == "arm,algorithm,min,q1,median,q3,max"
        assert len(lines) == 1 + 2 * 3  # two arms x three algorithms

    def test_five_number_summary(self):
        assert _five_number([1, 2, 3, 4, 100]) == (1, 2, 3, 4, 100)
        # quartiles interpolate linearly between order statistics
        assert _five_number([0.0, 1.0]) == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert _five_number([0.5]) == (0.5,) * 5

    def test_report_json_complete(self, run):
        config, _ = run
        doc = json.loads((Path(config.output_dir) / "report.json").read_text())
        assert doc["rows"]["loaded"] == 60
        assert doc["missing"]["total"] == 9
        assert doc["outliers"]["method"] == "Sigma"
        assert "timings" not in json.dumps(doc)
        assert doc["config"]["seed"] == 7

    def test_feature_scores_text(self, run):
        config, _ = run
        text = (Path(config.output_dir) / "feature_scores.txt").read_text()
        lines = text.strip().splitlines()
        assert len(lines) == 15
        assert lines[0].startswith("Feature 0: ")


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        config = fast_config(tmp_path)
        out = Path(config.output_dir)
        byte_sets = []
        for _ in range(2):
            run_pipeline(config)
            byte_sets.append({n: (out / n).read_bytes() for n in EXPECTED_FILES})
        assert byte_sets[0] == byte_sets[1]


class TestModes:
    def test_mode_none_copies_original_arm(self, tmp_path):
        config = fast_config(tmp_path, smote_mode="none")
        report = run_pipeline(config)
        for algo in report.cv[ARM_ORIGINAL]:
            assert (
                report.cv[ARM_SMOTE][algo].fold_aucs
                == report.cv[ARM_ORIGINAL][algo].fold_aucs
            )

    def test_select_k_reduces_features(self, tmp_path):
        config = fast_config(tmp_path, select_k=5)
        report = run_pipeline(config)
        assert len(report.selection) == 5


class TestOnePassPerArm:
    """Each arm builds its folds and its hold-out split once, for every algorithm."""

    @staticmethod
    def count_calls(monkeypatch, module, name, counts):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize("mode, smote_calls", [("paper-faithful", 1), ("leakage-free", 5 + 1)])
    def test_split_and_smote_counts(self, tmp_path, monkeypatch, mode, smote_calls):
        config = dataclasses.replace(
            PipelineConfig.from_file(str(DATA / "fixture_config.json")),
            input_path=str(DATA / "fixture.csv"),
            output_dir=str(tmp_path / "out"),
            smote_mode=SmoteMode.from_string(mode),
        )
        assert config.cv_k == 5 and len(config.algorithms) == 6
        counts = Counter()
        for module, name in (
            (chdml.eval, "smote"), (chdml.pipeline, "smote"),
            (chdml.eval, "stratified_kfold"), (chdml.eval, "stratified_split"),
        ):
            self.count_calls(monkeypatch, module, name, counts)
        run_pipeline(config)
        # paper-faithful: one resample of the whole dataset serves the CV folds
        # and the hold-out split; leakage-free: each fold's and the hold-out's
        # training side.  The resampled class count oversamples nothing.
        assert counts == {"stratified_kfold": 2, "stratified_split": 2, "smote": smote_calls}

    @pytest.mark.parametrize("mode", ["paper-faithful", "leakage-free"])
    @pytest.mark.parametrize(
        "labels, smote, error",
        [
            ([0] * 40, {}, "both classes must be present to oversample"),
            ([1] + [0] * 39, {}, "need at least 2 minority rows"),
            (None, {"round_nominal": True, "nominal_columns": [99]},
             "nominal_columns index 99 is out of range"),
        ],
        ids=["one-class", "one-positive", "nominal-index-out-of-range"],
    )
    def test_smote_error_comes_before_the_original_arm(
        self, tmp_path, monkeypatch, mode, labels, smote, error
    ):
        lines = (DATA / "fixture.csv").read_text(encoding="utf-8").splitlines()[:41]
        if labels is not None:
            lines[1:] = [line.rsplit(",", 1)[0] + f",{y}" for line, y in zip(lines[1:], labels)]
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = fast_config(tmp_path, input_path=str(cohort), smote_mode=mode, smote=smote)

        def no_arm(*args):
            raise AssertionError("an arm was evaluated before SMOTE's checks")

        monkeypatch.setattr(chdml.pipeline, "evaluate_arm", no_arm)
        with pytest.raises((ConfigError, DataError), match=f"^{error}$"):
            run_pipeline(config)

    @pytest.mark.parametrize("mode", [SmoteMode.NONE, SmoteMode.LEAKAGE_FREE])
    def test_fold_error_comes_before_the_holdout_error(self, mode):
        # 2 positives: too few for 10 folds and for a 20 % hold-out; the
        # folds are built first, so their message is the one reported
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(40, 3)), np.array([1, 1] + [0] * 38))
        with pytest.raises(DataError, match="^each class needs at least 10 rows for 10 folds$"):
            evaluate_arm(PipelineConfig(), data, mode)
