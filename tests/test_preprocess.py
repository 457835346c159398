"""Cleaning stages: imputation, outlier masks, standardization.

Expected numbers were worked out by hand (or with a throwaway script
evaluating the textbook formulas directly) before being frozen here.
"""

import tracemalloc

import numpy as np
import pytest

import chdml
from chdml import preprocess
from chdml.errors import ConfigError, DataError
from chdml.models import ClassifierSpec, fit
from chdml.preprocess import (
    Dataset,
    iqr_outlier_mask,
    sigma_outlier_mask,
    sq_distance_chunks,
    standardize,
)


class TestImpute:
    def test_mean_fill(self, fixture_table):
        dropped = chdml.drop_rows_missing(fixture_table, ["BPMeds", "education"])
        col = dropped.column("glucose")
        present = col[~np.isnan(col)]
        imputed = chdml.impute_mean(dropped, ["glucose"])
        filled = imputed.column("glucose")
        assert not np.isnan(filled).any()
        assert filled[np.isnan(col)] == pytest.approx(present.mean())
        # untouched cells keep their exact values
        assert np.array_equal(filled[~np.isnan(col)], present)

    def test_all_missing_rejected(self, fixture_table):
        table = fixture_table.replace_columns(
            {"glucose": np.full(fixture_table.row_count, np.nan)}
        )
        with pytest.raises(DataError, match="column 'glucose' has no present values"):
            chdml.impute_mean(table, ["glucose"])


class TestDropRows:
    def test_drop_counts(self, fixture_table):
        dropped = chdml.drop_rows_missing(fixture_table, ["BPMeds", "education"])
        assert dropped.row_count == 57
        assert not np.isnan(dropped.column("education")).any()
        assert not np.isnan(dropped.column("BPMeds")).any()
        # other columns keep their missing cells
        assert np.isnan(dropped.column("glucose")).sum() == 2


class TestOutlierMasks:
    def test_iqr_flags_the_spike(self):
        # q1=2, q3=4, iqr=2 -> fences at -1 and 7: only 100 is outside.
        mask = iqr_outlier_mask(np.array([1.0, 2, 3, 4, 100]))
        assert mask.tolist() == [False, False, False, False, True]

    def test_sigma_keeps_the_spike(self):
        # 3 * 43.6177 = 130.85 > |100 - 22|, so nothing is flagged.
        mask = sigma_outlier_mask(np.array([1.0, 2, 3, 4, 100]))
        assert not mask.any()

    def test_sigma_nine_zeros_and_hundred(self):
        # mean 10, std sqrt(9000/9)=31.62, 3s = 94.87 > 90: keep everything.
        mask = sigma_outlier_mask(np.array([0.0] * 9 + [100.0]))
        assert not mask.any()

    def test_nan_never_flagged(self):
        mask = iqr_outlier_mask(np.array([1.0, 2, 3, 4, np.nan, 100]))
        assert mask.tolist() == [False, False, False, False, False, True]

    def test_constant_column_no_flags(self):
        assert not sigma_outlier_mask(np.array([7.0] * 10)).any()
        assert not iqr_outlier_mask(np.array([7.0] * 10)).any()

    def test_boundary_is_not_an_outlier(self):
        # Exactly on the fence must not be flagged (strict inequality).
        values = np.array([1.0, 2, 3, 4, 7.0])
        assert not iqr_outlier_mask(values).any()


class TestRemoveOutliers:
    def test_fixture_sigma_removal(self, fixture_table):
        dropped = chdml.drop_rows_missing(fixture_table, ["BPMeds", "education"])
        imputed = chdml.impute_mean(
            dropped, ["cigsPerDay", "totChol", "BMI", "heartRate", "glucose"]
        )
        cleaned, report = chdml.remove_outliers(
            imputed,
            "Sigma",
            ["cigsPerDay", "totChol", "sysBP", "diaBP", "BMI", "heartRate", "glucose"],
        )
        assert report.method == "Sigma"
        assert report.total == 1
        assert report.columns["glucose"] == 1
        assert cleaned.row_count == 56
        assert cleaned.column("glucose").max() < 500

    def test_method_name_validation(self, fixture_table):
        with pytest.raises(ConfigError):
            chdml.remove_outliers(fixture_table, "zscore", ["glucose"])

    def test_method_names_case_insensitive(self, fixture_table):
        dropped = chdml.drop_rows_missing(fixture_table, ["BPMeds", "education"])
        imputed = chdml.impute_mean(
            dropped, ["cigsPerDay", "totChol", "BMI", "heartRate", "glucose"]
        )
        _, r1 = chdml.remove_outliers(imputed, "sigma", ["glucose"])
        _, r2 = chdml.remove_outliers(imputed, "Sigma", ["glucose"])
        assert r1.columns == r2.columns


class TestTargetIsNotCleaned:
    """IQR on a 0/1 target with few positives has Q1 = Q3 = 0 and would flag
    every positive row, so each cleaning stage refuses the target by name."""

    @pytest.mark.parametrize(
        "stage",
        [
            lambda table, cols: chdml.remove_outliers(table, "IQR", cols),
            chdml.drop_rows_missing,
            chdml.impute_mean,
        ],
        ids=["remove_outliers", "drop_rows_missing", "impute_mean"],
    )
    def test_stage_refuses_the_target(self, fixture_table, stage):
        with pytest.raises(ConfigError, match="^'TenYearCHD' is the target column; "):
            stage(fixture_table, ["sysBP", "TenYearCHD"])

    def test_custom_schema_target_refused(self):
        schema = chdml.ingest.Schema((
            chdml.ingest.Column("x", chdml.ingest.FeatureKind.CONTINUOUS),
            chdml.ingest.Column("outcome", chdml.ingest.FeatureKind.BINARY, target=True),
        ))
        preprocess.check_columns(schema, ["x"])
        with pytest.raises(ConfigError, match="^'outcome' is the target column; "):
            preprocess.check_columns(schema, ["x", "outcome"])


class TestStandardize:
    def test_two_points(self):
        # mean 5, sample std sqrt(50) -> +/- 5/7.0711 = 0.70710678.
        train = Dataset(np.array([[0.0], [10.0]]), np.array([0, 1]))
        scaled = standardize(train, train)
        expected = [-0.7071067811865475, 0.7071067811865475]
        assert scaled.features[:, 0] == pytest.approx(expected)

    def test_apply_to_uses_train_stats(self):
        train = Dataset(np.array([[0.0], [10.0]]), np.array([0, 1]))
        other = Dataset(np.array([[5.0]]), np.array([1]))
        applied = standardize(train, other)
        assert applied.features[0, 0] == 0.0

    def test_keep_constant_centres_without_scaling(self):
        train = Dataset(np.array([[1.0, 2.0], [1.0, 3.0]]), np.array([0, 1]))
        other = Dataset(np.array([[4.0, 2.5]]), np.array([1]))
        applied = standardize(train, other)
        assert applied.features.tolist() == [[3.0, 0.0]]


def all_sq_distances(A, B):
    out = np.full((len(A), len(B)), np.nan)
    for rows, d2 in sq_distance_chunks(A, B):
        out[rows] = d2
    return out


class TestSqDistanceChunks:
    def test_same_bits_for_every_chunk_size(self, monkeypatch):
        """Each chunk size gives the bits of the literal broadcast and
        einsum: on normal data, a change in the order a row's 15 squares are
        summed shows in the last bits."""
        rng = np.random.default_rng(3)
        A, B = rng.normal(size=(7, 15)), rng.normal(size=(5, 15))
        D = A[:, None] - B[None]
        literal = np.einsum("ijk,ijk->ij", D, D)
        # 1 (one row per chunk), 225 (3 rows: 7 is not a multiple), the
        # shipped cap (all rows in one chunk)
        for budget, n_chunks in ((1, 7), (225, 3), (preprocess._DISTANCE_CHUNK, 1)):
            monkeypatch.setattr(preprocess, "_DISTANCE_CHUNK", budget)
            assert len(list(sq_distance_chunks(A, B))) == n_chunks
            assert all_sq_distances(A, B).tobytes() == literal.tobytes()

    @pytest.mark.parametrize("budget, n_chunks", [(1, 3), (preprocess._DISTANCE_CHUNK, 1)])
    def test_no_rows_in_b_gives_empty_blocks(self, monkeypatch, budget, n_chunks):
        monkeypatch.setattr(preprocess, "_DISTANCE_CHUNK", budget)
        A = np.ones((3, 4))
        shapes = [d2.shape for _, d2 in sq_distance_chunks(A, np.empty((0, 4)))]
        assert shapes == [(3 // n_chunks, 0)] * n_chunks

    def test_knn_scoring_memory_at_the_shipped_cap(self):
        """80 queries against 720 training rows of 15 features: at an 8 MB
        cap all 80 share one 6.9 MB difference block; at 1 MB a block holds
        11 queries."""
        rng = np.random.default_rng(6)
        train = Dataset(rng.normal(size=(720, 15)), rng.integers(0, 2, size=720))
        model = fit(ClassifierSpec("KNN"), train)
        queries = rng.normal(size=(80, 15))
        tracemalloc.start()
        try:
            model.score_many(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_matches_per_pair_loop(self):
        rng = np.random.default_rng(4)
        A = rng.integers(-5, 6, size=(4, 3)).astype(float)
        B = rng.integers(-5, 6, size=(6, 3)).astype(float)
        expected = [
            [sum((a - b) ** 2 for a, b in zip(row_a, row_b)) for row_b in B]
            for row_a in A
        ]
        assert all_sq_distances(A, B).tolist() == expected


class TestDataset:
    def test_to_dataset_order_and_shape(self, cleaned_fixture, fixture_dataset):
        assert fixture_dataset.n_rows == 56
        assert fixture_dataset.n_features == 15
        assert fixture_dataset.feature_names[0] == "sex"
        assert fixture_dataset.feature_names[-1] == "glucose"
        assert fixture_dataset.class_counts() == (37, 19)

    def test_still_missing_rejected(self, fixture_table):
        dropped = chdml.drop_rows_missing(fixture_table, ["BPMeds", "education"])
        with pytest.raises(DataError) as exc:
            chdml.to_dataset(dropped)
        assert "glucose" in str(exc.value)

    def test_arrays_protected(self, fixture_dataset):
        with pytest.raises(ValueError):
            fixture_dataset.features[0, 0] = 1.0

    def test_labels_validated(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), np.array([0, 2]))

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.array([[np.inf]]), np.array([1]))

    def test_one_difference_block_alive_at_a_time(self, monkeypatch):
        monkeypatch.setattr(preprocess, "_DISTANCE_CHUNK", 1_000_000)  # 8 MB blocks
        rng = np.random.default_rng(5)
        A, B = rng.normal(size=(40, 10)), rng.normal(size=(10_000, 10))  # 4 chunks
        tracemalloc.start()
        try:
            for _ in sq_distance_chunks(A, B):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8_000_000
