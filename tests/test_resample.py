"""Synthetic-minority oversampling: geometry, counts, determinism."""

import numpy as np
import pytest

from chdml import preprocess, resample
from chdml.errors import ConfigError, DataError
from chdml.preprocess import Dataset
from chdml.resample import SmoteParams, minority_neighbors, smote, smote_plan


def toy(n_major=12, n_minor=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(0.0, 1.0, (n_major, d)),
        rng.normal(4.0, 1.0, (n_minor, d)),
    ])
    y = np.array([0] * n_major + [1] * n_minor)
    return Dataset(X, y)


class TestParams:
    def test_defaults(self):
        params = SmoteParams()
        assert params.k_neighbors == 5
        assert params.target_ratio == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            SmoteParams(k_neighbors=0)
        with pytest.raises(ConfigError):
            SmoteParams(target_ratio=-1.0)

    @pytest.mark.parametrize("ratio", [1.5, 1e300, float("nan")])
    def test_target_ratio_above_parity_rejected(self, ratio):
        with pytest.raises(ConfigError, match=r"target_ratio must be a number in \(0, 1\]"):
            SmoteParams(target_ratio=ratio)


class TestMinorityNeighbors:
    def test_one_dimensional_line(self):
        # Points 0, 1, 10: nearest of 0 is 1, of 1 is 0, of 10 is 1.
        X = np.array([[0.0], [1.0], [10.0]])
        nn = minority_neighbors(X, k=1)
        assert nn[:, 0].tolist() == [1, 0, 1]

    def test_self_excluded(self):
        X = np.array([[0.0], [0.0], [5.0]])
        nn = minority_neighbors(X, k=2)
        for i in range(3):
            assert i not in nn[i].tolist()

    def test_self_excluded_in_every_chunk(self, monkeypatch):
        # duplicates make each row's self-distance tie with a neighbour's
        X = np.repeat(np.arange(4.0), 2)[:, None]
        whole = minority_neighbors(X, k=3)
        monkeypatch.setattr(preprocess, "_DISTANCE_CHUNK", 3 * len(X))  # 3 rows
        chunked = minority_neighbors(X, k=3)
        assert np.array_equal(chunked, whole)
        assert all(i not in row for i, row in enumerate(chunked.tolist()))

    def test_k_clamped_to_population(self):
        X = np.array([[0.0], [1.0]])
        nn = minority_neighbors(X, k=5)
        assert nn.shape == (2, 1)

    def test_too_few_rejected(self):
        with pytest.raises(DataError, match="at least 2 minority rows"):
            minority_neighbors(np.array([[1.0]]), k=1)

    def test_tie_goes_to_lower_index(self):
        # Rows 1 and 2 are equidistant from row 0.
        X = np.array([[0.0], [2.0], [-2.0]])
        nn = minority_neighbors(X, k=1)
        assert nn[0, 0] == 1


class TestSmote:
    def test_reaches_parity(self):
        data = toy()
        out = smote(data, SmoteParams(k_neighbors=3, seed=1))
        assert out.class_counts() == (12, 12)

    def test_originals_preserved_and_first(self):
        data = toy()
        out = smote(data, SmoteParams(k_neighbors=3, seed=1))
        assert np.array_equal(out.features[:16], data.features)
        assert np.array_equal(out.labels[:16], data.labels)

    def test_synthetic_rows_on_segments(self):
        data = toy(n_major=20, n_minor=6)
        out = smote(data, SmoteParams(k_neighbors=3, seed=9))
        X_min = data.features[data.labels == 1]
        for row in out.features[26:]:
            # must lie between some pair of minority rows, coordinate-wise
            ok = False
            for a in X_min:
                for b in X_min:
                    lo = np.minimum(a, b)
                    hi = np.maximum(a, b)
                    if ((row >= lo - 1e-12) & (row <= hi + 1e-12)).all():
                        ok = True
            assert ok

    def test_same_seed_identical(self):
        data = toy()
        a = smote(data, SmoteParams(seed=42))
        b = smote(data, SmoteParams(seed=42))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        data = toy()
        a = smote(data, SmoteParams(seed=1))
        b = smote(data, SmoteParams(seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_ratio_below_parity(self):
        data = toy(n_major=10, n_minor=4)
        out = smote(data, SmoteParams(k_neighbors=3, target_ratio=0.5, seed=0))
        # round(0.5 * 10) = 5 wanted, 4 present -> one synthetic row.
        assert out.class_counts() == (10, 5)

    def test_already_balanced_unchanged(self):
        data = toy(n_major=5, n_minor=5)
        out = smote(data, SmoteParams(k_neighbors=3, seed=0))
        assert out.n_rows == data.n_rows
        assert np.array_equal(out.features, data.features)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(6, 2))
        with pytest.raises(DataError, match="both classes must be present"):
            smote(Dataset(X, np.zeros(6, dtype=int)), SmoteParams())

    def test_minority_of_one_rejected(self):
        X = np.random.default_rng(0).normal(size=(6, 2))
        y = np.array([0, 0, 0, 0, 0, 1])
        with pytest.raises(DataError, match="at least 2 minority rows"):
            smote(Dataset(X, y), SmoteParams())

    def test_round_nominal(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0], [3.0], [3.0], [3.0], [3.0]])
        y = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        data = Dataset(X, y)
        params = SmoteParams(
            k_neighbors=2, seed=3, round_nominal=True, nominal_columns=(0,)
        )
        out = smote(data, params)
        synth = out.features[8:]
        assert np.array_equal(synth, np.rint(synth))

    def test_round_nominal_index_out_of_range(self, monkeypatch):
        def no_neighbors(*args):
            raise AssertionError("synthesis started before the index check")

        monkeypatch.setattr(resample, "minority_neighbors", no_neighbors)
        data = toy(n_major=8, n_minor=4)
        params = SmoteParams(k_neighbors=2, round_nominal=True, nominal_columns=(0, 7))
        with pytest.raises(ConfigError, match="nominal_columns index 7 "):
            smote(data, params)


class TestPlan:
    @pytest.mark.parametrize(
        "n_major, n_minor, ratio",
        [(12, 4, 1.0), (10, 4, 0.5), (10, 5, 0.5), (5, 5, 1.0), (4, 9, 1.0), (9, 2, 0.25),
         (7, 3, 0.5)],
    )
    def test_counts_are_smotes(self, n_major, n_minor, ratio):
        data = toy(n_major=n_major, n_minor=n_minor)  # the minor rows are the positives
        label, n_new = smote_plan(data, SmoteParams(k_neighbors=2, target_ratio=ratio))
        assert label == (1 if n_minor <= n_major else 0)
        out = smote(data, SmoteParams(k_neighbors=2, target_ratio=ratio))
        assert out.n_rows - data.n_rows == n_new
        assert (out.labels[data.n_rows:] == label).all()

    def test_balanced_input_skips_the_row_checks(self):
        y = np.array([0, 1])
        params = SmoteParams(round_nominal=True, nominal_columns=(9,))
        assert smote_plan(Dataset(np.zeros((2, 1)), y), params) == (1, 0)


def test_fixture_smote_counts(fixture_dataset):
    out = smote(fixture_dataset, SmoteParams(k_neighbors=5, seed=0))
    assert out.class_counts() == (37, 37)
    assert out.n_rows == 74
