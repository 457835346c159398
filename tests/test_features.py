"""Mutual information, discretization, and top-k ranking."""

import math

import numpy as np
import pytest

import chdml
from chdml.errors import ConfigError, DataError
from chdml.features import (
    FeatureScores,
    discretize,
    mutual_information,
    score_features,
    select_k_best,
)
from chdml.ingest import FeatureKind
from chdml.preprocess import Dataset


class TestMutualInformation:
    def test_small_joint(self):
        # Joint counts: (0,0)=2, (1,0)=1, (1,1)=2 over n=5.
        # I = 2/5 ln(2/5 / (2/5 * 3/5)) + 1/5 ln(1/5 / (3/5*3/5))
        #   + 2/5 ln(2/5 / (3/5*2/5)) = 0.29110316603...
        x = np.array([0.0, 0, 1, 1, 1])
        y = np.array([0, 0, 0, 1, 1])
        assert mutual_information(x, y) == pytest.approx(
            0.2911031660323688, abs=1e-15
        )

    def test_self_information_is_entropy(self):
        x = np.array([0.0, 0, 1, 1])
        assert mutual_information(x, np.array([0, 0, 1, 1])) == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_independent_is_zero(self):
        x = np.array([0.0, 0, 1, 1])
        y = np.array([0, 1, 0, 1])
        assert mutual_information(x, y) == pytest.approx(0.0, abs=1e-15)

    def test_never_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.integers(0, 4, 30).astype(float)
            y = rng.integers(0, 2, 30)
            assert mutual_information(x, y) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="must have equal length"):
            mutual_information(np.array([1.0, 2]), np.array([0]))

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="mutual information of empty vectors"):
            mutual_information(np.array([]), np.array([], dtype=int))


class TestDiscretize:
    def test_binary_column_keeps_two_codes(self):
        codes = discretize(np.array([0.0, 1, 0, 1, 1]), bins=10)
        assert sorted(set(codes.tolist())) == [0, 1]
        assert codes.tolist() == [0, 1, 0, 1, 1]

    def test_few_distinct_values_one_bin_each(self):
        codes = discretize(np.array([3.0, 1, 2, 1, 3]), bins=4)
        assert codes.tolist() == [2, 0, 1, 0, 2]

    def test_tied_values_share_a_bin(self):
        codes = discretize(np.array([1.0, 1, 1, 2, 3]), bins=2)
        assert codes[0] == codes[1] == codes[2]
        assert codes[3] == codes[4]
        assert codes[0] != codes[3]

    def test_uniform_hundred_into_ten(self):
        codes = discretize(np.arange(1.0, 101.0), bins=10)
        values, counts = np.unique(codes, return_counts=True)
        assert len(values) == 10
        assert counts.tolist() == [10] * 10

    def test_codes_monotone_in_value(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=200)
        codes = discretize(v, bins=7)
        order = np.argsort(v, kind="stable")
        assert (np.diff(codes[order]) >= 0).all()


class TestScoreFeatures:
    def test_perfect_feature_ranks_first(self):
        rng = np.random.default_rng(5)
        y = np.array([0, 1] * 20)
        X = np.column_stack([rng.normal(size=40), y.astype(float)])
        scores = score_features(Dataset(X, y))
        assert scores.scores[1] > scores.scores[0]
        assert scores.scores[1] == pytest.approx(math.log(2), rel=1e-12)

    def test_kinds_respected_for_binary(self):
        # A binary column must keep its two groups even with bins=3.
        y = np.array([0, 1] * 10)
        X = np.column_stack([y.astype(float), np.arange(20.0)])
        scores = score_features(
            Dataset(X, y),
            bins=3,
            kinds=(FeatureKind.BINARY, FeatureKind.CONTINUOUS),
        )
        assert scores.scores[0] == pytest.approx(math.log(2), rel=1e-12)

    def test_as_text_format(self):
        y = np.array([0, 1, 0, 1])
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        text = chdml.score_features(Dataset(X, y)).as_text()
        assert text.endswith("\n")
        line = text.splitlines()[0]
        assert line.startswith("Feature 0: ")
        float(line.split(": ")[1])  # parses


def scored(*values):
    return FeatureScores(
        scores=tuple(values), names=tuple(f"f{i}" for i in range(len(values)))
    )


class TestSelectKBest:
    def test_tie_prefers_lower_index(self):
        result = select_k_best(scored(0.3, 0.1, 0.3), k=2)
        assert result.selected == (0, 2)

    def test_orders_by_score(self):
        result = select_k_best(scored(0.1, 0.9, 0.5), k=2)
        assert result.selected == (1, 2)

    def test_k_bounds(self):
        with pytest.raises(ConfigError, match=r"k must be in \[1, 2\], got 0"):
            select_k_best(scored(0.1, 0.2), k=0)
        with pytest.raises(ConfigError, match=r"k must be in \[1, 2\], got 3"):
            select_k_best(scored(0.1, 0.2), k=3)

    def test_select_all_keeps_every_index(self):
        result = select_k_best(scored(0.5, 0.1, 0.7), k=3)
        assert sorted(result.selected) == [0, 1, 2]


def test_fixture_scores_are_finite(fixture_dataset):
    scores = chdml.score_features(fixture_dataset)
    assert len(scores.scores) == 15
    assert all(s >= 0.0 for s in scores.scores)
    assert all(np.isfinite(s) for s in scores.scores)
