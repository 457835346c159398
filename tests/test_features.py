"""Mutual information, discretization, and top-k ranking.

``ref_mutual_information`` and ``ref_score_features`` are the versions that
coded every column and the labels with ``np.unique`` and filled the joint
table with ``np.add.at``, kept as the reference the scores must equal
exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def ref_mutual_information(x_codes, y):
    x = np.asarray(x_codes)
    yv = np.asarray(y)
    n = x.size
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(yv, return_inverse=True)
    joint = np.zeros((xi.max() + 1, yi.max() + 1), dtype=np.float64)
    np.add.at(joint, (xi, yi), 1.0)
    joint /= n
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    ratio = joint[nz] / np.outer(px, py)[nz]
    total = float(np.sum(joint[nz] * np.log(ratio)))
    return max(total, 0.0)


def ref_score_features(dataset, bins=10, kinds=None):
    scores = []
    for j in range(dataset.n_features):
        column = dataset.features[:, j]
        if kinds is None or kinds[j] is FeatureKind.CONTINUOUS:
            column = discretize(column, bins)
        scores.append(ref_mutual_information(column, dataset.labels))
    return tuple(scores)


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


#: Few distinct values, one of them common: quantile cut points coincide,
#: so :func:`discretize` leaves some bins empty.
TIED = st.sampled_from([-2.5, 0.0, 1.0, 1.5, 3.0, 7.0, 7.25, 11.0, 40.0, 1e9, 5e-324, 2.0, 8.0])

#: Binary and ordinal cells as floats, zeros of both signs among them.
LOW_ARITY = {
    FeatureKind.BINARY: st.sampled_from([0.0, -0.0, 1.0]),
    FeatureKind.ORDINAL: st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, 3.0, 4.0]),
}


def column_of(kind, n):
    if kind is FeatureKind.CONTINUOUS:
        common = st.sampled_from([0.0, 7.0, 1.5])
        return st.lists(common | TIED, min_size=n, max_size=n)
    return st.lists(LOW_ARITY[kind], min_size=n, max_size=n)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 60))
    kinds = draw(st.lists(st.sampled_from(list(FeatureKind)), min_size=1, max_size=5))
    X = np.column_stack([draw(column_of(kind, n)) for kind in kinds])
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return Dataset(X, y), tuple(kinds), draw(st.integers(1, 6))


class TestSameAsUniqueCoding:
    """Scores equal those of coding each column with ``np.unique`` and
    counting with ``np.add.at``, exactly."""

    def test_tied_column_leaves_empty_bins(self):
        column = [0.0] * 8 + [1.0, 2.0, 3.0, 7.0]
        codes = discretize(column, bins=4)
        assert np.unique(codes).size < codes.max() + 1
        dataset = Dataset(np.array([column]).T, np.array([0, 1] * 6))
        assert score_features(dataset, bins=4).scores == ref_score_features(dataset, bins=4)

    @settings(max_examples=300)
    @given(datasets())
    def test_score_features(self, case):
        dataset, kinds, bins = case
        expected = ref_score_features(dataset, bins, kinds)
        assert score_features(dataset, bins, kinds).scores == expected
        assert score_features(dataset, bins).scores == ref_score_features(dataset, bins)

    @settings(max_examples=300)
    @given(st.integers(1, 60).flatmap(lambda n: st.tuples(
        st.lists(TIED | LOW_ARITY[FeatureKind.ORDINAL], min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
    )))
    @example(case=([0.0, -0.0, 1.0, 0.0, 2.0, -0.0], [0, 1, 2, 2, 1, 0]))
    def test_mutual_information_with_three_classes(self, case):
        x, y = np.array(case[0]), np.array(case[1])
        assert mutual_information(x, y) == ref_mutual_information(x, y)
        codes = discretize(x, bins=3)
        assert mutual_information(codes, y) == ref_mutual_information(codes, y)


def scored(*values):
    return FeatureScores(
        scores=tuple(values), names=tuple(f"f{i}" for i in range(len(values)))
    )


class TestSelectKBest:
    def test_tie_prefers_lower_index(self):
        result = select_k_best(scored(0.3, 0.1, 0.3), k=2)
        assert result == (0, 2)

    def test_orders_by_score(self):
        result = select_k_best(scored(0.1, 0.9, 0.5), k=2)
        assert result == (1, 2)

    def test_k_bounds(self):
        with pytest.raises(ConfigError, match=r"k must be in \[1, 2\], got 0"):
            select_k_best(scored(0.1, 0.2), k=0)
        with pytest.raises(ConfigError, match=r"k must be in \[1, 2\], got 3"):
            select_k_best(scored(0.1, 0.2), k=3)

    def test_select_all_keeps_every_index(self):
        result = select_k_best(scored(0.5, 0.1, 0.7), k=3)
        assert sorted(result) == [0, 1, 2]


def test_fixture_scores_are_finite(fixture_dataset):
    scores = chdml.score_features(fixture_dataset)
    assert len(scores.scores) == 15
    assert all(s >= 0.0 for s in scores.scores)
    assert all(np.isfinite(s) for s in scores.scores)
