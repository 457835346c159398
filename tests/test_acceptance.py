"""Acceptance gate.

Two tiers:

* test_c01 .. test_c09 run on bundled fixtures and random data — they pin
  the numeric kernels to independent oracles and the pipeline to its
  determinism contract.
* test_c10 .. test_c16 reproduce published cohort numbers and need the
  real Framingham CSV; point CHD_DATA at it to enable them, otherwise
  they skip.

The terminal summary prints one PASS/FAIL/SKIP line per criterion (see
conftest.py).
"""

import dataclasses
import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import chdml
from chdml.eval import (
    SmoteMode,
    cross_validate,
    grid_search,
    holdout_evaluate,
    roc_auc,
    split_units,
)
from chdml.features import mutual_information
from chdml.models import ClassifierSpec, fit, score_many
from chdml.models.linear import nll_gradient, nll_loss
from chdml.pipeline import PipelineConfig, run_pipeline
from chdml.preprocess import Dataset, iqr_outlier_mask, sigma_outlier_mask
from chdml.resample import SmoteParams, smote

DATA = Path(__file__).parent / "data"

REPORT_FILES = [
    "cv_original.csv",
    "cv_smote.csv",
    "holdout.csv",
    "boxplot_stats.csv",
    "feature_scores.txt",
    "report.json",
]

CLEAN_DROP = ["BPMeds", "education"]
CLEAN_IMPUTE = ["cigsPerDay", "totChol", "BMI", "heartRate", "glucose"]
MEASUREMENT_COLUMNS = [
    "cigsPerDay", "totChol", "sysBP", "diaBP", "BMI", "heartRate", "glucose",
]

ALGORITHMS = ("LR", "KNN", "CART", "NB", "SVM", "RF")


# --------------------------------------------------------------------------
# always-run property/oracle criteria
# --------------------------------------------------------------------------


def test_c01_auc_pair_counting():
    """Rank-based AUC equals brute-force pair counting on tied data."""
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 200:
        n = int(rng.integers(4, 501))
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1  # both classes always present
        # coarse score grid injects plenty of ties
        distinct = int(rng.integers(2, 12))
        scores = rng.integers(0, distinct, n) / 10.0

        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = float((pos[:, None] > neg[None, :]).sum())
        ties = float((pos[:, None] == neg[None, :]).sum())
        expected = (wins + 0.5 * ties) / (len(pos) * len(neg))

        assert roc_auc(scores, labels) == expected
        checked += 1


def test_c02_lr_gradient_finite_difference():
    """Analytic LR gradient against central differences, rel err < 1e-5."""
    rng = np.random.default_rng(202)
    X = rng.normal(size=(20, 5))
    y = rng.integers(0, 2, 20).astype(np.float64)
    h = 1e-6
    for lam in (0.0, 0.5, 2.0, 0.0, 1.0):
        w = rng.normal(size=5)
        b = float(rng.normal())
        grad_w, grad_b = nll_gradient(w, b, X, y, lam)

        numeric = np.empty(6)
        for j in range(5):
            bump = np.zeros(5)
            bump[j] = h
            numeric[j] = (
                nll_loss(w + bump, b, X, y, lam) - nll_loss(w - bump, b, X, y, lam)
            ) / (2 * h)
        numeric[5] = (nll_loss(w, b + h, X, y, lam) - nll_loss(w, b - h, X, y, lam)) / (
            2 * h
        )

        analytic = np.append(grad_w, grad_b)
        rel = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(analytic), 1e-12)
        assert rel < 1e-5


def _mi_oracle(table: np.ndarray) -> float:
    """Direct contingency evaluation: sum p_xy * ln(p_xy / (p_x p_y))."""
    n = table.sum()
    total = 0.0
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            c = table[i, j]
            if c == 0:
                continue
            total += (c / n) * math.log((c * n) / (row[i] * col[j]))
    return total


def _table_to_vectors(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            xs.extend([float(i)] * int(table[i, j]))
            ys.extend([j] * int(table[i, j]))
    return np.array(xs), np.array(ys, dtype=np.int64)


def test_c03_mi_contingency_oracle():
    """Plug-in MI equals the contingency oracle on exhaustive small joints."""
    # every 2x2 table with cells 0..3
    checked = 0
    for cells in itertools.product(range(4), repeat=4):
        table = np.array(cells, dtype=np.int64).reshape(2, 2)
        if table.sum() == 0 or (table.sum(axis=0) == 0).any():
            continue
        if (table.sum(axis=1) == 0).any():
            continue
        x, y = _table_to_vectors(table)
        assert mutual_information(x, y) == pytest.approx(
            _mi_oracle(table), abs=1e-12
        )
        checked += 1
    assert checked > 100

    # a sweep of 3x2 tables with cells 0..2
    for cells in itertools.product(range(3), repeat=6):
        table = np.array(cells, dtype=np.int64).reshape(3, 2)
        if (table.sum(axis=0) == 0).any() or (table.sum(axis=1) == 0).any():
            continue
        x, y = _table_to_vectors(table)
        assert mutual_information(x, y) == pytest.approx(
            _mi_oracle(table), abs=1e-12
        )

    # self-information of a binary column is its empirical entropy
    rng = np.random.default_rng(303)
    for _ in range(20):
        x = rng.integers(0, 2, int(rng.integers(2, 60))).astype(float)
        if x.min() == x.max():
            continue
        p = x.mean()
        entropy = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert mutual_information(x, x.astype(np.int64)) == pytest.approx(
            entropy, abs=1e-12
        )


def _quantile_linear(sorted_values: list, q: float) -> float:
    """Linear-interpolation quantile, written independently of numpy."""
    n = len(sorted_values)
    pos = (n - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def _iqr_oracle(values: np.ndarray) -> list:
    present = [float(v) for v in values if not math.isnan(v)]
    ordered = sorted(present)
    q1 = _quantile_linear(ordered, 0.25)
    q3 = _quantile_linear(ordered, 0.75)
    spread = q3 - q1
    lo, hi = q1 - 1.5 * spread, q3 + 1.5 * spread
    return [
        (not math.isnan(v)) and (v < lo or v > hi) for v in map(float, values)
    ]


def _sigma_oracle(values: np.ndarray) -> list:
    present = [float(v) for v in values if not math.isnan(v)]
    n = len(present)
    mean = math.fsum(present) / n
    var = math.fsum((v - mean) ** 2 for v in present) / (n - 1)
    bound = 3.0 * math.sqrt(var)
    return [
        (not math.isnan(v)) and abs(v - mean) > bound for v in map(float, values)
    ]


def test_c04_outlier_masks_match_oracles():
    """Both outlier masks equal independent two-pass implementations."""
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(5, 200))
        values = rng.normal(50.0, 10.0, n)
        if rng.random() < 0.5:  # inject spikes
            k = int(rng.integers(1, 4))
            values[rng.choice(n, k, replace=False)] = rng.normal(200.0, 5.0, k)
        if rng.random() < 0.3:  # inject missing cells
            k = int(rng.integers(1, max(2, n // 10)))
            values[rng.choice(n, k, replace=False)] = np.nan
        if np.isnan(values).sum() > n - 4:
            continue
        assert iqr_outlier_mask(values).tolist() == _iqr_oracle(values)
        assert sigma_outlier_mask(values).tolist() == _sigma_oracle(values)

    constant = np.full(30, 7.25)
    assert not iqr_outlier_mask(constant).any()
    assert not sigma_outlier_mask(constant).any()


def test_c05_smote_geometry():
    """Synthetic rows sit on minority segments; counts, originals, bytes."""
    rng = np.random.default_rng(505)
    for rep in range(20):
        n_maj = int(rng.integers(8, 30))
        n_min = int(rng.integers(3, 10))
        d = int(rng.integers(1, 6))
        X = np.vstack([
            rng.normal(0.0, 1.0, (n_maj, d)),
            rng.normal(3.0, 1.0, (n_min, d)),
        ])
        y = np.array([0] * n_maj + [1] * n_min)
        data = Dataset(X, y)
        params = SmoteParams(k_neighbors=int(rng.integers(1, 5)), seed=rep)

        out = smote(data, params)
        n = data.n_rows

        # exact parity
        assert out.class_counts() == (n_maj, n_maj)
        # originals unchanged, in place
        assert np.array_equal(out.features[:n], data.features)
        assert np.array_equal(out.labels[:n], data.labels)

        # per-coordinate betweenness and collinearity with a minority pair
        minority = data.features[data.labels == 1]
        for row in out.features[n:]:
            found = False
            for a in minority:
                for b in minority:
                    if np.array_equal(a, b):
                        continue
                    direction = b - a
                    j = int(np.argmax(np.abs(direction)))
                    if direction[j] == 0.0:
                        continue
                    t = (row[j] - a[j]) / direction[j]
                    if not 0.0 <= t < 1.0:
                        continue
                    if np.allclose(row, a + t * direction, rtol=0.0, atol=1e-9):
                        found = True
                        break
                if found:
                    break
            assert found, "synthetic row off every minority segment"

        # byte-level determinism
        again = smote(data, params)
        assert out.features.tobytes() == again.features.tobytes()
        assert out.labels.tobytes() == again.labels.tobytes()


def test_c06_xor_tree_and_forest_identity():
    """Depth-2 tree solves XOR; degenerate forest equals the tree."""
    xor = Dataset(
        np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
        np.array([0, 1, 1, 0]),
    )
    tree_model = fit(ClassifierSpec("CART", hyperparameters={"max_depth": 2}), xor)
    assert score_many(tree_model, xor.features).tolist() == [0.0, 1.0, 1.0, 0.0]

    rng = np.random.default_rng(606)
    for seed in range(5):
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
        if y.min() == y.max():
            continue
        data = Dataset(X, y)
        degenerate = ClassifierSpec(
            "RF",
            hyperparameters={"n_trees": 1, "bootstrap": 0, "mtry": 3},
            seed=seed,
        )
        forest_scores = score_many(fit(degenerate, data), data.features)
        cart_scores = score_many(fit(ClassifierSpec("CART"), data), data.features)
        assert np.array_equal(forest_scores, cart_scores)


def test_c07_svm_kkt_conditions():
    """Dual feasibility on a 40-point fixture: box bounds and balance."""
    rng = np.random.default_rng(707)
    X = np.vstack([
        rng.normal(0.0, 1.2, (20, 2)),
        rng.normal(2.0, 1.2, (20, 2)),  # overlapping blobs
    ])
    y = np.array([0] * 20 + [1] * 20)
    C = 1.0
    model = fit(ClassifierSpec("SVM", hyperparameters={"C": C}), Dataset(X, y))

    assert model.converged
    alphas = model.dual_coef * model.support_labels
    assert (alphas >= -1e-12).all()
    assert (alphas <= C + 1e-12).all()
    assert abs(model.dual_coef.sum()) < 1e-6


def test_c08_leakage_free_folds_hold_no_synthetic_rows():
    """With train-only resampling, held-out folds stay purely original."""
    rng = np.random.default_rng(808)
    n0, n1 = 40, 15
    X = rng.normal(size=(n0 + n1, 4))
    X[:, 0] = np.arange(n0 + n1, dtype=np.float64) * 10.0  # unique row tag
    y = np.array([0] * n0 + [1] * n1)
    data = Dataset(X, y)
    originals = {tuple(row) for row in data.features}

    tested: list[tuple] = []
    for _, train, test in split_units(
        data,
        k=5,
        seed=3,
        mode=SmoteMode.LEAKAGE_FREE,
        smote_params=SmoteParams(k_neighbors=3, seed=3),
    ):
        for row in test.features:
            assert tuple(row) in originals
        tested.extend(tuple(row) for row in test.features)
        # the train side did get synthetic rows appended
        assert train.class_counts()[0] == train.class_counts()[1]
        n_original_train = sum(
            1 for row in train.features if tuple(row) in originals
        )
        assert n_original_train < train.n_rows

    # every original row is held out exactly once, nothing else ever is
    assert len(tested) == data.n_rows
    assert set(tested) == originals


def test_c09_pipeline_runs_are_byte_identical(tmp_path):
    """Two identical full runs emit byte-identical report files."""
    config = dataclasses.replace(
        PipelineConfig.from_file(str(DATA / "fixture_config.json")),
        input_path=str(DATA / "fixture.csv"),
        output_dir=str(tmp_path / "out"),
    )
    out = Path(config.output_dir)
    snapshots = []
    for _ in range(2):
        run_pipeline(config)
        snapshots.append({n: (out / n).read_bytes() for n in REPORT_FILES})
    for name in REPORT_FILES:
        assert snapshots[0][name] == snapshots[1][name], name


# --------------------------------------------------------------------------
# gated cohort-reproduction criteria (need CHD_DATA)
# --------------------------------------------------------------------------

requires_data = pytest.mark.skipif(
    not os.environ.get("CHD_DATA"),
    reason="CHD_DATA not set; cohort reproduction skipped",
)


@pytest.fixture(scope="session")
def cohort_raw():
    path = os.environ.get("CHD_DATA")
    if not path:
        pytest.skip("CHD_DATA not set")
    return chdml.load_csv(path)


@pytest.fixture(scope="session")
def cohort_outliers(cohort_raw):
    dropped = chdml.drop_rows_missing(cohort_raw, CLEAN_DROP)
    imputed = chdml.impute_mean(dropped, CLEAN_IMPUTE)
    cleaned, sigma_report = chdml.remove_outliers(
        imputed, "Sigma", MEASUREMENT_COLUMNS
    )
    _, iqr_report = chdml.remove_outliers(imputed, "IQR", MEASUREMENT_COLUMNS)
    return cleaned, sigma_report, iqr_report


@pytest.fixture(scope="session")
def cohort_dataset(cohort_outliers):
    cleaned, _, _ = cohort_outliers
    return chdml.to_dataset(cleaned)


@pytest.fixture(scope="session")
def cv_plain(cohort_dataset):
    started = time.perf_counter()
    results = {
        algo: cross_validate(
            ClassifierSpec(algo, seed=0),
            cohort_dataset,
            k=10,
            seed=0,
            mode=SmoteMode.NONE,
        )
        for algo in ALGORITHMS
    }
    return results, time.perf_counter() - started


@pytest.fixture(scope="session")
def cv_oversampled(cohort_dataset):
    return {
        algo: cross_validate(
            ClassifierSpec(algo, seed=0),
            cohort_dataset,
            k=10,
            seed=0,
            mode=SmoteMode.PAPER_FAITHFUL,
            smote_params=SmoteParams(seed=0),
        )
        for algo in ALGORITHMS
    }


@pytest.fixture(scope="session")
def holdout_both_modes(cohort_dataset):
    plain, oversampled = {}, {}
    for algo in ALGORITHMS:
        spec = ClassifierSpec(algo, seed=0)
        plain[algo] = holdout_evaluate(
            spec, cohort_dataset, seed=0, mode=SmoteMode.NONE
        )
        oversampled[algo] = holdout_evaluate(
            spec,
            cohort_dataset,
            seed=0,
            mode=SmoteMode.PAPER_FAITHFUL,
            smote_params=SmoteParams(seed=0),
        )
    return plain, oversampled


@requires_data
def test_c10_missing_counts(cohort_raw):
    report = chdml.missing_report(cohort_raw)
    expected = {
        "education": 185, "cigsPerDay": 29, "BPMeds": 53, "totChol": 50,
        "BMI": 19, "heartRate": 1, "glucose": 388, "TenYearCHD": 0,
    }
    for column, count in expected.items():
        assert report.columns[column] == count, column
    for column in set(report.columns) - set(expected):
        assert report.columns[column] == 0, column


@requires_data
def test_c11_class_balance(cohort_raw):
    assert chdml.class_balance(cohort_raw) == (3465, 617)


@requires_data
def test_c12_sigma_outlier_counts(cohort_outliers):
    _, sigma_report, iqr_report = cohort_outliers
    # informational only; the published 3x claim has no asserted baseline
    print(f"IQR flags (not asserted): total={iqr_report.total}")

    assert abs(sigma_report.total - 697) <= 0.03 * 697
    expected = {
        "cigsPerDay": 11, "totChol": 54, "sysBP": 127, "diaBP": 84,
        "BMI": 96, "heartRate": 76, "glucose": 249,
    }
    for column, count in expected.items():
        assert abs(sigma_report.columns[column] - count) <= 10, column


@requires_data
def test_c13_cv_plain(cv_plain):
    results, elapsed = cv_plain
    means = {algo: summary.mean for algo, summary in results.items()}
    print("CV means, no resampling:", {a: round(m, 6) for a, m in means.items()})

    assert means["LR"] == pytest.approx(0.728592, abs=0.05)
    assert max(means, key=means.get) == "LR"
    assert means["NB"] == pytest.approx(0.707762, abs=0.05)
    assert means["SVM"] < 0.60
    assert elapsed < 600.0, f"cross-validation took {elapsed:.0f}s"


@requires_data
def test_c14_cv_oversampled(cv_oversampled):
    means = {algo: summary.mean for algo, summary in cv_oversampled.items()}
    print("CV means, oversampled:", {a: round(m, 6) for a, m in means.items()})

    ranked = sorted(means, key=means.get, reverse=True)
    assert means["RF"] >= 0.90
    assert ranked[0] == "RF"
    assert means["KNN"] >= 0.84
    assert ranked[1] == "KNN"
    assert means["LR"] == pytest.approx(0.729461, abs=0.05)


@requires_data
def test_c15_holdout(holdout_both_modes):
    plain, oversampled = holdout_both_modes
    print("hold-out, no resampling:", {a: round(v, 4) for a, v in plain.items()})
    print("hold-out, oversampled:", {a: round(v, 4) for a, v in oversampled.items()})

    for algo, auc in plain.items():
        assert 0.45 <= auc <= 0.62, algo
    assert oversampled["RF"] >= 0.82
    assert max(oversampled, key=oversampled.get) == "RF"


@requires_data
def test_c16_lr_grid_insensitivity(cohort_dataset, cv_plain):
    results, _ = cv_plain
    default_mean = results["LR"].mean
    _, best_mean, _ = grid_search(
        ClassifierSpec("LR", seed=0),
        {"lambda": [0.1, 1.0, 10.0], "step": [0.03, 0.1, 0.3]},
        cohort_dataset,
        k=10,
        seed=0,
        mode=SmoteMode.NONE,
    )
    assert abs(best_mean - default_mean) < 0.02
