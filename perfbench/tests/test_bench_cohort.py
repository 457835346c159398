import csv
import io

import chdml
from chdml.pipeline import DEFAULT_CONFIG

import cohort


def test_same_seed_same_bytes_other_seed_other_bytes():
    first = cohort.csv_text(400, 11)
    assert cohort.csv_text(400, 11) == first
    assert cohort.csv_text(400, 12) != first


def test_header_missing_cells_and_positives_are_fixed_shares():
    rows = list(csv.DictReader(io.StringIO(cohort.csv_text(2000, 5))))
    assert len(rows) == 2000
    assert list(rows[0]) == list(cohort.HEADER)
    for name, share in cohort.MISSING_SHARE.items():
        assert sum(r[name] == "NA" for r in rows) == round(share * 2000), name
    assert sum(r["TenYearCHD"] == "1" for r in rows) == round(cohort.POSITIVE_SHARE * 2000)


def test_default_clean_stages_remove_the_same_rows_for_every_seed(tmp_path):
    path = str(tmp_path / "cohort.csv")
    outcomes = set()
    for seed in range(4):
        cohort.write(path, 600, seed)
        table = chdml.load_csv(path)
        dropped = chdml.drop_rows_missing(table, DEFAULT_CONFIG["drop_columns"])
        imputed = chdml.impute_mean(dropped, DEFAULT_CONFIG["impute_columns"])
        cleaned, report = chdml.remove_outliers(
            imputed, "Sigma", DEFAULT_CONFIG["outlier_columns"])
        outcomes.add((dropped.row_count, report.total, chdml.class_balance(cleaned)))
    assert outcomes == {(600 - 15 - 8, 21, (478, 78))}
