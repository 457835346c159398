"""Regenerate fixture.csv, the 60-row synthetic cohort used by the tests.

The file is checked in; this script only documents how it was produced.
Layout guarantees the tests rely on:

* 40 negative / 20 positive labels;
* education missing in rows 5 and 25, BPMeds missing in row 35 (the three
  rows removed by the drop stage);
* one missing cell in each of cigsPerDay (row 10), totChol (row 20),
  BMI (row 30), heartRate (row 40) and two in glucose (rows 15, 45),
  all surviving the drop stage and filled by mean imputation;
* exactly one three-sigma outlier cell: glucose = 500 in row 50;
* after drop -> impute -> sigma removal: 56 rows, 37 negative / 19 positive
  (rows 5, 35 and 50 are negatives, row 25 is a positive).

Row numbers above are 0-based data rows.
"""

import csv
from pathlib import Path

import numpy as np

N = 60
SEED = 20240817

EDU_NA = (5, 25)
BPMEDS_NA = (35,)
IMPUTE_NA = {
    "cigsPerDay": (10,),
    "totChol": (20,),
    "BMI": (30,),
    "heartRate": (40,),
    "glucose": (15, 45),
}
OUTLIER_ROW = 50


def build_rows() -> list[dict[str, object]]:
    rng = np.random.default_rng(SEED)
    rows = []
    for i in range(N):
        label = 1 if i % 3 == 1 else 0  # 20 positives
        age = int(rng.integers(38, 55)) + (8 if label else 0)
        smoker = int(rng.random() < 0.45)
        hyp = int(rng.random() < (0.5 if label else 0.25))
        row = {
            "sex": int(rng.integers(0, 2)),
            "age": age,
            "education": int(rng.integers(1, 5)),
            "currentSmoker": smoker,
            "cigsPerDay": int(rng.integers(5, 35)) if smoker else 0,
            "BPMeds": int(rng.random() < 0.1),
            "prevalentStroke": int(rng.random() < 0.04),
            "prevalentHyp": hyp,
            "diabetes": int(rng.random() < 0.06),
            "totChol": int(rng.integers(165, 295)),
            "sysBP": round(float(rng.uniform(100, 165)) + (12 if hyp else 0), 1),
            "diaBP": round(float(rng.uniform(62, 102)), 1),
            "BMI": round(float(rng.uniform(19.0, 34.0)), 2),
            "heartRate": int(rng.integers(58, 98)),
            "glucose": int(rng.integers(66, 108)),
            "TenYearCHD": label,
        }
        rows.append(row)

    for i in EDU_NA:
        rows[i]["education"] = "NA"
    for i in BPMEDS_NA:
        rows[i]["BPMeds"] = "NA"
    for name, where in IMPUTE_NA.items():
        for i in where:
            rows[i][name] = "NA"
    rows[OUTLIER_ROW]["glucose"] = 500
    return rows


def main() -> None:
    rows = build_rows()
    header = [
        "sex", "age", "education", "currentSmoker", "cigsPerDay", "BPMeds",
        "prevalentStroke", "prevalentHyp", "diabetes", "totChol", "sysBP",
        "diaBP", "BMI", "heartRate", "glucose", "TenYearCHD",
    ]
    out = Path(__file__).parent / "fixture.csv"
    with out.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out} ({len(rows)} rows)")

    # sanity: the layout promises above must actually hold
    import chdml

    table = chdml.load_csv(str(out))
    report = chdml.missing_report(table)
    assert report.columns["education"] == 2 and report.columns["BPMeds"] == 1
    assert report.columns["glucose"] == 2 and report.columns["TenYearCHD"] == 0
    assert chdml.class_balance(table) == (40, 20)
    dropped = chdml.drop_rows_missing(table, ["BPMeds", "education"])
    assert dropped.row_count == 57
    imputed = chdml.impute_mean(
        dropped, ["cigsPerDay", "totChol", "BMI", "heartRate", "glucose"]
    )
    cleaned, rep = chdml.remove_outliers(
        imputed,
        "Sigma",
        ["cigsPerDay", "totChol", "sysBP", "diaBP", "BMI", "heartRate", "glucose"],
    )
    assert rep.total == 1 and rep.columns["glucose"] == 1, rep.columns
    assert cleaned.row_count == 56
    assert chdml.class_balance(cleaned) == (37, 19)
    print("layout checks passed:", rep.columns)


if __name__ == "__main__":
    main()
