"""Seeded synthetic cohorts shaped like the Framingham CSV.

The header uses the ``male`` alias for ``sex``.  The seed changes the
values, not the amount of work: the positive count, the missing cells per
column and the rows the default clean stages remove are fixed shares of
the row count, and so is the class mix of the removed rows.  Labels come
from a logistic model in age, sex, cigsPerDay, sysBP, diabetes and
glucose whose intercept is set by the prevalence (see :func:`_labels`).

The measurement columns are clipped to 2.4 standard deviations, and
``OUTLIER_SHARE`` of the rows get one cell 7 standard deviations out, so
the three-sigma rule removes exactly those rows.  Rows missing
``education`` or ``BPMeds`` (dropped by the default config) are disjoint
from them and from each other.

Run ``python3 perfbench/cohort.py ROWS SEED OUT.csv`` to write one file.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

HEADER = (
    "male", "age", "education", "currentSmoker", "cigsPerDay", "BPMeds",
    "prevalentStroke", "prevalentHyp", "diabetes", "totChol", "sysBP",
    "diaBP", "BMI", "heartRate", "glucose", "TenYearCHD",
)

#: Share of cells left empty per column, close to the real file.
DROPPED_MISSING_SHARE = {"education": 0.025, "BPMeds": 0.013}
IMPUTED_MISSING_SHARE = {"glucose": 0.09, "totChol": 0.012, "cigsPerDay": 0.007, "BMI": 0.005}
MISSING_SHARE = {**DROPPED_MISSING_SHARE, **IMPUTED_MISSING_SHARE}

POSITIVE_SHARE = 0.14
OUTLIER_SHARE = 0.035
OUTLIER_COLUMNS = ("cigsPerDay", "totChol", "sysBP", "diaBP", "BMI", "heartRate", "glucose")

#: Printed with this many decimals; the rest are integers.
DECIMALS = {"sysBP": 1, "diaBP": 1, "BMI": 2}


def _pick(rng: np.random.Generator, free: np.ndarray, target: np.ndarray,
          count: int) -> np.ndarray:
    """``count`` free rows, of which the positive share is POSITIVE_SHARE."""
    positives = int(round(POSITIVE_SHARE * count))
    chosen = [
        rng.choice(np.flatnonzero(free & (target == label)), size=n, replace=False)
        for label, n in ((1.0, positives), (0.0, count - positives))
    ]
    return np.concatenate(chosen)


def _labels(rng: np.random.Generator, risk: np.ndarray, positives: int) -> np.ndarray:
    """Exactly ``positives`` labels drawn with P(y=1) = sigmoid(risk + c).

    The intercept c makes the probabilities sum to ``positives``.
    Systematic sampling along ascending risk then draws each row with its
    probability while every stretch of the risk scale gets its expected
    number of positives to within one, so the class overlap, and with it
    the work the models do, varies little from seed to seed.
    """
    def probability(c: float) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-(risk + c)))

    lo, hi = -50.0, 50.0
    for _ in range(100):  # bisection; ``hi`` keeps the sum >= ``positives``
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if probability(mid).sum() < positives else (lo, mid)
    p = probability(hi)
    order = np.argsort(risk, kind="stable")
    edges = np.floor(np.cumsum(p[order]) - rng.random())
    hits = order[np.flatnonzero(np.diff(edges, prepend=-1.0) > 0)]
    target = np.zeros(risk.size)
    target[hits[-positives:]] = 1.0
    return target


def columns(rows: int, seed: int) -> dict[str, np.ndarray]:
    """Column values in HEADER order; NaN marks a missing cell."""
    if rows < 50:
        raise ValueError("a cohort needs at least 50 rows")
    rng = np.random.default_rng([int(seed), 0xC0])
    male = (rng.random(rows) < 0.43).astype(float)
    age = np.clip(np.rint(rng.normal(49.6, 8.6, rows)), 32, 70)
    education = rng.choice([1.0, 2.0, 3.0, 4.0], size=rows, p=[0.42, 0.30, 0.17, 0.11])
    smoker = (rng.random(rows) < 0.49).astype(float)
    habit = rng.choice([1, 3, 5, 9, 10, 15, 20, 30, 40, 43, 60], size=rows,
                       p=[.06, .05, .05, .07, .06, .10, .38, .11, .08, .03, .01])
    bp_meds = (rng.random(rows) < 0.03).astype(float)
    stroke = (rng.random(rows) < 0.006).astype(float)
    hyp = (rng.random(rows) < 0.31).astype(float)
    diabetes = (rng.random(rows) < 0.026).astype(float)
    sys_bp = rng.normal(124.0, 17.0, rows) + 26.0 * hyp + 0.45 * (age - 49.6)
    values = {
        "cigsPerDay": smoker * habit,
        "totChol": rng.normal(237.0, 44.0, rows),
        "sysBP": sys_bp,
        "diaBP": 0.42 * sys_bp + rng.normal(27.5, 8.0, rows),
        "BMI": rng.normal(25.8, 4.1, rows),
        "heartRate": rng.normal(75.9, 12.0, rows),
        "glucose": rng.normal(79.0, 12.0, rows) + diabetes * rng.normal(60.0, 15.0, rows),
    }
    spread = {}
    for name, v in values.items():
        mean, sd = v.mean(), v.std()
        spread[name] = (mean, sd)
        values[name] = _round(name, np.clip(v, mean - 2.4 * sd, mean + 2.4 * sd))

    risk = (0.13 * (age - 49.6) + 1.0 * male + 0.04 * values["cigsPerDay"]
            + 0.036 * (values["sysBP"] - 132.0) + 1.4 * diabetes
            + 0.016 * (values["glucose"] - 82.0))
    target = _labels(rng, risk, int(round(POSITIVE_SHARE * rows)))

    values.update(male=male, age=age, education=education, currentSmoker=smoker,
                  BPMeds=bp_meds, prevalentStroke=stroke, prevalentHyp=hyp,
                  diabetes=diabetes, TenYearCHD=target)
    free = np.ones(rows, dtype=bool)
    for name, share in DROPPED_MISSING_SHARE.items():
        gaps = _pick(rng, free, target, int(round(share * rows)))
        values[name][gaps] = np.nan
        free[gaps] = False
    outliers = _pick(rng, free, target, int(round(OUTLIER_SHARE * rows)))
    for i, row in enumerate(rng.permutation(outliers)):
        name = OUTLIER_COLUMNS[i % len(OUTLIER_COLUMNS)]
        mean, sd = spread[name]
        values[name][row] = _round(name, np.array([mean + 7.0 * sd]))[0]
        if name == "cigsPerDay":
            values["currentSmoker"][row] = 1.0
    free[outliers] = False
    for name, share in IMPUTED_MISSING_SHARE.items():
        gaps = rng.choice(np.flatnonzero(free), size=int(round(share * rows)), replace=False)
        values[name][gaps] = np.nan
    return {name: values[name] for name in HEADER}


def _round(name: str, v: np.ndarray) -> np.ndarray:
    return np.round(v, DECIMALS.get(name, 0))


def _cells(name: str, column: np.ndarray) -> list[str]:
    spec = f".{DECIMALS.get(name, 0)}f"
    return ["NA" if v != v else format(v, spec) for v in column.tolist()]


def csv_text(rows: int, seed: int) -> str:
    """The cohort as CSV text; equal (rows, seed) give equal text."""
    values = columns(rows, seed)
    cells = [_cells(name, values[name]) for name in HEADER]
    lines = [",".join(HEADER)]
    lines.extend(",".join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def write(path: str, rows: int, seed: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(csv_text(rows, seed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", type=int)
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    args = parser.parse_args(argv)
    write(args.out, args.rows, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
