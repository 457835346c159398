"""Shared fixtures and the acceptance-summary reporter."""

import re
from pathlib import Path

import pytest
from hypothesis import settings

import chdml

# Property tests run the same examples on every run and have no per-example
# time limit, so a slow shared host cannot turn them red.
settings.register_profile("chdml", derandomize=True, deadline=None)
settings.load_profile("chdml")

DATA_DIR = Path(__file__).parent / "data"

_acceptance_results: dict[str, str] = {}
_CRITERION_RE = re.compile(r"test_(c\d+)_(\w+)")


@pytest.fixture(scope="session")
def fixture_path() -> Path:
    return DATA_DIR / "fixture.csv"


@pytest.fixture(scope="session")
def fixture_table(fixture_path):
    return chdml.load_csv(str(fixture_path))


@pytest.fixture(scope="session")
def cleaned_fixture(fixture_table):
    """The 56-row table left after drop -> impute -> sigma removal."""
    dropped = chdml.drop_rows_missing(fixture_table, ["BPMeds", "education"])
    imputed = chdml.impute_mean(
        dropped, ["cigsPerDay", "totChol", "BMI", "heartRate", "glucose"]
    )
    cleaned, _ = chdml.remove_outliers(
        imputed,
        "Sigma",
        ["cigsPerDay", "totChol", "sysBP", "diaBP", "BMI", "heartRate", "glucose"],
    )
    return cleaned


@pytest.fixture(scope="session")
def fixture_dataset(cleaned_fixture):
    return chdml.to_dataset(cleaned_fixture)


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    match = _CRITERION_RE.search(report.nodeid)
    if not match:
        return
    key = f"{match.group(1).upper()} {match.group(2)}"
    if report.skipped:
        _acceptance_results[key] = "SKIP"
    elif report.when == "call":
        _acceptance_results[key] = "PASS" if report.passed else "FAIL"
    elif report.failed:  # setup/teardown error
        _acceptance_results[key] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_acceptance_results):
        terminalreporter.write_line(f"{key}: {_acceptance_results[key]}")
