"""The malformed-input contract, by generation: every config and schema file
ends ``chdml run`` with exit 0, 2, 3 or 4, a failure with one stderr line,
and no warning or exception."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from chdml.cli import main
from chdml.ingest import FRAMINGHAM
from chdml.models.base import ALGORITHMS, DEFAULT_HYPERPARAMETERS, HYPERPARAMETER_BOUNDS

DATA = Path(__file__).parent / "data"
FIXTURE = str(DATA / "fixture.csv")

#: Values that break a careless number check: zeros, the extremes of a
#: float, an integer too large for one, and the wrong JSON types.
EXTREMES = [0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 10**30, -1, "1", True, None, [1]]

#: The cap on the two hyperparameters whose work grows with their value.
CAPPED = {"n_trees": 3, "max_iter": 50}


def edges(name):
    """A hyperparameter at its bound, just past it either way (an integer one
    is rounded, so also one below it) and at 1e308, or at its cap."""
    bound = HYPERPARAMETER_BOUNDS[name][1]
    return [bound, math.nextafter(bound, -math.inf), bound - 1,
            math.nextafter(bound, math.inf), CAPPED.get(name, 1e308)]


@st.composite
def algorithm_entry(draw):
    """A name, or an object with some hyperparameters at their edges; a
    capped one is always set, so its default never runs."""
    algo = draw(st.sampled_from(ALGORITHMS))
    hyper = {}
    for name in DEFAULT_HYPERPARAMETERS[algo]:
        if name in HYPERPARAMETER_BOUNDS and (name in CAPPED or draw(st.booleans())):
            hyper[name] = draw(st.sampled_from(edges(name)))
    return {"algorithm": algo, "hyperparameters": hyper} if hyper else algo


def either(valid, invalid=EXTREMES):
    """A valid value or a bad one, each about half the time."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(invalid))


COLUMNS = st.one_of(
    st.lists(st.sampled_from([*FRAMINGHAM.names, "nope"]), max_size=3), st.sampled_from(EXTREMES))

FIELDS = {
    "seed": either([7, 0, 10**30, 2**64], [*EXTREMES, 1.5]),
    "drop_columns": COLUMNS,
    "impute_columns": COLUMNS,
    "outlier_method": either(["Sigma", "IQR", "iqr"], ["zscore", "", *EXTREMES]),
    "outlier_columns": COLUMNS,
    "mi_bins": either([1, 2, 10**6], [*EXTREMES, 2.5]),
    "select_k": either([1, 15, None], [16, *EXTREMES]),
    "smote_mode": either(["none", "paper-faithful", "leakage-free", "NONE"], ["bogus", *EXTREMES]),
    "smote": st.one_of(
        st.fixed_dictionaries({}, optional={
            "k_neighbors": either([1, 5, 10**30], [2.5, *EXTREMES]),
            "target_ratio": either([0.5, 1, 5e-324], [1.0000000000000002, *EXTREMES]),
            "seed": either([3], EXTREMES),
            "round_nominal": either([True, False], [0, 1, "yes"]),
            "nominal_columns": either([[], [0], [14]], [[15], [99], [-1], [10**30], [0.5], "0"]),
            "bogus": st.just(1),
        }),
        st.sampled_from(EXTREMES),
    ),
    "algorithms": st.one_of(st.lists(algorithm_entry(), max_size=3),
                            st.sampled_from(["LR", "XX", [42], [{}], *EXTREMES])),
    "cv_k": either([2, 3], [28, 1, 10**30, 2.0, *EXTREMES]),
    "test_fraction": either([0.2, 0.5], [0.999999, 1, float("nan"), *EXTREMES]),
    "input_path": either([FIXTURE], [str(DATA / "absent.csv"), str(DATA / "fixture_config.json"),
                                     *EXTREMES]),
    # no string but one under a file, so no run writes outside its temporary folder
    "output_dir": st.sampled_from(
        [os.path.join(FIXTURE, "out"), *(v for v in EXTREMES if not isinstance(v, str))]),
    "bogus": st.sampled_from(EXTREMES),
}


@st.composite
def schema_doc(draw):
    """The built-in schema as JSON with up to two entries changed (a bad kind,
    bounds or target flag, a renamed or missing column, a non-object), or a
    document that is not a list."""
    doc = [{"name": c.name, "kind": c.kind.value, "target": c.target,
            **({"low": c.low, "high": c.high} if c.low is not None else {})}
           for c in FRAMINGHAM.columns]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(doc) - 1))
        change = draw(st.sampled_from(
            ["kind", "low", "high", "target", "name", "drop", "entry", "document"]))
        if change == "document":
            return draw(st.sampled_from(EXTREMES))
        if not isinstance(doc[i], dict):
            continue
        if change == "kind":
            doc[i]["kind"] = draw(st.sampled_from(["ordinal", "real", "nominal", "foo", *EXTREMES]))
        elif change in ("low", "high", "target"):
            doc[i][change] = draw(st.sampled_from(
                [0, 1, 2, 3, float("nan"), math.inf, 1e308, *EXTREMES]))
        elif change == "name":
            doc[i]["name"] = draw(st.sampled_from(["outcome", "SEX", "", *EXTREMES]))
        elif change == "drop":
            del doc[i]
        else:
            doc[i] = draw(st.sampled_from(EXTREMES))
        if not doc:
            break
    return doc


@settings(max_examples=400)
@given(
    algorithms=st.lists(algorithm_entry(), min_size=1, max_size=2),
    fields=st.lists(st.sampled_from([*FIELDS, "schema_path"]), max_size=2, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({k: FIELDS.get(k, schema_doc()) for k in keys})),
)
def test_any_config_ends_in_a_known_exit_with_one_line(algorithms, fields):
    """One in-process ``chdml run`` on the 60-row fixture with ``cv_k`` 2: the
    algorithms and up to two more fields are drawn, a drawn ``schema_path``
    being the file's content.  ``n_trees`` is drawn at most 3 and
    ``max_iter`` at most 50: their work grows with the value and has no upper
    bound by design.  ``-v`` is never drawn, as logging handlers persist
    across ``main`` calls."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"input_path": FIXTURE, "output_dir": os.path.join(tmp, "out"), "cv_k": 2,
               "algorithms": algorithms, **fields}
        if "schema_path" in fields:
            doc["schema_path"] = os.path.join(tmp, "schema.json")
            Path(doc["schema_path"]).write_text(json.dumps(fields["schema_path"]),
                                                encoding="utf-8")
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(["run", "--config", str(config)])
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    assert not caught, [str(w.message) for w in caught]
    assert len(err.getvalue().splitlines()) == (code != 0), err.getvalue()
