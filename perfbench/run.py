"""Benchmark of the chdml experiment loop.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-default --seed 3 --seconds 30 --trace 0

The cohort is generated from ``--seed`` (see ``cohort.py``); the program
only sees the CSV.  Every call runs in a fresh interpreter (``worker.py``)
so that set-up time and peak memory belong to that call alone.  With
``--trace 0`` the benchmark repeats the untraced call until ``--seconds``
are spent and reports medians of the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced calls and reports the
per-layer metrics of ``spans.py``.  A call fails when it raises, exits
non-zero, or writes report files whose SHA-256 differs from the digest
pinned in ``pins.json`` for this workload and seed (for a seed that has
no pin, from the first call of the run).  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import cohort
import spans
from workloads import INPUT, WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")
WORK = ".perfbench-work"
#: Least number of fresh interpreters whose import-and-configure time
#: gives ``setup_s``.
SETUP_SAMPLES = 7
#: Every run ends well inside the 180 s a run may take.
DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Session:
    """One benchmark run: a scratch directory with the cohort, and the
    calls made on it."""

    def __init__(self, root: str, workload: Workload, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.started = time.perf_counter()
        self.dir = os.path.join(root, WORK, f"{workload.name}-{seed}-{os.getpid()}")
        os.makedirs(self.dir)
        cohort.write(os.path.join(self.dir, INPUT), workload.rows, seed)
        self.count = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(self.root, WORK))
        except OSError:
            pass  # another run still uses it

    def call(self, mode: str) -> dict:
        """Spawn one worker and return its result; errors become a result
        with an ``error`` entry."""
        self.count += 1
        out = os.path.join(self.dir, f"result-{self.count}.json")
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        budget = DEADLINE_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 self.workload.name, mode, str(self.count), out],
                cwd=self.dir, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=max(budget, 1.0),
            )
        except subprocess.TimeoutExpired:
            return {"error": f"worker timed out after {budget:.0f} s"}
        if proc.returncode != 0 or not os.path.exists(out):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"worker exited with code {proc.returncode}: {tail[0]}"}
        with open(out, encoding="utf-8") as f:
            result = json.load(f)
        if not result["chdml_file"].startswith(src + os.sep):
            result["error"] = f"imported chdml from {result['chdml_file']}, not {src}"
        if mode == "trace" and "error" not in result:
            with open(out + ".spans", encoding="utf-8") as f:
                result["layers"] = spans.layer_metrics(json.load(f))
        return result


def check(result: dict, workload: Workload, reference: dict | None) -> str | None:
    """Why a call's outputs are wrong, or None when they are right."""
    if "error" in result:
        return result["error"]
    if reference is not None and result["digests"] != reference:
        changed = sorted(set(result["digests"].items()) ^ set(reference.items()))
        return "report files differ from the reference digests: " + ", ".join(
            sorted({name for name, _ in changed}))
    if result["summary"]["rows_raw"] != workload.rows:
        return f"read {result['summary']['rows_raw']} rows of a {workload.rows}-row cohort"
    for by_algo in result["summary"].get("auc", {}).values():
        if not all(0.0 <= v <= 1.0 for pair in by_algo.values() for v in pair):
            return "an AUC lies outside [0, 1]"
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


def load_pins() -> dict:
    """``pins.json``: ``env`` and, per workload and seed, ``digests``."""
    if not os.path.exists(PINS):
        return {}
    with open(PINS, encoding="utf-8") as f:
        return json.load(f)


class Checker:
    """Counts calls and failures against the pinned digests."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        pins = load_pins()
        pin = pins.get("workloads", {}).get(workload.name, {}).get(str(seed))
        self.pinned = pin is not None
        self.reference = pin["digests"] if pin else None
        #: Where this environment differs from the one the pins were taken in.
        self.env_drift = _differences(pins.get("env", {}), environment()) if pin else []
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, result: dict) -> None:
        self.attempted += 1
        problem = check(result, self.workload, self.reference)
        if problem is not None:
            if self.pinned and self.env_drift and "digests" in result:
                problem += ("; the pins were taken in another environment ("
                            + "; ".join(self.env_drift) + ")")
            self.failures.append(problem)
        elif self.reference is None:
            self.reference = result["digests"]


def _differences(pinned: dict, current: dict) -> list[str]:
    return [f"{key} {pinned.get(key)!r} there, {current.get(key)!r} here"
            for key in sorted(set(pinned) | set(current))
            if pinned.get(key) != current.get(key)]


def _more(start: float, seconds: float, durations: list[float]) -> bool:
    """Whether another call fits: the window ends, on average, at ``seconds``."""
    if not durations:
        return True
    return time.perf_counter() - start + statistics.median(durations) / 2 < seconds


def measure(session: Session, seconds: float, checker: Checker) -> tuple[list, list]:
    """Untraced calls for ``seconds``; then set-up-only calls until there
    are :data:`SETUP_SAMPLES` set-up times, those of the calls included."""
    calls, durations = [], []
    start = time.perf_counter()
    while _more(start, seconds, durations):
        t0 = time.perf_counter()
        result = session.call("run")
        durations.append(time.perf_counter() - t0)
        checker(result)
        if "error" not in result:  # timed, even when its reports are wrong
            calls.append(result)
    setups = [session.call("setup") for _ in range(SETUP_SAMPLES - len(calls))]
    return calls, calls + [s for s in setups if "error" not in s]


def trace(session: Session, seconds: float, checker: Checker) -> tuple[list, list]:
    """Pairs of an untraced and a traced call for ``seconds``."""
    plain, traced, durations = [], [], []
    start = time.perf_counter()
    while _more(start, seconds, durations):
        t0 = time.perf_counter()
        a, b = session.call("run"), session.call("trace")
        durations.append(time.perf_counter() - t0)
        # both are checked against one reference, so tracing that changes
        # the reports counts as a failure
        checker(a)
        checker(b)
        if "error" not in a and "error" not in b:
            plain.append(a)
            traced.append(b)
    return plain, traced


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def end_to_end(session: Session, seconds: float, checker: Checker) -> dict:
    calls, setups = measure(session, seconds, checker)
    if not calls or not setups:
        return {}
    run_s = _median(calls, "run_s")
    summary = calls[0]["summary"]
    metrics = {
        "setup_s": (_median(setups, "setup_s"), "s"),
        "run_s": (run_s, "s"),
        "cpu_s": (_median(calls, "cpu_s"), "s"),
        "peak_rss_mb": (_median(calls, "peak_rss_mb"), "MB"),
    }
    print(f"calls: {len(calls)} timed, {len(setups) - len(calls)} set-up only: run_s "
          + " ".join(f"{c['run_s']:.3f}" for c in calls))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:12.4f} {unit}")
    # Printed for reading; not in the JSON because they are 0 or
    # undefined on some workloads, or restate run_s on a fixed input.
    jobs = summary.get("jobs")
    rows = (2 * summary["rows_raw"] + summary["rows_clean"]
            if session.workload.entry == "cli" else None)
    print(f"  {'jobs_per_s':<12} " + (f"{jobs / run_s:12.4f} 1/s ({jobs} jobs)"
                                       if jobs else "         n/a"))
    print(f"  {'rows_per_s':<12} " + (f"{rows / run_s:12.1f} rows/s ({rows} rows)"
                                       if rows else "         n/a"))
    print_summary(summary)
    return metrics


def per_layer(session: Session, seconds: float, checker: Checker) -> dict:
    plain, traced = trace(session, seconds, checker)
    if not traced:
        return {}
    names = traced[0]["layers"]
    metrics = {
        name: (statistics.median(t["layers"][name][0] for t in traced),
               names[name][1])
        for name in names
    }
    metrics["trace.overhead_frac"] = (
        _median(traced, "run_s") / _median(plain, "run_s") - 1.0, "share")
    print(f"pairs: {len(traced)} of an untraced and a traced call")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:16.6g} {unit}")
    print_summary(traced[0]["summary"])
    return metrics


def print_summary(summary: dict) -> None:
    print(f"rows: {summary['rows_raw']} read, {summary['rows_clean']} after cleaning")
    for arm, by_algo in summary.get("auc", {}).items():
        cells = "  ".join(f"{a} {cv:.6f}/{ho:.6f}" for a, (cv, ho) in by_algo.items())
        print(f"auc[{arm}] cv-mean/holdout: {cells}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="chdml benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chdml", "__init__.py")):
        print(f"no chdml sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    checker = Checker(workload, args.seed)
    session = Session(root, workload, args.seed)
    try:
        print(f"workload {workload.name}, seed {args.seed}, cohort {workload.rows} rows, "
              f"trace {args.trace}")
        step = per_layer if args.trace else end_to_end
        metrics = step(session, args.seconds, checker)
    finally:
        session.close()

    failed = len(checker.failures)
    print(f"failed_frac {failed / max(checker.attempted, 1):.4f} share "
          f"({failed} of {checker.attempted} calls)")
    for problem in checker.failures:
        print(f"failed: {problem}")
    print("digests: " + ("checked against the pin" if checker.pinned
                         else "no pin for this seed; checked for identical reruns"))
    if checker.env_drift:
        print("env differs from the pins': " + "; ".join(checker.env_drift))
    print("env: " + json.dumps(environment(), sort_keys=True))
    if not metrics:
        print("no call completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
