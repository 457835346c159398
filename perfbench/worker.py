"""One measured call of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py WORKLOAD MODE RUN RESULT.json``, run with
the scratch directory holding ``cohort.csv`` as working directory and the
checkout's ``src`` first on ``PYTHONPATH``.  MODE is ``setup`` (import
and configure only), ``run`` (also make the timed call) or ``trace``
(make it with every layer wrapped, and write the spans next to the
result, tagged with RUN, the call's number within the benchmark run).
The result is one JSON object; a failed call records its error instead
of raising, so the caller can count it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import resource
import shutil
import sys
import time

from workloads import OUTPUT, WORKLOADS, Workload


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def digests(workload: Workload, out_dir: str) -> dict[str, str]:
    """SHA-256 of each of the workload's report files."""
    missing = [n for n in workload.reports if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        raise FileNotFoundError("report files not written: " + ", ".join(missing))
    result = {}
    for name in workload.reports:
        with open(os.path.join(out_dir, name), "rb") as handle:
            result[name] = hashlib.sha256(handle.read()).hexdigest()
    return result


def summary(workload: Workload, out_dir: str) -> dict:
    """The numbers a reader checks for drift, read back from the reports."""
    if workload.entry == "cli":
        with open(os.path.join(out_dir, "class_balance.json"), encoding="utf-8") as f:
            balance = json.load(f)
        return {"rows_raw": sum(balance["raw"]), "rows_clean": sum(balance["clean"])}
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as f:
        report = json.load(f)
    return {
        "rows_raw": report["rows"]["loaded"],
        "rows_clean": report["rows"]["after_outlier_removal"],
        "jobs": sum(len(s["fold_aucs"]) + 1 for arm in report["cv"].values()
                    for s in arm.values()),
        "auc": {arm: {algo: [s["mean"], report["holdout"][arm][algo]]
                      for algo, s in by_algo.items()}
                for arm, by_algo in report["cv"].items()},
    }


def main(argv: list[str]) -> int:
    name, mode, run, result_path = argv
    workload = WORKLOADS[name]
    result: dict = {"mode": mode}

    started = time.perf_counter()
    import chdml
    from chdml.pipeline import PipelineConfig

    if workload.entry == "cli":
        import chdml.cli

    config = PipelineConfig.from_dict(workload.raw_config())
    config.validate_columns(config.load_schema())
    result["setup_s"] = time.perf_counter() - started
    result["chdml_file"] = chdml.__file__

    if mode != "setup":
        shutil.rmtree(OUTPUT, ignore_errors=True)
        with contextlib.ExitStack() as stack:
            call = functools.partial(_call, workload, config)
            if mode == "trace":
                import spans

                tracer = spans.Tracer(int(run))
                stack.callback(_write_spans, tracer, result_path + ".spans")
                stack.enter_context(spans.instrument(tracer))
                call = functools.partial(_traced, tracer, call)
            try:
                cpu0, t0 = _cpu(), time.perf_counter()
                call()
                result["run_s"] = time.perf_counter() - t0
                result["cpu_s"] = _cpu() - cpu0
                result["peak_rss_mb"] = _peak_rss_mb()
                result["digests"] = digests(workload, OUTPUT)
                result["summary"] = summary(workload, OUTPUT)
            except Exception as exc:  # counted as a failed call by the caller
                result["error"] = f"{type(exc).__name__}: {exc}"

    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


def _traced(tracer, call) -> None:
    with tracer.span("bench.call"):
        call()


def _write_spans(tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(tracer.export(), f)


def _call(workload: Workload, config) -> None:
    """The timed call, through the package's public entry points."""
    if workload.entry == "pipeline":
        import chdml.pipeline

        chdml.pipeline.run_pipeline(config)
        return
    import chdml.cli

    for command in workload.commands:
        code = chdml.cli.main(workload.argv(command))
        if code != 0:
            raise RuntimeError(f"chdml {command} exited with code {code}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
