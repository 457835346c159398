"""Pin the report digests of every workload for a range of seeds.

Run from the repository root on a commit whose reports are known good::

    python3 perfbench/pin.py 0 31

It makes one untraced call per (workload, seed) and writes
``perfbench/pins.json``: the SHA-256 of each report file, the CV means and
hold-out AUCs for reading drift, and the environment they were taken in.
Report bytes depend on numpy and the BLAS, so pins are only comparable on
the environment recorded with them.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    first, last = map(int, argv)
    root = os.getcwd()
    pins: dict = {}
    for workload in WORKLOADS.values():
        pins[workload.name] = {}
        for seed in range(first, last + 1):
            session = run.Session(root, workload, seed)
            try:
                result = session.call("run")
            finally:
                session.close()
            problem = run.check(result, workload, None)
            if problem is not None:
                print(f"{workload.name} seed {seed}: {problem}", file=sys.stderr)
                return 1
            pins[workload.name][str(seed)] = {
                "digests": result["digests"], "summary": result["summary"]}
            print(f"{workload.name} seed {seed}: pinned", flush=True)
    with open(run.PINS, "w", encoding="utf-8") as f:
        json.dump({"env": run.environment(), "workloads": pins}, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
