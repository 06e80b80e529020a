#!/usr/bin/env python3
"""Self-test of the benchmark harness, at a tiny problem size.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``
(about half a minute).  Runs every workload once untraced and once traced at
K=3 with two oracle rule classes and checks that the seed's outputs pass,
then corrupts one reference digest per workload and checks that the run
counts the mismatch as a failed check.  Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import sys

import run


def corrupt(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def main() -> int:
    reference = run.load_reference()
    problems = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            rec = run.run_workload(workload, seed=1, seconds=0, trace=trace,
                                   size=run.TINY, reference=reference)
            missing = [m for m in (run.LAYER_UNITS if trace else
                                   ("wall_s", "cpu_s", "items_per_s", "peak_rss_mb", "setup_s"))
                       if m not in rec["metrics"]]
            if rec["failed"] or not rec["attempted"] or missing:
                problems.append(f"{workload} trace {trace}: {rec['failed']} of "
                                f"{rec['attempted']} checks failed, metrics missing "
                                f"{missing}: {rec['failures']}")

        # Corrupt the workload's job digest (every rule's, for the oracle).
        bad = copy.deepcopy(reference)
        if workload == "oracle_k4":
            table, keys = bad["oracle_k4_digests"], list(bad["oracle_k4_digests"])
        else:
            table = bad["stdout_sha256"]
            keys = ["classify_k3" if workload == "chaos_k11" else "hierarchy_k3"]
        for key in keys:
            table[key] = corrupt(table[key])
        rec = run.run_workload(workload, seed=1, seconds=0, trace=0,
                               size=run.TINY, reference=bad)
        if rec["failed"] < 1:
            problems.append(f"{workload}: a corrupted reference digest was not "
                            f"counted as a failure")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
