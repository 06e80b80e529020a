#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every job against.

Usage, from the root of a checkout of the commit whose outputs are the
reference: ``python3 perfbench/record_reference.py``.  Takes about two
minutes on two cores and rewrites ``perfbench/reference.json`` with

* the sha256 of the stdout of each ``eca-emu`` job at the full (K=11, and
  K=10 for the warm cache) and self-test (K=3) sizes;
* for every emulator g in 0..255, the digest the cross-oracle computes over
  its enumerated entries at k = 1..4.  It refuses to record if the oracle
  finds a set mismatch or a failed witness.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from eca_emulation.emulation import (  # noqa: E402
    check_emulation_naive,
    emulated_rules,
    verify_witness,
)
from replay import run_oracle  # noqa: E402
from run import CHAOS_RULES, FULL, PROBE, TINY, WORK, WORKERS  # noqa: E402


def cli_digest(argv: list[str]) -> str:
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("ECA_EMULATION_CACHE", None)
    res = subprocess.run([sys.executable, "-m", "eca_emulation", *argv], env=env,
                         capture_output=True, check=True)
    return hashlib.sha256(res.stdout).hexdigest()


def main() -> int:
    digests = {"rule_info_110": cli_digest(PROBE)}
    os.makedirs(WORK, exist_ok=True)
    for K in sorted({FULL["kmax"], FULL["warm_kmax"], TINY["kmax"]}):
        with tempfile.TemporaryDirectory(dir=WORK) as cache:
            digests[f"hierarchy_k{K}"] = cli_digest(
                ["hierarchy", "--kmax", str(K), "--workers", str(WORKERS), "--json",
                 "--cache-dir", cache])
        digests[f"classify_k{K}"] = cli_digest(
            ["classify", "--kmax", str(K), "--rules", *CHAOS_RULES])
    oracle = run_oracle(range(256), FULL["oracle_kmax"], 0, emulated_rules,
                        check_emulation_naive, verify_witness)
    if oracle["mismatched_cells"] or oracle["failed_witnesses"]:
        print(f"error: the cross-oracle fails: {oracle['mismatched_cells']}, "
              f"{oracle['failed_witnesses']} failed witnesses", file=sys.stderr)
        return 1
    reference = {"stdout_sha256": digests, "oracle_k4_digests": oracle["digests"],
                 "oracle_k4_witnesses": oracle["witnesses"]}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
