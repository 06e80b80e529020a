#!/usr/bin/env python3
"""Benchmark of the eca-emulation toolkit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job runs in a child process built from the checkout's own ``src/``
and is waited for with ``os.wait4``, so its wall time, CPU time and peak
RSS belong to that job alone (pool workers included: the child reaps
them).  One process generates all load, in a closed loop: the next job
starts when the previous one has ended, until ``--seconds`` have passed; a
job is never cut, so a job longer than that makes a run of one job.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics of one serial traced replay (see
README.md).  Every job's output is checked; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files go to ``.bench_build/perfbench`` inside the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

from tracer import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("hierarchy_k11", "chaos_k11", "oracle_k4", "warm_k10")
CHAOS_RULES = ("30", "45", "86", "89")
PROBE = ["rule", "info", "110"]
PROBES = 5    # start-up probes per run; setup_s and cli.startup_s take their median
WORKERS = 2   # pool size of the parallel jobs; the machine has 2 cores
REPS = 136    # duality-class representatives, one hierarchy cell per size each
DEADLINE_S = 170.0  # a run kills what is still running after this long

# Problem sizes.  FULL is what the benchmark measures; TINY is for the
# harness self-test.  ``classes`` None means all 88 oracle rule classes.
# The warm cache stops at K=10: filling it is set-up that every warm run
# pays, and K=10 costs a third of K=11 while reading 91% of the shards.
FULL = {"kmax": 11, "warm_kmax": 10, "oracle_kmax": 4, "classes": None}
TINY = {"kmax": 3, "warm_kmax": 3, "oracle_kmax": 4, "classes": 2}


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="ascii") as fh:
        return json.load(fh)


@dataclass
class Job:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    ok: bool = False
    items: int = 0
    replay: dict | None = None


class Run:
    """One benchmark run: its scratch directory, deadline and check tally."""

    def __init__(self, workload: str, seed: int, size: dict, reference: dict):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.reference = reference
        self.deadline = time.perf_counter() + DEADLINE_S
        os.makedirs(WORK, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._n = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def path(self, stem: str) -> str:
        self._n += 1
        return os.path.join(self.tmp, f"{self._n:04d}-{stem}")

    def tally(self, checks: int, failed: int, what: str) -> bool:
        """Count ``checks`` checks of which ``failed`` failed; True if none."""
        self.attempted += checks
        self.failed += failed
        if failed:
            self.failures.append(what)
        return not failed

    def check(self, ok: bool, what: str) -> bool:
        return self.tally(1, 0 if ok else 1, what)

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["TMPDIR"] = self.tmp
        env.pop("ECA_EMULATION_CACHE", None)  # the CLI would read a shared cache from it
        return env

    def spawn(self, cmd: list[str]) -> Job:
        """Run one child to its end; its rusage comes from os.wait4."""
        out_path, err_path = self.path("stdout"), self.path("stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env(),
                                    cwd=ROOT, start_new_session=True)
            timer = threading.Timer(max(1.0, self.deadline - t0), os.killpg,
                                    (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Job(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                   ru.ru_maxrss / 1024.0, stdout, stderr)

    # -- the jobs ---------------------------------------------------------

    def check_stdout(self, job: Job, expect: str, what: str) -> None:
        """The job must exit 0 and print exactly the reference output."""
        digest = hashlib.sha256(job.stdout).hexdigest()
        job.ok = self.check(job.code == 0 and digest == self.reference["stdout_sha256"][expect],
                            f"{what}: exit {job.code}, stdout sha256 {digest[:12]}, "
                            f"stderr {job.stderr[-300:]!r}")

    def cli_job(self, argv: list[str], expect: str, items: int) -> Job:
        job = self.spawn([sys.executable, "-m", "eca_emulation", *argv])
        self.check_stdout(job, expect, f"eca-emu {' '.join(argv)}")
        job.items = items
        return job

    def replay(self, spec: dict) -> Job:
        out = self.path("replay.json")
        job = self.spawn([sys.executable, os.path.join(HERE, "replay.py"),
                          json.dumps({**spec, "out": out})])
        if job.code == 0:
            with open(out, encoding="ascii") as fh:
                job.replay = json.load(fh)
        return job

    def oracle_job(self, trace: int = 0) -> Job:
        spec = {"cli": None, "trace": trace,
                "oracle": {"seed": self.seed, "classes": self.size["classes"],
                           "kmax": self.size["oracle_kmax"]}}
        job = self.replay(spec)
        if not self.check(job.code == 0, f"oracle: exit {job.code}, "
                                         f"stderr {job.stderr[-300:]!r}"):
            return job
        # One check per cell (same rules, same minimal witness), per rule
        # (listing digest) and per witness (verify_witness).
        s = json.loads(job.stdout)
        ref = self.reference["oracle_k4_digests"]
        bad_rules = [g for g, d in s["digests"].items() if ref[g] != d]
        job.ok = self.tally(s["cells"] + len(s["digests"]) + s["witnesses"],
                            len(s["mismatched_cells"]) + len(bad_rules) + s["failed_witnesses"],
                            f"oracle: set mismatches {s['mismatched_cells']}, "
                            f"digest mismatches {bad_rules}, "
                            f"failed witnesses {s['failed_witnesses']}")
        job.items = s["witnesses"]
        return job

    def argv(self, workers: int, cache: str | None) -> tuple[list[str], str, int]:
        """The workload's eca-emu arguments, reference key and item count."""
        K = self.size["warm_kmax" if self.workload == "warm_k10" else "kmax"]
        if self.workload == "chaos_k11":
            return (["classify", "--kmax", str(K), "--rules", *CHAOS_RULES,
                     "--workers", str(workers)], f"classify_k{K}", len(CHAOS_RULES) * (K - 1))
        return (["hierarchy", "--kmax", str(K), "--workers", str(workers), "--json",
                 "--cache-dir", cache], f"hierarchy_k{K}", REPS * K)

    def job(self, warm_cache: str | None) -> Job:
        """One timed job of the workload."""
        if self.workload == "oracle_k4":
            return self.oracle_job()
        if self.workload == "warm_k10":
            return self.cli_job(*self.argv(1, warm_cache))
        cache = tempfile.mkdtemp(prefix="cache-", dir=self.tmp)
        try:
            return self.cli_job(*self.argv(WORKERS, cache))
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def workers(self) -> int:
        return WORKERS if self.workload in ("hierarchy_k11", "chaos_k11") else 1

    def setup(self) -> tuple[float, float, str | None]:
        """Start-up probes, and for warm_k10 the cache the code under test
        fills.  Returns (setup_s, median probe wall, warm cache dir)."""
        probes = [self.cli_job(PROBE, "rule_info_110", 1) for _ in range(PROBES)]
        startup = statistics.median(p.wall for p in probes)
        if self.workload != "warm_k10":
            return startup, startup, None
        cache = tempfile.mkdtemp(prefix="warm-", dir=self.tmp)
        fill = self.cli_job(*self.argv(WORKERS, cache))
        return startup + fill.wall, startup, cache


def timed(run: Run, seconds: float) -> tuple[dict, int]:
    setup_s, _, cache = run.setup()
    jobs: list[Job] = []
    t0 = time.perf_counter()
    while not jobs or time.perf_counter() - t0 < seconds:
        jobs.append(run.job(cache))
    good = [j for j in jobs if j.ok] or jobs  # a failed job is never timed as a success
    return {
        "wall_s": (statistics.median(j.wall for j in good), "s"),
        "cpu_s": (statistics.median(j.cpu for j in good), "s"),
        "items_per_s": (statistics.median(j.items / j.wall for j in good), "1/s"),
        "peak_rss_mb": (max(j.rss_mb for j in good), "MB"),
        "setup_s": (setup_s, "s"),
    }, len(jobs)


# Units of the per-layer metrics; layer_metrics() gives all but the last five.
LAYER_UNITS = {
    "supercell.batch_calls": "count", "supercell.batch_words": "count",
    "supercell.batch_s": "s", "supercell.batch_words_per_s": "1/s",
    "supercell.scalar_calls": "count", "supercell.scalar_s": "s",
    "supercell.table_calls": "count", "supercell.table_s": "s",
    "emulation.enum_calls": "count", "emulation.enum_s": "s",
    "emulation.enum_p50_ms": "ms", "emulation.enum_p99_ms": "ms",
    "emulation.enum_max_ms": "ms", "emulation.enum_entries": "count",
    "emulation.enum_peak_mb": "MB",
    "emulation.closure_calls": "count", "emulation.closure_s": "s",
    "emulation.closure_p50_ms": "ms", "emulation.closure_max_ms": "ms",
    "emulation.closure_found_ratio": "ratio",
    "emulation.verify_calls": "count", "emulation.verify_s": "s",
    "emulation.verify_p50_ms": "ms", "emulation.verify_p99_ms": "ms",
    "emulation.verify_failed": "count",
    "emulation.naive_calls": "count", "emulation.naive_s": "s",
    "emulation.naive_hit_ratio": "ratio",
    "hierarchy.self_s": "s", "hierarchy.shards_read": "count",
    "hierarchy.shards_written": "count", "hierarchy.shard_bytes": "B",
    "hierarchy.shard_read_s": "s", "hierarchy.shard_write_s": "s",
    "hierarchy.export_s": "s", "hierarchy.classify_self_s": "s",
    "hierarchy.idle_core_s": "s", "cli.startup_s": "s",
    "trace.replay_s": "s", "trace.untraced_replay_s": "s", "trace.overhead_pct": "%",
}


def traced(run: Run) -> tuple[dict, int]:
    """Per-layer metrics: an untraced job as timed (for idle cores), then a
    serial traced replay, and an untraced serial replay for the overhead."""
    _, startup, cache = run.setup()
    plain = run.job(cache)
    idle = run.workers() * plain.wall - plain.cpu
    if run.workload == "oracle_k4":
        trace_job = run.oracle_job(trace=1)
        base_job = plain
    else:
        fresh = None
        if run.workload == "hierarchy_k11":
            fresh = tempfile.mkdtemp(prefix="cache-", dir=run.tmp)
        argv, expect, _ = run.argv(1, cache or fresh)
        jobs = []
        for trace in (1, 0):
            job = run.replay({"cli": argv, "trace": trace, "oracle": None})
            run.check_stdout(job, expect, f"replay {' '.join(argv)} trace {trace}")
            jobs.append(job)
            if fresh is not None:  # the untraced replay starts from an empty cache too
                shutil.rmtree(fresh, ignore_errors=True)
                os.makedirs(fresh)
        trace_job, base_job = jobs
    n_jobs = 2 if base_job is plain else 3
    if trace_job.replay is None or base_job.replay is None:
        return {name: (0.0, unit) for name, unit in LAYER_UNITS.items()}, n_jobs
    with open(os.path.join(WORK, f"trace-{run.workload}.json"), "w", encoding="ascii") as fh:
        json.dump(trace_job.replay, fh)
    metrics = layer_metrics(trace_job.replay)
    metrics["hierarchy.idle_core_s"] = idle
    metrics["cli.startup_s"] = startup
    traced_s, base_s = trace_job.replay["replay_s"], base_job.replay["replay_s"]
    metrics["trace.replay_s"] = traced_s
    metrics["trace.untraced_replay_s"] = base_s
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - base_s) / base_s
    return {name: (metrics[name], unit) for name, unit in LAYER_UNITS.items()}, n_jobs


def steal_ticks() -> int:
    """Clock ticks the hypervisor gave the machine's CPUs to other guests."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def provenance(loadavg_start: tuple, steal_start: int) -> dict:
    git_rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env={**os.environ, "GIT_DIR": os.path.join(ROOT, ".git")})
        git_rev = res.stdout.strip() or None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "eca_emulation")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "git_rev": git_rev,
            "src_sha256": h.hexdigest(), "loadavg_start": loadavg_start,
            "loadavg_end": os.getloadavg(),
            "steal_s": (steal_ticks() - steal_start) / os.sysconf("SC_CLK_TCK")}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: dict = FULL, reference: dict | None = None) -> dict:
    """One benchmark run; returns its full record."""
    loadavg, steal = os.getloadavg(), steal_ticks()
    run = Run(workload, seed, size, load_reference() if reference is None else reference)
    try:
        metrics, jobs = traced(run) if trace else timed(run, seconds)
    finally:
        run.close()
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "jobs": jobs, "metrics": metrics, "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures, "provenance": provenance(loadavg, steal),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "eca_emulation", "__init__.py")):
        print(f"error: no eca_emulation sources under {SRC}", file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {record['jobs']} job(s)")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    for metric, (value, unit) in record["metrics"].items():
        print(f"{metric} {value:.6g} {unit}")
    print(f"error_rate {record['failed'] / record['attempted']:.6g} ratio "
          f"({record['failed']} failed of {record['attempted']} checks)")
    print(f"# provenance {json.dumps(record['provenance'])}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
