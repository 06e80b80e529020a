"""Child process of the benchmark: one job run inside this interpreter.

Usage: ``python3 perfbench/replay.py '<spec JSON>'`` with ``src/`` on
PYTHONPATH.  The spec has the keys

* ``cli``: an ``eca-emu`` argument list, replayed through
  ``eca_emulation.cli.main`` so that stdout is the CLI's own; or null,
* ``oracle``: ``{"seed": S, "classes": N, "kmax": K}`` for the criterion-3
  cross-oracle over one seeded member of each of the first N rule classes
  (null: all 88), whose summary is printed as one JSON line,
* ``trace``: 1 to wrap the layer boundaries with ``tracer.Tracer``,
* ``out``: where to write ``replay_s`` and, when traced, the spans, the
  size of the shard cache and ``enum_peak_bytes``: the tracemalloc peak of
  the slowest enumeration call, run again on its own after the replay so
  that tracemalloc does not slow the timed spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time

from tracer import Tracer


def oracle_classes() -> list[list[int]]:
    """The 88 classes of rules under mirror and dual, each sorted.

    Conjugate rules emulate conjugate rules with as many closed pairs, so
    one member of every class is the whole rule space up to symmetry, and
    a sample has as many cells and witnesses whichever members it holds.
    """
    from eca_emulation.rules import dual, mirror, rule_from_wolfram

    seen: set[int] = set()
    classes = []
    for n in range(256):
        if n in seen:
            continue
        r = rule_from_wolfram(n)
        members = sorted({n, mirror(r).wolfram, dual(r).wolfram, mirror(dual(r)).wolfram})
        seen.update(members)
        classes.append(members)
    return classes


def oracle_rules(seed: int, classes: int | None) -> list[int]:
    rng = random.Random(seed)
    return [rng.choice(members) for members in oracle_classes()[:classes]]


def run_oracle(rules, kmax, verify_seed, enum, naive, verify) -> dict:
    """Criterion 3 on the given emulators: for every cell (g, k), the naive
    scan over all 256 f and the subalgebra enumeration must find the same
    rules with the same scan-order-minimal witness, and every enumerated
    witness must re-verify on random words.  The per-rule digest covers
    every enumerated entry, so it pins the full listing."""
    from eca_emulation.emulation import EmulationWitness
    from eca_emulation.rules import rule_from_wolfram as R

    mismatched, failed, witnesses, digests = [], 0, 0, {}
    for g in rules:
        h = hashlib.sha256()
        for k in range(1, kmax + 1):
            listing = enum(R(g), k)
            first: dict[int, tuple[int, int]] = {}
            for f, enc in listing:
                first.setdefault(f.wolfram, (enc.enc0.bits, enc.enc1.bits))
                h.update(f"{k},{f.wolfram},{enc.enc0.bits},{enc.enc1.bits};".encode())
            found = {}
            for f in range(256):
                enc = naive(R(f), R(g), k)
                if enc is not None:
                    found[f] = (enc.enc0.bits, enc.enc1.bits)
            if found != first:
                mismatched.append([g, k])
            for f, enc in listing:
                witnesses += 1
                if not verify(EmulationWitness(f, R(g), k, enc), 30, 5,
                              samples=100, seed=verify_seed):
                    failed += 1
        digests[str(g)] = h.hexdigest()[:16]
    return {"rules": list(rules), "cells": len(rules) * kmax, "witnesses": witnesses,
            "mismatched_cells": mismatched, "failed_witnesses": failed, "digests": digests}


def install(tracer: Tracer) -> None:
    """Wrap the names each module imports from the next."""
    from eca_emulation import cli, emulation, hierarchy

    emulation._unravel_batch = tracer.leaf("supercell.batch", emulation._unravel_batch,
                                           work=lambda a: a[1].size)
    emulation._unravel_bits = tracer.leaf("supercell.scalar", emulation._unravel_bits,
                                          every=16)
    emulation._gk_table_list = tracer.leaf("supercell.table", emulation._gk_table_list)
    hierarchy.emulated_rule_map = tracer.span(
        "emulation.enum", hierarchy.emulated_rule_map, lambda r, a: len(r))
    hierarchy.proper_subalgebra_search = tracer.span(
        "emulation.closure", hierarchy.proper_subalgebra_search, lambda r, a: r is not None)

    hierarchy._load_shard = tracer.span(
        "hierarchy.shard_read", hierarchy._load_shard, lambda r, a: r is not None)
    hierarchy._store_shard = tracer.span("hierarchy.shard_write", hierarchy._store_shard)
    cli.compute_hierarchy = tracer.span("hierarchy.compute", cli.compute_hierarchy)
    cli.classify = tracer.span("hierarchy.classify", cli.classify)
    cli.export = tracer.span("hierarchy.export", cli.export)


def cache_bytes(argv: list[str] | None) -> int:
    """Size of the shard cache a CLI job used: every shard is written by a
    cold run and read by a warm one."""
    if not argv or "--cache-dir" not in argv:
        return 0
    cache = argv[argv.index("--cache-dir") + 1]
    return sum(e.stat().st_size for e in os.scandir(cache) if e.name.endswith(".json"))


def main() -> int:
    from eca_emulation.cli import main as cli_main
    from eca_emulation.emulation import check_emulation_naive, emulated_rules, verify_witness

    spec = json.loads(sys.argv[1])
    enum, naive, verify = emulated_rules, check_emulation_naive, verify_witness
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        install(tracer)
        enum = tracer.span("emulation.enum", enum, lambda r, a: len(r))
        naive = tracer.span("emulation.naive", naive, lambda r, a: r is not None)
        verify = tracer.span("emulation.verify", verify, lambda r, a: bool(r))
    t0 = time.perf_counter()
    if spec["cli"] is not None:
        code = cli_main(spec["cli"])
    else:
        o = spec["oracle"]
        summary = run_oracle(oracle_rules(o["seed"], o["classes"]), o["kmax"], o["seed"],
                             enum, naive, verify)
        sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
        code = 0
    record = {"replay_s": time.perf_counter() - t0}
    if tracer is not None:
        record.update(tracer.dump(), enum_peak_bytes=tracer.peak_bytes("emulation.enum"),
                      shard_bytes=cache_bytes(spec["cli"]))
    with open(spec["out"], "w", encoding="ascii") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
