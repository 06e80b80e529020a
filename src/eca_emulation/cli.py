"""Command-line front end.

Exit codes make the tool scriptable as a decision procedure: 0 success,
1 relation absent / witness invalid, 2 anything else: usage errors,
malformed input, a crashed worker or a memory failure.
Identical arguments and seed produce byte-identical outputs regardless of
--workers.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from .emulation import (
    EmulationWitness,
    check_emulation_naive,
    emulated_rules,
    proper_subalgebra_search,
    verify_witness,
)
from .hierarchy import (_MAX_WORKERS, _read_json, classify, compute_hierarchy, export,
                        transitive_reduction)
from .render import render_diagram, write_pbm
from .rules import MAX_K, dual, is_affine, is_linear, mirror, rule_from_wolfram
from .words import Word

# verify accepts a composition of two witnesses of CLI sizes and no larger:
# holds() and verify_witness cost ~k^2 (14 s at k = 4,000 on a 2-core VM).
_MAX_WITNESS_K = MAX_K ** 2

# Upper bounds on the options that size memory (--workers takes its bound,
# _MAX_WORKERS, from hierarchy, which checks it too).  A diagram of
# 2^24 cells is 32 MiB of P1 text, and each of its rows costs ~60 bytes of
# objects besides its cells, so the rows are bounded too: 2^16 rows peaked
# at 106 MB of RSS (256 cells, P1), 51 MB (256 cells, P4) and 39 MB (3
# cells).  A verify sample of 100,000 cells is 5 MB per copy of its
# encoding at the verify limit k = 400.
_MAX_DIAGRAM_CELLS = 1 << 24
_MAX_STEPS = (1 << 16) - 1
_MAX_VERIFY_LENGTH = 100_000


def _int_in(lo: int, hi: int):
    """The argparse type of an integer in lo..hi, checked before any work."""
    def integer(text: str) -> int:
        n = int(text)
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"{n} not in {lo}..{hi}")
        return n
    return integer


def _sweep(args):
    """compute_hierarchy on the options that hierarchy and classify share."""
    return compute_hierarchy(args.kmax, reps=args.rules, workers=args.workers,
                             cache_dir=args.cache_dir)


def _emit(data: bytes, path: str | None) -> None:
    if path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def cmd_rule_info(args) -> int:
    r = rule_from_wolfram(args.number)
    print(f"rule {r.wolfram}")
    for i in reversed(range(8)):
        print(f"  {(i >> 2) & 1}{(i >> 1) & 1}{i & 1} -> {r.table[i]}")
    print(f"dual:          {dual(r).wolfram}")
    print(f"mirror:        {mirror(r).wolfram}")
    print(f"mirror(dual):  {mirror(dual(r)).wolfram}")
    print(f"linear:        {is_linear(r)}")
    print(f"affine:        {is_affine(r)}")
    return 0


def cmd_simulate(args) -> int:
    r = rule_from_wolfram(args.rule)
    width = args.width if args.init is None else len(args.init)
    if width * (args.steps + 1) > _MAX_DIAGRAM_CELLS:
        raise ValueError(f"{width} x {args.steps + 1} diagram cells exceed {_MAX_DIAGRAM_CELLS}")
    if args.init is not None:
        cells = Word.from_text(args.init)
    else:
        rng = random.Random(args.seed)
        cells = Word(rng.getrandbits(args.width), args.width)
    diagram = render_diagram(r, cells, args.steps)
    _emit(write_pbm(diagram, binary=args.binary), args.output)
    return 0


def cmd_emulate(args) -> int:
    f = rule_from_wolfram(args.f)
    g = rule_from_wolfram(args.g)
    enc = check_emulation_naive(f, g, args.k)
    if enc is None:
        print("cannot emulate")
        return 1
    witness = EmulationWitness(f, g, args.k, enc)
    data = (json.dumps(witness.to_json_dict(), sort_keys=True) + "\n").encode()
    if args.output is not None:  # written first, so a path that fails leaves stdout empty
        _emit(data, args.output)
    _emit(data, None)
    return 0


def cmd_subalgebras(args) -> int:
    g = rule_from_wolfram(args.g)
    for f, enc in emulated_rules(g, args.k):
        print(f"f={f.wolfram} enc0={enc.enc0.text} enc1={enc.enc1.text}")
    return 0


def cmd_hierarchy(args) -> int:
    graph = _sweep(args)
    if args.reduce:
        graph = transitive_reduction(graph)
    _emit(export(graph, args.format), args.output)
    return 0


def cmd_classify(args) -> int:
    report = classify(_sweep(args))
    _emit((json.dumps(report.to_json_dict(), indent=1, sort_keys=True) + "\n").encode(),
          args.output)
    return 0


def cmd_chaos(args) -> int:
    g = rule_from_wolfram(args.g)
    for k in range(2, args.kmax + 1):
        sub = proper_subalgebra_search(g, k)
        if sub is None:
            print(f"k={k}: no proper subalgebra with >= 2 elements")
        else:
            elems = ",".join(w.text for w in sorted(sub.elements, key=lambda w: w.bits))
            print(f"k={k}: proper subalgebra of {len(sub.elements)} elements: {elems}")
    return 0


def cmd_verify(args) -> int:
    witness = EmulationWitness.from_json_dict(_read_json(args.witness))
    if witness.k > _MAX_WITNESS_K:
        raise ValueError(f"witness size {witness.k} exceeds the verify limit {_MAX_WITNESS_K}")
    ok = verify_witness(witness, args.length, args.horizon,
                        samples=args.samples, seed=args.seed)
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    g = rule_from_wolfram(args.rule)
    t0 = time.perf_counter()
    naive_found = sum(
        check_emulation_naive(rule_from_wolfram(f), g, args.k) is not None
        for f in range(256))
    t1 = time.perf_counter()
    listing = emulated_rules(g, args.k)
    t2 = time.perf_counter()
    sub_found = len({f.wolfram for f, _ in listing})
    naive_s, sub_s = t1 - t0, t2 - t1
    ratio = naive_s / sub_s if sub_s > 0 else float("inf")
    print(f"naive scan over 256 rules: {naive_s:.4f} s ({naive_found} emulated)")
    print(f"subalgebra enumeration:    {sub_s:.4f} s ({sub_found} emulated)")
    print(f"ratio: {ratio:.1f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eca-emu",
        description="Decide, certify and chart emulations between elementary CA.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rule = sub.add_parser("rule", help="inspect a local rule")
    rule_sub = p_rule.add_subparsers(dest="rule_command", required=True)
    p_info = rule_sub.add_parser("info", help="table, symmetries and linearity")
    p_info.add_argument("number", type=_int_in(0, 255))
    p_info.set_defaults(func=cmd_rule_info)

    p_sim = sub.add_parser("simulate", help="space-time diagram as PBM")
    p_sim.add_argument("--rule", type=_int_in(0, 255), required=True)
    p_sim.add_argument("--width", type=_int_in(1, _MAX_DIAGRAM_CELLS), default=64,
                       help=f"cells per row without --init (default 64); "
                            f"width x (steps + 1) <= {_MAX_DIAGRAM_CELLS}")
    p_sim.add_argument("--steps", type=_int_in(0, _MAX_STEPS), default=64,
                       help=f"time steps, at most {_MAX_STEPS} (default 64)")
    p_sim.add_argument("--init", help="initial cells as a 0/1 string (cell 0 first)")
    p_sim.add_argument("--seed", type=int, default=0, help="seed for a random start")
    p_sim.add_argument("--binary", action="store_true", help="raw P4 instead of plain P1")
    p_sim.add_argument("--output", "-o")
    p_sim.set_defaults(func=cmd_simulate)

    p_emu = sub.add_parser("emulate", help="does G emulate F at supercell size K?")
    p_emu.add_argument("f", type=_int_in(0, 255))
    p_emu.add_argument("g", type=_int_in(0, 255))
    p_emu.add_argument("--k", type=_int_in(1, MAX_K), required=True)
    p_emu.add_argument("--output", "-o", help="also write the witness JSON here")
    p_emu.set_defaults(func=cmd_emulate)

    p_sa = sub.add_parser("subalgebras", help="all rules emulated by G at size K")
    p_sa.add_argument("g", type=_int_in(0, 255))
    p_sa.add_argument("--k", type=_int_in(1, MAX_K), required=True)
    p_sa.set_defaults(func=cmd_subalgebras)

    # Options shared by the two sweeps over (rule, size) cells.
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--kmax", type=_int_in(1, MAX_K), required=True,
                       help=f"largest supercell size, at most {MAX_K}")
    sweep.add_argument("--rules", type=_int_in(0, 255), nargs="+",
                       help="restrict the emulators (default: all 136 representatives)")
    sweep.add_argument("--workers", type=_int_in(1, _MAX_WORKERS), default=1,
                       help=f"worker processes, at most {_MAX_WORKERS} (default: 1)")
    sweep.add_argument("--cache-dir",
                       help="cache of computed cells, one segment file per orbit "
                            "(default: none)")
    sweep.add_argument("--output", "-o", help="write here instead of stdout")

    p_h = sub.add_parser("hierarchy", parents=[sweep],
                         help="emulation hierarchy for sizes 1..K")
    p_h.add_argument("--reduce", action="store_true",
                     help="transitively reduce non-self edges (rendering aid)")
    fmt = p_h.add_mutually_exclusive_group()
    fmt.add_argument("--csv", dest="format", action="store_const", const="csv")
    fmt.add_argument("--json", dest="format", action="store_const", const="json")
    fmt.add_argument("--dot", dest="format", action="store_const", const="dot")
    p_h.set_defaults(format="csv", func=cmd_hierarchy)

    p_c = sub.add_parser("classify", parents=[sweep], help="classification report as JSON")
    p_c.set_defaults(func=cmd_classify)

    p_ch = sub.add_parser("chaos", help="proper-subalgebra search per size")
    p_ch.add_argument("g", type=_int_in(0, 255))
    p_ch.add_argument("--kmax", type=_int_in(2, MAX_K), required=True)
    p_ch.set_defaults(func=cmd_chaos)

    p_v = sub.add_parser("verify", help="re-verify a witness file")
    p_v.add_argument("witness", help="JSON file with f, g, k, enc0, enc1")
    p_v.add_argument("--length", type=_int_in(3, _MAX_VERIFY_LENGTH), default=30,
                     help=f"cells per sample word, 3..{_MAX_VERIFY_LENGTH} (default 30)")
    p_v.add_argument("--horizon", type=int, default=5)
    p_v.add_argument("--samples", type=int, default=100)
    p_v.add_argument("--seed", type=int, default=0)
    p_v.set_defaults(func=cmd_verify)

    p_b = sub.add_parser("bench", help="naive scan over all rules vs one enumeration")
    p_b.add_argument("--k", type=_int_in(1, MAX_K), required=True)
    p_b.add_argument("--rule", type=_int_in(0, 255), default=110,
                     help="target rule being emulated against (default 110)")
    p_b.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    # numpy's bundled OpenBLAS starts a thread at import that spins ~0.1 s of
    # CPU, and nothing here calls BLAS.  Set before numpy loads; a caller's
    # own setting wins, and importing the package changes nothing.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError, ImportError) as exc:
        parser.exit(2, f"error: {str(exc) or type(exc).__name__}\n")


if __name__ == "__main__":
    sys.exit(main())
