"""Acceptance suite: one test per criterion, one printed verdict line each.

Desk-scale checks run unconditionally.  The long confirmation runs (supercell
sizes up to 11 across whole rule families) are gated behind
ECA_EMULATION_EXTENDED=1.
"""

import json
import os
import time

import pytest

from eca_emulation import (
    EmulationWitness,
    check_emulation_naive,
    classify,
    compute_hierarchy,
    dual,
    emulated_rule_map,
    emulated_rules,
    mirror,
    proper_subalgebra_search,
    render_emulated,
    rep_of,
    rule_from_wolfram,
    transitive_reduction,
    verify_witness,
    Word,
)
from eca_emulation.cli import main

R = rule_from_wolfram

EXTENDED = os.environ.get("ECA_EMULATION_EXTENDED") == "1"
needs_extended = pytest.mark.skipif(
    not EXTENDED, reason="set ECA_EMULATION_EXTENDED=1 for the full-depth runs")

# Reference data for the supercell-size-2..11 hierarchy.
CHAOTIC_RULES = (30, 45, 86, 89)
SELF_SIMILAR_RULES = frozenset(
    {0, 15, 51, 60, 85, 90, 102, 128, 136, 150, 170, 184, 192, 204, 240})
EMULATOR_BOX = {
    170: {2, 6, 10, 11, 14, 20, 25, 26, 27, 34, 35, 37, 38, 40, 41, 42, 43, 46,
          54, 56, 57, 58, 65, 66, 74, 81, 84, 85, 97, 98, 106, 113, 130, 134,
          138, 142, 148, 154, 162, 168, 170, 172, 184, 188, 212},
    240: {6, 9, 11, 14, 15, 16, 20, 24, 37, 41, 43, 48, 49, 52, 53, 54, 56, 57,
          61, 80, 81, 82, 84, 88, 96, 97, 98, 112, 113, 114, 116, 120, 134, 142,
          144, 148, 152, 176, 180, 184, 208, 212, 216, 224, 240},
    204: {1, 4, 5, 12, 13, 18, 19, 22, 23, 28, 29, 33, 36, 37, 44, 50, 51, 54,
          62, 68, 69, 70, 72, 73, 76, 77, 78, 92, 94, 100, 104, 108, 110, 118,
          122, 124, 126, 132, 140, 146, 156, 164, 172, 178, 196, 200, 204, 216,
          232},
    51: {5, 19, 23, 28, 29, 50, 51, 54, 70, 73, 94, 108, 156, 178},
    128: {6, 11, 14, 20, 23, 32, 33, 37, 40, 41, 43, 50, 54, 56, 57, 58, 77, 81,
          84, 96, 97, 98, 104, 113, 114, 122, 128, 130, 132, 134, 142, 144, 148,
          160, 162, 164, 168, 176, 178, 184, 212, 224, 232},
}
NOT_ZERO_CAPABLE = {15, 30, 45, 51, 60, 85, 86, 89, 90, 102, 105, 106, 120,
                    150, 154, 170, 180, 204, 240}
LINEAR_TARGET_EMULATORS = {
    90: {18, 26, 82, 94, 122, 126, 154, 164, 180, 146, 90},
    150: {105, 150},
    60: {60},
}


def edges_to(graph, emulated):
    return [e for e in graph.edges if e.emulated.wolfram == emulated]


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def graph_k8():
    return compute_hierarchy(8, workers=os.cpu_count() or 1)


def test_criterion_01_duality_classes():
    t0 = time.perf_counter()
    classes = {rep_of(n) for n in range(256)}
    elapsed = time.perf_counter() - t0
    ok = len(classes) == 136 and elapsed < 1.0
    report(1, "exactly 136 duality classes in under one second", ok,
           f"{len(classes)} classes in {elapsed:.3f} s")


def test_criterion_02_rule_symmetries():
    got = (dual(R(110)).wolfram, mirror(R(30)).wolfram, mirror(dual(R(45))).wolfram)
    ok = got == (137, 86, 89)
    report(2, "dual(110)=137, mirror(30)=86, mirror(dual(45))=89", ok, str(got))


def test_criterion_03_algorithm_cross_oracle():
    mismatches = []
    witnesses = {}
    for g in range(256):
        for k in (1, 2, 3, 4):
            listing = emulated_rules(R(g), k)
            set2 = {f.wolfram for f, _ in listing}
            set1 = set()
            for f in range(256):
                enc = check_emulation_naive(R(f), R(g), k)
                if enc is not None:
                    set1.add(f)
                    witnesses[(f, g, k, enc.enc0.bits, enc.enc1.bits)] = \
                        EmulationWitness(R(f), R(g), k, enc)
            if set1 != set2:
                mismatches.append((g, k, sorted(set1 ^ set2)))
            for f, enc in listing:
                key = (f.wolfram, g, k, enc.enc0.bits, enc.enc1.bits)
                witnesses.setdefault(key, EmulationWitness(f, R(g), k, enc))
    failed = sum(not verify_witness(w, 30, 5, samples=100, seed=2024)
                 for w in witnesses.values())
    ok = not mismatches and failed == 0
    report(3, "naive scan and subalgebra enumeration agree for all 256 rules "
              "at sizes 1-4; every emitted witness re-verifies", ok,
           f"{len(witnesses)} witnesses, {len(mismatches)} set mismatches, "
           f"{failed} verification failures")


def test_criterion_04_traffic_edge_and_rendering():
    enc = check_emulation_naive(R(184), R(148), 2)
    found = enc is not None
    decoded_ok = False
    if found:
        w = EmulationWitness(R(184), R(148), 2, enc)
        u = Word(0b110010101100111010011010001011 & ((1 << 30) - 1), 30)
        # render_emulated raises if any decoded row differs from the direct run
        direct, sampled = render_emulated(w, u, 50)
        decoded_ok = direct.height == sampled.height == 51
    report(4, "184 is emulated by 148 at size 2 and the sampled encoded run "
              "decodes to the direct run, 30 cells x 50 steps", found and decoded_ok)


def test_criterion_05_chaotic_bottom_row():
    nontrivial = {}
    for g in CHAOTIC_RULES:
        # size 1 gives exactly the rule and its dual (states relabeled)
        assert {f.wolfram for f, _ in emulated_rules(R(g), 1)} \
            == {g, dual(R(g)).wolfram}
        for k in range(2, 9):
            listing = emulated_rules(R(g), k)
            if listing:
                nontrivial[(g, k)] = len(listing)
    survivors = {}
    for g in CHAOTIC_RULES:
        for k in range(2, 8):
            sub = proper_subalgebra_search(R(g), k)
            if sub is not None:
                survivors[(g, k)] = len(sub.elements)
    ok = not nontrivial and not survivors
    report(5, "rules 30, 45, 86, 89 emulate nothing at sizes 2-8 and have no "
              "proper multi-element subalgebra at sizes 2-7", ok,
           f"unexpected: {nontrivial or survivors}" if not ok else "")


def test_criterion_05_extended_to_eleven():
    bad = {}
    for g in CHAOTIC_RULES:
        for k in range(9, 12):
            if emulated_rules(R(g), k):
                bad[(g, k, "emulates")] = True
        for k in range(8, 12):
            if proper_subalgebra_search(R(g), k) is not None:
                bad[(g, k, "subalgebra")] = True
    report(5, "extended: chaotic four stay trivial through size 11", not bad,
           str(bad) if bad else "")


def test_criterion_06_self_similarity_no_false_positives(graph_k8):
    # the sweep records a rule as self-similar when it re-emulates itself at
    # some size 2..K; a rule and its dual re-emulate themselves alike
    allowed = SELF_SIMILAR_RULES | {dual(R(n)).wolfram for n in SELF_SIMILAR_RULES}
    detected = {n for n in range(256) if rep_of(n) in graph_k8.self_similar}
    extras = detected - allowed
    report(6, "every rule detected as self-similar at sizes <= 8 is one of "
              "the known self-similar rules or a dual of one", not extras,
           f"detected {len(detected)}, unexpected {sorted(extras)}" if extras
           else f"detected {len(detected)}")


@needs_extended
def test_criterion_06_extended_all_loops_found():
    missing = [n for n in sorted(SELF_SIMILAR_RULES)
               if all(n not in emulated_rule_map(R(n), k) for k in range(2, 12))]
    report(6, "extended: all fifteen known self-similar rules re-emulate "
              "themselves by size 11", not missing, str(missing) if missing else "")


def test_criterion_07_frequently_emulated_soundness(graph_k8):
    violations = {}
    for target, box in EMULATOR_BOX.items():
        box_reps = {rep_of(n) for n in box}
        emulators = {e.emulator.wolfram for e in edges_to(graph_k8, rep_of(target))}
        extra = emulators - box_reps
        if extra:
            violations[target] = sorted(extra)
    zero_edges = {e.emulator.wolfram for e in edges_to(graph_k8, 0) if e.k >= 2}
    dashed = {rep_of(n) for n in NOT_ZERO_CAPABLE}
    bad_zero = zero_edges & dashed
    ok = not violations and not bad_zero
    report(7, "all computed emulators of 170/240/204/51/128 at sizes <= 8 lie "
              "in the reference sets; no reference non-emulator of 0 gains a "
              "0-edge", ok, f"{violations} {sorted(bad_zero)}" if not ok else "")


@needs_extended
def test_criterion_07_extended_equality():
    # honors the shard cache so the size-11 sweep can be resumed
    graph = compute_hierarchy(11, workers=os.cpu_count() or 1,
                              cache_dir=os.environ.get("ECA_EMULATION_CACHE"))
    # The reference data contradicts itself about rule 22: the emulator set
    # of 204 lists it, yet the memory-incapability list states 22 emulates
    # none of 51/204/170/240 up to size 11.  Both decision procedures here
    # side with the latter (22 emulates 146/90/0 only), so the corrected
    # set drops that one entry; everything else must match exactly.
    assert not {e.emulated.wolfram for e in graph.edges
                if e.emulator.wolfram == rep_of(22)} & {51, 170, 204, 240}
    wrong = {}
    for target, box in EMULATOR_BOX.items():
        expected = {rep_of(n) for n in box} - ({rep_of(22)} if target == 204 else set())
        emulators = {e.emulator.wolfram for e in edges_to(graph, rep_of(target))}
        if emulators != expected:
            wrong[target] = (sorted(emulators - expected), sorted(expected - emulators))
    report(7, "extended: emulator sets at size 11 match the reference boxes "
              "exactly (up to the one self-contradicted entry)", not wrong,
           str(wrong) if wrong else "box over 204 corrected by dropping 22")


def test_criterion_08_linear_rule_edges(graph_k8):
    # The reference diagram is transitively reduced (composed emulations are
    # drawn as chains, e.g. 22 over 146 over 90), so the comparison is made
    # against the reduced graph.  A genuine false positive would survive the
    # reduction and still fail here.
    reduced = transitive_reduction(graph_k8)
    violations = {}
    implied = {}
    for target, allowed in LINEAR_TARGET_EMULATORS.items():
        allowed_reps = {rep_of(n) for n in allowed}
        direct = {e.emulator.wolfram for e in edges_to(reduced, rep_of(target))}
        extra = direct - allowed_reps
        if extra:
            violations[target] = sorted(extra)
        raw_extra = {e.emulator.wolfram for e in edges_to(graph_k8, rep_of(target))} - allowed_reps
        if raw_extra - extra:
            implied[target] = sorted(raw_extra - extra)
    report(8, "direct edges into the linear rules 90/150/60 at sizes <= 8 all "
              "appear in the reference edge list", not violations,
           f"transitively implied and dropped: {implied}" if implied and not violations
           else (str(violations) if violations else ""))


@needs_extended
def test_criterion_08_extended_nonlinear_to_90():
    missing = [g for g in (18, 126, 146)
               if all(90 not in emulated_rule_map(R(g), k) for k in range(2, 12))]
    report(8, "extended: 18, 126 and 146 emulate rule 90 by size 11",
           not missing, str(missing) if missing else "")


@needs_extended
def test_extended_rank_table():
    # counts of distinct emulated representatives at sizes 2..11; the
    # reference table's published rows, top and bottom
    graph = compute_hierarchy(11, workers=os.cpu_count() or 1,
                              cache_dir=os.environ.get("ECA_EMULATION_CACHE"))
    counts = classify(graph).emulation_counts
    rows = {
        9: {41, 97},
        7: {6, 20, 54, 57, 134, 148},
        6: {14, 37, 56, 84, 94, 98, 156},
        1: {0, 3, 8, 17, 60, 64, 90, 102, 105, 106, 120, 150, 170, 204, 240},
        0: {30, 45, 86, 89},
    }
    got = {cnt: {r for r, c in counts.items() if c == cnt} for cnt in rows}
    report(7, "extended: the published count rows of the hierarchy rank table "
              "reproduce exactly", got == rows,
           str({c: (sorted(got[c] - rows[c]), sorted(rows[c] - got[c]))
                for c in rows if got[c] != rows[c]}) if got != rows else "")


def test_criterion_09_performance(capsys):
    code = main(["bench", "--k", "6", "--rule", "110"])
    out = capsys.readouterr().out
    with capsys.disabled():
        ratio = float(out.split("ratio:")[1].split("x")[0])
        t0 = time.perf_counter()
        listing = emulated_rules(R(30), 11)
        t_chaotic = time.perf_counter() - t0
        t0 = time.perf_counter()
        dense = emulated_rule_map(R(204), 11)
        t_dense = time.perf_counter() - t0
        ok = (code == 0 and ratio >= 10.0 and t_chaotic < 60.0 and t_dense < 60.0
              and not listing and 204 in dense)
        report(9, "single enumeration beats 256 naive scans at size 6 by >= 10x; "
                  "per-rule enumeration at size 11 stays under a minute", ok,
               f"ratio {ratio:.0f}x, rule 30 {t_chaotic:.1f} s, rule 204 {t_dense:.1f} s")


def test_criterion_10_worker_determinism(tmp_path, capsys):
    blobs = {}
    for workers in ("1", "8"):
        for fmt in ("csv", "json", "dot"):
            path = tmp_path / f"h_{workers}.{fmt}"
            code = main(["hierarchy", "--kmax", "4", "--workers", workers,
                         f"--{fmt}", "-o", str(path)])
            assert code == 0
            blobs[(workers, fmt)] = path.read_bytes()
    capsys.readouterr()
    ok = all(blobs[("1", fmt)] == blobs[("8", fmt)] for fmt in ("csv", "json", "dot"))
    report(10, "hierarchy output at size bound 4 is byte-identical with 1 and "
               "8 workers for CSV, JSON and DOT", ok)
