import os
import random
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eca_emulation import (
    EmulationWitness,
    Encoding,
    Subalgebra,
    Word,
    check_emulation_naive,
    compose_witnesses,
    decode_config,
    dual,
    emulated_rule_map,
    emulated_rules,
    encode_config,
    mirror,
    proper_subalgebra_search,
    read_pbm,
    render_emulated,
    rule_from_wolfram,
    supercell_step,
    verify_witness,
)
from eca_emulation import emulation
from eca_emulation.rules import _DUAL, _MIRROR, _unravel_batch

R = rule_from_wolfram

needs_extended = pytest.mark.skipif(
    os.environ.get("ECA_EMULATION_EXTENDED") != "1",
    reason="set ECA_EMULATION_EXTENDED=1 for the full-depth runs")


def W(text):
    return Word.from_text(text)


def witness_for(f, g, k):
    enc = check_emulation_naive(R(f), R(g), k)
    assert enc is not None, f"expected {f} <=_{k} {g}"
    return EmulationWitness(R(f), R(g), k, enc)


# --- encodings ---------------------------------------------------------

def test_encoding_validation():
    with pytest.raises(ValueError):
        Encoding(W("00"), W("00"))
    with pytest.raises(ValueError):
        Encoding(W("0"), W("00"))
    with pytest.raises(ValueError):
        Encoding(Word(0, 0), Word(0, 0))


def test_encode_config_examples():
    e = Encoding(W("00"), W("11"))
    assert repr(e) == "Encoding(k=2, enc0=00, enc1=11)"
    assert encode_config(e, W("101")).text == "110011"
    ident = Encoding(W("0"), W("1"))
    w = W("100110")
    assert encode_config(ident, w) == w
    e2 = Encoding(W("01"), W("10"))
    assert encode_config(e2, Word(0, 0)) == Word(0, 0)


def test_decode_inverts_encode():
    rng = random.Random(1)
    for _ in range(50):
        k = rng.randrange(1, 6)
        e0 = rng.randrange(1 << k)
        e1 = (e0 + 1 + rng.randrange((1 << k) - 1)) % (1 << k)
        if e0 == e1:
            continue
        e = Encoding(Word(e0, k), Word(e1, k))
        n = rng.randrange(0, 12)
        w = Word(rng.getrandbits(n), n)
        assert decode_config(e, encode_config(e, w)) == w
    with pytest.raises(ValueError):
        decode_config(Encoding(W("00"), W("11")), W("01"))


def decode_per_block(e, w):
    """decode_config one block at a time; the reference for the whole-word
    decode, messages included."""
    k = e.k
    if len(w) % k:
        raise ValueError(f"word of {len(w)} cells is not a sequence of {k}-cell blocks")
    out = 0
    for i in range(len(w) // k):
        block = (w.bits >> (k * i)) & ((1 << k) - 1)
        if block == e.enc1.bits:
            out |= 1 << i
        elif block != e.enc0.bits:
            raise ValueError(f"block {i} ({Word(block, k).text}) is not a code word")
    return Word(out, len(w) // k)


@settings(max_examples=500, deadline=None)
@given(data=st.data(), k=st.integers(1, 7), n=st.integers(0, 14),
       kind=st.sampled_from(["valid", "invalid", "random"]))
def test_decode_config_matches_per_block_decode(data, k, n, kind):
    e0, e1 = data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=2, max_size=2,
                                unique=True), label="codes")
    e = Encoding(Word(e0, k), Word(e1, k))
    w = encode_config(e, Word(data.draw(st.integers(0, (1 << n) - 1), label="cells"), n))
    if kind == "invalid" and n:
        # a flipped cell leaves its block a code word only if it turns one
        # code word into the other
        w = Word(w.bits ^ 1 << data.draw(st.integers(0, len(w) - 1), label="flip"), len(w))
    elif kind == "random":  # any bits, and a length that may not be a multiple of k
        m = len(w) + data.draw(st.integers(1, 2 * k + 1), label="extra")
        w = Word(data.draw(st.integers(0, (1 << m) - 1), label="word"), m)
    try:
        expected = decode_per_block(e, w)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            decode_config(e, w)
        assert str(err.value) == str(exc)
    else:
        assert decode_config(e, w) == expected


# --- naive scan --------------------------------------------------------

def test_naive_scan_trivial_reflexive():
    enc = check_emulation_naive(R(204), R(204), 1)
    assert (enc.enc0.bits, enc.enc1.bits) == (0, 1)


def test_naive_scan_dual_pair():
    enc = check_emulation_naive(R(110), R(137), 1)
    assert (enc.enc0.bits, enc.enc1.bits) == (1, 0)


def test_naive_scan_finds_size_two_witness():
    w = witness_for(184, 148, 2)
    assert w.holds()


def test_naive_scan_returns_first_in_scan_order():
    # every ordered pair is a valid encoding for the identity rule, so the
    # documented scan order fixes the answer completely
    enc = check_emulation_naive(R(204), R(204), 3)
    assert (enc.enc0.bits, enc.enc1.bits) == (0, 1)


def test_naive_scan_absence():
    assert check_emulation_naive(R(30), R(30), 2) is None
    assert check_emulation_naive(R(110), R(30), 1) is None


def test_reflexivity_all_rules():
    for n in range(256):
        assert check_emulation_naive(R(n), R(n), 1) is not None


def test_naive_scan_batched_path_agrees():
    # size 7 exercises the chunked path; cross-check against the listing,
    # whose first entry for f is the scan-order-minimal witness
    for g in (204, 148, 30):
        listed = emulated_rule_map(R(g), 7)
        for f in (0, 30, 170, 184, 204):
            enc = check_emulation_naive(R(f), R(g), 7)
            assert enc == listed.get(f), (f, g)
            if enc is not None:
                assert EmulationWitness(R(f), R(g), 7, enc).holds()


def naive_scan_literal(f, g, k):
    """The naive scan read literally: every ordered pair in scan order,
    each tried on all eight equations in turn.  The reference for
    check_emulation_naive, which takes the two constant patterns first."""
    tab = emulation._gk_table_list(g.wolfram, k)
    fbits = f.table
    n = 1 << k
    k2 = 2 * k
    for e0 in range(n):
        for e1 in range(n):
            if e0 == e1:
                continue
            enc = (e0, e1)
            for i in range(8):
                w = enc[(i >> 2) & 1] | enc[(i >> 1) & 1] << k | enc[i & 1] << k2
                if tab[w] != enc[fbits[i]]:
                    break
            else:
                return Encoding(Word(e0, k), Word(e1, k))
    return None


def _naive_scan_matches_literal(emulators, sizes):
    """Assert check_emulation_naive's answer is the literal scan's for every
    f; return the (f(000), f(111)) branches that found a witness."""
    branches = set()
    for k in sizes:
        for g in emulators:
            for f in range(256):
                enc = check_emulation_naive(R(f), R(g), k)
                assert enc == naive_scan_literal(R(f), R(g), k), (f, g, k)
                if enc is not None:
                    branches.add((f & 1, f >> 7))
    return branches


ALL_BRANCHES = {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("emulators, sizes, branches, chunk", [
    (range(256), (1, 2, 3), ALL_BRANCHES, emulation._CHUNK),
    ((30, 90, 110, 150, 204), (4, 5, 6), {(0, 0), (0, 1), (1, 1)}, emulation._CHUNK),
    # the batched path: 108 finds a witness on every branch, and 204's 128
    # fixed points give 16,256 pairs to the f(000) = 0, f(111) = 1 branch,
    # 17 chunks of 1,000 pair indices that split the rows of e0
    ((108, 204), (7,), ALL_BRANCHES, 1000),
], ids=["all-emulators-sizes-1-3", "five-emulators-sizes-4-6", "batched-size-7"])
def test_naive_scan_matches_literal_scan(emulators, sizes, branches, chunk):
    try:
        with mock.patch.object(emulation, "_CHUNK", chunk):
            assert _naive_scan_matches_literal(emulators, sizes) == branches
    finally:
        # free the k = 7 tables (~17 MB each)
        emulation._gk_table_list.cache_clear()


@pytest.mark.parametrize("k", range(1, emulation._TABLE_MAX_K + 1))
def test_naive_scan_reads_its_table_and_candidates_once_per_emulator(k):
    # the 256 scans of one (g, k) share what does not depend on f: one
    # table read and one candidate build, not one of each per f
    try:
        for g in (30, 110, 204):
            emulation._gk_table_list.cache_clear()
            emulation._naive_candidates.cache_clear()
            for f in range(256):
                check_emulation_naive(R(f), R(g), k)
            table = emulation._gk_table_list.cache_info()
            candidates = emulation._naive_candidates.cache_info()
            assert (table.hits, table.misses) == (0, 1), (g, k)
            assert (candidates.hits, candidates.misses) == (255, 1), (g, k)
    finally:
        emulation._gk_table_list.cache_clear()
        emulation._naive_candidates.cache_clear()


@needs_extended
def test_naive_scan_matches_literal_scan_extended():
    # no rule emulates an f with f(000) = 1, f(111) = 0 at size 4
    assert _naive_scan_matches_literal(range(256), (4,)) == {(0, 0), (0, 1), (1, 1)}


# --- subalgebra enumeration --------------------------------------------

def test_emulated_rules_identity_includes_doubling():
    entries = emulated_rules(R(204), 2)
    assert (R(204), Encoding(W("00"), W("11"))) in entries


def test_emulated_rules_constant_zero():
    # closure forces the operation to hit 00..0, so only the constant rules
    # can be induced; both orientations of each pair appear
    entries = emulated_rules(R(0), 3)
    assert {f.wolfram for f, _ in entries} == {0, 255}
    assert all(0 in (e.enc0.bits, e.enc1.bits) for _, e in entries)


def test_emulated_rules_traffic_pair():
    assert 184 in {f.wolfram for f, _ in emulated_rules(R(148), 2)}


def test_emulated_rules_sorted_deduplicated():
    entries = emulated_rules(R(204), 3)
    keys = [(f.wolfram, e.enc0.bits, e.enc1.bits) for f, e in entries]
    assert keys == sorted(set(keys))


def test_emulated_rules_closed_under_duality():
    for g in (148, 110, 90, 136):
        for k in (2, 3):
            rules = {f.wolfram for f, _ in emulated_rules(R(g), k)}
            assert rules == {dual(R(f)).wolfram for f in rules}


def test_emulated_rules_refuses_past_the_listing_budget(monkeypatch):
    # rule 204 at k = 3 lists all 8 x 7 ordered pairs of distinct supercells
    monkeypatch.setattr(emulation, "_MAX_LISTED", 56)
    assert len(emulated_rules(R(204), 3)) == 56

    def refuse(*args):
        raise AssertionError("an Encoding was built before the count was checked")

    monkeypatch.setattr(emulation, "_MAX_LISTED", 55)
    monkeypatch.setattr(emulation, "Encoding", refuse)
    with pytest.raises(ValueError, match="more than 55"):
        emulated_rules(R(204), 3)


def test_listing_budget_admits_every_size_to_eleven():
    # the largest listing at k <= 11 is rule 204's, every ordered pair of
    # distinct supercells; at k = 12 it is refused
    assert 2048 * 2047 <= emulation._MAX_LISTED < 4096 * 4095


def test_emulated_rule_map_minimal_encodings():
    m = emulated_rule_map(R(204), 2)
    assert sorted(m) == [204]
    assert (m[204].enc0.bits, m[204].enc1.bits) == (0, 1)
    full = emulated_rules(R(204), 2)
    firsts = {}
    for f, e in full:
        firsts.setdefault(f.wolfram, e)
    assert firsts == {f: e for f, e in m.items()}


def test_cross_oracle_small_sizes():
    # the naive scan and the subalgebra enumeration must accept the same
    # rule sets; exhaustive here at size 1 and 2, larger sizes in the
    # acceptance suite
    for g in range(256):
        for k in (1, 2):
            s2 = set(emulated_rule_map(R(g), k))
            s1 = {f for f in range(256)
                  if check_emulation_naive(R(f), R(g), k) is not None}
            assert s1 == s2, (g, k)


def test_duality_transport():
    # f <=_k g exactly when dual(f) <=_k dual(g), and complementing the
    # encoding cellwise transports the witness
    for g in range(0, 256, 7):
        for k in (1, 2, 3):
            rules = emulated_rule_map(R(g), k)
            dual_rules = set(emulated_rule_map(dual(R(g)), k))
            assert dual_rules == {dual(R(f)).wolfram for f in rules}
            # transport: complement every cell and swap the two code words
            full = (1 << k) - 1
            for f, enc in rules.items():
                flipped = Encoding(Word(enc.enc1.bits ^ full, k),
                                   Word(enc.enc0.bits ^ full, k))
                carried = EmulationWitness(dual(R(f)), dual(R(g)), k, flipped)
                assert carried.holds(), (g, f, k)


def _reversed(w):
    return W(w.text[::-1])


def test_mirror_transport():
    # f <=_k g exactly when mirror(f) <=_k mirror(g), and reversing both
    # code words transports the witness
    for g in range(0, 256, 7):
        for k in (1, 2, 3):
            rules = emulated_rule_map(R(g), k)
            mirrored = set(emulated_rule_map(mirror(R(g)), k))
            assert mirrored == {mirror(R(f)).wolfram for f in rules}
            for f, enc in rules.items():
                carried = EmulationWitness(mirror(R(f)), mirror(R(g)), k,
                                           Encoding(_reversed(enc.enc0),
                                                    _reversed(enc.enc1)))
                assert carried.holds(), (g, f, k)


def _orbit(g):
    return sorted({g, mirror(R(g)).wolfram, dual(R(g)).wolfram,
                   mirror(dual(R(g))).wolfram})


def _folded(g, k, targets):
    """Each target's map, as folded from g's one enumeration."""
    m = emulated_rule_map(R(g), k, targets)
    assert all(t in targets for t, _ in m)
    return {t: {f: enc for (s, f), enc in m.items() if s == t} for t in targets}


def test_orbit_fold_matches_direct_maps():
    # every conjugate's map, folded from one enumeration of g, is the map a
    # direct enumeration of that conjugate gives, witnesses included
    for k in range(1, 6):
        direct = {g: emulated_rule_map(R(g), k) for g in range(256)}
        for g in range(256):
            targets = _orbit(g)
            assert _folded(g, k, targets) == {t: direct[t] for t in targets}, (g, k)


@pytest.mark.parametrize("g", [170, 30])
@pytest.mark.parametrize("k", [8, 9])
def test_orbit_fold_matches_direct_maps_larger(g, k):
    targets = _orbit(g)
    assert _folded(g, k, targets) == {t: emulated_rule_map(R(t), k) for t in targets}


def test_supercell_operation_reads_only_its_read_blocks():
    # S(x, y, z) on every triple of supercells: the product must not move
    # along any block outside _read_blocks, or aliasing the selection
    # patterns that differ only there would be wrong
    for k in range(1, 5):
        n = 1 << k
        words = np.arange(1 << 3 * k, dtype=np.uint64)
        for g in range(256):
            s = _unravel_batch(g, words, 3 * k, k).reshape(n, n, n)  # axes z, y, x
            read = emulation._read_blocks(g)
            for bit, axis in ((4, 2), (2, 1), (1, 0)):
                if not read & bit:
                    assert (s == s.take([0], axis=axis)).all(), (g, k, bit)


def _closed_pairs_all_patterns(g, k):
    """The closed pairs as (U, V, W), every pair u < v run through all
    eight selection patterns in turn."""
    u, v = (a.astype(np.uint64) for a in np.triu_indices(1 << k, 1))
    w = np.zeros(len(u), dtype=np.uint16)
    for p in range(8):
        r = _unravel_batch(g, emulation._pattern_words(p, u, v, k), 3 * k, k)
        hit = r == v
        keep = hit | (r == u)
        w |= hit.astype(np.uint16) << p
        u, v, w = u[keep], v[keep], w[keep]
    return u, v, w


def test_closed_pairs_match_evaluating_every_pattern():
    # the scan-order chunks (U, V, W) hold the closed pairs, and each is
    # followed by its swapped chunk (V, U, dual[W]) over the same arrays
    duals = np.array([dual(R(f)).wolfram for f in range(256)])
    for k in range(1, 8):
        for g in range(256):
            chunks = list(emulation._closed_pairs(g, k, emulation._diagonal_map(g, k)))
            assert len(chunks) % 2 == 0, (g, k)
            for (u, v, w), (su, sv, sw) in zip(chunks[::2], chunks[1::2]):
                assert su is v and sv is u and np.array_equal(sw, duals[w]), (g, k)
            scan = chunks[::2]
            got = [np.concatenate(c) for c in zip(*scan)] if scan else [[], [], []]
            for a, b in zip(got, _closed_pairs_all_patterns(g, k)):
                assert np.array_equal(a, b), (g, k)


def test_rules_reading_one_cell_make_no_kernel_call_past_the_diagonal():
    # 8 rules evaluate no mixed pattern, 20 (reading two cells, the centre
    # one of them) evaluate 2, the other 228 all 6
    sizes = [len(emulation._pattern_classes(g)[2]) for g in range(256)]
    assert [sizes.count(c) for c in (0, 2, 6)] == [8, 20, 228]
    flat = [g for g in range(256) if not emulation._pattern_classes(g)[2]]
    assert flat == [0, 15, 51, 85, 170, 204, 240, 255]
    for g in flat:
        for k in range(1, 11):
            with mock.patch.object(emulation, "_unravel_batch",
                                   wraps=emulation._unravel_batch) as kernel:
                emulated_rule_map(R(g), k)
            assert kernel.call_count == 1, (g, k)


# the rules that read one cell or none, one per orbit under mirror and dual
ONE_BLOCK_ORBITS = (0, 15, 51, 170, 204)


def rule_map_direct_fold(g, k, targets):
    """emulated_rule_map(R(g), k, targets) folded directly: every oriented
    closed pair, the fixed-point triangle included, goes through
    np.minimum.at once per target; the reference for the closed form."""
    n = 1 << k
    none = np.iinfo(np.uint64).max
    sk = np.uint64(k)
    mirror_arr = np.array([mirror(R(f)).wolfram for f in range(256)])
    folds = []
    for t in targets:
        mirrored, dualized = emulation._conjugates(g)[t]
        cells = np.arange(n, dtype=np.uint64)
        if mirrored:
            cells = sum((cells >> np.uint64(i) & np.uint64(1)) << np.uint64(k - 1 - i)
                        for i in range(k))
        if dualized:
            cells ^= np.uint64(n - 1)
        folds.append((t, np.full(256, none, dtype=np.uint64), cells, mirrored))
    for u, v, w in emulation._closed_pairs(g, k, emulation._diagonal_map(g, k)):
        for _, best, cells, mirrored in folds:
            keys = cells[u.astype(np.int64)] << sk | cells[v.astype(np.int64)]
            np.minimum.at(best, mirror_arr[w] if mirrored else w, keys)
    return {(t, f): Encoding(Word(key >> k, k), Word(key & (n - 1), k))
            for t, best, _, _ in folds for f, key in enumerate(best.tolist()) if key != none}


def _one_block_maps_match_the_direct_fold(ks):
    for g in ONE_BLOCK_ORBITS:
        targets = _orbit(g)
        for k in ks:
            assert emulated_rule_map(R(g), k, targets) == rule_map_direct_fold(g, k, targets), (g, k)


def test_one_block_triangle_closed_form_matches_the_direct_fold():
    _one_block_maps_match_the_direct_fold(range(1, 13))


@needs_extended
def test_one_block_triangle_closed_form_matches_the_direct_fold_extended():
    _one_block_maps_match_the_direct_fold((13, 14))


# the rule that a one-block rule induces on every pair of fixed points: the
# memory rule that reads the same cell
ONE_BLOCK_MEMORY = {15: 240, 51: 204, 85: 170, 170: 170, 204: 204, 240: 240}


class _CountedClosedPairs:
    """_closed_pairs, counting its calls and the pairs of its chunks."""

    def __init__(self):
        self.calls, self.pairs, self.closed_pairs = 0, 0, emulation._closed_pairs

    def __call__(self, *args):
        self.calls += 1
        for chunk in self.closed_pairs(*args):
            self.pairs += len(chunk[0])
            yield chunk


def test_one_block_lemma_gives_the_map_without_a_scan(monkeypatch):
    # a rule that reads one cell or none fixes 0, 1 or all 2^k supercells
    # on the diagonal; with all fixed, each target's map is its memory rule
    # witnessed by (0...0, 10...0), and no pair is scanned
    counted = _CountedClosedPairs()
    monkeypatch.setattr(emulation, "_closed_pairs", counted)
    all_fixed = set()
    for g in (0, 15, 51, 85, 170, 204, 240, 255):
        targets = _orbit(g)
        for k in range(1, 15):
            n = 1 << k
            fixed = int((emulation._diagonal_map(g, k) == np.arange(n, dtype=np.uint64)).sum())
            assert fixed in (0, 1, n), (g, k, fixed)
            if fixed < n:
                continue
            all_fixed.add(g)
            counted.calls = 0
            got = emulated_rule_map(R(g), k, targets)
            assert got == {(t, ONE_BLOCK_MEMORY[t]): Encoding(Word(0, k), Word(1, k))
                           for t in targets}, (g, k)
            assert counted.calls == 0, (g, k)
    assert all_fixed == set(ONE_BLOCK_MEMORY)


def test_one_block_rules_fold_only_their_image_pairs(monkeypatch):
    # without every supercell fixed, no two are, so the map takes one scan
    # of at most the 2^k image pairs from _closed_pairs, in both orientations
    counted = _CountedClosedPairs()
    monkeypatch.setattr(emulation, "_closed_pairs", counted)
    for g in (0, 15, 51, 85, 170, 204, 240, 255):
        for k in range(1, 11):
            if (emulation._diagonal_map(g, k) == np.arange(1 << k, dtype=np.uint64)).all():
                continue
            counted.calls = counted.pairs = 0
            emulated_rule_map(R(g), k)
            assert counted.calls == 1, (g, k)
            assert counted.pairs <= 2 << k, (g, k, counted.pairs)
    # the listing still holds every oriented pair of two fixed points
    for g in ONE_BLOCK_ORBITS:
        for k in range(1, 7):
            fixed = {u for u in range(1 << k) if supercell_step(R(g), k, *[Word(u, k)] * 3).bits == u}
            listed = sum(e.enc0.bits in fixed and e.enc1.bits in fixed
                         for _, e in emulated_rules(R(g), k))
            assert listed == len(fixed) * (len(fixed) - 1), (g, k)
    assert len(emulated_rules(R(204), 6)) == 64 * 63


def test_symmetry_tables_are_built_once_and_read_only():
    dual_arr, mirror_arr = emulation._symmetry_tables()
    assert emulation._symmetry_tables()[0] is dual_arr
    assert dual_arr.tolist() == list(_DUAL) and mirror_arr.tolist() == list(_MIRROR)
    # every later task shares them, so an in-place write must fail
    for t in (dual_arr, mirror_arr):
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0] = 1


def test_supercell_maps_reverse_and_complement_each_cell():
    for k in range(1, 13):
        full = (1 << k) - 1
        rev = [int(f"{u:0{k}b}"[::-1], 2) for u in range(1 << k)]
        for (mirrored, dualized), want in {(True, False): rev,
                                           (False, True): [u ^ full for u in range(1 << k)],
                                           (True, True): [r ^ full for r in rev]}.items():
            cells = emulation._supercell_map(k, mirrored, dualized)
            assert cells.tolist() == want, k
            # a derived descriptor would send np.minimum.at down its slow path
            assert cells.dtype is np.dtype(np.uint64)


def test_orbit_fold_rejects_a_rule_outside_the_orbit():
    assert emulated_rule_map(R(30), 2, [30]) == {
        (30, f): enc for f, enc in emulated_rule_map(R(30), 2).items()}
    with pytest.raises(ValueError, match="orbit"):
        emulated_rule_map(R(30), 2, [110])


# --- witness verification ----------------------------------------------

def test_verify_witness_valid_dual_pair():
    assert verify_witness(witness_for(110, 137, 1), 20, 5)


def test_verify_witness_swapped_encoding_fails():
    bad = EmulationWitness(R(110), R(137), 1, Encoding(W("0"), W("1")))
    assert not bad.holds()
    assert not verify_witness(bad, 20, 5)


def test_verify_witness_size_two():
    assert verify_witness(witness_for(184, 148, 2), 30, 5)


def test_verify_witness_rejects_bad_dimensions():
    w = witness_for(110, 137, 1)
    with pytest.raises(ValueError):
        verify_witness(w, 10, 5)  # needs length >= 2*horizon + 1
    with pytest.raises(ValueError):
        verify_witness(w, 20, -1)
    with pytest.raises(ValueError):
        verify_witness(w, 20, 5, samples=-1)


def test_verify_witness_deterministic_in_seed():
    w = witness_for(184, 148, 2)
    assert verify_witness(w, 30, 5, samples=10, seed=42) \
        == verify_witness(w, 30, 5, samples=10, seed=42)


def test_witness_json_roundtrip():
    w = witness_for(184, 148, 2)
    assert EmulationWitness.from_json_dict(w.to_json_dict()) == w


# --- composition --------------------------------------------------------

def test_compose_identity_witnesses():
    ident = witness_for(110, 110, 1)
    out = compose_witnesses(ident, ident)
    assert out.k == 1 and out.emulated == out.emulator == R(110)


def test_compose_dual_witnesses_yields_identity():
    w1 = witness_for(110, 137, 1)
    w2 = witness_for(137, 110, 1)
    out = compose_witnesses(w1, w2)
    assert (out.emulated, out.emulator, out.k) == (R(110), R(110), 1)
    assert (out.encoding.enc0.bits, out.encoding.enc1.bits) == (0, 1)


def test_compose_with_trivial_side():
    w1 = witness_for(184, 148, 2)
    w2 = witness_for(148, 148, 1)
    out = compose_witnesses(w1, w2)
    assert out.k == 2
    assert out.encoding == w1.encoding
    assert verify_witness(out, 30, 5)


def test_compose_nontrivial_sizes_multiply():
    w1 = witness_for(184, 148, 2)
    w2 = witness_for(148, 41, 2)
    out = compose_witnesses(w1, w2)
    assert (out.emulated, out.emulator, out.k) == (R(184), R(41), 4)
    assert verify_witness(out, 30, 3, samples=30)


def test_compose_self_similar_chain():
    w1 = witness_for(204, 204, 2)
    out = compose_witnesses(w1, w1)
    assert (out.emulated, out.emulator, out.k) == (R(204), R(204), 4)
    assert verify_witness(out, 30, 3, samples=30)


def test_compose_rejects_rule_mismatch():
    with pytest.raises(ValueError):
        compose_witnesses(witness_for(110, 137, 1), witness_for(110, 137, 1))


def test_compose_checks_the_composite(monkeypatch):
    w = witness_for(204, 204, 1)
    monkeypatch.setattr(EmulationWitness, "holds", lambda self: False)
    with pytest.raises(AssertionError):
        compose_witnesses(w, w)


# --- closures -----------------------------------------------------------

def _table(g, k):
    """The full operation table of g's k-cell supercells, as an n^3 array."""
    n = 1 << k
    return _unravel_batch(g, np.arange(n ** 3, dtype=np.uint64), 3 * k, k).reshape(n, n, n)


def _is_closed(g, k, elems):
    """Every product of three of the elements lies among them, read off the
    full table rather than re-closed."""
    e = sorted(elems)
    return set(_table(g, k)[np.ix_(e, e, e)].ravel().tolist()) <= set(e)


def _is_closed_subalgebra(s):
    return _is_closed(s.rule.wolfram, s.k, [w.bits for w in s.elements])


def _closure(g, k, seeds):
    """The subalgebra of g's k-cell supercells that the seed words generate,
    the whole algebra included, as a set of ints."""
    got = emulation._close(g, k, [w.bits for w in seeds], np.zeros(1 << k, dtype=bool))
    return set(range(1 << k)) if got is None else set(got)


def test_singleton_closure_examples():
    assert _closure(204, 2, [W("01")]) == {W("01").bits}
    assert _closure(0, 2, [W("11")]) == {W("11").bits, W("00").bits}
    assert _closure(30, 1, [W("0")]) == {W("0").bits}


def test_pair_closure_examples():
    assert _closure(204, 2, [W("00"), W("11")]) == {W("00").bits, W("11").bits}
    enc = check_emulation_naive(R(184), R(148), 2)
    s = _closure(148, 2, [enc.enc0, enc.enc1])
    assert s == {enc.enc0.bits, enc.enc1.bits}
    assert _is_closed(148, 2, s) and len(s) < 4
    # every pair generates all four supercells of rule 30 at size 2
    for u in range(4):
        for v in range(u + 1, 4):
            s = _closure(30, 2, [Word(u, 2), Word(v, 2)])
            assert s == set(range(4)) and _is_closed(30, 2, s)


def test_closures_are_closed():
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randrange(1, 5)
        g = R(rng.randrange(256))
        u = Word(rng.getrandbits(k), k)
        s = _closure(g.wolfram, k, [u])
        assert _is_closed(g.wolfram, k, s)
        elems = [Word(e, k) for e in sorted(s)]
        for a in elems[:4]:
            for b in elems[:4]:
                for c in elems[:4]:
                    assert supercell_step(g, k, a, b, c).bits in s


def brute_has_proper_subalgebra(g, k):
    """Exhaust all subsets of the supercells; oracle for the search."""
    n = 1 << k
    cells = [Word(u, k) for u in range(n)]
    for mask in range(1, 1 << n):
        members = [u for u in range(n) if (mask >> u) & 1]
        if not 2 <= len(members) < n:
            continue
        mset = set(members)
        if all(supercell_step(g, k, cells[a], cells[b], cells[c]).bits in mset
               for a in members for b in members for c in members):
            return True
    return False


def test_search_matches_subset_oracle_size_two():
    for n in range(256):
        g = R(n)
        found = proper_subalgebra_search(g, 2)
        assert (found is not None) == brute_has_proper_subalgebra(g, 2), n
        if found is not None:
            assert 2 <= len(found.elements) < 4 and _is_closed_subalgebra(found)


def test_search_matches_subset_oracle_size_three():
    for n in (0, 18, 30, 45, 60, 86, 89, 90, 105, 110, 122, 137, 150, 164, 204, 232):
        g = R(n)
        found = proper_subalgebra_search(g, 3)
        assert (found is not None) == brute_has_proper_subalgebra(g, 3), n


def test_subalgebra_existence_is_invariant_on_orbits():
    # mirror and dual carry subalgebras one-to-one, so whether a proper one
    # exists is the same for every rule of an orbit
    for k in range(1, 6):
        none = {g: proper_subalgebra_search(R(g), k) is None for g in range(256)}
        for g in range(256):
            assert len({none[t] for t in _orbit(g)}) == 1, (g, k)


def test_proper_subalgebra_search_examples():
    s = proper_subalgebra_search(R(204), 3)
    assert s is not None and 2 <= len(s.elements) < 8
    assert _is_closed_subalgebra(s)
    for k in (2, 3, 4):
        assert proper_subalgebra_search(R(30), k) is None
    s = proper_subalgebra_search(R(90), 2)
    assert s is not None and len(s.elements) == 2


def test_search_has_no_answer_at_size_one():
    # the only pair of 1-cell supercells is the whole algebra
    for g in range(256):
        assert proper_subalgebra_search(R(g), 1) is None, g


def test_search_answers_from_the_fixed_point_pairs():
    # all four supercells of the identity are fixed points, so with the pair
    # scan silenced the singleton sweep closes nothing and the first pair of
    # fixed points is the answer
    with mock.patch.object(emulation, "_closed_pairs", return_value=iter(())), \
            mock.patch.object(emulation, "_close", wraps=emulation._close) as close:
        s = proper_subalgebra_search(R(204), 2)
    assert [c.args[2] for c in close.call_args_list] == [[0, 1]]
    assert s.elements == frozenset({W("00"), W("10")})
    assert _is_closed_subalgebra(s)


def _closure_oracle(table, seeds):
    """Brute-force fixpoint of the seed set over a full operation table."""
    members = set(seeds)
    while True:
        s = sorted(members)
        grown = members | set(table[np.ix_(s, s, s)].ravel().tolist())
        if grown == members:
            return members
        members = grown


@settings(max_examples=300, deadline=None)
@given(data=st.data(), g=st.integers(0, 255), k=st.integers(1, 4))
def test_close_is_the_capped_closure(data, g, k):
    # _close gives the closure, or None exactly when it is the whole
    # algebra; marking elements whose own closure is full changes nothing
    n = 1 << k
    table = _table(g, k)
    seeds = data.draw(st.lists(st.integers(0, n - 1), max_size=4), label="seeds")
    closure = _closure_oracle(table, seeds)
    marks = np.zeros(n, dtype=bool)
    got = emulation._close(g, k, seeds, marks)
    assert (got is None) == (len(closure) == n)
    assert got is None or sorted(got) == sorted(closure)
    full = [u for u in range(n) if len(_closure_oracle(table, [u])) == n]
    marks[full] = data.draw(st.lists(st.booleans(), min_size=len(full), max_size=len(full)),
                            label="marks")
    got = emulation._close(g, k, seeds, marks)
    assert (got is None) == (len(closure) == n)
    assert got is None or sorted(got) == sorted(closure)


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(0, 40), ny=st.integers(0, 40), nz=st.integers(0, 40),
       chunk=st.one_of(st.just(emulation._CHUNK), st.integers(1, 60)))
@example(nx=40, ny=40, nz=40, chunk=emulation._CHUNK)  # several s per tile
@example(nx=40, ny=40, nz=40, chunk=7)  # tiles break on the x axis
@example(nx=5, ny=40, nz=40, chunk=60)  # on the y axis
@example(nx=3, ny=4, nz=40, chunk=50)  # on the z axis
def test_triple_tiles_cover_the_block_once(nx, ny, nz, chunk):
    # every triple of the block comes exactly once, in tiles of at most
    # _CHUNK words, whatever the block's shape and the chunk size
    k = 6
    xs, ys, zs = (np.arange(m, dtype=np.uint64) for m in (nx, ny, nz))
    with mock.patch.object(emulation, "_CHUNK", chunk):
        tiles = list(emulation._triple_tiles(xs, ys, zs, k))
    assert all(1 <= len(t) <= chunk for t in tiles)
    words = np.concatenate(tiles).tolist() if tiles else []
    mask = (1 << k) - 1
    triples = [(w & mask, w >> k & mask, w >> 2 * k) for w in words]
    assert len(triples) == nx * ny * nz
    assert set(triples) == {(x, y, z) for x in range(nx) for y in range(ny) for z in range(nz)}


@pytest.mark.parametrize("k", [10, 11])
@pytest.mark.parametrize("g", [30, 45])
def test_full_closure_stops_within_a_few_tiles(g, k):
    # the first singleton closure of a chaotic rule fills the algebra; in
    # lexicographic order it took 0.54M-2.0M kernel words, as the first
    # chunks hold a single x, and the skewed tiles find every element in
    # 17K-40K
    close, words = emulation._close, []

    def counted_close(*args):
        words.append(0)
        return close(*args)

    def counted_kernel(wolfram, w, *args):
        if words:
            words[-1] += len(w)
        return _unravel_batch(wolfram, w, *args)

    with mock.patch.object(emulation, "_close", counted_close), \
            mock.patch.object(emulation, "_unravel_batch", counted_kernel):
        assert proper_subalgebra_search(R(g), k) is None
    assert words[0] <= 8 * emulation._CHUNK, words[0]


@pytest.mark.parametrize("emulators, sizes, work", [
    ((30, 45), range(2, 12), (271, 306_788, 22)),
    # these reach the pair phase, with 14, 64, 64 and 128 fixed points at k = 7
    ((37, 60, 90, 150), range(2, 8), (2_466, 5_730_533, 149)),
], ids=["chaotic-sizes-2-11", "pair-phase-sizes-2-7"])
def test_subalgebra_search_kernel_work_is_pinned(emulators, sizes, work):
    # the work, not the time: kernel calls, kernel words and closures depend
    # only on the code and _CHUNK.  A closure that runs on past a marked
    # element answers the same, and only these counts see it.
    kernel, close = emulation._unravel_batch, emulation._close
    counts = {"calls": 0, "words": 0, "closures": 0}

    def counted_kernel(wolfram, w, *args):
        counts["calls"] += 1
        counts["words"] += len(w)
        return kernel(wolfram, w, *args)

    def counted_close(*args):
        counts["closures"] += 1
        return close(*args)

    with mock.patch.object(emulation, "_unravel_batch", counted_kernel), \
            mock.patch.object(emulation, "_close", counted_close):
        for g in emulators:
            for k in sizes:
                proper_subalgebra_search(R(g), k)
    assert (counts["calls"], counts["words"], counts["closures"]) == work


def close_lexicographic(wolfram, k, seeds, full_generators):
    """_close with the triples of each block in lexicographic order, x
    slowest and z fastest, in chunks of _CHUNK; the reference for the
    skewed tiles."""
    n = 1 << k
    member = np.zeros(n, dtype=bool)
    elems = list(dict.fromkeys(seeds))
    member[elems] = True
    if len(elems) == n or full_generators[elems].any():
        return None
    new_from = 0
    while new_from < len(elems):
        old = np.array(elems[:new_from], dtype=np.uint64)
        new = np.array(elems[new_from:], dtype=np.uint64)
        cur = np.array(elems, dtype=np.uint64)
        new_from = len(elems)
        for xs, ys, zs in ((new, cur, cur), (old, new, cur), (old, old, new)):
            total = len(xs) * len(ys) * len(zs)
            ny, nz = len(ys), len(zs)
            for lo in range(0, total, emulation._CHUNK):
                t = np.arange(lo, min(lo + emulation._CHUNK, total), dtype=np.int64)
                w = (xs[t // (ny * nz)] | ys[(t // nz) % ny] << np.uint64(k)
                     | zs[t % nz] << np.uint64(2 * k))
                r = _unravel_batch(wolfram, w, 3 * k, k).astype(np.int64)
                fresh = np.unique(r[~member[r]])
                if len(fresh):
                    member[fresh] = True
                    elems.extend(fresh.tolist())
                    if len(elems) == n or full_generators[fresh].any():
                        return None
    return elems


def _searches_match_lexicographic(k):
    for g in range(256):
        found = proper_subalgebra_search(R(g), k)
        with mock.patch.object(emulation, "_close", close_lexicographic):
            assert proper_subalgebra_search(R(g), k) == found, (g, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_search_matches_lexicographic_close(k):
    _searches_match_lexicographic(k)


@needs_extended
@pytest.mark.parametrize("k", [7, 8])
def test_search_matches_lexicographic_close_extended(k):
    _searches_match_lexicographic(k)


def search_per_element(g, k):
    """proper_subalgebra_search with a singleton sweep that closes every
    supercell in turn; the reference for the batched sweep."""
    n = 1 << k
    if n == 2:
        return None
    diag = emulation._diagonal_map(g.wolfram, k)
    for U, V, _ in emulation._closed_pairs(g.wolfram, k, diag):
        return emulation._as_subalgebra(g, k, [int(U[0]), int(V[0])])
    fixed = []
    blows_up = np.zeros(n, dtype=bool)
    for u in range(n):
        elems = emulation._close(g.wolfram, k, [u], blows_up)
        if elems is None:
            blows_up[u] = True
        elif len(elems) >= 2:
            return emulation._as_subalgebra(g, k, elems)
        else:
            fixed.append(u)
    for i, u in enumerate(fixed):
        for v in fixed[i + 1:]:
            elems = emulation._close(g.wolfram, k, [u, v], blows_up)
            if elems is not None:
                return emulation._as_subalgebra(g, k, elems)
    return None


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_search_matches_per_element_sweep(k):
    for n in range(256):
        assert proper_subalgebra_search(R(n), k) == search_per_element(R(n), k), n


@pytest.mark.parametrize("k", [6, 7])
@pytest.mark.parametrize("n", [30, 45, 86, 89, 110, 37, 60, 90])
def test_search_matches_per_element_sweep_larger(n, k):
    # 37, 60 and 90 reach the pair phase at k = 7 with 14, 64 and 64 fixed
    # points, and the batch marks every pair where the reference closes it
    assert proper_subalgebra_search(R(n), k) == search_per_element(R(n), k)


@needs_extended
def test_search_matches_per_element_sweep_all_fixed_extended():
    # all 128 supercells of rule 150 are fixed at k = 7; the reference
    # closes its 8,128 pairs, the batched phase one
    assert proper_subalgebra_search(R(150), 7) == search_per_element(R(150), 7)


@pytest.fixture(scope="module")
def pair_phase_cases():
    """The arguments of every pair phase the search runs at k = 2..7, any
    rule, with the pair scan silenced: rules whose closed pairs are pairs
    of fixed points then reach the phase too, and some answer there."""
    cases = []
    for k in range(2, 8):
        for n in range(256):
            with mock.patch.object(emulation, "_closed_pairs", return_value=iter(())), \
                    mock.patch.object(emulation, "_fixed_pair_search",
                                      wraps=emulation._fixed_pair_search) as phase:
                proper_subalgebra_search(R(n), k)
            cases.extend(c.args for c in phase.call_args_list)
    assert {(c[0], c[1]) for c in cases} >= {(30, 7), (37, 7), (60, 7), (150, 7)}
    return cases


def test_pair_phase_marks_only_full_pairs(pair_phase_cases):
    # a pair is marked only when the singleton sweep's marks (the moved
    # elements) or another marked pair show that it generates everything,
    # and the phase answers with the first proper closure of a pair
    marked_beside_proper = 0
    for wolfram, k, fix, blows_up in pair_phase_cases:
        if k > 6:
            continue
        n = 1 << k
        assert np.array_equal(blows_up, emulation._diagonal_map(wolfram, k)
                              != np.arange(n, dtype=np.uint64))
        closures = [emulation._close(wolfram, k, [u, v], np.zeros(n, dtype=bool))
                    for u, v in combinations(fix.tolist(), 2)]
        full = np.zeros(len(closures), dtype=bool)
        emulation._mark_full_pairs(wolfram, k, fix, full, 0, len(full))
        assert all(closures[t] is None for t in np.flatnonzero(full)), (wolfram, k)
        first = next((c for c in closures if c is not None), None)
        assert emulation._fixed_pair_search(wolfram, k, fix, blows_up) == first, (wolfram, k)
        if first is not None:
            marked_beside_proper += int(full.sum())
    assert marked_beside_proper > 0


def test_pair_phase_spreads_the_marks_of_a_full_closure():
    # all 128 supercells of rule 150 are fixed at k = 7, so nothing is
    # moved; the marks that spread from the full closure of its first pair
    # cover the other 8,127
    with mock.patch.object(emulation, "_close", wraps=emulation._close) as close:
        assert proper_subalgebra_search(R(150), 7) is None
    assert [c.args[2] for c in close.call_args_list] == [[0, 1]]


@pytest.mark.parametrize("chunk, kmax", [(1, 6), (7, 6), (64, 7)])
def test_pair_phase_is_independent_of_the_chunk_size(pair_phase_cases, chunk, kmax):
    # the marks of a segment reach one fixpoint whatever the blocks, so the
    # same pairs are closed in the same order.  The closures keep the
    # default chunk, as their tiles of one word would take minutes.  A
    # block holds _CHUNK // 6 pairs or more, at least one, and blocks of
    # one pair stop at k = 6: at k = 7 they take ~3 s
    default, close = emulation._CHUNK, emulation._close
    cases = [c for c in pair_phase_cases if c[1] <= kmax]

    def run(chunk_size):
        """Per case, the answer and the seeds of every closure, in order."""
        runs = []

        def recorded_close(wolfram, k, seeds, marks):
            runs[-1][1].append(seeds)
            with mock.patch.object(emulation, "_CHUNK", default):
                return close(wolfram, k, seeds, marks)

        with mock.patch.object(emulation, "_CHUNK", chunk_size), \
                mock.patch.object(emulation, "_close", recorded_close):
            for case in cases:
                runs.append((case[:2], []))
                runs[-1] += (emulation._fixed_pair_search(*case),)
        return runs

    expected = run(default)
    assert any(closed for _, closed, _ in expected)
    assert run(chunk) == expected


def singletons_closed_by_reference_sweep(g, k):
    """The singletons the search closes when its children of u are all
    eight products of the pair (u, d(u)), d(d(u)) included, each from
    supercell_step, and its marks spread one element at a time."""
    n = 1 << k
    words = [Word(u, k) for u in range(n)]
    d = [supercell_step(g, k, w, w, w).bits for w in words]
    kids = [{supercell_step(g, k, *(words[d[u]] if (p >> s) & 1 else words[u]
                                    for s in (2, 1, 0))).bits for p in range(8)}
            for u in range(n)]
    closed, marked = [], np.zeros(n, dtype=bool)
    for u in range(n):
        if marked[u] or d[u] == u:
            continue
        closed.append(u)
        if emulation._close(g.wolfram, k, [u], marked) is not None:
            break
        marked[u] = True
        while grew := [v for v in range(n) if not marked[v] and d[v] != v
                       and any(marked[c] for c in kids[v])]:
            marked[grew] = True
    return closed


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_search_closes_the_singletons_of_the_reference_sweep(k):
    # the children table decides which singletons the sweep skips; it may
    # leave out d(d(u)), which marks reach through d(u), but no other child
    for n in range(256):
        g = R(n)
        if next(emulation._closed_pairs(n, k, emulation._diagonal_map(n, k)), None):
            continue  # the pair scan answers before any closure
        with mock.patch.object(emulation, "_close", wraps=emulation._close) as close:
            proper_subalgebra_search(g, k)
        singles = [c.args[2][0] for c in close.call_args_list if len(c.args[2]) == 1]
        assert singles == singletons_closed_by_reference_sweep(g, k), n


@settings(max_examples=40, deadline=None)
@given(g=st.integers(0, 255), k=st.integers(1, 6), chunk=st.integers(1, 2100))
@example(g=148, k=3, chunk=3)
@example(g=110, k=3, chunk=3)  # no closed pair: the closure sweep answers
@example(g=204, k=6, chunk=40)  # splits the first triangle row (63 pairs)
@example(g=4, k=4, chunk=2)  # fixed points and diagonal-image pairs mixed
@example(g=110, k=6, chunk=1)
@example(g=90, k=6, chunk=2100)  # more than the 2016 pairs of size 6
def test_results_independent_of_partition_size(g, k, chunk):
    # the pair space is scanned in chunks; any chunk size, from one pair to
    # more than all of them, must give the same results, including
    # first-hit answers
    first = check_emulation_naive(R(184), R(148), 2)
    search = proper_subalgebra_search(R(g), k)
    default = emulated_rules(R(g), k)
    with mock.patch.object(emulation, "_CHUNK", chunk):
        listing = emulated_rules(R(g), k)
        assert listing == default
        firsts = {}
        for f, e in listing:
            firsts.setdefault(f.wolfram, e)
        assert emulated_rule_map(R(g), k) == firsts
        assert all(EmulationWitness(f, R(g), k, e).holds() for f, e in listing)
        # without a closed pair the answer comes from the closure sweep,
        # whose tiles of triples make tiny sizes slow beyond size 3
        if listing or k <= 3:
            assert proper_subalgebra_search(R(g), k) == search
        assert check_emulation_naive(R(184), R(148), 2) == first


def test_rule_map_memory_stays_flat():
    # the enumeration scans and folds chunk by chunk; building the 523,776
    # pairs of the size-10 identity at once took ~94 MB.  The map of 204
    # scans no pair, so the scan behind the listing walks its triangle
    # here, and the map of 42 folds a triangle of 331,705 pairs
    emulation._numpy()  # its freed 16 MiB block would read as the peak
    tracemalloc.start()
    try:
        diag = emulation._diagonal_map(204, 10)
        assert sum(len(u) for u, _, _ in emulation._closed_pairs(204, 10, diag)) == 1023 * 1024
        assert sorted(emulated_rule_map(R(42), 11)) == [0, 170, 255]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_diagonal_map_is_independent_of_the_chunk_size(chunk):
    for g in (30, 45, 110, 204):
        for k in (1, 5, 9):
            e = np.arange(1 << k, dtype=np.uint64)
            whole = _unravel_batch(g, emulation._pattern_words(0, e, e, k), 3 * k, k)
            with mock.patch.object(emulation, "_CHUNK", chunk):
                d = emulation._diagonal_map(g, k)
            assert d.dtype == np.uint64 and np.array_equal(d, whole), (g, k)


@needs_extended
def test_diagonal_map_memory_at_the_kernel_limit_extended():
    # the map itself is 8 MiB; one kernel call over all 2^20 words peaked
    # at ~48 MiB
    emulation._numpy()  # its freed 16 MiB block would read as the peak
    tracemalloc.start()
    try:
        emulation._diagonal_map(45, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


@needs_extended
def test_search_memory_at_the_kernel_limit_extended():
    # the children table of 7 x 2^20 int32 entries is 28 MiB, and the gate
    # leaves room for the diagonal map and the first closure; int64 rows
    # filled from one batch of all six patterns peaked at ~226 MiB
    emulation._numpy()  # its freed 16 MiB block would read as the peak
    tracemalloc.start()
    try:
        assert proper_subalgebra_search(R(45), 20) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20


def _first_self_similar_size(f, kmax):
    """Smallest k in 2..kmax with f <=_k f, or None if there is none."""
    return next((k for k in range(2, kmax + 1)
                 if f.wolfram in emulated_rule_map(f, k)), None)


def test_self_similarity():
    assert _first_self_similar_size(R(204), 11) == 2
    assert _first_self_similar_size(R(90), 11) == 2
    k184 = _first_self_similar_size(R(184), 11)
    assert k184 is not None and 2 <= k184 <= 11
    assert _first_self_similar_size(R(30), 6) is None


@pytest.mark.parametrize("call", [
    lambda: decode_config(Encoding(W("00"), W("11")), W("001")),
    lambda: EmulationWitness(R(204), R(204), 2, Encoding(W("0"), W("1"))),
    lambda: render_emulated(witness_for(204, 204, 1), W("01"), 1),
    lambda: read_pbm(b"P1\n2 2\n0 1 0\n"),
    lambda: _unravel_batch(30, np.zeros(1, dtype=np.uint64), 63, 1),
    lambda: _unravel_batch(30, np.zeros(1, dtype=np.uint64), 4, 2),
    lambda: Subalgebra(R(30), 2, frozenset({Word(5, 3)})),
    lambda: Subalgebra(R(30), 25, frozenset({Word(0, 25), Word(1, 25)})),
    lambda: Subalgebra(R(30), 0, frozenset()),
], ids=["decode-length", "witness-size", "render-short", "pbm-cells",
        "batch-width", "batch-steps", "subalgebra-cells",
        "subalgebra-size", "subalgebra-empty-size"])
def test_malformed_arguments_raise_value_error(call):
    with pytest.raises(ValueError):
        call()
