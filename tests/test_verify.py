"""The packed witness check against a one-sample-at-a-time reference."""

import functools
import os
import random
import tracemalloc
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from eca_emulation import (
    EmulationWitness,
    Encoding,
    Word,
    check_emulation_naive,
    compose_witnesses,
    decode_config,
    emulated_rules,
    encode_config,
    rule_from_wolfram,
    verify_witness,
)
from eca_emulation import emulation
from eca_emulation.rules import _unravel_bits, supercell_step

R = rule_from_wolfram

needs_extended = pytest.mark.skipif(
    os.environ.get("ECA_EMULATION_EXTENDED") != "1",
    reason="set ECA_EMULATION_EXTENDED=1 for the full-depth runs")


def holds_literal(w):
    """The eight defining equations, one supercell_step call each."""
    code = (w.encoding.enc0, w.encoding.enc1)
    for i in range(8):
        s1, s2, s3 = (i >> 2) & 1, (i >> 1) & 1, i & 1
        got = supercell_step(w.emulator, w.k, code[s1], code[s2], code[s3])
        if got != code[w.emulated(s1, s2, s3)]:
            return False
    return True


@functools.lru_cache(maxsize=None)
def byte_chunks(enc):
    """Entry b: the encoding of the 8 cells of byte b, built cell by cell."""
    k, e0, e1 = enc.k, enc.enc0.bits, enc.enc1.bits
    chunk = []
    for byte in range(256):
        acc = 0
        for i in range(8):
            acc |= (e1 if (byte >> i) & 1 else e0) << (k * i)
        chunk.append(acc)
    return chunk


def encode_per_byte(enc, bits, m):
    """The blockwise encoding of m packed cells, one byte at a time."""
    k, chunk = enc.k, byte_chunks(enc)
    acc = 0
    for j in range((m + 7) // 8):
        acc |= chunk[(bits >> (8 * j)) & 0xFF] << (8 * k * j)
    return acc & ((1 << (k * m)) - 1)


def verify_per_sample(w, length, horizon, samples=100, seed=0):
    """verify_witness's sample check, one sample and one step at a time;
    the argument checks and holds() are left to the caller."""
    f, g, k, enc = w.emulated.wolfram, w.emulator.wolfram, w.k, w.encoding
    rng = random.Random(seed)
    for _ in range(samples):
        c = rng.getrandbits(length)
        gbits = encode_per_byte(enc, c, length)
        fbits = c
        m = length
        for _t in range(horizon):
            fbits = _unravel_bits(f, fbits, m, 1)
            for s in range(k):
                gbits = _unravel_bits(g, gbits, k * m - 2 * s, 1)
            m -= 2
            if gbits != encode_per_byte(enc, fbits, m):
                return False
    return True


@st.composite
def cases(draw):
    k = draw(st.integers(1, 5))
    e0 = draw(st.integers(0, (1 << k) - 1))
    e1 = draw(st.integers(0, (1 << k) - 1).filter(lambda e: e != e0))
    w = EmulationWitness(R(draw(st.integers(0, 255))), R(draw(st.integers(0, 255))),
                         k, Encoding(Word(e0, k), Word(e1, k)))
    length = draw(st.integers(3, 45))
    horizon = draw(st.integers(0, (length - 1) // 2))
    samples = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    return w, length, horizon, samples, seed


@settings(max_examples=400, deadline=None, database=None)
@given(cases())
def test_packed_check_matches_per_sample_reference(case):
    # Arbitrary (f, g, enc) rarely satisfy the eight equations, so holds()
    # is bypassed to reach the sample comparison on mismatching runs too.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EmulationWitness, "holds", lambda self: True)
        assert verify_witness(*case) == verify_per_sample(*case)


def test_packed_check_spans_several_blocks():
    k, length, horizon = 2, 37, 6
    samples = 2 * (emulation._VERIFY_BITS // (k * length)) + 5
    good = EmulationWitness(R(184), R(148), k, check_emulation_naive(R(184), R(148), k))
    assert verify_witness(good, length, horizon, samples, seed=9)


def test_packed_check_block_boundaries(monkeypatch):
    # Rule 128 differs from rule 0 only on the neighborhood 111, so a
    # 3-cell sample fails exactly when it is 111: with 21 samples per block
    # the first failure falls in the first, second or a later block.
    monkeypatch.setattr(emulation, "_VERIFY_BITS", 64)
    monkeypatch.setattr(EmulationWitness, "holds", lambda self: True)
    w = EmulationWitness(R(0), R(128), 1, Encoding(Word(0, 1), Word(1, 1)))
    late = 0
    for seed in range(30):
        for samples in range(80):
            expected = verify_per_sample(w, 3, 1, samples, seed)
            assert verify_witness(w, 3, 1, samples, seed) == expected
        late += verify_per_sample(w, 3, 1, 21, seed)
    assert late  # some seeds pass the whole first block


def first_failing_step(w, length, horizon, seed):
    """The first step at which verify_per_sample fails one sample, or None."""
    return next((t for t in range(1, horizon + 1)
                 if not verify_per_sample(w, length, t, 1, seed)), None)


def test_step_groups_match_per_sample_reference(monkeypatch):
    # With 76-bit blocks one 19-cell sample runs its 9 steps in three
    # groups (steps 1-3, 4-6, 7-9), and 9 samples fill blocks of 4, 4 and
    # 1, the full ones a group per step.  Rule 0 under rule 128 (they
    # differ only on 111) fails at step 1 or never, as 0 erases every 111;
    # rule 120 under 121 (they differ only on 000) fails first in any step,
    # as 120's steps make 000 where the sample had none.
    monkeypatch.setattr(emulation, "_VERIFY_BITS", 76)
    monkeypatch.setattr(EmulationWitness, "holds", lambda self: True)
    code = Encoding(Word(0, 1), Word(1, 1))
    early = EmulationWitness(R(0), R(128), 1, code)
    late = EmulationWitness(R(120), R(121), 1, code)
    good = EmulationWitness(R(184), R(148), 2, check_emulation_naive(R(184), R(148), 2))
    length, horizon = 19, 9
    groups = set()
    for seed in range(300):
        for w in (early, late, good):
            for samples in (1, 2, 9):
                for h in (horizon, 4):
                    expected = verify_per_sample(w, length, h, samples, seed)
                    assert verify_witness(w, length, h, samples, seed) == expected, (w, seed)
        for w in (early, late):
            t = first_failing_step(w, length, horizon, seed)
            if t is not None:
                groups.add((w is late, (t - 1) // 3))
    assert groups == {(False, 0), (True, 0), (True, 1), (True, 2)}


def test_verify_builds_one_trajectory_per_run_of_f():
    # a listing ascends by f, so its witnesses share the first group of
    # steps of one f: the kernel runs twice for holds() and once for the
    # g side of each witness, and five f steps per run of f
    kernel, counted = emulation._unravel_bits, []

    def counting_kernel(*args):
        counted.append(args[0])
        return kernel(*args)

    for g, k in ((54, 4), (184, 3), (204, 2), (30, 1)):
        entries = emulated_rules(R(g), k)
        runs = 1 + sum(a[0] != b[0] for a, b in zip(entries, entries[1:]))
        emulation._first_group.cache_clear()
        counted.clear()
        with mock.patch.object(emulation, "_unravel_bits", counting_kernel):
            for f, enc in entries:
                assert verify_witness(EmulationWitness(f, R(g), k, enc), 30, 5, seed=1)
        info = emulation._first_group.cache_info()
        assert (info.misses, info.hits) == (runs, len(entries) - runs), (g, k)
        assert len(counted) == 3 * len(entries) + 5 * runs, (g, k)
    # one f at two sizes keeps two trajectories
    for k in (2, 3, 2):
        assert verify_witness(EmulationWitness(R(204), R(204), k, Encoding(Word(0, k), Word(1, k))),
                              30, 5, seed=1)
    # 1,000 steps of 3 samples at k = 2: 50 groups of 20, one g call each,
    # and holds() one call per rule
    good = EmulationWitness(R(184), R(148), 2, check_emulation_naive(R(184), R(148), 2))
    counted.clear()
    with mock.patch.object(emulation, "_unravel_bits", counting_kernel):
        assert verify_witness(good, 2001, 1000, 3)
    assert (counted.count(148), counted.count(184)) == (1 + 50, 1 + 1000)


def test_long_horizon_memory_is_bounded():
    # a group of 31 steps holds ~31 KiB a word; the 2,001 steps of this
    # sample side by side would hold ~2 MB a word
    good = EmulationWitness(R(184), R(148), 2, check_emulation_naive(R(184), R(148), 2))
    assert verify_witness(good, 41, 20, 3)  # numpy and the kernels loaded
    tracemalloc.start()
    try:
        assert verify_witness(good, 4001, 2000, 1, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_encode_config_matches_per_byte_reference():
    rng = random.Random(17)
    for _ in range(600):
        k = rng.randrange(1, 21)
        e0, e1 = rng.sample(range(1 << k), 2)
        enc = Encoding(Word(e0, k), Word(e1, k))
        m = rng.choice((0, 1, 7, 8, 9, 15, 17, rng.randrange(0, 200)))
        w = Word(rng.getrandbits(m), m)
        assert encode_config(enc, w) == Word(encode_per_byte(enc, w.bits, m), k * m)
        assert decode_config(enc, encode_config(enc, w)) == w


def _holds_cases(k, emulated):
    """Every emulator and every encoding pair at size k, each against the
    candidates ``emulated(g, enc)`` yields."""
    for e0, e1 in permutations(range(1 << k), 2):
        enc = Encoding(Word(e0, k), Word(e1, k))
        for g in range(256):
            for f in emulated(g, enc):
                yield EmulationWitness(R(f), R(g), k, enc)


def _near_misses(g, enc):
    """The one f whose eight equations hold for (g, enc), if any, and every
    rule that differs from it in one neighborhood; else three fixed rules."""
    code = (enc.enc0, enc.enc1)
    images = [supercell_step(R(g), enc.k, code[i >> 2 & 1], code[i >> 1 & 1], code[i & 1])
              for i in range(8)]
    if not all(im in code for im in images):
        return (0, 110, 255)
    f = sum(code.index(im) << i for i, im in enumerate(images))
    return (f, *(f ^ 1 << i for i in range(8)))


def test_holds_matches_literal_equations_at_size_one():
    for w in _holds_cases(1, lambda g, enc: range(256)):
        assert w.holds() == holds_literal(w), w


def test_holds_matches_literal_equations_near_misses_at_size_two():
    found = 0
    for w in _holds_cases(2, _near_misses):
        assert w.holds() == holds_literal(w), w
        found += w.holds()
    assert found > 100  # the true cases are reached, not only misses


@needs_extended
def test_holds_matches_literal_equations_at_size_two_extended():
    for w in _holds_cases(2, lambda g, enc: range(256)):
        assert w.holds() == holds_literal(w), w


def test_holds_matches_literal_equations_random():
    rng = random.Random(23)
    for _ in range(3000):
        k = rng.randrange(1, 9)
        e0, e1 = rng.sample(range(1 << k), 2)
        enc = Encoding(Word(e0, k), Word(e1, k))
        g = rng.randrange(256)
        f = rng.choice((rng.randrange(256), *_near_misses(g, enc)))
        w = EmulationWitness(R(f), R(g), k, enc)
        assert w.holds() == holds_literal(w), w


def test_holds_matches_literal_equations_above_the_kernel_limit():
    # 184 <=_3 184 through 010/101, composed to sizes 9, 81 and 243, and
    # size 81 composed with 184 <=_2 148 <=_2 41: size 324, below the
    # verify limit of 400
    w3 = EmulationWitness(R(184), R(184), 3, Encoding(Word.from_text("010"), Word.from_text("101")))
    w9 = compose_witnesses(w3, w3)
    w81 = compose_witnesses(w9, w9)
    w243 = compose_witnesses(w81, w3)
    w324 = compose_witnesses(w81, compose_witnesses(
        EmulationWitness(R(184), R(148), 2, check_emulation_naive(R(184), R(148), 2)),
        EmulationWitness(R(148), R(41), 2, check_emulation_naive(R(148), R(41), 2))))
    for w in (w9, w81, w243, w324):
        assert w.holds() and holds_literal(w)
        enc, k = w.encoding, w.k
        for i in (0, 1, k // 2, k - 1):  # one cell of one code word flipped
            bad = Encoding(enc.enc0, Word(enc.enc1.bits ^ 1 << i, k))
            for f in (w.emulated, R(w.emulated.wolfram ^ 0x10)):
                v = EmulationWitness(f, w.emulator, k, bad)
                assert v.holds() == holds_literal(v)
        v = EmulationWitness(R(w.emulated.wolfram ^ 0x10), w.emulator, k, enc)
        assert not v.holds() and not holds_literal(v)


def test_first_block_cache_keeps_the_verdicts(monkeypatch):
    # alternating seeds, lengths and sample counts hit and miss the cache,
    # and with 12-bit blocks most calls run several blocks
    monkeypatch.setattr(emulation, "_VERIFY_BITS", 12)
    monkeypatch.setattr(EmulationWitness, "holds", lambda self: True)
    emulation._first_block.cache_clear()
    entries = []
    cached = emulation._first_block

    def recorder(seed, length, n):
        out = cached(seed, length, n)
        entries.append((n, out[0]))
        return out

    monkeypatch.setattr(emulation, "_first_block", recorder)
    rng = random.Random(29)
    good = EmulationWitness(R(184), R(148), 2, check_emulation_naive(R(184), R(148), 2))
    # rule 128 differs from rule 0 only on 111: a sample fails when it holds 111
    bad = EmulationWitness(R(0), R(128), 1, Encoding(Word(0, 1), Word(1, 1)))
    verdicts = set()
    for _ in range(400):
        w = rng.choice((good, bad))
        seed, length = rng.randrange(4), rng.choice((3, 4, 5, 13, 50))
        samples = rng.choice((0, 1, 2, 7, 20, 60))
        horizon = rng.randrange(0, (length - 1) // 2 + 1)
        entries.clear()
        got = verify_witness(w, length, horizon, samples, seed)
        assert got == verify_per_sample(w, length, horizon, samples, seed)
        verdicts.add((w is good, got))
        for n, bits in entries:  # one block: one sample, or at most _VERIFY_BITS encoded
            assert n == 1 or w.k * n * length <= emulation._VERIFY_BITS
            assert bits.bit_length() <= n * length
    info = cached.cache_info()
    assert info.hits > 20 and info.misses > 20 and info.currsize <= 8
    assert verdicts == {(True, True), (False, True), (False, False)}
