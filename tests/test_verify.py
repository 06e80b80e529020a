"""The packed witness check against a one-sample-at-a-time reference."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from eca_emulation import (
    EmulationWitness,
    Encoding,
    Word,
    check_emulation_naive,
    encode_config,
    rule_from_wolfram,
    verify_witness,
)
from eca_emulation import emulation
from eca_emulation.rules import _unravel_bits

R = rule_from_wolfram


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


def test_encode_config_matches_per_byte_reference():
    rng = random.Random(17)
    for _ in range(300):
        k = rng.randrange(1, 9)
        e0, e1 = rng.sample(range(1 << k), 2)
        enc = Encoding(Word(e0, k), Word(e1, k))
        m = rng.choice((0, 1, 7, 8, 9, rng.randrange(0, 80)))
        w = Word(rng.getrandbits(m), m)
        assert encode_config(enc, w) == Word(encode_per_byte(enc, w.bits, m), k * m)
