import random
import tracemalloc

import numpy as np
import pytest

from eca_emulation import (
    Encoding,
    EmulationWitness,
    Word,
    check_emulation_naive,
    global_step,
    rule_from_wolfram,
    supercell_step,
    unravel,
)
from eca_emulation.emulation import _gk_table_list
from eca_emulation.rules import MAX_SUPERCELL_BITS, _unravel_batch, _unravel_bits


def _word(cells):
    """The word of a list of cells given as the ints 0 and 1, cell 0 first."""
    return Word.from_text("".join(map(str, cells)))


def unravel_oracle(rule, cells):
    """Window-by-window application, the definition read literally."""
    return [rule(cells[i], cells[i + 1], cells[i + 2]) for i in range(len(cells) - 2)]


def test_unravel_examples():
    # hand XOR: windows of 01101 -> 011^110^101 -> 0,0,0
    assert unravel(rule_from_wolfram(150), Word.from_text("01101"), 1).text == "000"
    w = Word.from_text("011010")
    assert unravel(rule_from_wolfram(204), w, 1).text == "1101"
    assert unravel(rule_from_wolfram(0), w, 1) == Word(0, 4)


def test_unravel_matches_oracle():
    # Every rule against the window-by-window definition, through both
    # kernels: the scalar one on a short word and on one wider than a uint64
    # lane, the batch one for several steps on eight words at once.
    rng = random.Random(2)
    for n in range(256):
        rule = rule_from_wolfram(n)
        for m in (rng.randrange(3, 50), rng.randrange(65, 200)):
            cells = [rng.randrange(2) for _ in range(m)]
            assert list(unravel(rule, _word(cells), 1)) == unravel_oracle(rule, cells)
        m = rng.randrange(3, MAX_SUPERCELL_BITS + 1)
        steps = rng.randrange(1, (m - 1) // 2 + 1)
        words = [[rng.randrange(2) for _ in range(m)] for _ in range(8)]
        expected = []
        for cells in words:
            for _ in range(steps):
                cells = unravel_oracle(rule, cells)
            expected.append(_word(cells).bits)
        packed = np.array([_word(cells).bits for cells in words], dtype=np.uint64)
        assert _unravel_batch(n, packed, m, steps).tolist() == expected


def test_unravel_rejects_short_words():
    with pytest.raises(ValueError):
        unravel(rule_from_wolfram(110), Word.from_text("01"), 1)


def test_unravel_step_count_examples():
    w = Word.from_text("011011")
    assert unravel(rule_from_wolfram(110), w, 0) == w
    # two hand iterations of windowed XOR: 011011 -> 0000 -> 00
    r150 = rule_from_wolfram(150)
    assert unravel(r150, w, 1).text == "0000"
    assert unravel(r150, w, 2).text == "00"
    # a word of 2t+1 cells collapses to a single cell
    assert len(unravel(rule_from_wolfram(30), Word.from_text("1011010"), 3)) == 1
    with pytest.raises(ValueError):
        unravel(rule_from_wolfram(30), Word.from_text("1011"), 2)
    with pytest.raises(ValueError):
        unravel(rule_from_wolfram(30), w, -1)


def test_unravel_composes():
    rng = random.Random(4)
    for _ in range(100):
        s = rng.randrange(0, 4)
        t = rng.randrange(0, 4)
        n = rng.randrange(2 * (s + t) + 1, 2 * (s + t) + 20)
        rule = rule_from_wolfram(rng.randrange(256))
        w = Word(rng.getrandbits(n), n)
        assert unravel(rule, w, s + t) == unravel(rule, unravel(rule, w, s), t)


def test_supercell_step_examples():
    r204 = rule_from_wolfram(204)
    u, v, x = (Word.from_text(t) for t in ("01", "10", "11"))
    assert supercell_step(r204, 2, u, v, x) == v
    # hand evaluation on the 6-cell concatenation 100110 under XOR-of-three
    r150 = rule_from_wolfram(150)
    got = supercell_step(r150, 2, Word.from_text("10"), Word.from_text("01"),
                         Word.from_text("10"))
    assert got == unravel(r150, Word.from_text("100110"), 2)
    assert got.text == "01"
    ones = Word.from_text("111")
    assert supercell_step(rule_from_wolfram(0), 3, Word(0, 3), ones, ones) == Word(0, 3)


def test_supercell_step_size_one_is_the_local_rule():
    for n in (0, 30, 90, 110, 184, 255):
        r = rule_from_wolfram(n)
        for i in range(8):
            b1, b2, b3 = (i >> 2) & 1, (i >> 1) & 1, i & 1
            got = supercell_step(r, 1, Word(b1, 1), Word(b2, 1), Word(b3, 1))
            assert got.bits == r(b1, b2, b3)


def test_supercell_step_rejects_size_mismatch():
    r = rule_from_wolfram(110)
    with pytest.raises(ValueError):
        supercell_step(r, 2, Word.from_text("01"), Word.from_text("011"), Word.from_text("10"))
    with pytest.raises(ValueError):
        supercell_step(r, 0, Word(0, 0), Word(0, 0), Word(0, 0))


def test_supercell_step_equals_iterated_unravel():
    rng = random.Random(7)
    for _ in range(100):
        k = rng.randrange(1, 9)
        rule = rule_from_wolfram(rng.randrange(256))
        u, v, x = (Word(rng.getrandbits(k), k) for _ in range(3))
        uvx = Word.from_text(u.text + v.text + x.text)
        assert supercell_step(rule, k, u, v, x) == unravel(rule, uvx, k)


def test_table_cache_memory_is_bounded():
    # A table of size 6 is a list of 2^18 entries (~2 MiB).  The naive scan,
    # the one reader of the tables, must not keep one for each of many
    # emulators it scans at that size; the supercell operation builds none.
    zero = rule_from_wolfram(0)
    _gk_table_list.cache_clear()
    tracemalloc.start()
    try:
        for n in range(64):
            check_emulation_naive(zero, rule_from_wolfram(n), 6)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 64 * 2**20
    _gk_table_list.cache_clear()
    ident = rule_from_wolfram(204)
    witness = EmulationWitness(ident, ident, 6, Encoding(Word(0, 6), Word.from_text("1" * 6)))
    assert witness.holds()
    assert _gk_table_list.cache_info().currsize == 0


def test_batch_kernel_matches_scalar():
    # For every rule, one multi-step call of the scalar kernel equals single
    # steps taken one after another (checked against the window-by-window
    # oracle above) and the batch kernel on the same words; the scalar
    # kernel is also checked on words wider than a uint64 lane.
    rng = random.Random(11)
    for n in range(256):
        for m in (rng.randrange(3, MAX_SUPERCELL_BITS + 1), rng.randrange(63, 200)):
            steps = rng.randrange(1, (m - 1) // 2 + 1)
            words = [rng.getrandbits(m) for _ in range(8)]
            multi = [_unravel_bits(n, w, m, steps) for w in words]
            for w, got in zip(words, multi):
                for s in range(steps):
                    w = _unravel_bits(n, w, m - 2 * s, 1)
                assert got == w
            if m <= MAX_SUPERCELL_BITS:
                batch = _unravel_batch(n, np.array(words, dtype=np.uint64), m, steps)
                assert batch.tolist() == multi


def test_open_window_agrees_with_cyclic_interior():
    # Unrolling a cyclic configuration and unravelling the open copy must
    # reproduce the cyclic trajectory cell for cell.
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(3, 20)
        t = rng.randrange(1, 5)
        rule = rule_from_wolfram(rng.randrange(256))
        cells = [rng.randrange(2) for _ in range(n)]
        unrolled = _word([cells[(j - t) % n] for j in range(n + 2 * t)])
        open_result = unravel(rule, unrolled, t)
        g = _word(cells)
        for _ in range(t):
            g = global_step(rule, g)
        assert open_result == g
