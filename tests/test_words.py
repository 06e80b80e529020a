import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from eca_emulation import Word


def test_from_text_packs_little_endian():
    w = Word.from_text("110")
    assert (w.bits, w.length) == (0b011, 3)
    assert list(w) == [1, 1, 0]
    assert w.text == str(w) == "110"
    assert repr(w) == "Word.from_text('110')" and eval(repr(w)) == w


def test_from_bits_roundtrip():
    cells = [0, 1, 1, 0, 1, 0, 0, 1, 1]
    w = Word(sum(c << i for i, c in enumerate(cells)), len(cells))
    assert list(w) == cells
    assert Word.from_text(w.text) == w


def test_indexing():
    w = Word.from_text("0101")
    assert [w[i] for i in range(4)] == [0, 1, 0, 1]
    with pytest.raises(IndexError):
        w[4]
    with pytest.raises(IndexError):
        w[-1]


def test_zeros_ones_and_len():
    assert Word(0, 5).text == "00000"
    assert Word.from_text("11111").bits == 31
    assert len(Word(0, 0)) == 0
    assert Word(0, 0).text == ""


def test_slotted_word_hashes_pickles_and_copies():
    w = Word.from_text("10011")
    assert not hasattr(w, "__dict__")
    assert hash(w) == hash(Word(0b11001, 5)) and w == Word(0b11001, 5)
    for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
        assert twin == w and hash(twin) == hash(w)
    with pytest.raises(AttributeError):
        w.bits = 0


def test_rejects_bad_values():
    with pytest.raises(ValueError):
        Word(8, 3)  # bits beyond the stated length
    with pytest.raises(ValueError):
        Word(-1, 3)
    with pytest.raises(ValueError):
        Word(0, -1)
    with pytest.raises(ValueError):
        Word.from_text("02")
    with pytest.raises(ValueError):
        Word.from_text("\uff11")  # a fullwidth 1: only ASCII 0 and 1 are cells


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 200).flatmap(
    lambda n: st.builds(Word, st.integers(0, (1 << n) - 1), st.just(n))))
def test_text_is_the_cells_in_order(w):
    assert w.text == "".join(str(w[i]) for i in range(len(w)))
