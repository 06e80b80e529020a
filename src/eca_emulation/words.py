"""Packed binary words.

A Word stores its cells as bits of a single Python integer, little-endian:
bit ``i`` of ``bits`` is cell ``i``, so the integer value of a word is the
word read as a little-endian number.  Text form puts cell 0 leftmost, e.g.
``Word.from_text("110")`` has cells (1, 1, 0) and ``bits == 0b011 == 3``.

A Word is also a configuration on a cyclic grid, whose cells wrap around
and keep their number under ``rules.global_step``; as an open word it
loses one cell per side per step under ``rules.unravel``.

All values here are immutable; every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

# _BITREV[b] is byte b with its bit order reversed.  It turns the
# little-endian bytes of a word's bits into PBM's raw raster, whose bytes
# hold the first cell in the top bit, and it gives a rule's dual.
_BITREV = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


@dataclass(frozen=True, slots=True)
class Word:
    """A finite sequence of cells in {0, 1}, packed into one integer."""

    bits: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"negative length {self.length}")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError(f"bits 0x{self.bits:x} do not fit in {self.length} cells")

    @classmethod
    def from_bits(cls, cells: Iterable[int]) -> "Word":
        """Pack cells given as the ints 0 and 1, cell 0 first."""
        return cls.from_text("".join(map(str, cells)))

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Parse a string of ASCII '0'/'1' characters, cell 0 first."""
        if not set(text) <= {"0", "1"}:
            raise ValueError(f"word text {text!r} has a character other than 0 and 1")
        return cls(int(text[::-1] or "0", 2), len(text))

    @classmethod
    def zeros(cls, n: int) -> "Word":
        return cls(0, n)

    @classmethod
    def ones(cls, n: int) -> "Word":
        return cls((1 << n) - 1, n)

    @property
    def text(self) -> str:
        # the binary numeral of bits, backwards; an empty word's numeral is "0"
        return f"{self.bits:0{self.length}b}"[::-1][:self.length]

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"cell {i} out of range for length {self.length}")
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.length))

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Word.from_text({self.text!r})"

    def concat(self, other: "Word") -> "Word":
        return Word(self.bits | other.bits << self.length, self.length + other.length)
