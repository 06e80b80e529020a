"""Unravelled rules and supercell algebras.

Unravelling applies a local rule to every consecutive 3-cell window of an
open word, shrinking it by two cells.  Applying it k times to a word of
3k cells leaves exactly k cells, which turns a rule into a ternary
operation on "supercells" of k bits: the algebra operation of the derived
automaton on the alphabet of k-bit blocks.  A supercell of size k is just
a Word of length k.  The packed kernels that evaluate it live in ``rules``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .rules import MAX_SUPERCELL_BITS  # noqa: F401  (re-exported)
from .rules import EcaRule, _unravel_batch, _unravel_bits
from .words import Word

# Supercells are ordinary Words whose length equals the supercell size.
Supercell = Word


def unravel(r: EcaRule, w: Word) -> Word:
    """Apply the rule to every 3-cell window: out[i] = f(w[i], w[i+1], w[i+2]).

    The output is two cells shorter than the input.
    """
    return unravel_iter(r, w, 1)


def unravel_iter(r: EcaRule, w: Word, t: int) -> Word:
    """t-fold unravelling; the input must have at least 2t+1 cells."""
    if t < 0:
        raise ValueError(f"negative step count {t}")
    m = len(w)
    if m < 2 * t + 1:
        raise ValueError(f"word of {m} cells too short for {t} unravelling steps")
    return Word(_unravel_bits(r.wolfram, w.bits, m, t), m - 2 * t)


@lru_cache(maxsize=16)
def _gk_table_list(wolfram: int, k: int) -> list[int]:
    """Full table of the size-k supercell operation, indexed by the packed
    3k-bit concatenation, for the scalar naive scan.  A plain list:
    single-element indexing is ~4x faster than on an ndarray.  At k = 6 a
    table holds 2^18 entries, 2 MiB, so the 16 cached tables stay under
    ~32 MiB."""
    inputs = np.arange(1 << (3 * k), dtype=np.uint64)
    return _unravel_batch(wolfram, inputs, 3 * k, k).tolist()


def supercell_step(r: EcaRule, k: int, u: Supercell, v: Supercell, x: Supercell) -> Supercell:
    """The ternary supercell operation: k-fold unravelling of u.v.x.

    This is the algebra operation of the derived automaton on k-bit blocks;
    at k=1 it coincides with the local rule itself.
    """
    if k < 1:
        raise ValueError(f"supercell size {k} < 1")
    for name, word in (("u", u), ("v", v), ("x", x)):
        if len(word) != k:
            raise ValueError(f"supercell {name} has {len(word)} cells, expected {k}")
    bits = u.bits | v.bits << k | x.bits << (2 * k)
    return Word(_unravel_bits(r.wolfram, bits, 3 * k, k), k)
