"""Unravelled rules and supercell algebras.

Unravelling applies a local rule to every consecutive 3-cell window of an
open word, shrinking it by two cells.  Applying it k times to a word of
3k cells leaves exactly k cells, which turns a rule into a ternary
operation on "supercells" of k bits: the algebra operation of the derived
automaton on the alphabet of k-bit blocks.  A supercell of size k is just
a Word of length k.

Unravelling runs on packed words through two kernels, each a loop of the
rule's compiled chain step (``rules._chain_step``) and one final mask:
``rules._unravel_bits`` for one Python integer of any length and
``_unravel_batch`` for a numpy array of words up to 62 bits.  Each takes a
step count, and no other code loops over unravelling steps.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .rules import EcaRule, _chain_step, _unravel_bits
from .words import Word

# Supercells are ordinary Words whose length equals the supercell size.
Supercell = Word

# Packed kernels keep 3k bits in one uint64 lane.
MAX_SUPERCELL_BITS = 62

# Full lookup tables of the supercell operation are memoized only up to
# this size; 2^(3k) list entries, so 2 MiB per (rule, k) at the limit, and
# the cache keeps 16 tables, at most ~32 MiB.
_TABLE_MAX_K = 6


def _unravel_batch(wolfram: int, words: np.ndarray, m: int, steps: int) -> np.ndarray:
    """``steps`` unravelling steps on a uint64 array of packed m-cell words,
    masked once at the end like ``_unravel_bits``."""
    if m > MAX_SUPERCELL_BITS:
        raise ValueError(f"packed batch kernel limited to {MAX_SUPERCELL_BITS} cells, got {m}")
    if m - 2 * steps < 1:
        raise ValueError(f"cannot unravel {m} cells {steps} times")
    step = _chain_step(wolfram)
    w = words
    for _ in range(steps):
        w = step(w)
    return w & np.uint64((1 << (m - 2 * steps)) - 1)


def unravel(r: EcaRule, w: Word) -> Word:
    """Apply the rule to every 3-cell window: out[i] = f(w[i], w[i+1], w[i+2]).

    The output is two cells shorter than the input.
    """
    m = len(w)
    if m < 3:
        raise ValueError(f"cannot unravel a word of {m} cells")
    return Word(_unravel_bits(r.wolfram, w.bits, m, 1), m - 2)


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
    3k-bit concatenation.  Only built for k <= _TABLE_MAX_K.  A plain list:
    single-element indexing is ~4x faster than on an ndarray."""
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
    if k <= _TABLE_MAX_K:
        return Word(_gk_table_list(r.wolfram, k)[bits], k)
    return Word(_unravel_bits(r.wolfram, bits, 3 * k, k), k)
