"""Unravelled rules and supercell algebras.

Unravelling applies a local rule to every consecutive 3-cell window of an
open word, shrinking it by two cells.  Applying it k times to a word of
3k cells leaves exactly k cells, which turns a rule into a ternary
operation on "supercells" of k bits: the algebra operation of the derived
automaton on the alphabet of k-bit blocks.  A supercell of size k is just
a Word of length k.

Everything is evaluated on packed words.  ``_window_eval`` computes any
3-input Boolean function simultaneously on all bit positions of a packed
word using a Shannon (multiplexer) decomposition: about a dozen bitwise
operations regardless of word length.  The same code path serves plain
Python integers (arbitrary length) and numpy uint64 arrays (words up to
62 bits, millions at a time).  The exhaustive emulation searches evaluate
the supercell operation ~10^7 times, so this is the package's hot path.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .rules import EcaRule
from .words import Word

# Supercells are ordinary Words whose length equals the supercell size.
Supercell = Word

# Packed kernels keep 3k bits in one uint64 lane.
MAX_SUPERCELL_BITS = 62

# Full lookup tables of the supercell operation are memoized only up to
# this size; 2^(3k) list entries, so 2 MiB per (rule, k) at the limit.
_TABLE_MAX_K = 6


def _two_input(v0: int, v1: int, c, full):
    """Packed evaluation of the single-variable function c -> (v0, v1)[c]."""
    if v0:
        return full if v1 else c ^ full
    return c if v1 else 0


def _window_eval(wolfram: int, a, b, c, full):
    """Evaluate the rule on (a_i, b_i, c_i) at every bit position i.

    ``a``, ``b``, ``c`` and ``full`` must be of one kind: all Python ints,
    or all numpy uint64 values (``full`` may be a scalar).  ``full`` is the
    all-ones mask of the working width; bits above it come out as garbage
    and must be masked by the caller.
    """
    lo = wolfram & 0xF
    hi = wolfram >> 4
    l0 = _two_input(lo & 1, (lo >> 1) & 1, c, full)
    l1 = _two_input((lo >> 2) & 1, (lo >> 3) & 1, c, full)
    h0 = _two_input(hi & 1, (hi >> 1) & 1, c, full)
    h1 = _two_input((hi >> 2) & 1, (hi >> 3) & 1, c, full)
    f0 = l0 ^ (b & (l0 ^ l1))
    f1 = h0 ^ (b & (h0 ^ h1))
    return f0 ^ (a & (f0 ^ f1))


def _unravel_bits(wolfram: int, bits: int, m: int) -> int:
    """One unravelling step on a packed open word of m cells (m >= 3)."""
    full = (1 << m) - 1
    out = _window_eval(wolfram, bits, bits >> 1, bits >> 2, full)
    return out & ((1 << (m - 2)) - 1)


def _unravel_batch(wolfram: int, words: np.ndarray, m: int, steps: int) -> np.ndarray:
    """``steps`` unravelling steps on a uint64 array of packed m-cell words."""
    if m > MAX_SUPERCELL_BITS:
        raise ValueError(f"packed batch kernel limited to {MAX_SUPERCELL_BITS} cells, got {m}")
    if m - 2 * steps < 1:
        raise ValueError(f"cannot unravel {m} cells {steps} times")
    w = words
    for s in range(steps):
        width = m - 2 * s
        full = np.uint64((1 << width) - 1)
        out_mask = np.uint64((1 << (width - 2)) - 1)
        w = _window_eval(wolfram, w, w >> 1, w >> 2, full) & out_mask
        if np.ndim(w) == 0:  # constant rules collapse to a scalar
            w = np.full(words.shape, w, dtype=np.uint64)
    return w


def unravel(r: EcaRule, w: Word) -> Word:
    """Apply the rule to every 3-cell window: out[i] = f(w[i], w[i+1], w[i+2]).

    The output is two cells shorter than the input.
    """
    m = len(w)
    if m < 3:
        raise ValueError(f"cannot unravel a word of {m} cells")
    return Word(_unravel_bits(r.wolfram, w.bits, m), m - 2)


def unravel_iter(r: EcaRule, w: Word, t: int) -> Word:
    """t-fold unravelling; the input must have at least 2t+1 cells."""
    if t < 0:
        raise ValueError(f"negative step count {t}")
    m = len(w)
    if m < 2 * t + 1:
        raise ValueError(f"word of {m} cells too short for {t} unravelling steps")
    bits = w.bits
    for s in range(t):
        bits = _unravel_bits(r.wolfram, bits, m - 2 * s)
    return Word(bits, m - 2 * t)


@lru_cache(maxsize=512)
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
    for s in range(k):
        bits = _unravel_bits(r.wolfram, bits, 3 * k - 2 * s)
    return Word(bits, k)
