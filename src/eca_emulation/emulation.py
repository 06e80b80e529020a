"""Deciding and certifying the emulation relation between elementary CA.

A rule f is emulated by a rule g with supercell size k when an injective
encoding of f's two states into k-bit supercells turns g's k-step block
dynamics into f exactly: for every neighborhood (s1, s2, s3),

    enc(f(s1, s2, s3)) == supercell_step(g, k, enc(s1), enc(s2), enc(s3)).

Two decision procedures are provided.  ``check_emulation_naive`` scans all
ordered encoding pairs for one candidate f (the naive algorithm);
``emulated_rules`` enumerates the two-element subalgebras of the supercell
algebra of g, which yields *all* emulated rules in a single pass (the
subalgebra algorithm).  Both use the same documented scan order - words
read as little-endian integers, enc0 ascending then enc1 ascending - so
results are deterministic and the two procedures can cross-check each
other on small instances.

``proper_subalgebra_search`` asks whether the supercell algebra contains
*any* proper subalgebra with at least two elements, i.e. whether g can
emulate any automaton with more than one state, non-trivially, at this
supercell size; ``_close`` gives the proper subalgebra that a set of
supercells generates, or None.

Importing this module does not import numpy.  The functions that build
arrays get it from ``_numpy()``, which also keeps glibc's heap: the
enumeration, the closure search, the batched naive scan and its scalar
table, and the encoding table behind ``encode_config``,
``decode_config`` and ``verify_witness``.  The witness types,
``EmulationWitness.holds`` and the scalar kernel stay numpy-free, so
reading a cache or checking witnesses starts without it.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from typing import TYPE_CHECKING

from .rules import (
    EcaRule,
    _DUAL,
    _MIRROR,
    _check_k,
    _conjugates,
    _unravel_batch,
    _unravel_bits,
    rule_from_wolfram,
)
from .words import _BITREV, Word

if TYPE_CHECKING:
    import numpy as np


@cache
def _numpy():
    """numpy, imported once.  Freeing an untouched 16 MiB block raises glibc's
    mmap threshold to 16 MiB and its trim threshold to 32 MiB (mallopt(3)),
    here and in every later fork, so glibc stops trimming the heap top after
    each kernel call and faulting it back in on the next: 746 minor faults,
    not 26,450, for proper_subalgebra_search(30, k), k = 2..14."""
    import numpy

    numpy.empty(1 << 21)  # a larger block is above glibc's cap
    return numpy


# Chunk size for the batched scans; results never depend on it.  At 2^14
# uint64 words (128 KiB) the temporaries of one kernel step stay in a 2 MiB
# L2 cache: on a 2-core Xeon VM (quartiles of 12 alternating runs),
# emulated_rule_map(42, 11, [42, 112]) took 100-110 ms with it and 147-164 ms
# with chunks of 2^16, and draining _closed_pairs(204, 11) 86-100 ms against
# 141-155 ms.
_CHUNK = 1 << 14

# Encoded bits per packed block of verify_witness samples; results never
# depend on it.
_VERIFY_BITS = 1 << 18

# Most entries emulated_rules lists.  It admits every listing at k <= 11,
# the largest being rule 204's 2,048 x 2,047 = 4,192,256 at k = 11 (1.65 GB
# of RSS on a 2-core VM, ~4x per size), and refuses 204 at k = 12.
_MAX_LISTED = 1 << 22


@dataclass(frozen=True)
class Encoding:
    """An injective encoding of the two states: distinct codes of k >= 1 cells."""

    enc0: Word
    enc1: Word

    def __post_init__(self):
        if not 1 <= len(self.enc0) == len(self.enc1) or self.enc0 == self.enc1:
            raise ValueError(f"codes of {len(self.enc0)} and {len(self.enc1)} cells are not "
                             "two distinct words of one length >= 1")

    @property
    def k(self) -> int:
        """The supercell size, the length of each code."""
        return len(self.enc0)

    def __repr__(self) -> str:
        return f"Encoding(k={self.k}, enc0={self.enc0.text}, enc1={self.enc1.text})"


def encode_config(e: Encoding, w: Word) -> Word:
    """Blockwise extension of the encoding: block i of the output is enc(w[i])."""
    return Word(_encode_bits(_encoding_table(e), w.bits, len(w)), e.k * len(w))


def decode_config(e: Encoding, w: Word) -> Word:
    """Inverse of encode_config; raises if some block is not a code word."""
    k = e.k
    if len(w) % k:
        raise ValueError(f"word of {len(w)} cells is not a sequence of {k}-cell blocks")
    n, flip = len(w) // k, e.enc0.bits ^ e.enc1.bits
    j = (flip & -flip).bit_length() - 1  # the first cell where the code words differ
    out = Word(Word.from_text(w.text[j::k]).bits ^ e.enc0[j] * ((1 << n) - 1), n)
    bad = encode_config(e, out).bits ^ w.bits  # nonzero only in blocks that are not code words
    if bad:
        i = ((bad & -bad).bit_length() - 1) // k
        raise ValueError(f"block {i} ({w.text[k * i:k * i + k]}) is not a code word")
    return out


@dataclass(frozen=True)
class EmulationWitness:
    """A certified instance of the relation emulated <=_k emulator."""

    emulated: EcaRule
    emulator: EcaRule
    k: int
    encoding: Encoding

    def __post_init__(self):
        if self.k != self.encoding.k:
            raise ValueError(f"witness size {self.k} != encoding size {self.encoding.k}")

    def holds(self) -> bool:
        """Check the eight defining equations, in one kernel call per rule.

        The 10 cells 0001110100 (a de Bruijn word) hold each neighborhood
        once, as the window at cells i..i+2, i = 0..7.  Block i of the
        k-fold unravelling of their encoding depends only on blocks i..i+2,
        so it is the supercell step of neighborhood i, and comparing the
        whole unravelling with the encoding of f's one step checks exactly
        the eight equations.
        """
        k, code = self.k, (self.encoding.enc0.bits, self.encoding.enc1.bits)
        word = 0b0010111000  # cell 0 lowest

        def enc(bits: int, m: int) -> int:
            return sum(code[bits >> i & 1] << k * i for i in range(m))

        return (_unravel_bits(self.emulator.wolfram, enc(word, 10), 10 * k, k)
                == enc(_unravel_bits(self.emulated.wolfram, word, 10, 1), 8))

    def to_json_dict(self) -> dict:
        return {
            "f": self.emulated.wolfram,
            "g": self.emulator.wolfram,
            "k": self.k,
            "enc0": self.encoding.enc0.text,
            "enc1": self.encoding.enc1.text,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "EmulationWitness":
        """Inverse of to_json_dict; any other shape raises ValueError."""
        try:
            f, g, k, e0, e1 = (d[key] for key in ("f", "g", "k", "enc0", "enc1"))
            if not (all(type(v) is int for v in (f, g, k))
                    and all(type(v) is str for v in (e0, e1))):
                raise ValueError("witness needs integers f, g, k and strings enc0, enc1")
            enc = Encoding(Word.from_text(e0), Word.from_text(e1))
            return cls(rule_from_wolfram(f), rule_from_wolfram(g), k, enc)
        except KeyError as exc:
            raise ValueError(f"witness has no field {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed witness: {exc}") from None


# ---------------------------------------------------------------------------
# Naive decision procedure: scan all encodings for one fixed candidate f.

# The naive scan reads a full table of the supercell operation up to this
# size (a 2^(3k)-entry list from _gk_table_list, through _naive_candidates)
# and runs the batch kernel over the encoding pairs above it.  Per call
# (best of 3 over all 256 f, table and candidates built, 2-core VM) the
# table scan takes 0.6-2.2 us on 30 and 110 at k = 2..6, the batched one
# 32-55 us; the batched one wins only where most supercells are fixed
# points: 204 at k = 6 (~100 against ~40 us; even at k = 5).
_TABLE_MAX_K = 6


def check_emulation_naive(f: EcaRule, g: EcaRule, k: int) -> Encoding | None:
    """Search for an encoding witnessing f <=_k g; None if there is none.

    Scans ordered pairs (enc0, enc1) with enc0 != enc1, enc0 ascending then
    enc1 ascending (words read as little-endian integers), and returns the
    first pair satisfying all eight equations.  The two constant patterns
    (000, 111) read only g's diagonal, so they pick the candidate pairs and
    the six mixed patterns are checked on those.  Up to ``_TABLE_MAX_K``
    the candidates and their six products come from g's table once per
    (g, k), and each f only compares them with its own code words.  It
    shares no code with the subalgebra enumeration, so each checks the
    other.
    """
    _check_k(k)
    if k <= _TABLE_MAX_K:
        return _naive_scan_scalar(f, g, k)
    return _naive_scan_batched(f, g, k)


@lru_cache(maxsize=16)
def _gk_table_list(wolfram: int, k: int) -> list[int]:
    """Full table of the size-k supercell operation, indexed by the packed
    3k-bit concatenation, for the scalar naive scan.  A plain list:
    single-element indexing is ~4x faster than on an ndarray.  At k = 6 a
    table holds 2^18 entries, 2 MiB, so the 16 cached tables stay under
    ~32 MiB.  It calls ``rules._unravel_batch`` directly, so a tracer
    that wraps this module's ``_unravel_batch`` sees only the scans."""
    from . import rules

    np = _numpy()
    inputs = np.arange(1 << (3 * k), dtype=np.uint64)
    return rules._unravel_batch(wolfram, inputs, 3 * k, k).tolist()


@lru_cache(maxsize=16)
def _naive_candidates(wolfram: int, k: int) -> tuple[list[tuple[int, ...]], ...]:
    """For each (f(000), f(111)), entry 2*f(000) + f(111), the pairs (e0, e1)
    the scalar scan visits, in scan order, each as (e0, e1, p1, ..., p6)
    with p_i the supercell product of selection pattern i.  Pattern 000,
    d(e0) = enc(f(000)) for the diagonal d: e1 = d(e0), or e0 is a fixed
    point; then e1 != e0 and pattern 111, d(e1) = enc(f(111)).  None of it
    depends on f, so the 256 scans of one (g, k) share it.  The largest
    entry at k = 6, rule 15's, holds 4,032 pairs in ~0.4 MiB."""
    tab = _gk_table_list(wolfram, k)
    n = 1 << k
    k2 = 2 * k
    d = tab[::1 + n + n * n]  # the diagonal, d[e] = tab[e | e << k | e << 2k]
    every = range(n)
    out = []
    for f0, f7 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        pairs = []
        for e0 in every:
            if f0:
                e1s = (d[e0],)
            elif d[e0] == e0:
                e1s = every
            else:
                continue
            for e1 in e1s:
                if e1 == e0 or d[e1] != (e1 if f7 else e0):
                    continue
                enc = (e0, e1)
                pairs.append((e0, e1, *(tab[enc[(i >> 2) & 1] | enc[(i >> 1) & 1] << k
                                            | enc[i & 1] << k2] for i in range(1, 7))))
        out.append(pairs)
    return tuple(out)


def _naive_scan_scalar(f: EcaRule, g: EcaRule, k: int) -> Encoding | None:
    w = f.wolfram  # f_i is bit i of w
    candidates = _naive_candidates(g.wolfram, k)[2 * (w & 1) + (w >> 7)]
    for e0, e1, p1, p2, p3, p4, p5, p6 in candidates:
        enc = (e0, e1)  # the six mixed patterns, p_i = enc(f_i)
        if (p1 == enc[w >> 1 & 1] and p2 == enc[w >> 2 & 1] and p3 == enc[w >> 3 & 1]
                and p4 == enc[w >> 4 & 1] and p5 == enc[w >> 5 & 1] and p6 == enc[w >> 6 & 1]):
            return Encoding(Word(e0, k), Word(e1, k))
    return None


def _naive_scan_batched(f: EcaRule, g: EcaRule, k: int) -> Encoding | None:
    fbits = [(f.wolfram >> i) & 1 for i in range(8)]
    d = _diagonal_map(g.wolfram, k)
    for e0, e1 in _constant_pattern_pairs(d, fbits[0], fbits[7], k):
        for i in range(1, 7):
            if not len(e0):
                break
            r = _unravel_batch(g.wolfram, _pattern_words(i, e0, e1, k), 3 * k, k)
            keep = r == (e1 if fbits[i] else e0)
            e0, e1 = e0[keep], e1[keep]
        if len(e0):
            return Encoding(Word(int(e0[0]), k), Word(int(e1[0]), k))
    return None


def _constant_pattern_pairs(d: np.ndarray, f0: int, f7: int,
                            k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs (e0, e1), e0 != e1, that meet the two constant patterns,
    d(e0) = enc(f0) and d(e1) = enc(f7) for the diagonal map d, in scan
    order and in chunks of at most ``_CHUNK``.  With f0 = 1 there is at
    most one pair per e0, with f0 = f7 = 0 one per e1; with f0 = 0 and
    f7 = 1 both are fixed points, up to 2^k squared pairs, taken by index."""
    np = _numpy()
    e = np.arange(1 << k, dtype=np.uint64)
    if f0 or not f7:
        if f0:
            e0, e1 = e, d
        else:
            e1 = e[d[d] == d]  # e0 = d(e1) is a fixed point
            e0 = d[e1]
            order = np.argsort(e0, kind="stable")
            e0, e1 = e0[order], e1[order]
        keep = (e0 != e1) & (d[e1] == (e1 if f7 else e0))
        e0, e1 = e0[keep], e1[keep]
        for lo in range(0, len(e0), _CHUNK):
            yield e0[lo:lo + _CHUNK], e1[lo:lo + _CHUNK]
        return
    fixed = e[d == e]
    m = len(fixed)
    for lo in range(0, m * m, _CHUNK):
        i, j = np.divmod(np.arange(lo, min(lo + _CHUNK, m * m), dtype=np.int64), m)
        keep = i != j
        yield fixed[i[keep]], fixed[j[keep]]


# ---------------------------------------------------------------------------
# Subalgebra procedure: enumerate two-element subalgebras, all f at once.

# Stage order for the pair scan: mixed patterns first, they filter fastest.
# The two constant patterns (000, 111) are handled by the diagonal prefilter.
_MIXED_PATTERNS = (1, 2, 4, 3, 5, 6)


def _diagonal_map(wolfram: int, k: int) -> np.ndarray:
    """d[u] = supercell_step(g, k, u, u, u) for every supercell u, written
    into one array in kernel calls of ``_CHUNK`` words."""
    np = _numpy()
    n = 1 << k
    d = np.empty(n, dtype=np.uint64)
    for lo in range(0, n, _CHUNK):
        e = np.arange(lo, min(lo + _CHUNK, n), dtype=np.uint64)
        d[lo:lo + _CHUNK] = _unravel_batch(wolfram, _pattern_words(0, e, e, k), 3 * k, k)
    return d


def _pattern_words(p: int, u: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
    """Packed triples of selection pattern p (i = 4*s1 + 2*s2 + s3): cell
    block j holds v where pattern bit s_j is 1, u where it is 0."""
    np = _numpy()
    x, y, z = (v if (p >> s) & 1 else u for s in (2, 1, 0))
    return x | y << np.uint64(k) | z << np.uint64(2 * k)


def _read_blocks(wolfram: int) -> int:
    """The blocks the k-step supercell operation may read, as pattern bits
    (4: x, 2: y, 1: z): x only if the rule reads its left cell, z only if
    it reads its right cell, y if it reads its centre cell or both outer
    cells.  It reads no other block; it may read fewer (rule 90 at k = 2
    skips y), so the set is safe, not always tight."""
    # the rule reads a cell if flipping it changes the output of some neighborhood
    a, b, c = (any((wolfram >> i ^ wolfram >> (i ^ flip)) & 1 for i in range(8))
               for flip in (4, 2, 1))
    return 4 * a | 2 * (b or (a and c)) | c


@cache
def _pattern_classes(wolfram: int) -> tuple[np.uint16, np.uint16,
                                            tuple[tuple[int, np.uint16], ...]]:
    """The selection patterns grouped by their product, as masks of bits
    1 << p: those that give diag(u) (pattern 0 among them), those that give
    diag(v) (pattern 7 among them), and per other product, in
    ``_MIXED_PATTERNS`` order, (q, mask) with q the pattern to evaluate.
    Pattern p gives the product of q = p & ``_read_blocks(wolfram)``, or of
    pattern 7 when q is all of the read set."""
    np = _numpy()
    read = _read_blocks(wolfram)
    classes = {0: 1, 7: 1 << 7}
    for p in _MIXED_PATTERNS:
        q = p & read
        q = 7 if q == read else q
        classes[q] = classes.get(q, 0) | 1 << p
    to_u, to_v = np.uint16(classes.pop(0)), np.uint16(classes.pop(7))
    return to_u, to_v, tuple((q, np.uint16(bits)) for q, bits in classes.items())


@cache
def _symmetry_tables() -> tuple[np.ndarray, np.ndarray]:
    """``_DUAL`` and ``_MIRROR`` as uint16 arrays, built once per process
    and read-only: every later task shares them, so a write must fail."""
    np = _numpy()
    tables = tuple(np.array(t, dtype=np.uint16) for t in (_DUAL, _MIRROR))
    for t in tables:
        t.flags.writeable = False
    return tables


def _supercell_map(k: int, mirrored: bool, dualized: bool) -> np.ndarray:
    """c[u] is the k-cell supercell u, reversed if mirrored and complemented
    if dualized.  Reversing each byte's bits (``_BITREV``), then the bytes'
    order, reverses a word's 64 bits, and a shift by 64 - k leaves its k
    cells.  A big-endian view would spare the byteswap, but arrays derived
    from it keep a non-builtin descriptor that sends ``np.minimum.at`` down
    its slow path (folding (42, 11) onto its mirror: 152 ms, not 95)."""
    np = _numpy()
    cells = np.arange(1 << k, dtype=np.uint64)
    if mirrored:
        flipped = np.frombuffer(cells.tobytes().translate(_BITREV), dtype=np.uint64)
        cells = flipped.byteswap() >> np.uint64(64 - k)
    if dualized:
        cells = cells ^ np.uint64((1 << k) - 1)
    return cells


def _triangle_starts(m: int) -> np.ndarray:
    """starts[i], the index of the pair (i, i + 1) when the pairs i < j < m
    are numbered in ascending order; starts[m - 1] is their count."""
    np = _numpy()
    rows = np.arange(m, dtype=np.int64)
    return rows * (m - 1) - rows * (rows - 1) // 2


def _triangle_pairs(starts: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) with the indices t, by ``_triangle_starts``."""
    np = _numpy()
    i = np.searchsorted(starts, t, side="right") - 1
    return i, i + 1 + t - starts[i]


def _closed_pairs(wolfram: int, k: int, diag: np.ndarray
                  ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The pairs {u, v} (u < v) closed under the supercell operation, in
    both orientations; ``diag`` is the diagonal map ``_diagonal_map(wolfram, k)``.

    Yields chunks (U, V, W) in scan order: the pairs of a chunk ascend by
    (u, v) and every pair of a chunk precedes every pair of the next.
    W[j] is the rule induced by the orientation (enc0, enc1) = (U[j], V[j]):
    bit i is set when selection pattern i (i = 4*s1 + 2*s2 + s3, selecting
    v where the pattern bit is 1) evaluates to v.  Each such chunk is
    followed at once by its swapped chunk (V, U, dual[W]), as swapping the
    orientation induces the dual rule; no other code swaps a pair.

    The constant patterns (000, 111) prune the candidates without touching
    the pair space: a closed pair either consists of two diagonal fixed
    points, or pairs an element with its diagonal image.  The fixed-point
    pairs form a triangle (row i pairs fix[i] with fix[i+1:]) that is
    generated in key order by index arithmetic (``_triangle_starts``); the
    at most 2^k image pairs are sorted once and merged into the chunk their
    keys fall in.  An image pair holds a moved element, so no pair comes
    from both sources.  Every candidate therefore maps u and v into {u, v}
    on the diagonal.

    An image pair {a, b = d(a)} with a moved and d(b) in {a, b} comes up
    twice, from a and from b, exactly when d(b) = a; it is kept from a when
    d(b) = b or a < b, so the keys are distinct without ``np.unique``,
    whose first call imports ``numpy.ma`` (numpy 2.4: 13-16 ms of CPU in
    every process that enumerates, on a 2-core VM).

    Each chunk of at most ``_CHUNK`` candidates then runs through the mixed
    patterns, which record their "hit v" bits as they filter.  Patterns
    that differ only in blocks the operation does not read give one product
    (``_pattern_classes``), evaluated once for all of them; a product that
    equals a constant pattern's is the diagonal map's, so it keeps every
    candidate and costs no kernel call.  Rules that read one cell or none
    (0, 15, 51, 85, 170, 204, 240, 255) thus make no kernel call past the
    diagonal map, every fixed-point pair of theirs is closed and induces
    the same rule, and 20 rules evaluate 2 products instead of 6.  The
    survivors and W are those of all six patterns, and nothing of the size
    of the pair space is ever built.  Chunks in which no candidate survives
    are not yielded.
    """
    np = _numpy()
    n = 1 << k
    sk = np.uint64(k)
    to_u, to_v, evaluated = _pattern_classes(wolfram)
    dual = _symmetry_tables()[0]
    elems = np.arange(n, dtype=np.uint64)
    moved = diag != elems
    fix = elems[~moved]
    a, b = elems[moved], diag[moved]
    db = diag[b.astype(np.int64)]
    keep = (db == b) | (db == a) & (a < b)
    a, b = a[keep], b[keep]
    images = np.sort(np.minimum(a, b) << sk | np.maximum(a, b))
    m = len(fix)
    starts = _triangle_starts(m)
    total = m * (m - 1) // 2
    lo = taken = 0
    while lo < total or taken < len(images):
        i, j = _triangle_pairs(starts, np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64))
        tri = fix[i] << sk | fix[j]
        # The first _CHUNK keys of the merge lie in these two prefixes.
        keys = np.sort(np.concatenate([tri, images[taken:taken + _CHUNK]]),
                       kind="stable")[:_CHUNK]
        from_tri = int(np.searchsorted(tri, keys[-1], side="right"))
        lo += from_tri
        taken += len(keys) - from_tri
        u = keys >> sk
        v = keys & np.uint64(n - 1)
        w = ((diag[u.astype(np.int64)] == v) * to_u
             | (diag[v.astype(np.int64)] == v) * to_v)
        for q, bits in evaluated:
            if not len(u):
                break
            r = _unravel_batch(wolfram, _pattern_words(q, u, v, k), 3 * k, k)
            hit = r == v
            keep = hit | (r == u)
            w |= hit * bits
            u, v, w = u[keep], v[keep], w[keep]
        if len(u):
            yield u, v, w
            yield v, u, dual[w]


def emulated_rules(g: EcaRule, k: int) -> list[tuple[EcaRule, Encoding]]:
    """All rules f with f <=_k g, each with a witnessing encoding.

    Every closed pair is reported in both orientations (``_closed_pairs``),
    so the result is closed under duality.  Entries are sorted by
    (wolfram, enc0, enc1), and no entry repeats.

    Permissive rules at large k admit millions of closed pairs, so once the
    entries, counted chunk by chunk, pass ``_MAX_LISTED`` the listing is
    refused with ValueError before any Encoding is built.  That is the
    refusal half of bounding its memory; listing straight from the arrays
    is the open half.  emulated_rule_map keeps one witness per rule.
    """
    _check_k(k)
    np = _numpy()
    chunks, listed = [], 0
    for chunk in _closed_pairs(g.wolfram, k, _diagonal_map(g.wolfram, k)):
        listed += len(chunk[0])
        if listed > _MAX_LISTED:
            raise ValueError(f"rule {g.wolfram} at k = {k} lists more than "
                             f"{_MAX_LISTED} encodings")
        chunks.append(chunk)
    if not chunks:
        return []
    e0, e1, wol = (np.concatenate(c) for c in zip(*chunks))
    order = np.lexsort((e1, e0, wol))
    return [(rule_from_wolfram(f), Encoding(Word(a, k), Word(b, k)))
            for f, a, b in zip(wol[order].tolist(), e0[order].tolist(), e1[order].tolist())]


def emulated_rule_map(g: EcaRule, k: int, targets=None) -> dict:
    """Map each emulated Wolfram number to its minimal witnessing encoding.

    Same relation as emulated_rules, aggregated: for every f with f <=_k g
    the value is the scan-order-minimal (enc0, enc1) pair, i.e. the first
    entry for f in emulated_rules.  Each chunk of oriented closed pairs is
    folded into a per-rule minimum of enc0 << k | enc1, so memory stays
    flat in k; the map has at most 256 entries per target, in ascending f.

    ``targets``, a sequence of rules in g's orbit under mirror and dual,
    asks for the maps of all of them from g's one enumeration; the result
    is then keyed (t, f) and holds, for each target t, exactly the entries
    of emulated_rule_map(t, k).  The maps carry closed pairs one-to-one:
    f <=_k g via (u, v) exactly when mirror(f) <=_k mirror(g) via the
    reversed supercells (rev u, rev v), and exactly when f <=_k dual(g)
    via the complements (~u, ~v).  So each chunk is folded once per target
    through the map that carries g to it, and the minimum over the images
    of all of g's closed pairs is t's own scan-order-minimal witness.

    When g reads one cell or none (``_pattern_classes`` evaluates no
    product: 0, 15, 51, 85, 170, 204, 240, 255), its k-step operation is a
    constant or one block, complemented or not, so 1, 0 or all 2^k
    supercells are diagonal fixed points.  With all fixed, each product is
    u or v, so every pair u != v is closed and induces ``to_v`` (170, 204
    or 240, each its own dual) in both orientations; a target's supercell
    map is a bijection, so its map is ``to_v`` (mirrored for a mirrored
    target) keyed 0 << k | 1, written without a fold of the 2^k(2^k - 1)
    oriented pairs, 4,192,256 for rule 204 at k = 11.  Otherwise no two
    supercells are fixed, and ``_closed_pairs`` scans only image pairs.
    """
    _check_k(k)
    np = _numpy()
    n = 1 << k
    none = np.iinfo(np.uint64).max
    sk = np.uint64(k)
    mirror_arr = _symmetry_tables()[1]
    orbit = _conjugates(g.wolfram)
    folds = []  # (t, per-rule minimum, supercell map or None, mirrored)
    for t in (g.wolfram,) if targets is None else targets:
        if t not in orbit:
            raise ValueError(f"rule {t} is not in the mirror/dual orbit of rule {g.wolfram}")
        mirrored, dualized = orbit[t]
        cells = _supercell_map(k, mirrored, dualized) if mirrored or dualized else None
        folds.append((t, np.full(256, none, dtype=np.uint64), cells, mirrored))
    to_v, evaluated = _pattern_classes(g.wolfram)[1:]
    diag = _diagonal_map(g.wolfram, k)
    if not evaluated and (diag == np.arange(n, dtype=np.uint64)).all():
        for _, best, _, mirrored in folds:
            best[_MIRROR[to_v] if mirrored else to_v] = 1  # (Word(0, k), Word(1, k))
    else:
        for u, v, w in _closed_pairs(g.wolfram, k, diag):
            for _, best, cells, mirrored in folds:
                a, b = (u, v) if cells is None else (cells[u.astype(np.int64)],
                                                     cells[v.astype(np.int64)])
                np.minimum.at(best, mirror_arr[w] if mirrored else w, a << sk | b)
    mask = n - 1
    return {f if targets is None else (t, f): Encoding(Word(key >> k, k), Word(key & mask, k))
            for t, best, _, _ in folds for f, key in enumerate(best.tolist()) if key != none}


# ---------------------------------------------------------------------------
# Witness verification and composition.

def verify_witness(w: EmulationWitness, length: int, horizon: int,
                   samples: int = 100, seed: int = 0) -> bool:
    """Check the commuting identity on random open words.

    Draws ``samples`` pseudo-random words of ``length`` cells (Mersenne
    Twister, ``random.Random(seed)``, one ``getrandbits(length)`` per
    sample) and checks, for t = 1..horizon, that encoding the t-fold
    unravelling of the word equals the (k*t)-fold unravelling of the
    encoded word.  The eight 3-cell neighborhoods are always checked first,
    so a witness violating the defining equations fails regardless of the
    sample draw.

    Step t is checked against step t - 1, not against the start: with F_t
    f's t-th step, enc(F_t) is compared with k steps of g on enc(F_(t-1)),
    on the m_t = length - 2t valid cells.  Output cell i reads only input
    cells i..i+2k, valid cells of step t - 1, where enc(F_(t-1)) equals
    k*(t-1) steps of g on the encoded start if every earlier step agreed.
    So by induction step t agrees in both forms or fails in both, and both
    give the same first failure and the same verdict.

    The samples are checked side by side: consecutive draws are packed into
    one integer, sample j at cell offset j*length, in blocks of n samples
    and at most ``_VERIFY_BITS`` encoded bits (or one sample).  A window
    never mixes the valid cells of two samples, and the garbage it makes
    lands only in cells the comparison masks.  The steps run in groups of
    s = max(1, _VERIFY_BITS // (k*n*length) - 1): steps t0..t0+s side by
    side, one segment each, one g-side kernel call over segments
    t0..t0+s-1 and one masked comparison with segments t0+1..t0+s.  So a
    group holds about two blocks of bits whatever the horizon.  The draws
    are the same as one sample at a time, so the verdict is too, bit for bit.

    Every encoding of one f shares the first group of the first block:
    enc(x) = e0 * R ^ (e0 ^ e1) * spread(x), R the repunit of k-cell blocks
    and spread(x) the encoding with codes 0 and 1, as no block carries into
    the next.  ``_first_group`` caches spread and R, so verifying a listing,
    which ascends by f, builds one trajectory per run of f.  Later groups
    and blocks are encoded through the witness's own table, and later blocks
    continue from the generator state cached with the first block's draws.
    """
    if horizon < 0:
        raise ValueError(f"negative horizon {horizon}")
    if length < 2 * horizon + 1 or length < 3:
        raise ValueError(f"length {length} too short for horizon {horizon}")
    if samples < 0:
        raise ValueError(f"negative sample count {samples}")
    if not w.holds():
        return False
    f, g, k = w.emulated.wolfram, w.emulator.wolfram, w.k
    e0 = w.encoding.enc0.bits
    flip = e0 ^ w.encoding.enc1.bits
    per_block = max(1, _VERIFY_BITS // (k * length))
    for lo in range(0, samples if horizon else 0, per_block):  # no step, no check
        n = min(per_block, samples - lo)
        seg = k * n * length  # encoded bits a step
        per_group = max(1, _VERIFY_BITS // seg - 1)
        if lo or horizon > per_group:  # some step of this block is not cached
            table = _encoding_table(w.encoding)
        if not lo:
            spread, rep, fbits, state = _first_group(f, k, seed, length, n,
                                                     min(per_group, horizon))
        else:
            if lo == per_block:  # later blocks continue the first block's draws
                rng = random.Random()
                rng.setstate(state)
            fbits = _pack([rng.getrandbits(length) for _ in range(n)], length)
            top = _encode_bits(table, fbits, n * length)
        for t0 in range(0, horizon, per_group):
            s = min(per_group, horizon - t0)
            if lo or t0:
                high, fbits = _encoded_steps(table, f, fbits, n * length, t0, s)
                low = top | (high & ((1 << (s - 1) * seg) - 1)) << seg
            else:
                low = e0 * rep ^ flip * spread
                high = low >> seg
            top = high >> (s - 1) * seg  # step t0 + s starts the next group
            if (_unravel_bits(g, low, s * seg, k) ^ high) & _group_mask(k, length, n, t0, s):
                return False
    return True


@lru_cache(maxsize=8)
def _first_block(seed: int, length: int, n: int) -> tuple[int, tuple]:
    """verify_witness's first block: n draws of ``random.Random(seed)``,
    ``getrandbits(length)`` each, packed, and the generator's state after
    them.  A listing verified with one seed draws them once."""
    rng = random.Random(seed)
    return _pack([rng.getrandbits(length) for _ in range(n)], length), rng.getstate()


@lru_cache(maxsize=8)
def _first_group(f: int, k: int, seed: int, length: int, n: int,
                 s: int) -> tuple[int, int, int, tuple]:
    """verify_witness's first group of steps of its first block, for every
    encoding at once: the s + 1 steps spread to k bits a cell (the encoding
    with codes 0 and 1), the repunit of k-bit blocks over them, step s, and
    the generator state of ``_first_block``.  The witnesses of one f in a
    listing build it once.  An entry holds about four blocks of bits, or
    four samples' worth when one sample fills a block."""
    first, state = _first_block(seed, length, n)
    table, seg = _encoding_table(Encoding(Word(0, k), Word(1, k))), n * length
    steps, fbits = _encoded_steps(table, f, first, seg, 0, s)
    spread = _encode_bits(table, first, seg) | steps << k * seg
    return spread, ((1 << k * (s + 1) * seg) - 1) // ((1 << k) - 1), fbits, state


def _encoded_steps(table: np.ndarray, f: int, fbits: int, cells: int, t0: int,
                   s: int) -> tuple[int, int]:
    """Steps t0+1..t0+s of rule f on a block of packed samples, ``cells``
    cells in all, given step t0: side by side, one segment of ``cells``
    each, encoded through an _encoding_table; and step t0+s, where the next
    group starts."""
    words = []
    for t in range(t0, t0 + s):
        fbits = _unravel_bits(f, fbits, cells - 2 * t, 1)
        words.append(fbits)
    return _encode_bits(table, _pack(words, cells), s * cells), fbits


@lru_cache(maxsize=8)
def _group_mask(k: int, length: int, n: int, t0: int, s: int) -> int:
    """The valid cells of verify_witness's steps t0+1..t0+s of n encoded
    samples, step t0+1+j in segment j: one group's comparison mask, the
    same for every witness of one size."""
    starts = _sample_starts(k * length, n)
    return _pack([(starts << k * (length - 2 * t)) - starts
                  for t in range(t0 + 1, t0 + s + 1)], k * n * length)


@lru_cache(maxsize=8)
def _sample_starts(width: int, n: int) -> int:
    """One bit at the start of each of n packed samples of ``width`` bits,
    the repeat of each segment of a _group_mask: a division of a
    block-sized integer, the same for every group of one block size."""
    return ((1 << width * n) - 1) // ((1 << width) - 1)


def _encoding_table(enc: Encoding) -> np.ndarray:
    """Row b holds the k bytes encoding the 8 cells of byte b, little-endian."""
    np = _numpy()
    k, e0 = enc.k, enc.enc0.bits
    flip = e0 ^ enc.enc1.bits
    table = sum(e0 << (k * i) for i in range(8))  # row 0 alone
    rep = 1  # one bit at the start of each row so far
    span = 8 * k  # bits in the rows so far
    for i in range(8):  # row b | 1 << i is row b with cell i flipped
        table |= (table ^ rep * (flip << (k * i))) << span
        rep |= rep << span
        span *= 2
    return np.frombuffer(table.to_bytes(256 * k, "little"), np.uint8).reshape(256, k)


def _encode_bits(table: np.ndarray, bits: int, m: int) -> int:
    """Encode the m packed cells of ``bits`` through an _encoding_table:
    cell i becomes bits k*i..k*i+k-1, so byte j becomes bytes k*j..k*j+k-1."""
    np = _numpy()
    cells = np.frombuffer(bits.to_bytes((m + 7) // 8, "little"), np.uint8)
    encoded = int.from_bytes(table.take(cells, axis=0).tobytes(), "little")
    return encoded & ((1 << table.shape[1] * m) - 1)


def _pack(words: list[int], width: int) -> int:
    """Concatenate words of ``width`` bits, words[0] lowest, in pairs: linear
    in the total size, where OR-ing them in one by one is quadratic."""
    while len(words) > 1:
        pairs = [lo | hi << width for lo, hi in zip(words[::2], words[1::2])]
        if len(words) % 2:
            pairs.append(words[-1])
        words, width = pairs, 2 * width
    return words[0]


def compose_witnesses(w1: EmulationWitness, w2: EmulationWitness) -> EmulationWitness:
    """From f <=_k g and g <=_l h, produce f <=_(k*l) h.

    The composite encoding maps each state through the first encoding and
    then encodes every cell of the result with the second.
    """
    if w1.emulator != w2.emulated:
        raise ValueError(
            f"cannot compose: first witness emulator is rule {w1.emulator.wolfram}, "
            f"second emulated is rule {w2.emulated.wolfram}")
    enc = Encoding(encode_config(w2.encoding, w1.encoding.enc0),
                   encode_config(w2.encoding, w1.encoding.enc1))
    out = EmulationWitness(w1.emulated, w2.emulator, w1.k * w2.k, enc)
    if not out.holds():
        raise AssertionError("composed witness fails the defining equations")
    return out


# ---------------------------------------------------------------------------
# Subalgebra closures.

@dataclass(frozen=True)
class Subalgebra:
    """A subset of the k-bit supercells closed under the supercell operation."""

    rule: EcaRule
    k: int
    elements: frozenset[Word]

    def __post_init__(self):
        _check_k(self.k)
        for w in self.elements:
            if len(w) != self.k:
                raise ValueError(f"supercell has {len(w)} cells, expected {self.k}")


def _close(wolfram: int, k: int, seeds: list[int],
           full_generators: np.ndarray) -> list[int] | None:
    """Closure of the seed set under the supercell operation, or None once
    it is the whole algebra or holds an element marked in
    ``full_generators``, as known to generate the whole algebra.

    Incremental: each round evaluates only the triples touching elements
    added in the previous round, each once, in the tiles of
    ``_triple_tiles``, and stops as soon as the closure is answered.  The
    element list is in order of discovery, which follows the tile order.
    """
    np = _numpy()
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
        # Triples with at least one new coordinate, without duplicates:
        # (new, cur, cur) + (old, new, cur) + (old, old, new).
        for xs, ys, zs in ((new, cur, cur), (old, new, cur), (old, old, new)):
            for w in _triple_tiles(xs, ys, zs, k):
                r = _unravel_batch(wolfram, w, 3 * k, k).astype(np.int64)
                r = r[~member[r]]
                if len(r):
                    # dedupe by marking, not hashing; fresh comes out sorted
                    seen = np.zeros(n, dtype=bool)
                    seen[r] = True
                    fresh = np.flatnonzero(seen)
                    member[fresh] = True
                    elems.extend(fresh.tolist())
                    if len(elems) == n or full_generators[fresh].any():
                        return None
    return elems


def _triple_tiles(xs: np.ndarray, ys: np.ndarray, zs: np.ndarray,
                  k: int) -> Iterator[np.ndarray]:
    """The packed triples x | y << k | z << 2k of the block xs × ys × zs,
    each once, in tiles of at most ``_CHUNK`` words.

    Position (s, j, i) of the block, s slowest, holds (xs[i], ys[j],
    zs[(s + j + i) mod nz]); a tile is a box of positions.  So a tile
    spans all three coordinates, where a lexicographic walk holds one x for
    nz * ny words: a closure that fills the algebra meets its new elements
    in the first tiles, whichever block the rule reads.  No word costs
    index arithmetic or a gather: the z part of a tile at (s, j, i) is a
    view of ``zs`` extended cyclically to nz + ny + nx entries, starting
    at s + j + i with a stride of one entry on all three axes.  Its last
    entry is at most nz + ny + nx - 3, and numpy refuses a view that
    would leave the extension.
    """
    np = _numpy()
    nx, ny, nz = len(xs), len(ys), len(zs)
    if not nx * ny * nz:
        return
    di = min(nx, _CHUNK)
    dj = min(ny, max(1, _CHUNK // nx))
    ds = min(nz, max(1, _CHUNK // (nx * ny)))
    z = (zs << np.uint64(2 * k))[np.arange(nz + ny + nx) % nz]  # zs[t mod nz] << 2k
    y = ys[:, None] << np.uint64(k)
    for s in range(0, nz, ds):
        for j in range(0, ny, dj):
            for i in range(0, nx, di):
                box = (min(ds, nz - s), min(dj, ny - j), min(di, nx - i))
                zt = np.ndarray(box, z.dtype, z, (s + j + i) * z.itemsize, z.strides * 3)
                yield (zt | y[j:j + dj] | xs[i:i + di]).reshape(-1)


def _as_subalgebra(g: EcaRule, k: int, elems: list[int]) -> Subalgebra:
    return Subalgebra(g, k, frozenset(Word(e, k) for e in elems))


def proper_subalgebra_search(g: EcaRule, k: int) -> Subalgebra | None:
    """Some proper subalgebra with >= 2 elements, or None if there is none.

    At k = 1 the only pair is the whole algebra, so there is none.  Any
    closed pair found by the pair scan is already an answer.  Otherwise the
    singleton closures are resolved in ascending order of u: the first
    proper one with >= 2 elements is the answer, the full ones disqualify
    their element from further pairing, and the fixed points are paired up.
    In both phases ``_close`` answers a full closure with None.  This is
    exhaustive: a proper subalgebra S with u, v in S forces the singleton
    closures of u and v to stay inside S, so once the singleton sweep found
    nothing, only pairs of fixed points remain possible seeds.  No answer
    for any rule at k = 2..10 comes from those pairs, but without them the
    search would not be exhaustive.

    The pair phase closes few pairs.  Once the sweep is done, the marked
    elements are exactly the moved ones, so a pair of fixed points with a
    moved mixed product generates everything (fact 1).  closure({u, v})
    holds the six mixed products c1..c6 of (u, v), so if any pair drawn
    from {u, v, c1..c6} generates everything, (u, v) does too (fact 2).
    The m(m - 1)/2 pairs of the m fixed points, numbered in ascending
    order by the triangle arithmetic of ``_closed_pairs``, are taken in
    segments of m - 1 pairs more than all segments before (the first is
    the first row).  In a segment, (1) the mixed products of every pair
    (those ``_pattern_classes`` tells apart) are evaluated in kernel calls
    of about ``_CHUNK`` words, and each pair with a moved product is
    marked; (2) the marks spread through each pair's 28 sub-pairs until a
    pass marks nothing (``_mark_full_pairs`` does (1) and (2) in the same
    passes); (3) the unmarked pairs are closed in ascending order.  A
    proper closure is the answer, the same pair and set as when every pair
    is closed; a full one marks its pair, and the marks spread again.  The
    marks reach one fixpoint per segment whatever the blocks, so the pairs
    closed do not depend on ``_CHUNK``, and an answer at pair t costs the
    products of at most 2t + m pairs a pass, not of the whole triangle.
    On a 2-core VM rule 150 at k = 7, whose 128 supercells are all fixed,
    closes 1 of its 8,128 pairs (~3.1 s to ~15 ms); 30 and 45 close none
    at k = 2..11, where they closed 268; and 150 at k = 14 answers at its
    first pair after one segment of 16,383 pairs (~0.1 s), where a pass
    over all 134,209,536 takes ~74 s.  Only the marks, one byte per pair,
    and a 2^k-entry index of the fixed points outlive a block: 128 MiB at
    m = 16,384, the largest triangle any accepted size can give (105 and
    150 reach it at k = 14; 60 and 90 have it at k = 15).

    The sweep closes few singletons.  With d the diagonal map, the
    children of u are d(u) and the six mixed products of the pair (u, d(u));
    the eighth, d(d(u)), is d(u) or a child of it, so marks reach it through
    d(u).  Each child c lies in closure(u), so closure(c) is a subset of
    closure(u), and a child that generates the full algebra makes u
    generate it too.  The sweep walks u in ascending order, skips the fixed
    points (d(u) = u, whose closure is {u}) and the elements already known
    to generate everything, and closes only the u that remain.  A proper
    closure is the answer; a full one marks u, and the marks are propagated
    backwards, from children to parents, until nothing changes.  Only
    elements whose closure is full are ever marked, so the sweep stops at
    the same u as one that closes every singleton, with the same set.
    The children table holds 7 x 2^k int32 entries, 28 MiB at k = 20; the
    kernel writes it in blocks of ``_CHUNK`` words.
    """
    _check_k(k)
    np = _numpy()
    n = 1 << k
    if n == 2:
        return None
    diag = _diagonal_map(g.wolfram, k)
    for U, V, _ in _closed_pairs(g.wolfram, k, diag):
        return _as_subalgebra(g, k, [int(U[0]), int(V[0])])
    cells = np.arange(n, dtype=np.uint64)
    moved = diag != cells
    # Row j, column u: a child of u, the six mixed products and then d(u).
    # One kernel call of about _CHUNK words takes all six of a block of u.
    kids = np.empty((7, n), dtype=np.int32)
    step = max(1, _CHUNK // len(_MIXED_PATTERNS))
    for lo in range(0, n, step):
        u, v = cells[lo:lo + step], diag[lo:lo + step]
        words = np.concatenate([_pattern_words(p, u, v, k) for p in _MIXED_PATTERNS])
        kids[:6, lo:lo + step] = _unravel_batch(g.wolfram, words, 3 * k, k).reshape(6, -1)
    kids[6] = diag
    blows_up = np.zeros(n, dtype=bool)
    for u in range(n):
        if blows_up[u] or not moved[u]:
            continue
        elems = _close(g.wolfram, k, [u], blows_up)
        if elems is not None:
            return _as_subalgebra(g, k, elems)
        blows_up[u] = True
        while True:
            grew = moved & ~blows_up & blows_up[kids].any(axis=0)
            if not grew.any():
                break
            blows_up |= grew
    elems = _fixed_pair_search(g.wolfram, k, np.flatnonzero(~moved), blows_up)
    return None if elems is None else _as_subalgebra(g, k, elems)


def _fixed_pair_search(wolfram: int, k: int, fix: np.ndarray,
                       blows_up: np.ndarray) -> list[int] | None:
    """Steps 1-3 of proper_subalgebra_search, segment by segment: the first
    proper closure of a pair of the ascending fixed points ``fix``, or
    None; ``blows_up`` marks exactly the moved elements."""
    np = _numpy()
    starts = _triangle_starts(len(fix))
    full = np.zeros(len(fix) * (len(fix) - 1) // 2, dtype=bool)
    lo = 0  # every pair before lo is marked
    while lo < len(full):
        hi = min(len(full), 2 * lo + len(fix) - 1)
        _mark_full_pairs(wolfram, k, fix, full, lo, hi)
        t = lo
        while t < hi:
            t += int(full[t:hi].argmin())  # the next unmarked pair, if any
            if full[t]:
                break
            i, j = _triangle_pairs(starts, t)
            elems = _close(wolfram, k, [int(fix[i]), int(fix[j])], blows_up)
            if elems is not None:
                return elems
            full[t] = True
            _mark_full_pairs(wolfram, k, fix, full, t + 1, hi)
        lo = hi
    return None


def _mark_full_pairs(wolfram: int, k: int, fix: np.ndarray, full: np.ndarray,
                     start: int, stop: int) -> None:
    """Steps 1-2 of proper_subalgebra_search on the pairs start..stop - 1:
    mark in ``full`` each pair with a moved product or a marked sub-pair,
    in passes over the unmarked pairs, block by block, until a pass marks
    nothing.  A block takes one kernel call of about ``_CHUNK`` words."""
    evaluated = _pattern_classes(wolfram)[2]
    if not evaluated:
        return  # every product is u or v: nothing shows a pair full
    np = _numpy()
    index = np.full(1 << k, -1, dtype=np.int64)  # a fixed point's place in fix
    index[fix] = np.arange(len(fix))
    starts = _triangle_starts(len(fix))
    cells = fix.astype(np.uint64)
    step = max(1, _CHUNK // len(evaluated))
    grew = True
    while grew:
        grew = False
        for lo in range(start, stop, step):
            t = lo + np.flatnonzero(~full[lo:min(lo + step, stop)])
            if not len(t):
                continue
            i, j = _triangle_pairs(starts, t)
            words = np.concatenate([_pattern_words(q, cells[i], cells[j], k) for q, _ in evaluated])
            kids = index[_unravel_batch(wolfram, words, 3 * k, k).astype(np.int64)]
            kids = kids.reshape(len(evaluated), len(t))
            hit = (kids < 0).any(axis=0)  # a moved product
            cols = [c[~hit] for c in (i, j, *kids)]
            # x = y gives an index in [-1, len(full)) that the mask drops
            sub = np.zeros(len(cols[0]), dtype=bool)
            for a, b in combinations(cols, 2):
                x, y = np.minimum(a, b), np.maximum(a, b)
                sub |= (x < y) & full[starts[x] + y - x - 1]
            hit[~hit] = sub
            if hit.any():
                full[t[hit]] = True
                grew = True
