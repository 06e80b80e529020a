"""Elementary cellular automaton rules and their symmetries.

A local rule maps a neighborhood (b1, b2, b3) of three cells to one output
bit.  Rules are identified by their Wolfram number: bit ``i`` of the number
is the output for the neighborhood whose index is ``i = 4*b1 + 2*b2 + b3``.
That index convention is used everywhere in this package.

Unravelling applies a rule to every 3-cell window of an open word.  Done
k times to 3k cells it leaves k: ``supercell_step``, the rule's ternary
operation on k-cell Words ("supercells").

Rules are evaluated on packed words.  Each rule has its own minimal
Boolean chain over the word and its shifts by one and two cells: no
operations for rules 0, 240 and 255, one for rules 15, 170 and 204, at
most seven for any rule, 4.9 on average.  ``_chain_step`` compiles a
rule's chain on first use into one unravelling step that serves Python
integers (any length) and numpy uint64 arrays (words up to
``MAX_SUPERCELL_BITS`` cells, millions at a time) alike.  ``_unravel_bits``
loops it and masks once at the end; ``_unravel_batch`` is the same call on
an array, its lane width checked.  All unravelling in the package goes
through these two, ~10^7 supercell operations per exhaustive search, so
this is the package's hot path.

This module never imports numpy.  A compiled step uses only the
operators that ints and arrays share, so ``_unravel_batch`` runs on the
arrays its callers in ``emulation`` build, and a process that evaluates
only Python integers never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

from .words import _BITREV, Word

if TYPE_CHECKING:
    import numpy as np

# The array kernels keep a packed word of 3k cells in one uint64 lane.
MAX_SUPERCELL_BITS = 62


def _check_k(k: int) -> None:
    """Reject a supercell size the packed array kernels cannot take."""
    if k < 1:
        raise ValueError(f"supercell size {k} < 1")
    if 3 * k > MAX_SUPERCELL_BITS:
        raise ValueError(
            f"supercell size {k} exceeds the packed kernel limit {MAX_SUPERCELL_BITS // 3}")


@dataclass(frozen=True)
class EcaRule:
    """An elementary CA local rule, identified by its Wolfram number."""

    wolfram: int

    def __post_init__(self):
        if not 0 <= self.wolfram <= 255:
            raise ValueError(f"Wolfram number {self.wolfram} not in 0..255")

    @property
    def table(self) -> tuple[int, ...]:
        """Output bits indexed by neighborhood index 4*b1 + 2*b2 + b3."""
        return tuple((self.wolfram >> i) & 1 for i in range(8))

    def __call__(self, b1: int, b2: int, b3: int) -> int:
        """Apply the local rule to one neighborhood."""
        for b in (b1, b2, b3):
            if b not in (0, 1):
                raise ValueError(f"neighborhood value {b!r} is not a bit")
        return (self.wolfram >> (4 * b1 + 2 * b2 + b3)) & 1

    def __repr__(self) -> str:
        return f"EcaRule({self.wolfram})"


_RULES = tuple(EcaRule(n) for n in range(256))


def rule_from_wolfram(n: int) -> EcaRule:
    """Return the rule with Wolfram number ``n`` (0..255)."""
    if not isinstance(n, int) or not 0 <= n <= 255:
        raise ValueError(f"Wolfram number {n!r} not in 0..255")
    return _RULES[n]


# dual(n): swap the roles of the 0 and 1 states on inputs and output.
# Closed form: complementing all three inputs reverses the neighborhood
# index (i -> 7-i), complementing the output flips each bit.
_DUAL = tuple(255 - b for b in _BITREV)

# mirror(n): swap the left and right neighbors, i.e. index 4a+2b+c -> 4c+2b+a.
# Indices 0, 2, 5 and 7 stay; 1 and 3 trade places with 4 and 6.
_MIRROR = tuple(n & 0xA5 | (n & 0x0A) << 3 | (n & 0x50) >> 3 for n in range(256))


def dual(r: EcaRule) -> EcaRule:
    """The rule with 0 and 1 states exchanged: r'(b) = 1 - r(1-b1, 1-b2, 1-b3)."""
    return _RULES[_DUAL[r.wolfram]]


def mirror(r: EcaRule) -> EcaRule:
    """The rule with left and right neighbors exchanged: r_m(b1,b2,b3) = r(b3,b2,b1)."""
    return _RULES[_MIRROR[r.wolfram]]


def _conjugates(n: int) -> dict[int, tuple[bool, bool]]:
    """The rules of n's orbit under mirror and dual (one of Wolfram's 88
    classes), each mapped to a pair (mirrored, dualized) of the maps that
    carry n to it; n itself maps to (False, False)."""
    out: dict[int, tuple[bool, bool]] = {}
    for mirrored in (False, True):
        for dualized in (False, True):
            t = _DUAL[n] if dualized else n
            out.setdefault(_MIRROR[t] if mirrored else t, (mirrored, dualized))
    return out


def is_linear(r: EcaRule) -> bool:
    """True iff r is a XOR-combination of its inputs with r(0,0,0) = 0.

    Equivalent to r(x ^ y) == r(x) ^ r(y) for all pairs of neighborhoods.
    """
    t = r.table
    if t[0] != 0:
        return False
    # Determined by values on the unit neighborhoods.
    return all(
        t[i] == (t[4] * ((i >> 2) & 1)) ^ (t[2] * ((i >> 1) & 1)) ^ (t[1] * (i & 1))
        for i in range(8)
    )


def is_affine(r: EcaRule) -> bool:
    """True iff r or its output-complement is linear."""
    return is_linear(r) or is_linear(_RULES[r.wolfram ^ 0xFF])


# One straight-line program ("chain") per Wolfram number over a = w,
# b = w >> 1 and c = w >> 2, using AND, OR, XOR and NOT with as few
# operations as possible, shifts included (tests/test_chains.py holds the
# exhaustive search that printed this table and checks it).  Statements
# before the last name a value the chain uses twice; the last one is the
# result.
_CHAINS = (
    "0", "~(a | (b | c))", "c & ~(a | b)", "~(a | b)",  # 0
    "b & ~(a | c)", "~(a | c)", "(b ^ c) & ~a", "~(a | (b & c))",  # 4
    "(b & c) & ~a", "~(a | (b ^ c))", "c & ~a", "(c | ~b) & ~a",  # 8
    "b & ~a", "(b | ~c) & ~a", "(b | c) & ~a", "~a",  # 12
    "a & ~(b | c)", "~(b | c)", "(a ^ c) & ~b", "~(b | (a & c))",  # 16
    "(a ^ b) & ~c", "~(c | (a & b))", "(a | (b & c)) ^ (b | c)", "((a ^ b) & (a ^ c)) ^ ~a",  # 20
    "(a ^ b) & (a ^ c)", "b ^ ((a & b) | ~c)", "a ^ (c | (a & b))", "(a & c) ^ (c | ~b)",  # 24
    "a ^ (b | (a & c))", "(a & b) ^ (b | ~c)", "a ^ (b | c)", "~(a & (b | c))",  # 28
    "(a & c) & ~b", "~(b | (a ^ c))", "c & ~b", "(c | ~a) & ~b",  # 32
    "(a ^ b) & (b ^ c)", "a ^ ((a & b) | ~c)", "b ^ (c | (a & b))", "(a | c) ^ (b | ~c)",  # 36
    "c & (a ^ b)", "((a & b) | ~c) ^ (a | b)", "c & ~(a & b)", "((a ^ b) & (a ^ c)) ^ ~b",  # 40
    "(a ^ b) & (b | c)", "a ^ (b | ~c)", "(a & b) ^ (b | c)", "(c & ~b) | ~a",  # 44
    "a & ~b", "(a | ~c) & ~b", "(a | c) & ~b", "~b",  # 48
    "b ^ (a | (b & c))", "(a & (b ^ c)) ^ ~c", "b ^ (a | c)", "~(b & (a | c))",  # 52
    "(a ^ b) & (a | c)", "b ^ (a | ~c)", "(a & b) ^ (a | c)", "(c & ~a) | ~b",  # 56
    "a ^ b", "(a ^ b) | ~(a | c)", "(a ^ b) | (c & ~a)", "~(a & b)",  # 60
    "(a & b) & ~c", "~(c | (a ^ b))", "(a ^ c) & (b ^ c)", "a ^ ((a & c) | ~b)",  # 64
    "b & ~c", "(b | ~a) & ~c", "c ^ (b | (a & c))", "(a | b) ^ (c | ~b)",  # 68
    "b & (a ^ c)", "((a & c) | ~b) ^ (a | c)", "(a ^ c) & (b | c)", "a ^ (c | ~b)",  # 72
    "b & ~(a & c)", "((a ^ b) & (a ^ c)) ^ ~c", "(a & c) ^ (b | c)", "(b & ~c) | ~a",  # 76
    "a & ~c", "(a | ~b) & ~c", "c ^ (a | (b & c))", "(a & (b ^ c)) ^ ~b",  # 80
    "(a | b) & ~c", "~c", "c ^ (a | b)", "~(c & (a | b))",  # 84
    "(a ^ c) & (a | b)", "c ^ (a | ~b)", "a ^ c", "(a ^ c) | ~(a | b)",  # 88
    "(a & c) ^ (a | b)", "(b & ~a) | ~c", "(a ^ c) | (b & ~a)", "~(a & c)",  # 92
    "a & (b ^ c)", "((b & c) | ~a) ^ (b | c)", "(a | c) & (b ^ c)", "b ^ (c | ~a)",  # 96
    "(a | b) & (b ^ c)", "c ^ (b | ~a)", "b ^ c", "(b ^ c) | ~(a | b)",  # 100
    "(a & (b | c)) ^ (b & c)", "(a ^ b) ^ ~c", "c ^ (a & b)", "((a ^ c) & (a | b)) ^ ~b",  # 104
    "b ^ (a & c)", "((a ^ b) & (a | c)) ^ ~c", "(b & ~a) | (b ^ c)", "(b ^ c) | ~a",  # 108
    "a & ~(b & c)", "((a ^ b) & (b ^ c)) ^ ~c", "(a | c) ^ (b & c)", "(a & ~c) | ~b",  # 112
    "(a | b) ^ (b & c)", "(a & ~b) | ~c", "(a & ~b) | (b ^ c)", "~(b & c)",  # 116
    "a ^ (b & c)", "((a ^ b) & (b | c)) ^ ~c", "(a & ~b) | (a ^ c)", "(a ^ c) | ~b",  # 120
    "(a & ~c) | (a ^ b)", "(a ^ b) | ~c", "(a ^ b) | (a ^ c)", "~(a & (b & c))",  # 124
    "a & (b & c)", "~((a ^ b) | (a ^ c))", "c & (a ^ ~b)", "t = ~a; (b ^ t) & (c | t)",  # 128
    "b & (a ^ ~c)", "t = ~a; (b | t) & (c ^ t)", "(a & (b | c)) ^ (b ^ c)", "(b & c) ^ ~a",  # 132
    "b & c", "t = ~b; t ^ (c | (a & t))", "c & (b | ~a)", "(a | b) ^ ~(b & c)",  # 136
    "b & (c | ~a)", "(a | c) ^ ~(b & c)", "(a & (b ^ c)) ^ (b | c)", "(b & c) | ~a",  # 140
    "a & (b ^ ~c)", "t = ~b; (a | t) & (c ^ t)", "(a ^ (b ^ c)) & (a | c)", "(a & c) ^ ~b",  # 144
    "(a ^ (b ^ c)) & (a | b)", "(a & b) ^ ~c", "a ^ (b ^ c)", "(a & (b | c)) ^ ~(b & c)",  # 148
    "(a | b) & (b ^ ~c)", "b ^ ~c", "c ^ (a & ~b)", "(c & (a | b)) ^ ~b",  # 152
    "b ^ (a & ~c)", "(b & (a | c)) ^ ~c", "(a ^ (b ^ c)) | (b & c)", "~(a & (b ^ c))",  # 156
    "a & c", "t = ~a; t ^ (c | (b & t))", "c & (a | ~b)", "(a & c) ^ ~(a | b)",  # 160
    "(a ^ ~c) & (a | b)", "a ^ ~c", "c ^ (b & ~a)", "(c & (a | b)) ^ ~a",  # 164
    "c & (a | b)", "(a | b) ^ ~c", "c", "c | ~(a | b)",  # 168
    "b ^ (a & (b ^ c))", "(a ^ ~c) | (b & c)", "c | (b & ~a)", "c | ~a",  # 172
    "a & (c | ~b)", "(a & c) ^ ~(b | c)", "(a | c) ^ (b & (a ^ c))", "(a & c) | ~b",  # 176
    "a ^ (b & ~c)", "(a & (b | c)) ^ ~c", "(a & c) | (a ^ (b ^ c))", "~(b & (a ^ c))",  # 180
    "a ^ (b & (a ^ c))", "(a & c) | (b ^ ~c)", "c | (a & ~b)", "c | ~b",  # 184
    "(a & c) | (a ^ b)", "(a ^ b) | (a ^ ~c)", "c | (a ^ b)", "c | ~(a & b)",  # 188
    "a & b", "t = ~a; t ^ (b | (c & t))", "(a ^ ~b) & (a | c)", "a ^ ~b",  # 192
    "b & (a | ~c)", "(a & b) ^ ~(a | c)", "b ^ (c & ~a)", "(b & (a | c)) ^ ~a",  # 196
    "b & (a | c)", "(a | c) ^ ~b", "c ^ (a & (b ^ c))", "(a ^ ~b) | (b & c)",  # 200
    "b", "b | ~(a | c)", "b | (c & ~a)", "b | ~a",  # 204
    "a & (b | ~c)", "(a & b) ^ ~(b | c)", "a ^ (c & ~b)", "(a & (b | c)) ^ ~b",  # 208
    "(a | b) ^ (c & (a ^ b))", "(a & b) | ~c", "(a & b) | (a ^ (b ^ c))", "~(c & (a ^ b))",  # 212
    "a ^ (c & (a ^ b))", "(a & b) | (b ^ ~c)", "(a & b) | (a ^ c)", "(a ^ c) | (a ^ ~b)",  # 216
    "b | (a & ~c)", "b | ~c", "b | (a ^ c)", "b | ~(a & c)",  # 220
    "a & (b | c)", "(b | c) ^ ~a", "c ^ (b & (a ^ c))", "(a & c) | (a ^ ~b)",  # 224
    "b ^ (c & (a ^ b))", "(a & b) | (a ^ ~c)", "(a & b) | (b ^ c)", "(a ^ ~b) | (b ^ c)",  # 228
    "(a & (b ^ c)) ^ (b & c)", "((a & b) | (a ^ c)) ^ ~b", "c | (a & b)", "c | (a ^ ~b)",  # 232
    "b | (a & c)", "b | (a ^ ~c)", "b | c", "(b | c) | ~a",  # 236
    "a", "a | ~(b | c)", "a | (c & ~b)", "a | ~b",  # 240
    "a | (b & ~c)", "a | ~c", "a | (b ^ c)", "a | ~(b & c)",  # 244
    "a | (b & c)", "a | (b ^ ~c)", "a | c", "(a | c) | ~b",  # 248
    "a | b", "(a | b) | ~c", "a | (b | c)", "~0",  # 252
)


@cache
def _chain_step(wolfram: int):
    """One unravelling step of the rule, compiled from its chain on first use.

    The step maps a packed word to f(w[i], w[i+1], w[i+2]) at every bit
    position i; it works on Python ints and numpy uint64 arrays alike.  Bits
    past the last full window, and the bits a NOT sets above the word, come
    out as garbage for the caller to mask.
    """
    *statements, result = _CHAINS[wolfram].split("; ")
    if result in ("0", "~0"):  # a constant keeps the shape of its input
        result = result.replace("0", "(a & 0)")
    shifts = [f"{name} = a >> {n}" for n, name in ((1, "b"), (2, "c"))
              if name in _CHAINS[wolfram]]
    body = "".join(f"    {line}\n" for line in shifts + statements)
    namespace: dict = {}
    exec(f"def step(a):\n{body}    return {result}\n", namespace)
    return namespace["step"]


def _unravel_bits(wolfram: int, bits: int, m: int, steps: int) -> int:
    """``steps`` unravelling steps on a packed open word of m cells, or on
    every lane of a uint64 array of such words (see ``_unravel_batch``).

    One mask at the end suffices: garbage, from a window that runs past the
    last valid cell or from the ones a NOT sets above the word, moves down
    two cells a step, which is as fast as the steps drop cells.
    """
    step = _chain_step(wolfram)
    for _ in range(steps):
        bits = step(bits)
    return bits & ((1 << (m - 2 * steps)) - 1)


def _unravel_batch(wolfram: int, words: np.ndarray, m: int, steps: int) -> np.ndarray:
    """``_unravel_bits`` on a uint64 array of packed m-cell words."""
    if m > MAX_SUPERCELL_BITS:
        raise ValueError(f"packed batch kernel limited to {MAX_SUPERCELL_BITS} cells, got {m}")
    if m - 2 * steps < 1:
        raise ValueError(f"cannot unravel {m} cells {steps} times")
    return _unravel_bits(wolfram, words, m, steps)


def unravel(r: EcaRule, w: Word, t: int) -> Word:
    """t-fold unravelling: each step applies the rule to every 3-cell
    window, out[i] = f(w[i], w[i+1], w[i+2]), and drops two cells."""
    if t < 0:
        raise ValueError(f"negative step count {t}")
    m = len(w)
    if m < 2 * t + 1:
        raise ValueError(f"word of {m} cells too short for {t} unravelling steps")
    return Word(_unravel_bits(r.wolfram, w.bits, m, t), m - 2 * t)


def supercell_step(r: EcaRule, k: int, u: Word, v: Word, x: Word) -> Word:
    """The ternary supercell operation: k-fold unravelling of u.v.x.

    This is the algebra operation of the derived automaton on k-bit blocks;
    at k=1 it coincides with the local rule itself.  Any k >= 1 is taken:
    composed witnesses exceed the array kernels' limit.
    """
    if k < 1:
        raise ValueError(f"supercell size {k} < 1")
    for name, word in (("u", u), ("v", v), ("x", x)):
        if len(word) != k:
            raise ValueError(f"supercell {name} has {len(word)} cells, expected {k}")
    bits = u.bits | v.bits << k | x.bits << (2 * k)
    return Word(_unravel_bits(r.wolfram, bits, 3 * k, k), k)


def global_step(r: EcaRule, c: Word) -> Word:
    """Apply the global rule F(c)_i = f(c_{i-1}, c_i, c_{i+1}) once.

    Defined on cyclic configurations of length >= 3; neighbor indices are
    taken modulo the length.  Open words shrink instead: see ``unravel``.
    """
    n = len(c)
    if n < 3:
        raise ValueError(f"cyclic configuration length {n} < 3")
    # one unravelling step of the n + 2-cell word c[n-1], c[0..n-1], c[0]
    padded = c.bits >> (n - 1) | c.bits << 1 | (c.bits & 1) << (n + 1)
    return Word(_unravel_bits(r.wolfram, padded, n + 2, 1), n)


def trajectory(r: EcaRule, c: Word, t: int) -> list[Word]:
    """The orbit (c, F(c), ..., F^t(c)) of a cyclic configuration of >= 3 cells."""
    if t < 0:
        raise ValueError(f"negative step count {t}")
    if len(c) < 3:
        raise ValueError(f"cyclic configuration length {len(c)} < 3")
    out = [c]
    for _ in range(t):
        out.append(global_step(r, out[-1]))
    return out
