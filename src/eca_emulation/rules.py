"""Elementary cellular automaton rules and their symmetries.

A local rule maps a neighborhood (b1, b2, b3) of three cells to one output
bit.  Rules are identified by their Wolfram number: bit ``i`` of the number
is the output for the neighborhood whose index is ``i = 4*b1 + 2*b2 + b3``.
That index convention is used everywhere in this package.

Rules are evaluated on packed words.  ``_window_eval`` computes any
3-input Boolean function simultaneously on all bit positions of a packed
word using a Shannon (multiplexer) decomposition: about a dozen bitwise
operations regardless of word length.  The same code path serves plain
Python integers (arbitrary length) and numpy uint64 arrays (words up to
62 bits, millions at a time).  The exhaustive emulation searches evaluate
the supercell operation ~10^7 times, so this is the package's hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .words import Grid, Word


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
        return apply_local(self, b1, b2, b3)

    def __repr__(self) -> str:
        return f"EcaRule({self.wolfram})"


_RULES = tuple(EcaRule(n) for n in range(256))


def rule_from_wolfram(n: int) -> EcaRule:
    """Return the rule with Wolfram number ``n`` (0..255)."""
    if not isinstance(n, int) or not 0 <= n <= 255:
        raise ValueError(f"Wolfram number {n!r} not in 0..255")
    return _RULES[n]


def apply_local(r: EcaRule, b1: int, b2: int, b3: int) -> int:
    """Apply the local rule to one neighborhood."""
    for b in (b1, b2, b3):
        if b not in (0, 1):
            raise ValueError(f"neighborhood value {b!r} is not a bit")
    return (r.wolfram >> (4 * b1 + 2 * b2 + b3)) & 1


def _bitrev8(n: int) -> int:
    return int(f"{n:08b}"[::-1], 2)


# dual(n): swap the roles of the 0 and 1 states on inputs and output.
# Closed form: complementing all three inputs reverses the neighborhood
# index (i -> 7-i), complementing the output flips each bit.
_DUAL = tuple(255 - _bitrev8(n) for n in range(256))

# mirror(n): swap the left and right neighbors, i.e. index 4a+2b+c -> 4c+2b+a.
_MIRROR = tuple(
    reduce(
        int.__or__,
        (((n >> (4 * c + 2 * b + a)) & 1) << (4 * a + 2 * b + c)
         for a in (0, 1) for b in (0, 1) for c in (0, 1)),
    )
    for n in range(256)
)


def dual(r: EcaRule) -> EcaRule:
    """The rule with 0 and 1 states exchanged: r'(b) = 1 - r(1-b1, 1-b2, 1-b3)."""
    return _RULES[_DUAL[r.wolfram]]


def mirror(r: EcaRule) -> EcaRule:
    """The rule with left and right neighbors exchanged: r_m(b1,b2,b3) = r(b3,b2,b1)."""
    return _RULES[_MIRROR[r.wolfram]]


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


def _step_bits_cyclic(wolfram: int, bits: int, n: int) -> int:
    """One synchronous update of a cyclic configuration, packed.

    Works entirely on the packed integer: position i of the three shifted
    copies holds (c_{i-1}, c_i, c_{i+1}).
    """
    mask = (1 << n) - 1
    left = ((bits << 1) | (bits >> (n - 1))) & mask
    right = ((bits >> 1) | (bits << (n - 1))) & mask
    return _window_eval(wolfram, left, bits, right, mask) & mask


def global_step(r: EcaRule, g: Grid) -> Grid:
    """Apply the global rule F(c)_i = f(c_{i-1}, c_i, c_{i+1}) once.

    Defined on grids of length >= 3; neighbor indices are taken modulo the
    grid size.  Open words shrink instead: see supercell.unravel.
    """
    n = len(g)
    if n < 3:
        raise ValueError(f"cyclic grid length {n} < 3")
    return Grid(Word(_step_bits_cyclic(r.wolfram, g.cells.bits, n), n))


def trajectory(r: EcaRule, g: Grid, t: int) -> list[Grid]:
    """The orbit (u, F(u), ..., F^t(u)); element 0 is the input grid."""
    if t < 0:
        raise ValueError(f"negative step count {t}")
    out = [g]
    for _ in range(t):
        out.append(global_step(r, out[-1]))
    return out
