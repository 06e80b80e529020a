"""Space-time diagrams and portable-bitmap output.

A diagram is a stack of equally long rows, one per time step, time running
downwards; state 1 renders black, state 0 white.  Output is plain PBM
("P1", diff-friendly ASCII) by default, with raw PBM ("P4") available for
large images.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .emulation import EmulationWitness, decode_config, encode_config
from .rules import EcaRule, trajectory
from .words import _BITREV, Word


@dataclass(frozen=True)
class Diagram:
    rows: tuple[Word, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("a diagram needs at least one row")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("all diagram rows must have the same length")

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @property
    def height(self) -> int:
        return len(self.rows)


def render_diagram(r: EcaRule, c: Word, steps: int) -> Diagram:
    """Diagram of the cyclic trajectory: row t is the configuration after t steps."""
    return Diagram(tuple(trajectory(r, c, steps)))


def render_emulated(w: EmulationWitness, u: Word, steps: int) -> tuple[Diagram, Diagram]:
    """Side-by-side evidence of an emulation on a cyclic grid.

    The first diagram runs the emulated rule from u directly.  The second
    encodes u blockwise and runs the emulator on the k-times-longer cyclic
    grid, keeping only every k-th time step.  Decoding each kept row must
    reproduce the corresponding direct row exactly; this is checked cell by
    cell rather than assumed, and a mismatch raises RuntimeError.
    """
    if not w.holds():
        raise ValueError("witness does not satisfy the emulation equations")
    direct = render_diagram(w.emulated, u, steps)
    sampled = Diagram(tuple(
        trajectory(w.emulator, encode_config(w.encoding, u), steps * w.k)[::w.k]))
    for t, (row, want) in enumerate(zip(sampled.rows, direct.rows)):
        decoded = decode_config(w.encoding, row)
        if decoded != want:
            raise RuntimeError(
                f"encoded run diverged from the direct run at step {t}: "
                f"{decoded.text} != {want.text}")
    return direct, sampled


def write_pbm(d: Diagram, binary: bool = False) -> bytes:
    """Serialize a diagram as PBM: plain P1, or raw P4 when ``binary``."""
    header = f"P{4 if binary else 1}\n{d.width} {d.height}\n".encode("ascii")
    if binary:
        size = (d.width + 7) // 8
        return header + b"".join(
            row.bits.to_bytes(size, "little") for row in d.rows).translate(_BITREV)
    return header + "".join(" ".join(row.text) + "\n" for row in d.rows).encode("ascii")


# Magic number, width and height, separated by whitespace and comments, and
# the one whitespace character that ends the header.  A comment ends with its
# newline, so a run of '#' parses one way only and a failed match is linear.
_HEADER = re.compile(rb"P([14])(?:\s|#[^\n]*\n)+(\d+)(?:\s|#[^\n]*\n)+(\d+)\s")


def read_pbm(data: bytes) -> Diagram:
    """Parse P1 or P4 bytes; comments and unspaced P1 rasters are accepted."""
    m = _HEADER.match(data)
    if m is None:
        raise ValueError("not a PBM stream")
    width, height = int(m[2]), int(m[3])
    if m[1] == b"4":
        size = (width + 7) // 8
        raster = data[m.end():m.end() + size * height].translate(_BITREV)
        if len(raster) < size * height:
            raise ValueError(f"expected {size * height} raster bytes, found {len(raster)}")
        # with no rows, nothing checks the width against the raster's length
        mask = (1 << width) - 1 if height else 0
        return Diagram(tuple(
            Word(int.from_bytes(raster[y * size:(y + 1) * size], "little") & mask, width)
            for y in range(height)))
    text = re.sub(rb"#[^\n]*|\s", b"", data[m.end():]).decode("ascii")
    if len(text) != width * height:
        raise ValueError(f"expected {width * height} cells, found {len(text)}")
    return Diagram(tuple(
        Word.from_text(text[y * width:(y + 1) * width]) for y in range(height)))
