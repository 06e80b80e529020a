"""Space-time diagrams and portable-bitmap output.

A diagram is a stack of equally long rows, one per time step, time running
downwards; state 1 renders black, state 0 white.  Output is plain PBM
("P1", diff-friendly ASCII) by default, with raw PBM ("P4") available for
large images.
"""

from __future__ import annotations

from dataclasses import dataclass

from .emulation import EmulationWitness, decode_config, encode_config
from .rules import EcaRule, trajectory
from .words import Grid, Word


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


def render_diagram(r: EcaRule, g: Grid, steps: int) -> Diagram:
    """Diagram of the trajectory: row t is the configuration after t steps."""
    return Diagram(tuple(grid.cells for grid in trajectory(r, g, steps)))


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
    if len(u) < 3:
        raise ValueError(f"cyclic configuration of {len(u)} cells too short")
    direct = render_diagram(w.emulated, Grid(u), steps)
    full = render_diagram(w.emulator, Grid(encode_config(w.encoding, u)),
                          steps * w.k)
    sampled = Diagram(tuple(full.rows[t * w.k] for t in range(steps + 1)))
    for t in range(steps + 1):
        decoded = decode_config(w.encoding, sampled.rows[t])
        if decoded != direct.rows[t]:
            raise RuntimeError(
                f"encoded run diverged from the direct run at step {t}: "
                f"{decoded.text} != {direct.rows[t].text}")
    return direct, sampled


def write_pbm(d: Diagram, binary: bool = False) -> bytes:
    """Serialize a diagram as PBM: plain P1, or raw P4 when ``binary``."""
    if binary:
        out = bytearray(f"P4\n{d.width} {d.height}\n".encode("ascii"))
        row_bytes = (d.width + 7) // 8
        for row in d.rows:
            packed = bytearray(row_bytes)
            for x in range(d.width):
                if row[x]:
                    packed[x // 8] |= 0x80 >> (x % 8)
            out += packed
        return bytes(out)
    lines = [f"P1\n{d.width} {d.height}\n"]
    for row in d.rows:
        lines.append(" ".join(str(b) for b in row) + "\n")
    return "".join(lines).encode("ascii")


def read_pbm(data: bytes) -> Diagram:
    """Parse P1 or P4 bytes produced by write_pbm (comments tolerated)."""
    if data[:2] == b"P4":
        pos = 2
        fields = []
        while len(fields) < 2:
            # header tokens separated by whitespace; '#' starts a comment
            while pos < len(data) and data[pos:pos + 1].isspace():
                pos += 1
            if data[pos:pos + 1] == b"#":
                while pos < len(data) and data[pos] != 0x0A:
                    pos += 1
                continue
            start = pos
            while pos < len(data) and not data[pos:pos + 1].isspace():
                pos += 1
            fields.append(int(data[start:pos]))
        pos += 1  # single whitespace byte after the header
        width, height = fields
        row_bytes = (width + 7) // 8
        rows = []
        for y in range(height):
            chunk = data[pos + y * row_bytes: pos + (y + 1) * row_bytes]
            rows.append(Word.from_bits(
                (chunk[x // 8] >> (7 - x % 8)) & 1 for x in range(width)))
        return Diagram(tuple(rows))
    if data[:2] != b"P1":
        raise ValueError("not a PBM stream")
    tokens = []
    for line in data[2:].split(b"\n"):
        body = line.split(b"#", 1)[0]
        tokens.extend(body.split())
    width, height = int(tokens[0]), int(tokens[1])
    cells = [int(t) for t in tokens[2:]]
    if len(cells) != width * height:
        raise ValueError(f"expected {width * height} cells, found {len(cells)}")
    return Diagram(tuple(
        Word.from_bits(cells[y * width:(y + 1) * width]) for y in range(height)))
