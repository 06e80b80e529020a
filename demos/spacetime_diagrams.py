"""Space-time diagrams, straight and through an emulation.

Writes three portable bitmaps: rule 110 from a single seeded cell, the
traffic rule 184 from a random configuration, and the same 184 run
reproduced inside rule 148 on supercells of two cells (every second time
step shown).  Decoding the third image block by block gives the second
one, cell for cell; render_emulated checks that before returning.
"""

import random
from pathlib import Path

from eca_emulation import (
    EmulationWitness,
    Word,
    check_emulation_naive,
    render_diagram,
    render_emulated,
    rule_from_wolfram,
    write_pbm,
)

out = Path("diagrams")
out.mkdir(exist_ok=True)

width, steps = 83, 60
center = Word(1 << (width // 2), width)
d110 = render_diagram(rule_from_wolfram(110), center, steps)
(out / "rule110.pbm").write_bytes(write_pbm(d110))

rng = random.Random(7)
u = Word(rng.getrandbits(60), 60)
enc = check_emulation_naive(rule_from_wolfram(184), rule_from_wolfram(148), 2)
witness = EmulationWitness(rule_from_wolfram(184), rule_from_wolfram(148), 2, enc)
direct, emulated = render_emulated(witness, u, 50)
(out / "rule184_direct.pbm").write_bytes(write_pbm(direct))
(out / "rule184_inside_148.pbm").write_bytes(write_pbm(emulated))

for name in ("rule110.pbm", "rule184_direct.pbm", "rule184_inside_148.pbm"):
    print("wrote", out / name)
print(f"direct run: {direct.width}x{direct.height}; "
      f"encoded run: {emulated.width}x{emulated.height} "
      f"(every {witness.k}. step of the emulator)")
