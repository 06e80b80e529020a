"""Emulation relations between elementary cellular automata.

Decide when one elementary CA reproduces another inside k-cell supercells,
enumerate everything a rule can emulate, chart the resulting hierarchy
over duality classes, search supercell algebras for proper subalgebras,
and render verifying space-time diagrams.
"""

from .emulation import (
    Encoding,
    EmulationWitness,
    Subalgebra,
    check_emulation_naive,
    compose_witnesses,
    decode_config,
    emulated_rule_map,
    emulated_rules,
    encode_config,
    proper_subalgebra_search,
    verify_witness,
)
from .hierarchy import (
    ClassificationReport,
    HierarchyGraph,
    classify,
    compute_hierarchy,
    export,
    load_json,
    rep_of,
    transitive_reduction,
)
from .render import Diagram, read_pbm, render_diagram, render_emulated, write_pbm
from .rules import (
    EcaRule,
    dual,
    global_step,
    is_affine,
    is_linear,
    mirror,
    rule_from_wolfram,
    supercell_step,
    trajectory,
    unravel,
)
from .words import Word

__all__ = [
    "ClassificationReport",
    "Diagram",
    "EcaRule",
    "EmulationWitness",
    "Encoding",
    "HierarchyGraph",
    "Subalgebra",
    "Word",
    "check_emulation_naive",
    "classify",
    "compose_witnesses",
    "compute_hierarchy",
    "decode_config",
    "dual",
    "emulated_rule_map",
    "emulated_rules",
    "encode_config",
    "export",
    "global_step",
    "is_affine",
    "is_linear",
    "load_json",
    "mirror",
    "proper_subalgebra_search",
    "read_pbm",
    "render_diagram",
    "render_emulated",
    "rep_of",
    "rule_from_wolfram",
    "supercell_step",
    "trajectory",
    "transitive_reduction",
    "unravel",
    "verify_witness",
    "write_pbm",
]

__version__ = "0.1.0"
