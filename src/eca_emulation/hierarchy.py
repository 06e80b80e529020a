"""The emulation hierarchy over duality-class representatives.

A rule and its dual emulate (and are emulated by) exactly the same rules,
so the 256 rules fall into 136 duality classes and the hierarchy is
computed per class representative (the smaller Wolfram number).  An edge
is the minimal witness emulated <=_kmin emulator: an ``EmulationWitness``
at the smallest supercell size kmin in 1..K at which the emulated
representative's class is reproduced inside the emulator's supercell
algebra, with the scan-order-minimal encoding at that size.

Mirror and dual carry the closed pairs of a rule one-to-one onto those of
its conjugates (see ``emulated_rule_map``), so a sweep takes the 136
representatives by their 88 orbits under both maps (Wolfram's classes):
one enumeration of an orbit's smallest rule yields the cells of all of
the orbit's representatives at that size, byte for byte as enumerating
each would, and a size costs 88 enumerations instead of 136.  The chaos
search of ``classify`` runs once per orbit and size too.

The per-(rule, size) cells live only in the sweep and in an optional
on-disk cache of immutable segments, each a JSON file of the cells one run
computed for one orbit (the segments and merge of log-structured stores):
a run reads and checks every segment, merges them, and writes only
segments of its own.  The graph keeps what the cells add up to, the edges
and the self-similar rules, and ``classify`` reads nothing else.  All
outputs are deterministic: independent of worker count, chunking and dict
order.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from itertools import chain, pairwise

from .emulation import (Encoding, EmulationWitness, _numpy, emulated_rule_map,
                        proper_subalgebra_search)
from .rules import _DUAL, MAX_K, _check_k, _conjugates, rule_from_wolfram
from .words import Word

# Bump when the computation or the cache's layout changes in a way that
# invalidates cached cells (2: segments of many cells, not a file per cell).
CACHE_SCHEMA = 2

# Most bytes _read_json reads of a cache segment or a witness file.  A sweep
# starts a new segment before a cell would take one past this bound (a
# segment of the largest cell, 256 entries at k = 20, is 6,327 bytes), and
# the largest witness verify takes, at k = 400, is 854 bytes.  A file padded
# past this bound is never handed to json (200 MiB of padding peaked at
# 416 MB of RSS).
_MAX_JSON_BYTES = 1 << 16

# Rules whose emulation counts as the capability of perfect memory: the
# identity, the two one-cell shifts, and the negation.  All four are
# self-dual, so they are their own class representatives.
MEMORY_RULES = (51, 170, 204, 240)


def rep_of(n: int) -> int:
    """The representative (smaller Wolfram number) of n's duality class."""
    if not 0 <= n <= 255:
        raise ValueError(f"Wolfram number {n} not in 0..255")
    return min(n, _DUAL[n])


REPS = tuple(sorted({rep_of(n) for n in range(256)}))


@dataclass(frozen=True)
class DualityClass:
    representative: int
    members: tuple[int, ...]


def dual_classes() -> list[DualityClass]:
    """All duality classes {n, dual(n)}, sorted by representative."""
    return [
        DualityClass(r, tuple(sorted({r, _DUAL[r]})))
        for r in REPS
    ]


@dataclass(frozen=True)
class HierarchyGraph:
    """Directed graph on duality-class representatives; its nodes are the
    rules at either end of an edge.

    Construction raises ValueError unless K is a supercell size, every edge
    joins duality representatives, the edges strictly increase by
    (emulator, emulated), the self-similar rules strictly increase, each has
    its self edge and there are none below K = 2, and every edge's size (its
    kmin) is at most K.
    """

    K: int
    edges: tuple[EmulationWitness, ...]
    self_similar: tuple[int, ...]

    def __post_init__(self):
        _check_k(self.K)
        pairs = [(e.emulator.wolfram, e.emulated.wolfram) for e in self.edges]
        if any(rep_of(n) != n for n in chain(*pairs)):
            raise ValueError("every edge must join duality representatives")
        if any(p >= q for p, q in pairwise(pairs)):
            raise ValueError("edges must strictly increase by (emulator, emulated)")
        if (any(a >= b for a, b in pairwise(self.self_similar))
                or not set(pairs).issuperset((n, n) for n in self.self_similar)):
            raise ValueError("self-similar rules must strictly increase and have self edges")
        if self.self_similar and self.K < 2:
            raise ValueError("no rule is self-similar below K = 2")
        if any(e.k > self.K for e in self.edges):
            raise ValueError(f"an edge's kmin exceeds K = {self.K}")

    @property
    def nodes(self) -> tuple[int, ...]:
        """The rules at either end of an edge, ascending."""
        return tuple(sorted({n for e in self.edges
                             for n in (e.emulator.wolfram, e.emulated.wolfram)}))

    def edge(self, emulator: int, emulated: int) -> EmulationWitness | None:
        for e in self.edges:
            if e.emulator.wolfram == emulator and e.emulated.wolfram == emulated:
                return e
        return None

    def edges_from(self, emulator: int) -> list[EmulationWitness]:
        return [e for e in self.edges if e.emulator.wolfram == emulator]

    def edges_to(self, emulated: int) -> list[EmulationWitness]:
        return [e for e in self.edges if e.emulated.wolfram == emulated]


def _orbit_min(g: int) -> int:
    """The smallest rule of g's mirror/dual orbit, a duality representative."""
    return min(_conjugates(g))


def _compute_orbit(args: tuple[int, int, tuple[int, ...]]
                   ) -> list[tuple[int, int, list[tuple[int, int, int]]]]:
    """The cells (t, k) of the representatives t of one orbit, from one
    enumeration of the orbit's smallest rule h, each in ascending f."""
    h, k, targets = args
    m = emulated_rule_map(rule_from_wolfram(h), k, targets)
    return [(t, k, [(f, e.enc0.bits, e.enc1.bits) for (s, f), e in m.items() if s == t])
            for t in targets]


def _read_json(path: str):
    """The JSON value of the ASCII file at path, which must be at most
    _MAX_JSON_BYTES long; raises OSError, ValueError or RecursionError."""
    with open(path, "rb") as fh:
        data = fh.read(_MAX_JSON_BYTES + 1)
    if len(data) > _MAX_JSON_BYTES:
        raise ValueError(f"{path!r} exceeds {_MAX_JSON_BYTES} bytes")
    return json.loads(data.decode("ascii"))


def _load_shard(path: str) -> list[tuple[int, int, list[tuple[int, int, int]]]] | None:
    """The well-formed cells (g, k, entries) of the cache segment at path, or
    None (every cell a miss) unless it parses, in at most _MAX_JSON_BYTES,
    as the object _store_shard writes.  A cell [g, k, entries] is dropped
    as a miss unless g is a Wolfram number, k a supercell size, and its
    entries [f, enc0, enc1] hold a Wolfram number f and two distinct k-cell
    codes, with f strictly increasing and the set of f closed under duality
    (swapping enc0 and enc1 turns a witness of f into one of dual(f))."""
    try:
        data = _read_json(path)
    except (OSError, ValueError, RecursionError):
        return None
    if (not isinstance(data, dict) or data.get("schema") != CACHE_SCHEMA
            or not isinstance(data.get("cells"), list)):
        return None
    return [(cell[0], cell[1], [tuple(e) for e in cell[2]])
            for cell in data["cells"] if _well_formed(cell)]


def _well_formed(cell) -> bool:
    if not (isinstance(cell, list) and len(cell) == 3 and type(cell[0]) is type(cell[1]) is int
            and 0 <= cell[0] <= 255 and 1 <= cell[1] <= MAX_K and isinstance(cell[2], list)):
        return False
    n, entries = 1 << cell[1], cell[2]
    if not all(isinstance(e, list) and len(e) == 3 and all(type(x) is int for x in e)
               and 0 <= e[0] <= 255 and 0 <= e[1] < n and 0 <= e[2] < n and e[1] != e[2]
               for e in entries):
        return False
    fs = [e[0] for e in entries]
    seen = set(fs)
    return fs == sorted(seen) and seen == {_DUAL[f] for f in seen}


def _load_cache(cache_dir: str) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
    """The cells of every segment in cache_dir, merged; a cell that two
    segments (or one) give different entries is left out, a miss."""
    try:
        names = os.listdir(cache_dir)
    except OSError:  # no cache yet, or none readable: every cell a miss
        return {}
    merged: dict[tuple[int, int], list[tuple[int, int, int]] | None] = {}
    for name in names:
        if name.endswith(".json"):
            for g, k, entries in _load_shard(os.path.join(cache_dir, name)) or ():
                if merged.setdefault((g, k), entries) != entries:
                    merged[(g, k)] = None  # disputed, whatever comes later
    return {key: entries for key, entries in merged.items() if entries is not None}


def _store_shard(cache_dir: str, cells: list[tuple[int, int, list[tuple[int, int, int]]]]) -> None:
    """Write the cells as one segment named by the sha256 of its text: a
    temp file of its own replaces segment-<digest>.json, so concurrent runs
    never write into one file, a replace never changes a segment's bytes,
    and runs that compute the same cells leave one segment, not one each."""
    import hashlib  # here: only a run that writes a segment pays its import (~3 ms, ~3.6 MB)

    text = json.dumps({"schema": CACHE_SCHEMA, "cells": cells}, sort_keys=True)
    name = f"segment-{hashlib.sha256(text.encode('ascii')).hexdigest()}.json"
    fd, tmp = tempfile.mkstemp(prefix="segment-", suffix=".tmp", dir=cache_dir)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(cache_dir, name))
    except BaseException:
        os.unlink(tmp)
        raise


def compute_hierarchy(K: int, reps: list[int] | None = None, workers: int = 1,
                      cache_dir: str | None = None) -> HierarchyGraph:
    """Compute the hierarchy for supercell sizes 1..K.

    ``reps`` restricts the computed emulators (arbitrary rule numbers are
    canonicalized to their class representatives); emulated representatives
    outside the selection still appear as edge targets, so as nodes.  The
    cells (rule, k) that are not cached are grouped into one task per
    mirror/dual orbit and size, which enumerates the orbit's smallest rule
    once for all of them; tasks are farmed to ``workers`` processes, and
    the merged result is deterministic regardless of scheduling.  With
    ``cache_dir`` set, cells are read from the cache's segments first, so
    K can be raised incrementally.  New cells arrive in task order, and
    those of one orbit go into one new segment, written when the next
    orbit's cells arrive, before a cell would take its text past
    _MAX_JSON_BYTES, and when the sweep ends or fails: an interrupted sweep
    keeps every cell it finished, and a killed one loses at most one
    orbit's.  An error cancels the tasks still queued, so it surfaces
    without waiting for them.  An empty ``cache_dir`` raises ValueError
    before any segment is read.
    """
    _check_k(K)  # the largest size, before any cell is computed or stored
    if workers < 1:
        raise ValueError(f"workers {workers} < 1")
    if cache_dir == "":  # os.path.join would read the working directory
        raise ValueError("cache_dir must not be empty")
    sources = REPS if reps is None else tuple(sorted({rep_of(r) for r in reps}))

    cells = {} if cache_dir is None else _load_cache(cache_dir)
    pending: dict[tuple[int, int], list[int]] = {}  # (orbit minimum, k) -> missing reps
    for g in sources:
        h = _orbit_min(g)
        for k in range(1, K + 1):
            if (g, k) not in cells:
                pending.setdefault((h, k), []).append(g)
    tasks = [(h, k, tuple(missing)) for (h, k), missing in sorted(pending.items())]

    if tasks:
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
        _numpy()  # before a pool forks, so the workers inherit numpy and the kept heap
        workers = min(workers, len(tasks))  # a pool starts all its processes at once
        pool = None
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=workers)
        empty = len(json.dumps({"cells": [], "schema": CACHE_SCHEMA}))
        segment, size, orbit = [], empty, None  # cells not yet stored, of one orbit
        try:
            results = (map(_compute_orbit, tasks) if pool is None
                       else pool.map(_compute_orbit, tasks, chunksize=4))
            for (h, _, _), orbit_cells in zip(tasks, results):
                for cell in orbit_cells:
                    g, k, entries = cell
                    cells[(g, k)] = entries
                    if cache_dir is None:
                        continue
                    cost = len(json.dumps(cell)) + 2  # its text and a separator
                    if segment and (h != orbit or size + cost > _MAX_JSON_BYTES):
                        full, segment, size = segment, [], empty  # a failed write is not retried
                        _store_shard(cache_dir, full)
                    segment.append(cell)
                    size += cost
                    orbit = h
        finally:
            try:
                if segment:  # the last orbit's cells, or those finished before an error
                    _store_shard(cache_dir, segment)
            finally:
                if pool is not None:
                    pool.shutdown(cancel_futures=True)  # an error drops the queued tasks

    # A closed pair reports both orientations, so every cell is closed under
    # duality and holds each emulated rule's representative.  Sources
    # ascend, so the edges come out in (emulator, emulated) order.
    edges = []
    self_similar = []
    for g in sources:
        best: dict[int, tuple[int, int, int]] = {}
        selfsim = False
        for k in range(1, K + 1):
            for f, e0, e1 in cells[(g, k)]:
                if f == rep_of(f):
                    best.setdefault(f, (k, e0, e1))
                    selfsim |= f == g and k >= 2
        for f, (k, e0, e1) in sorted(best.items()):
            edges.append(EmulationWitness(rule_from_wolfram(f), rule_from_wolfram(g), k,
                                          Encoding(Word(e0, k), Word(e1, k))))
        if selfsim:
            self_similar.append(g)

    return HierarchyGraph(K, tuple(edges), tuple(self_similar))


def transitive_reduction(g: HierarchyGraph) -> HierarchyGraph:
    """Drop non-self edges implied by transitivity, in edge order;
    reachability is preserved, and so are the nodes, as the ends of a
    dropped edge stay joined through kept ones.

    Rendering aid only: surviving edges keep their kmin, but ``classify``
    reads the dropped edges too, so classify a graph before reducing it.
    """
    succ: dict[int, set[int]] = {n: set() for n in g.nodes}
    for e in g.edges:
        if e.emulator != e.emulated:
            succ[e.emulator.wolfram].add(e.emulated.wolfram)

    def reachable(src: int, dst: int) -> bool:
        stack = [src]
        seen = {src}
        while stack:
            cur = stack.pop()
            for nxt in succ[cur]:
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    kept = []
    for e in g.edges:
        a, b = e.emulator.wolfram, e.emulated.wolfram
        if a != b:
            succ[a].discard(b)
            if reachable(a, b):
                continue
            succ[a].add(b)
        kept.append(e)
    return HierarchyGraph(g.K, tuple(kept), g.self_similar)


@dataclass(frozen=True)
class ClassificationReport:
    """Derived classifications of the computed hierarchy."""

    K: int
    self_similar: tuple[int, ...]
    memory_capable: tuple[int, ...]
    zero_emulators: tuple[int, ...]
    chaos_candidates: tuple[int, ...]
    emulation_counts: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "K": self.K,
            "self_similar": list(self.self_similar),
            "memory_capable": list(self.memory_capable),
            "zero_emulators": list(self.zero_emulators),
            "chaos_candidates": list(self.chaos_candidates),
            "emulation_counts": {str(r): c for r, c in sorted(self.emulation_counts.items())},
        }


def classify(g: HierarchyGraph) -> ClassificationReport:
    """The classification report of sizes 1..K (K = g.K), read from g.K,
    g.edges and g.self_similar, plus subalgebra searches.

    Size 1 yields only a rule and its dual, so every computed rule has its
    self edge, the classified rules are the emulators, and a rule emulates
    at sizes 2..K the targets of its non-self edges, and itself if it is
    self-similar.  memory_capable: the rule or an edge target is a memory
    rule (51, 170, 204, 240).  zero_emulators: rule 0 is emulated at a size
    in 2..K.  chaos_candidates: no proper subalgebra with >= 2 elements at
    any size in 2..K.  emulation_counts: how many representatives a rule
    emulates at sizes 2..K, so a self-similar rule scores at least 1.
    """
    K = g.K
    selfsim = set(g.self_similar)
    found: dict[int, set[int]] = {}  # emulator -> reps it emulates at sizes 2..K
    for e in g.edges:
        reps = found.setdefault(e.emulator.wolfram, set())
        if e.emulated != e.emulator or e.emulated.wolfram in selfsim:
            reps.add(e.emulated.wolfram)
    memory_capable = []
    zero_emulators = []
    chaos_candidates = []
    counts: dict[int, int] = {}
    chaotic: dict[int, bool] = {}  # orbit minimum -> no proper subalgebra at 2..K
    for node, reps in found.items():
        if reps.union((node,)) & set(MEMORY_RULES):
            memory_capable.append(node)
        if 0 in reps:
            zero_emulators.append(node)
        counts[node] = len(reps)
        # Any emulated rule at k >= 2 is a two-element subalgebra, so the
        # expensive search only runs for rules with no emulation there.
        if reps:
            continue
        # Whether a proper subalgebra exists is the same for every rule of
        # an orbit, so each orbit is searched once, on its smallest rule.
        h = _orbit_min(node)
        if h not in chaotic:
            rule = rule_from_wolfram(h)
            chaotic[h] = all(proper_subalgebra_search(rule, k) is None
                             for k in range(2, K + 1))
        if chaotic[h]:
            chaos_candidates.append(node)

    return ClassificationReport(
        K=K,
        self_similar=g.self_similar,
        memory_capable=tuple(memory_capable),
        zero_emulators=tuple(zero_emulators),
        chaos_candidates=tuple(chaos_candidates),
        emulation_counts=counts,
    )


# ---------------------------------------------------------------------------
# Serialization.

def export(g: HierarchyGraph, format: str) -> bytes:
    """Serialize the graph as 'dot', 'csv' or 'json'; byte-stable output."""
    if format == "csv":
        return _export_csv(g)
    if format == "json":
        return _export_json(g)
    if format == "dot":
        return _export_dot(g)
    raise ValueError(f"unsupported format {format!r}")


def _export_csv(g: HierarchyGraph) -> bytes:
    lines = ["emulator,emulated,kmin"]
    for e in g.edges:
        lines.append(f"{e.emulator.wolfram},{e.emulated.wolfram},{e.k}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _export_json(g: HierarchyGraph) -> bytes:
    obj = {
        "K": g.K,
        "nodes": list(g.nodes),
        "self_similar": list(g.self_similar),
        "edges": [
            {"from": e.emulator.wolfram, "to": e.emulated.wolfram, "kmin": e.k,
             "enc0": e.encoding.enc0.text, "enc1": e.encoding.enc1.text}
            for e in g.edges
        ],
    }
    return (json.dumps(obj, indent=1, sort_keys=True) + "\n").encode("ascii")


def _export_dot(g: HierarchyGraph) -> bytes:
    # Self edges are implied (every rule emulates itself at size 1); nodes
    # that re-emulate themselves at size >= 2 are drawn with a double border.
    lines = ["digraph emulation_hierarchy {", "  rankdir=BT;"]
    marked = set(g.self_similar)
    for n in g.nodes:
        attrs = ' [peripheries=2]' if n in marked else ""
        lines.append(f"  r{n}{attrs};")
    for e in g.edges:
        if e.emulator == e.emulated:
            continue
        lines.append(f'  r{e.emulator.wolfram} -> r{e.emulated.wolfram} [label="k={e.k}"];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("ascii")


def load_json(data: bytes | str) -> HierarchyGraph:
    """Rebuild a graph from its JSON export, which classifies as the computed
    graph does; any other shape raises ValueError, as does a graph that
    breaks HierarchyGraph's invariants, a node list other than the ends of
    the edges, or an edge whose witness fails."""
    try:
        obj = json.loads(data)
        K, nodes, self_similar, edges = (obj[key] for key in ("K", "nodes", "self_similar", "edges"))
        if not (type(K) is int and type(nodes) is type(self_similar) is type(edges) is list
                and all(type(n) is int and 0 <= n <= 255 for n in nodes + self_similar)):
            raise ValueError("hierarchy needs an integer K and lists of rules and edges")
        ws = tuple(EmulationWitness.from_json_dict({"f": e["to"], "g": e["from"], "k": e["kmin"],
                                                    "enc0": e["enc0"], "enc1": e["enc1"]})
                   for e in edges)
    except RecursionError:
        raise ValueError("hierarchy document is nested too deeply") from None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed hierarchy document: {exc!r}") from None
    # built first, so every kmin is bounded by K before holds() spends ~kmin^2
    g = HierarchyGraph(K, ws, tuple(self_similar))
    if g.nodes != tuple(nodes):
        raise ValueError("the nodes must be the ends of the edges, ascending")
    for e in g.edges:
        if not e.holds():
            raise ValueError(f"edge {e.emulator.wolfram} -> {e.emulated.wolfram} has a "
                             "witness that fails the emulation equations")
    return g
