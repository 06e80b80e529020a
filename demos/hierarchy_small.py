"""Compute a small emulation hierarchy and export it.

Edges point from the emulator to the emulated representative, labeled with
the smallest witnessing supercell size.  Exports are byte-stable, so the
CSV/JSON/DOT files can serve as golden data.
"""

from pathlib import Path

from eca_emulation import classify, compute_hierarchy, export, transitive_reduction

graph = compute_hierarchy(3, workers=4)
print(f"size bound 3: {len(graph.nodes)} class representatives, "
      f"{len(graph.edges)} edges")
print("self-similar so far:", graph.self_similar)

edge = graph.edge(148, 184)
print(f"edge 148 -> 184: kmin={edge.k}, "
      f"enc0={edge.encoding.enc0.text}, enc1={edge.encoding.enc1.text}")

reduced = transitive_reduction(graph)
print(f"after transitive reduction: {len(reduced.edges)} edges")

report = classify(graph)
print("\nclassification at bound 3:")
print("  memory capable:", len(report.memory_capable), "classes")
print("  emulate rule 0 non-trivially:", len(report.zero_emulators), "classes")
print("  chaos candidates:", report.chaos_candidates)

out = Path("hierarchy_k3")
out.mkdir(exist_ok=True)
for fmt in ("csv", "json", "dot"):
    path = out / f"hierarchy.{fmt}"
    path.write_bytes(export(graph, fmt))
    print("wrote", path)
