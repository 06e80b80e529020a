import concurrent.futures
import functools
import hashlib
import json
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eca_emulation
from eca_emulation import (
    EmulationWitness,
    Encoding,
    Subalgebra,
    classify,
    compose_witnesses,
    compute_hierarchy,
    dual,
    emulated_rule_map,
    export,
    load_json,
    rep_of,
    rule_from_wolfram,
    transitive_reduction,
    verify_witness,
)
from eca_emulation import cli, hierarchy
from eca_emulation.hierarchy import HierarchyGraph, _load_shard, _store_shard
from eca_emulation.rules import _unravel_batch
from eca_emulation.words import Word

needs_extended = pytest.mark.skipif(
    os.environ.get("ECA_EMULATION_EXTENDED") != "1",
    reason="set ECA_EMULATION_EXTENDED=1 for the full-depth runs")


@pytest.fixture(scope="module")
def graph_k2():
    return compute_hierarchy(2)


@pytest.fixture(scope="module")
def graph_k3():
    return compute_hierarchy(3, workers=2)


def test_dual_classes_count_and_membership():
    # a class is {n, dual(n)}; REPS lists each class's representative once
    assert len(hierarchy.REPS) == 136
    assert list(hierarchy.REPS) == sorted({rep_of(n) for n in range(256)})
    assert rep_of(137) == rep_of(110) == 110
    assert rep_of(51) == 51 == dual(rule_from_wolfram(51)).wolfram
    for n in range(256):
        assert rep_of(dual(rule_from_wolfram(n)).wolfram) == rep_of(n)


def test_rep_of():
    assert rep_of(137) == 110
    assert rep_of(110) == 110
    assert rep_of(0) == 0
    for n in range(256):
        assert rep_of(n) == min(n, dual(rule_from_wolfram(n)).wolfram)
    with pytest.raises(ValueError):
        rep_of(300)


def test_graph_contains_traffic_edge(graph_k2):
    e = graph_k2.edge(148, 184)
    assert e is not None and e.k == 2 and e.holds()
    assert (e.emulator.wolfram, e.emulated.wolfram) == (148, 184)
    assert e in graph_k2.edges
    assert 148 in {x.emulator.wolfram for x in graph_k2.edges if x.emulated.wolfram == 184}


def test_every_node_has_trivial_self_edge(graph_k2):
    for n in graph_k2.nodes:
        e = graph_k2.edge(n, n)
        assert e is not None and e.k == 1


def test_edges_point_to_representatives(graph_k2):
    for e in graph_k2.edges:
        assert e.emulator.wolfram in hierarchy.REPS and e.emulated.wolfram in hierarchy.REPS
    # the sweep builds its edges in (emulator, emulated) order, unsorted
    keys = [(e.emulator.wolfram, e.emulated.wolfram) for e in graph_k2.edges]
    assert keys == sorted(set(keys))


def test_edge_witnesses_verify(graph_k3):
    for e in graph_k3.edges:
        assert verify_witness(e, 30, 3, samples=50, seed=17), e


def test_graph_edges_compose(graph_k3):
    # 184 <=_2 148 and 148 <=_2 41 chain to 184 <=_4 41
    w = compose_witnesses(graph_k3.edge(148, 184), graph_k3.edge(41, 148))
    assert (w.emulated.wolfram, w.emulator.wolfram, w.k) == (184, 41, 4)
    assert w.holds()
    assert verify_witness(w, 30, 3, samples=50, seed=17)


def test_monotone_in_k(graph_k2, graph_k3):
    g1 = compute_hierarchy(1)
    pairs = {(e.emulator.wolfram, e.emulated.wolfram): e.k for e in g1.edges}
    pairs2 = {(e.emulator.wolfram, e.emulated.wolfram): e.k for e in graph_k2.edges}
    pairs3 = {(e.emulator.wolfram, e.emulated.wolfram): e.k for e in graph_k3.edges}
    assert set(pairs) <= set(pairs2) <= set(pairs3)
    for key, kmin in pairs2.items():
        assert pairs3[key] <= kmin


def _orbits():
    """The representatives grouped by mirror/dual orbit, keyed by the
    orbit's smallest rule, as the sweep groups them."""
    orbits = {}
    for g in hierarchy.REPS:
        orbits.setdefault(hierarchy._orbit_min(g), []).append(g)
    return orbits


def _sweep_cells(k):
    """The sweep's cell of every representative at size k, one orbit task
    per orbit."""
    return {g: entries for h, reps in _orbits().items()
            for g, _, entries in hierarchy._compute_orbit((h, k, tuple(reps)))}


def test_duality_projection(graph_k3):
    # computing per representative, one task per orbit as the sweep groups
    # them, must agree with computing every rule and projecting the results
    # onto classes; the first size at which a class shows is its edge's kmin
    cells = {(g, k): entries for k in (1, 2, 3) for g, entries in _sweep_cells(k).items()}
    for g in range(256):
        kmin = {}
        for k in (1, 2, 3):
            projected = {rep_of(f) for f in emulated_rule_map(rule_from_wolfram(g), k)}
            assert projected == {rep_of(f) for f, _, _ in cells[(rep_of(g), k)]}
            for r in projected:
                kmin.setdefault(r, k)
        assert {e.emulated.wolfram: e.k for e in graph_k3.edges
                if e.emulator.wolfram == rep_of(g)} == kmin


def test_subset_computation():
    g = compute_hierarchy(2, reps=[148, 149])  # 149 canonicalizes to its rep
    assert g.edge(148, 184).k == 2
    assert all(e.emulator.wolfram in {148, rep_of(149)} for e in g.edges)


def test_compute_rejects_bad_arguments():
    with pytest.raises(ValueError):
        compute_hierarchy(0)
    with pytest.raises(ValueError):
        compute_hierarchy(2, workers=0)


def test_compute_refuses_an_empty_cache_dir(tmp_path, monkeypatch):
    # '' joined with a shard's name is a path in the working directory: an
    # empty cache_dir used to read the shards there (`hierarchy --cache-dir
    # ''` exited 0 on a warm cell), and failed in os.makedirs('') only once
    # a cell had to be computed
    def refuse(*args):
        raise AssertionError("a shard was read before cache_dir was checked")

    compute_hierarchy(1, reps=[0], cache_dir=str(tmp_path))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(hierarchy, "_load_shard", refuse)
    with pytest.raises(ValueError, match="must not be empty"):
        compute_hierarchy(1, reps=[0], cache_dir="")


def test_compute_checks_the_largest_size_first(tmp_path, monkeypatch):
    # K past the packed kernel limit used to compute and store sizes 1..20
    # before it raised
    def refuse(*args):
        raise AssertionError("work started before K was checked")

    monkeypatch.setattr(hierarchy, "_compute_orbit", refuse)
    cache = tmp_path / "cache"
    with pytest.raises(ValueError, match="exceeds the packed kernel limit"):
        compute_hierarchy(21, reps=[0], cache_dir=str(cache))
    assert not cache.exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, never forks."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)

    def shutdown(self, cancel_futures=False):
        pass


def test_workers_never_outnumber_the_tasks(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    serial = compute_hierarchy(2, reps=[204])
    # K = 1 on one orbit is one task: it runs in-process
    compute_hierarchy(1, reps=[204], workers=8)
    assert _RecordingPool.sizes == []
    # two sizes are two tasks: two processes, not eight
    assert compute_hierarchy(2, reps=[204], workers=8) == serial
    assert _RecordingPool.sizes == [2]


def test_compute_bounds_the_workers(monkeypatch):
    # the CLI's parser used to be the only bound: compute_hierarchy(11,
    # workers=500) would have started one process per task, up to 500
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    with pytest.raises(ValueError, match="workers 65 not in 1..64"):
        compute_hierarchy(2, reps=[204], workers=65)
    assert _RecordingPool.sizes == []
    compute_hierarchy(2, reps=[204], workers=64)
    assert _RecordingPool.sizes == [2]


def _child_env() -> dict:
    """This environment with the package's source first on PYTHONPATH."""
    src = str(Path(hierarchy.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# In an interpreter that has loaded numpy, a job run twice, printing the
# minor page faults each run took: a serial K = 10 sweep, and the chaos
# search of rule 30 at sizes 2..14.
_FAULTS = """
import json, resource
import numpy
from eca_emulation import compute_hierarchy, proper_subalgebra_search, rule_from_wolfram
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    {}
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
@pytest.mark.parametrize("job", [
    "compute_hierarchy(10)",
    "[proper_subalgebra_search(rule_from_wolfram(30), k) for k in range(2, 15)]",
], ids=["sweep", "chaos"])
def test_sweep_keeps_its_heap(job):
    # Without the 16 MiB block freed before the first array is built, glibc
    # trims the heap top after nearly every kernel call and faults it back
    # in on the next.  A first run grows the heap: the sweep took
    # 22,000-32,000 faults without the block and ~1,100 with it.  How much
    # a first chaos search refaults depends on where the interpreter's own
    # allocations left the heap top (~2,000 or ~27,000 faults without the
    # block, by the length of the script's path), so its second run, which
    # only reuses the heap, is the gate: 540-1,900 faults without, <= 10
    # with it (the sweep: ~90).
    out = subprocess.run([sys.executable, "-c", _FAULTS.format(job)], capture_output=True,
                         env=_child_env(), timeout=300, check=True)
    first, second = json.loads(out.stdout)
    assert first < 5000 and second < 300


_real_compute_orbit = hierarchy._compute_orbit


def _segments(cache):
    """The cache's segment files, by name."""
    return sorted(cache.glob("*.json"))


def test_cache_shards_roundtrip(tmp_path, graph_k2):
    cache = str(tmp_path / "cache")
    first = compute_hierarchy(2, cache_dir=cache)
    assert export(first, "json") == export(graph_k2, "json")
    # one segment per orbit, holding both sizes of each of its representatives
    segments = _segments(tmp_path / "cache")
    assert len(segments) == 88
    assert sorted(len(_load_shard(str(p))) for p in segments) == [2] * 40 + [4] * 48
    # second run is served from the segments and must agree byte for byte
    second = compute_hierarchy(2, cache_dir=cache)
    assert export(second, "json") == export(first, "json")
    assert len(_segments(tmp_path / "cache")) == 88


def _failing_orbit(args):
    raise AssertionError(f"orbit task {args} computed on a full cache")


def test_two_sweeps_share_one_cache(tmp_path, capsys, monkeypatch):
    # Two runs started together on one empty cache write segments of their
    # own: both print the uncached output, and the cache they leave, where
    # a cell may come twice with identical entries, serves a third run
    # without any computation.
    argv = ["hierarchy", "--kmax", "7", "--json"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out.encode()
    cache = tmp_path / "cache"
    cmd = [sys.executable, "-m", "eca_emulation", *argv, "--cache-dir", str(cache)]
    runs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env()) for _ in range(2)]
    outs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outs == [expected, expected]
    assert 88 <= len(_segments(cache)) <= 2 * 88
    assert list(cache.glob("*.tmp")) == []
    assert set(hierarchy._load_cache(str(cache))) == {
        (g, k) for g in hierarchy.REPS for k in range(1, 8)}
    monkeypatch.setattr(hierarchy, "_compute_orbit", _failing_orbit)
    assert cli.main([*argv, "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out.encode() == expected


def test_cache_ignores_foreign_schema(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "rule000_k01.json").write_text('{"schema": -1}')
    g = compute_hierarchy(1, reps=[0], cache_dir=str(cache))
    assert g.edge(0, 0) is not None


def test_cache_of_per_cell_shards_is_all_misses(tmp_path, graph_k2, monkeypatch):
    # A cache of the schema-1 layout, one file per cell, holds the true
    # cells; none of them is read, every orbit is computed again, and the
    # output is unchanged.  The old files stay as they were.
    cache = tmp_path / "cache"
    cache.mkdir()
    for h, reps in _orbits().items():
        for g, k, entries in (cell for k in (1, 2) for cell in _real_compute_orbit((h, k, reps))):
            (cache / f"rule{g:03d}_k{k:02d}.json").write_text(json.dumps(
                {"schema": 1, "rule": g, "k": k, "emulated": entries}, sort_keys=True))
    old = {p.name: p.read_bytes() for p in cache.iterdir()}
    assert len(old) == 136 * 2
    computed = []
    monkeypatch.setattr(hierarchy, "_compute_orbit",
                        lambda args: (computed.append(args), _real_compute_orbit(args))[1])
    assert export(compute_hierarchy(2, cache_dir=str(cache)), "json") == export(graph_k2, "json")
    assert len(computed) == 88 * 2
    assert {p.name: p.read_bytes() for p in cache.iterdir() if p.name in old} == old
    assert len(list(cache.iterdir())) == len(old) + 88


# the true cells (0, 1) and (1, 1)
_CELL01 = [0, 1, [[0, 0, 1], [255, 1, 0]]]
_CELL11 = [1, 1, [[1, 0, 1], [127, 1, 0]]]


@pytest.mark.parametrize("bad", [
    # whole files, every cell in them a miss
    '[]',
    '{"schema": 2}',
    '{"schema": 2, "cells": {}}',
    pytest.param(json.dumps({"schema": 1, "cells": [_CELL01, _CELL11]}), id="schema-1"),
    pytest.param("[" * 100_000, id="nested-past-the-recursion-limit"),
    pytest.param("[" * 60_000, id="nested-within-the-size-bound"),
    # the true cells, padded past 2^16 bytes: never parsed
    pytest.param(json.dumps({"schema": 2, "cells": [_CELL01, _CELL11]}) + " " * (1 << 16),
                 id="padded-past-the-size-bound"),
    # cells of (0, 1), each a miss beside the true (1, 1)
    [0, 1],
    ["0", 1, _CELL01[2]],
    [0, True, _CELL01[2]],
    [0, 1, {}],
    [0, 1, [[0, 0]]],
    [0, 1, [[0, "0", 1]]],
    [0, 1, [[300, 0, 1]]],                  # no Wolfram number
    [0, 1, [[0, 5, 1]]],                    # no 1-cell code
    [0, 1, [[0, 1, 1]]],                    # not one-to-one
    [0, 1, [[7, 0, 1]]],                    # dual 31 missing
    # f repeated, and out of order, each in a set closed under duality
    [0, 1, [[0, 0, 1], [0, 1, 0], [255, 1, 0]]],
    [0, 1, [[255, 1, 0], [0, 0, 1]]],
    # and cells of no supercell size
    [0, 0, []],
    [0, 21, []],
])
def test_cache_misshapen_shard_is_a_miss(tmp_path, bad, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    whole_file = isinstance(bad, str)
    (cache / "segment-bad.json").write_text(
        bad if whole_file else json.dumps({"schema": 2, "cells": [bad, _CELL11]}))
    hits = [] if whole_file else [(1, 1, [tuple(e) for e in _CELL11[2]])]
    assert (_load_shard(str(cache / "segment-bad.json")) or []) == hits
    computed = []
    monkeypatch.setattr(hierarchy, "_compute_orbit",
                        lambda args: (computed.append(args), _real_compute_orbit(args))[1])
    g = compute_hierarchy(1, reps=[0, 1], cache_dir=str(cache))
    assert g.edge(0, 0) is not None
    assert computed == [(0, 1, (0,))] + ([(1, 1, (1,))] if whole_file else [])
    # the recomputed cells went into a segment of their own
    cached = hierarchy._load_cache(str(cache))
    assert [(g, 1, cached[(g, 1)]) for g in (0, 1)] == [
        *_real_compute_orbit((0, 1, (0,))), *_real_compute_orbit((1, 1, (1,)))]


def test_cache_disagreeing_segments_are_a_miss(tmp_path, monkeypatch):
    # Two segments give (0, 1) different, each well-formed, entries: the
    # cell is a miss and is computed again on every run, into the same
    # segment each time; (1, 1), given twice alike, is a hit.  The second
    # entry list is a forged pair of dual entries.
    cache = tmp_path / "cache"
    cache.mkdir()
    true01, true11 = _real_compute_orbit((0, 1, (0,)))[0], _real_compute_orbit((1, 1, (1,)))[0]
    forged01 = (0, 1, [(7, 0, 1), (31, 1, 0)])
    _store_shard(str(cache), [true01, true11])
    _store_shard(str(cache), [forged01, true11])
    assert (0, 1) not in hierarchy._load_cache(str(cache))
    computed = []
    monkeypatch.setattr(hierarchy, "_compute_orbit",
                        lambda args: (computed.append(args), _real_compute_orbit(args))[1])
    for run in range(2):
        g = compute_hierarchy(1, reps=[0, 1], cache_dir=str(cache))
        assert computed == [(0, 1, (0,))] * (run + 1)
        assert g.edge(0, 7) is None and g.edge(0, 0) is not None
        # the recomputed cell's segment is the same on every run
        assert len(_segments(cache)) == 3


def test_cache_largest_shard_fits_the_bound(tmp_path):
    # 256 entries with 20-cell codes under a 3-digit rule is the largest
    # cell a sweep stores
    k = 20
    entries = [(f, (1 << k) - 1, (1 << k) - 2) for f in range(256)]
    _store_shard(str(tmp_path), [(204, k, entries)])
    [segment] = _segments(tmp_path)
    assert segment.stat().st_size == 6327
    assert _load_shard(str(segment)) == [(204, k, entries)]


def _orbit_of_204_full(args):
    # every f, with the two largest k-cell codes: as large as a cell of size k gets
    h, k, reps = args
    return [(g, k, [(f, (1 << k) - 1, (1 << k) - 2) for f in range(256)]) for g in reps]


def test_cache_segments_split_at_the_size_bound(tmp_path, monkeypatch):
    # Rule 204's orbit holds only 204, and its 20 largest cells take ~84 KB
    # of text: the sweep splits them into segments within 2^16 bytes, and
    # each loads back
    monkeypatch.setattr(hierarchy, "_compute_orbit", _orbit_of_204_full)
    cells = [cell for k in range(1, 21) for cell in _orbit_of_204_full((204, k, (204,)))]
    assert len(json.dumps({"cells": cells, "schema": 2})) > hierarchy._MAX_JSON_BYTES
    compute_hierarchy(20, reps=[204], cache_dir=str(tmp_path))
    segments = _segments(tmp_path)
    assert len(segments) == 2
    assert all(p.stat().st_size <= hierarchy._MAX_JSON_BYTES for p in segments)
    loaded = [cell for p in segments for cell in _load_shard(str(p))]
    assert sorted(loaded) == cells


def test_cache_write_leaves_stale_temp_alone(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = cache / "segment-stale.tmp"
    stale.write_text("half a segment from another run")
    compute_hierarchy(1, reps=[0], cache_dir=str(cache))
    assert stale.read_text() == "half a segment from another run"
    [segment] = _segments(cache)
    assert _load_shard(str(segment)) == _real_compute_orbit((0, 1, (0,)))
    assert sorted(p.name for p in cache.iterdir()) == sorted([segment.name, stale.name])


def test_cache_write_never_replaces_a_segment(tmp_path):
    # a segment is named by the sha256 of its text: storing other cells
    # leaves another file untouched, and storing the same cells again
    # replaces their segment with the same bytes instead of adding one
    (tmp_path / "segment-other.json").write_text("another run's segment")
    cells = [(0, 1, [(0, 0, 1), (255, 1, 0)])]
    for _ in range(2):
        _store_shard(str(tmp_path), cells)
    assert (tmp_path / "segment-other.json").read_text() == "another run's segment"
    [segment] = [p for p in _segments(tmp_path) if p.name != "segment-other.json"]
    text = segment.read_bytes()
    assert segment.name == f"segment-{hashlib.sha256(text).hexdigest()}.json"
    assert _load_shard(str(segment)) == cells
    assert len(list(tmp_path.iterdir())) == 2


def test_cache_failed_write_removes_its_temp(tmp_path, monkeypatch):
    with pytest.raises(TypeError):  # a set is not JSON serializable
        _store_shard(str(tmp_path), [(0, 1, [(0, 0, {1})])])
    assert list(tmp_path.iterdir()) == []

    # a write that fails once its temp file exists removes that file
    def refuse(src, dst):
        assert os.path.exists(src)
        raise OSError("rename refused")

    monkeypatch.setattr(hierarchy.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        _store_shard(str(tmp_path), [(0, 1, [(0, 0, 1)])])
    assert list(tmp_path.iterdir()) == []


def _orbit_failing_at_2_3(args):
    # module level, so that worker processes can unpickle it
    if args[:2] == (2, 3):
        raise RuntimeError(f"orbit task {args} failed")
    return _real_compute_orbit(args)


def _direct_cell(g, k):
    return sorted((f, e.enc0.bits, e.enc1.bits)
                  for f, e in emulated_rule_map(rule_from_wolfram(g), k).items())


def test_interrupted_parallel_sweep_keeps_finished_shards(tmp_path, monkeypatch):
    monkeypatch.setattr(hierarchy, "_compute_orbit", _orbit_failing_at_2_3)
    cache = tmp_path / "cache"
    with pytest.raises(RuntimeError, match=r"orbit task \(2, 3, \(2, 16\)\) failed"):
        compute_hierarchy(3, reps=[0, 1, 3, 2, 16], workers=2, cache_dir=str(cache))
    # Rules 2 and 16 share one mirror/dual orbit, so one task (h, k, reps)
    # computes both of their cells at size k.  Tasks go out in (h, k) order,
    # four to a batch; (2, 3) is the ninth task, so the two batches before
    # its own had returned, with the cells of both representatives.
    finished = [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
                (2, 1), (16, 1), (2, 2), (16, 2)]
    cached = hierarchy._load_cache(str(cache))
    for g, k in finished:
        assert cached[(g, k)] == _direct_cell(g, k), (g, k)
    assert sorted(cached) == sorted(finished)
    # orbits 0 and 1 were written when the next orbit's cells arrived, and
    # the cells of orbit 2 that had finished when the sweep failed
    assert sorted(len(_load_shard(str(p))) for p in _segments(cache)) == [3, 3, 4]
    assert list(cache.glob("*.tmp")) == []


def _marking_orbit(marks, args):
    # module level, so that worker processes can unpickle it
    h, k, _ = args
    Path(marks, f"{h}-{k}").touch()
    return _real_compute_orbit(args)


def _failing_store(cache_dir, cells):
    raise OSError("segment write failed")


def test_failing_parallel_sweep_stops_at_once(tmp_path, monkeypatch):
    # The first segment write fails when the second orbit's cells arrive.
    # The error cancels the tasks still queued, and about 30 of the 528
    # run; a shutdown that waits for the queue runs all of them first.
    marks = tmp_path / "marks"
    marks.mkdir()
    monkeypatch.setattr(hierarchy, "_compute_orbit", functools.partial(_marking_orbit, str(marks)))
    monkeypatch.setattr(hierarchy, "_store_shard", _failing_store)
    with pytest.raises(OSError, match="segment write failed"):
        compute_hierarchy(6, workers=2, cache_dir=str(tmp_path / "cache"))
    assert len(list(marks.iterdir())) < 88 * 6 // 2
    assert multiprocessing.active_children() == []


def test_orbit_tasks_cover_every_representative_once():
    # 136 representatives fall into 88 mirror/dual orbits, 48 of them with
    # two representatives; each orbit's smallest rule is a representative
    orbits = _orbits()
    assert len(orbits) == 88
    assert sum(len(reps) == 2 for reps in orbits.values()) == 48
    assert all(h in hierarchy.REPS and h <= min(reps) for h, reps in orbits.items())
    assert orbits[170] == [170, 240] and orbits[30] == [30, 86]


def test_orbit_task_matches_direct_cells():
    for h, k, reps in [(170, 6, (170, 240)), (30, 5, (86,)), (2, 4, (2, 16))]:
        assert _real_compute_orbit((h, k, reps)) == [
            (g, k, _direct_cell(g, k)) for g in reps]


def _pair_space_cell(g, k):
    """Rule g's cell at size k from the pair space alone: no prefilter, no
    aliased patterns, no orbit fold.  Every pair u < v runs, in chunks,
    through the eight selection patterns and is dropped once a product
    leaves {u, v}.  Pattern i = 4*s1 + 2*s2 + s3 puts v in block j where
    s_j = 1 and u elsewhere, block 1 in the lowest cells.  A closed pair
    induces, as (enc0, enc1) = (u, v), the rule whose bit i says pattern i
    gives v, and as (v, u) the rule whose bit 7 - i says pattern i gives u.
    Each rule keeps its scan-order-minimal orientation."""
    n, sk, chunk = 1 << k, np.uint64(k), 1 << 16
    none = np.iinfo(np.uint64).max
    best = np.full(256, none, dtype=np.uint64)
    for lo in range(0, n * n, chunk):
        p = np.arange(lo, min(lo + chunk, n * n), dtype=np.uint64)
        u, v = p >> sk, p & np.uint64(n - 1)
        u, v = u[u < v], v[u < v]
        as_uv, as_vu = np.zeros((2, len(u)), dtype=np.int64)
        for i in range(8):
            x, y, z = (v if i >> s & 1 else u for s in (2, 1, 0))
            r = _unravel_batch(g, x | y << sk | z << np.uint64(2 * k), 3 * k, k)
            as_uv = as_uv | (r == v).astype(np.int64) << i
            as_vu = as_vu | (r == u).astype(np.int64) << (7 - i)
            keep = (r == u) | (r == v)
            u, v, as_uv, as_vu = u[keep], v[keep], as_uv[keep], as_vu[keep]
        np.minimum.at(best, as_uv, u << sk | v)
        np.minimum.at(best, as_vu, v << sk | u)
    return [(f, key >> k, key & (n - 1)) for f, key in enumerate(best.tolist()) if key != none]


@pytest.mark.parametrize("k", [9, pytest.param(11, marks=needs_extended, id="extended-11")])
def test_sweep_cells_match_the_pair_space_oracle(k):
    # the sweep's fast paths (diagonal prefilter, read-set pattern aliasing,
    # orbit fold, swapped chunks) against a scan of every pair
    cells = _sweep_cells(k)
    wrong = [g for g in hierarchy.REPS if cells[g] != _pair_space_cell(g, k)]
    assert wrong == []


# --- transitive reduction ------------------------------------------------

def _edge(a, b, k=1):
    return EmulationWitness(rule_from_wolfram(b), rule_from_wolfram(a), k,
                            Encoding(Word(0, k), Word(1, k)))


def mkgraph(edges):
    return HierarchyGraph(1, tuple(_edge(a, b) for a, b in sorted(edges)), ())


@pytest.mark.parametrize("K, edges, self_similar", [
    (1, (_edge(2, 3), _edge(1, 2)), ()),
    (1, (_edge(1, 2), _edge(1, 2)), ()),
    (1, (_edge(1, 255),), ()),
    (1, (_edge(255, 1),), ()),
    (1, (_edge(1, 2),), (3,)),
    (1, (_edge(1, 1), _edge(2, 2)), (2, 1)),
    (1, (_edge(1, 1), _edge(2, 2)), (1, 1)),
    (1, (_edge(1, 1), _edge(1, 2)), (2,)),
    (1, (_edge(1, 2, k=2),), ()),
    (0, (), ()),
    (21, (), ()),
    (1, (_edge(1, 1),), (1,)),
], ids=["edges-out-of-order", "repeated-pair", "non-representative-node",
        "non-representative-emulator", "self-similar-not-a-node", "self-similar-unsorted",
        "self-similar-repeated", "self-similar-without-self-edge", "kmin-past-K", "K-zero",
        "K-past-limit", "self-similar-below-K-2"])
def test_graph_checks_its_invariants(K, edges, self_similar):
    # the nodes are the ends of the edges, so a node outside the duality
    # representatives is an edge to or from one (255 is the dual of 0)
    with pytest.raises(ValueError):
        HierarchyGraph(K, edges, self_similar)


@pytest.mark.parametrize("k, enc0, enc1", [
    (2, Word(0, 3), Word(1, 3)),
    (1, Word(1, 1), Word(1, 1)),
], ids=["codes-not-kmin-cells", "equal-codes"])
def test_an_edge_checks_its_codes(k, enc0, enc1):
    # a graph edge is a witness, so codes that are not two distinct words
    # of kmin cells never reach a graph
    with pytest.raises(ValueError):
        EmulationWitness(rule_from_wolfram(30), rule_from_wolfram(30), k, Encoding(enc0, enc1))


def test_reduction_drops_implied_edge():
    g = mkgraph([(1, 2), (2, 3), (1, 3)])
    red = transitive_reduction(g)
    assert {(e.emulator.wolfram, e.emulated.wolfram) for e in red.edges} == {(1, 2), (2, 3)}


def test_reduction_keeps_self_loops():
    g = mkgraph([(1, 1), (2, 2)])
    red = transitive_reduction(g)
    assert {(e.emulator.wolfram, e.emulated.wolfram) for e in red.edges} == {(1, 1), (2, 2)}


@pytest.mark.parametrize("K, reps, drops", [(8, None, True), (2, [184], False)])
def test_reduction_keeps_every_node(K, reps, drops):
    # a dropped edge's ends stay joined through the kept edges, and a node
    # is an edge end, so reduction keeps every node
    g = compute_hierarchy(K, reps=reps)
    red = transitive_reduction(g)
    assert (len(red.edges) < len(g.edges)) == drops
    assert red.nodes == g.nodes


def test_reduction_reconstructs_chain_fragment(graph_k3):
    # 41 over 148 over 184: the chain edges survive, the composed shortcut
    # 41 -> 184 is dropped when the computation found it directly
    assert graph_k3.edge(41, 148) is not None
    assert graph_k3.edge(148, 184) is not None
    red = transitive_reduction(graph_k3)
    assert red.edge(41, 148) is not None
    assert red.edge(148, 184) is not None
    if graph_k3.edge(41, 184) is not None:
        assert red.edge(41, 184) is None


def test_reduction_preserves_reachability(graph_k3):
    red = transitive_reduction(graph_k3)

    def closure(graph):
        succ = {n: set() for n in graph.nodes}
        for e in graph.edges:
            if e.emulator != e.emulated:
                succ[e.emulator.wolfram].add(e.emulated.wolfram)
        reach = {}
        for start in graph.nodes:
            seen = set()
            stack = [start]
            while stack:
                for nxt in succ[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            reach[start] = seen
        return reach

    assert closure(red) == closure(graph_k3)
    assert len(red.edges) <= len(graph_k3.edges)


# --- classification -------------------------------------------------------

def test_classify_small(graph_k2):
    report = classify(graph_k2)
    assert report.K == 2
    # chaotic candidates at this small bound must already include the four
    # (classes of) rules that never acquire a proper subalgebra
    assert {30, 45} <= set(report.chaos_candidates)
    assert not set(report.chaos_candidates) & set(report.self_similar)
    for n in (0, 60, 90, 102, 150, 170, 204, 240):
        assert rep_of(n) not in report.chaos_candidates
    # identity-capable rules include the identity itself
    assert 204 in report.memory_capable
    assert 0 in report.zero_emulators
    assert report.emulation_counts[30] == 0
    assert report.emulation_counts[148] >= 1
    # at K=1 only the size-1 self emulation makes a rule memory-capable
    assert classify(compute_hierarchy(1, reps=[30, 204])).memory_capable == (204,)


def test_classify_reads_an_export_as_the_computed_graph(graph_k3):
    assert classify(load_json(export(graph_k3, "json"))) == classify(graph_k3)


def test_classify_reads_a_restricted_export_as_the_computed_graph():
    # 149 canonicalizes to 86; the nodes 176 and 184 are only edge targets
    g = compute_hierarchy(3, reps=[148, 149])
    assert g.nodes == (86, 148, 176, 184)
    report = classify(g)
    assert sorted(report.emulation_counts) == [86, 148]
    assert classify(load_json(export(g, "json"))) == report


# --- serialization --------------------------------------------------------

def test_csv_export(graph_k2):
    text = export(graph_k2, "csv").decode()
    lines = text.strip().split("\n")
    assert lines[0] == "emulator,emulated,kmin"
    assert "148,184,2" in lines
    rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    assert rows == sorted(rows)


def test_csv_header_only_for_empty_graph():
    g = HierarchyGraph(1, (), ())
    assert g.nodes == ()
    assert export(g, "csv") == b"emulator,emulated,kmin\n"


def test_json_roundtrip_byte_identical(graph_k2):
    blob = export(graph_k2, "json")
    assert export(load_json(blob), "json") == blob
    obj = json.loads(blob)
    assert set(obj) == {"K", "nodes", "self_similar", "edges"}
    assert all(set(e) == {"from", "to", "kmin", "enc0", "enc1"} for e in obj["edges"])


_EDGE = {"from": 0, "to": 0, "kmin": 1, "enc0": "0", "enc1": "1"}


@pytest.mark.parametrize("doc", [
    {"K": 1, "nodes": [0], "self_similar": []},
    [],
    {"K": 3, "nodes": [0], "self_similar": [], "edges": [dict(_EDGE, kmin=3)]},
    {"K": 1, "nodes": ["x"], "self_similar": [], "edges": []},
    {"K": 1.0, "nodes": [0], "self_similar": [], "edges": [_EDGE]},
    {"K": 1, "nodes": [0], "self_similar": [256], "edges": [_EDGE]},
    {"K": 1, "nodes": [0], "self_similar": [], "edges": {"0": _EDGE}},
    {"K": 1, "nodes": [0], "self_similar": [], "edges": [dict(_EDGE, to=True)]},
    {"K": 1, "nodes": [0], "self_similar": [], "edges": [dict(_EDGE, kmin=2)]},
    {"K": 1, "nodes": [0], "self_similar": [], "edges": [dict(_EDGE, enc1="0")]},
    {"K": 1, "nodes": [0], "self_similar": [], "edges": [dict(_EDGE, enc1="x")]},
    {"K": 1, "nodes": [0], "self_similar": [], "edges": [[0, 0, 1, "0", "1"]]},
    {"K": 1, "nodes": [0], "self_similar": [],
     "edges": [dict(_EDGE, kmin=2, enc0="00", enc1="11")]},
    {"K": 1, "nodes": [0, 1], "self_similar": [],
     "edges": [dict(_EDGE, **{"from": 1, "to": 1}), _EDGE]},
    {"K": 1, "nodes": [0, 1], "self_similar": [1, 0],
     "edges": [_EDGE, dict(_EDGE, **{"from": 1, "to": 1})]},
    {"K": 1, "nodes": [0], "self_similar": [0, 0], "edges": [_EDGE]},
    {"K": 1, "nodes": [0, 1], "self_similar": [1], "edges": [_EDGE]},
], ids=["missing-key", "list", "kmin-vs-codes", "node-text", "float-K", "rule-256",
        "edges-dict", "bool-rule", "kmin-past-K", "equal-codes", "code-text", "edge-list",
        "valid-witness-past-K", "edges-out-of-order", "self-similar-unsorted",
        "self-similar-repeated", "self-similar-without-self-edge"])
def test_load_json_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        load_json(json.dumps(doc))


def _swap_codes(doc):
    e = next(e for e in doc["edges"] if e["to"] == 128)  # then a witness of 254
    e["enc0"], e["enc1"] = e["enc1"], e["enc0"]


_SELF_226 = {"from": 226, "to": 226, "kmin": 1, "enc0": "0", "enc1": "1"}


@pytest.mark.parametrize("spoil", [
    pytest.param(lambda doc: doc.update(nodes=[184]), id="edge-outside-nodes"),
    pytest.param(_swap_codes, id="swapped-codes"),
    pytest.param(lambda doc: doc.update(K=-5, edges=[]), id="negative-K"),
    pytest.param(lambda doc: doc.update(K=21), id="K-past-limit"),
    pytest.param(lambda doc: doc["edges"].append(doc["edges"][0]), id="repeated-edge"),
    pytest.param(lambda doc: doc["edges"].append(_SELF_226), id="edge-from-226"),
    pytest.param(lambda doc: doc.update(nodes=[128, 170, 184, 226, 240],
                                        edges=doc["edges"] + [_SELF_226]),
                 id="non-representative-node"),
    pytest.param(lambda doc: doc.update(nodes=doc["nodes"][::-1]), id="unsorted-nodes"),
    pytest.param(lambda doc: doc["nodes"].append(240), id="repeated-node"),
    pytest.param(lambda doc: doc["nodes"].insert(0, 0), id="node-without-edge"),
    pytest.param(lambda doc: doc.update(self_similar=[30]), id="self-similar-outside-nodes"),
    pytest.param(lambda doc: doc.update(K=1, self_similar=[184], edges=[
        e for e in doc["edges"] if e["kmin"] == 1]), id="self-similar-below-K-2"),
])
def test_load_json_rechecks_what_an_export_claims(spoil):
    # each spoiled export keeps the shape load_json parses
    doc = json.loads(export(compute_hierarchy(2, reps=[184]), "json"))
    assert load_json(json.dumps(doc)).nodes == (128, 170, 184, 240)
    spoil(doc)
    with pytest.raises(ValueError):
        load_json(json.dumps(doc))


def test_load_json_builds_the_graph_before_checking_witnesses(monkeypatch):
    # holds() costs ~kmin^2, so it runs only once the graph has bounded kmin by K
    def unreachable(w):
        raise AssertionError("holds() ran before the graph was built")
    monkeypatch.setattr(EmulationWitness, "holds", unreachable)
    doc = {"K": 1, "nodes": [0], "self_similar": [],
           "edges": [dict(_EDGE, kmin=2, enc0="00", enc1="11")]}
    with pytest.raises(ValueError, match="kmin exceeds K"):
        load_json(json.dumps(doc))


def test_load_json_rejects_deep_nesting():
    with pytest.raises(ValueError, match="nested too deeply"):
        load_json("[" * 100_000 + "]" * 100_000)


def test_dot_export_marks_self_similar(graph_k2):
    text = export(graph_k2, "dot").decode()
    assert text.startswith("digraph")
    assert "  r90 [peripheries=2];" in text  # self-similar at size 2
    assert 'r148 -> r184 [label="k=2"];' in text


def test_unknown_format_rejected(graph_k2):
    with pytest.raises(ValueError):
        export(graph_k2, "xml")


# --- the public surface ---------------------------------------------------

def test_readme_quick_tour_runs(capsys):
    # the fenced python block under "Library quick tour", with each line
    # commented "# True" asserted
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    lines = []
    for line in block.split("\n```", 1)[0].splitlines():
        code, _, comment = line.partition("#")
        lines.append(f"assert {code.strip()}" if comment.strip() == "True" else line)
    assert sum(line.startswith("assert ") for line in lines) == 3
    exec("\n".join(lines), {})
    assert capsys.readouterr().out.startswith("emulator,emulated,kmin\n0,0,1\n")


# Second ways in to jobs the remaining names do (the tests were their only
# callers); each job has one way in.
_DELETED = ("closure", "is_closed", "is_proper", "is_self_similar", "DualityClass",
            "dual_classes", "edges_from", "edges_to", "from_bits")


def test_public_surface():
    names = eca_emulation.__all__
    assert names == sorted(set(names))
    assert all(hasattr(eca_emulation, name) for name in names)
    for owner in (eca_emulation, HierarchyGraph, Subalgebra, Word):
        assert [name for name in _DELETED if hasattr(owner, name)] == [], owner
