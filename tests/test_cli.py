import concurrent.futures
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from eca_emulation import (Diagram, EmulationWitness, Encoding, Word, cli,
                           compose_witnesses, emulation, export, hierarchy, load_json,
                           rule_from_wolfram as R, transitive_reduction)
from eca_emulation.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rule_info(capsys):
    code, out = run(capsys, "rule", "info", "110")
    assert code == 0
    assert "dual:          137" in out
    assert "linear:        False" in out


def test_emulate_found(capsys, tmp_path):
    path = tmp_path / "w.json"
    code, out = run(capsys, "emulate", "110", "137", "--k", "1", "-o", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"f": 110, "g": 137, "k": 1, "enc0": "1", "enc1": "0"}
    assert json.loads(path.read_text()) == payload


def test_emulate_unwritable_output_exit_two(capsys, tmp_path):
    # The witness file is written before stdout: a path that cannot be
    # written used to print the witness and then exit 2.
    with pytest.raises(SystemExit) as err:
        main(["emulate", "30", "30", "--k", "1", "-o", str(tmp_path / "no" / "w.json")])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_emulate_absent_exit_one(capsys):
    code, out = run(capsys, "emulate", "30", "30", "--k", "2")
    assert code == 1
    assert "cannot emulate" in out


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["emulate", "300", "30", "--k", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 2
    # config invariants: kmax and workers must be positive
    with pytest.raises(SystemExit) as err:
        main(["hierarchy", "--kmax", "0"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["hierarchy", "--kmax", "2", "--workers", "0"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["hierarchy", "classify"])
@pytest.mark.parametrize("option", ["--kmax", "--workers"])
def test_nonpositive_count_exit_two(capsys, command, option):
    argv = {"--kmax": "2", "--workers": "1"}
    argv[option] = "0"
    with pytest.raises(SystemExit) as err:
        main([command] + [word for pair in argv.items() for word in pair])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {option}: 0 is not a positive" in errors[0]


@pytest.mark.parametrize("width", ["0", "-5"])
def test_nonpositive_width_exit_two(capsys, width):
    # --width -5 used to fail inside random with "number of bits must be
    # non-negative"; it parses like every other count now
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--rule", "30", "--width", width])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument --width: {width} is not a positive" in errors[0]


def _refuse(*args, **kwargs):
    raise AssertionError("computation started before the arguments were checked")


@pytest.mark.parametrize("argv", [
    ["chaos", "30", "--kmax", "0"],
    ["chaos", "30", "--kmax", "1"],
    ["chaos", "30", "--kmax", "21"],
    ["hierarchy", "--kmax", "21", "--rules", "204"],
    ["classify", "--kmax", "21", "--rules", "30"],
])
def test_bad_size_exit_two_before_work(capsys, monkeypatch, argv):
    # Sizes are checked before any cell is computed: a size past the packed
    # kernel limit used to run every smaller size first, and chaos with a
    # kmax below 2 used to exit 0 with nothing done.
    monkeypatch.setattr(cli, "compute_hierarchy", _refuse)
    monkeypatch.setattr(cli, "proper_subalgebra_search", _refuse)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1


def test_classify_k8_report_unchanged(capsys, tmp_path):
    # sha256 of `eca-emu classify --kmax 8`, recorded before classify read
    # memory_capable from the raw results
    path = tmp_path / "c.json"
    code, _ = run(capsys, "classify", "--kmax", "8", "--workers", "2", "-o", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "76ba6ac50fea607a0641d585b24317d60b3dd5dfd8fc7e7f86baa89bc3e5530a"


# sha256 of `eca-emu hierarchy --kmax 8` in each format, recorded before the
# pair enumeration became a single chunked pass
_K8_EXPORTS = {
    "csv": "5f9cf2e68da7372a8aa8273f6db0da924038625fd3b79f1dbeaeb292d79aee80",
    "json": "a32c35b6298907600e1291218a4096e13ff1ad7bffac90bce167b8cb38ffdf49",
    "dot": "26879da5e900bb7f7e1a23f61f0ebf32aca8809157aec70cdd8dbfbfecd5abf5",
}
# the same with --reduce; the CLI reaches transitive_reduction only through
# this option
_K8_REDUCED = {
    "csv": "1ea3e7d79653c6387bf23feb075d22ce399b718825e57e280823b948e939862a",
    "json": "4dee5f647db46690ca178af5fa6ad47f9bb6abaf5f3c0d63d6d0cc86eb071a33",
    "dot": "c9f010dcfbbbc90ed8669ee8da540390bd0bc336e9efd7e30e325a7a9394256a",
}


def test_hierarchy_k8_exports_unchanged(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    for fmt, digest in _K8_EXPORTS.items():
        path = tmp_path / f"h.{fmt}"
        code, _ = run(capsys, "hierarchy", "--kmax", "8", "--workers", "2",
                      "--cache-dir", cache, f"--{fmt}", "-o", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, fmt


def test_hierarchy_k8_reduced_exports_unchanged(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    for fmt, digest in _K8_REDUCED.items():
        path = tmp_path / f"r.{fmt}"
        code, _ = run(capsys, "hierarchy", "--kmax", "8", "--workers", "2", "--reduce",
                      "--cache-dir", cache, f"--{fmt}", "-o", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, fmt


def test_hierarchy_k8_exports_survive_load_json(capsys, tmp_path):
    # an export read back re-exports to the goldens in every format, and
    # reducing it gives the reduced goldens
    path = tmp_path / "h.json"
    code, _ = run(capsys, "hierarchy", "--kmax", "8", "--workers", "2", "--json",
                  "-o", str(path))
    assert code == 0
    loaded = load_json(path.read_bytes())
    reduced = transitive_reduction(loaded)
    for graph, golden in ((loaded, _K8_EXPORTS), (reduced, _K8_REDUCED),
                          (load_json(export(reduced, "json")), _K8_REDUCED)):
        for fmt, digest in golden.items():
            assert hashlib.sha256(export(graph, fmt)).hexdigest() == digest, fmt


def _cache_digest(cache):
    h = hashlib.sha256()
    for path in sorted(cache.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def test_hierarchy_k8_shards_unchanged(capsys, tmp_path, monkeypatch):
    # sha256 over the sorted names and bytes of the shards `eca-emu
    # hierarchy --kmax 8 --workers 2` writes, recorded before each
    # mirror/dual orbit was enumerated once for both of its representatives
    golden = "fc76702a4462204f17313a24cbcde632543c8e0916f6bf9669a3f1224fc3465e"
    cache = tmp_path / "cache"
    code, _ = run(capsys, "hierarchy", "--kmax", "8", "--workers", "2",
                  "--cache-dir", str(cache), "--csv")
    assert code == 0
    assert len(list(cache.iterdir())) == 136 * 8
    assert _cache_digest(cache) == golden
    # 170 and 240 share an orbit: with 240's shard gone, the rerun computes
    # that orbit from 170's enumeration and writes 240's shard alone
    (cache / "rule240_k08.json").unlink()
    stored = []
    store = hierarchy._store_shard
    monkeypatch.setattr(hierarchy, "_store_shard",
                        lambda d, g, k, e: (stored.append((g, k)), store(d, g, k, e)))
    code, _ = run(capsys, "hierarchy", "--kmax", "8", "--cache-dir", str(cache), "--csv")
    assert code == 0
    assert stored == [(240, 8)]
    assert _cache_digest(cache) == golden
    # one representative swept alone gets the full sweep's cells, whether
    # it is its orbit's smallest rule (170) or is folded from it (240)
    for rule in (170, 240):
        alone = tmp_path / f"alone{rule}"
        code, _ = run(capsys, "hierarchy", "--kmax", "8", "--rules", str(rule),
                      "--cache-dir", str(alone), "--csv")
        assert code == 0
        names = sorted(p.name for p in alone.iterdir())
        assert names == [f"rule{rule:03d}_k{k:02d}.json" for k in range(1, 9)]
        for name in names:
            assert (alone / name).read_bytes() == (cache / name).read_bytes(), name


def test_simulate_writes_pbm(capsys, tmp_path):
    path = tmp_path / "d.pbm"
    code, _ = run(capsys, "simulate", "--rule", "110", "--width", "9",
                  "--steps", "4", "--init", "000010000", "-o", str(path))
    assert code == 0
    data = path.read_bytes()
    assert data.startswith(b"P1\n9 5\n")


def test_simulate_seeded_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
    run(capsys, "simulate", "--rule", "30", "--width", "16", "--steps", "8",
        "--seed", "5", "-o", str(a))
    run(capsys, "simulate", "--rule", "30", "--width", "16", "--steps", "8",
        "--seed", "5", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_subalgebras_listing(capsys):
    code, out = run(capsys, "subalgebras", "148", "--k", "2")
    assert code == 0
    assert "f=184 enc0=00 enc1=10" in out


@pytest.mark.parametrize("init", ["01", ""])
def test_simulate_short_configuration_exit_two(capsys, init):
    # a cyclic configuration needs 3 cells: with --steps 0 these used to
    # exit 0 with a PBM of 2 and 0 cells
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--rule", "30", "--init", init, "--steps", "0"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_subalgebras_past_the_listing_budget_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(emulation, "_MAX_LISTED", 55)
    with pytest.raises(SystemExit) as err:
        main(["subalgebras", "204", "--k", "3"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    monkeypatch.setattr(emulation, "_MAX_LISTED", 56)
    code, out = run(capsys, "subalgebras", "204", "--k", "3")
    assert code == 0 and out.count("\n") == 56


def test_verify_witness_file(capsys, tmp_path):
    path = tmp_path / "w.json"
    run(capsys, "emulate", "184", "148", "--k", "2", "-o", str(path))
    code, out = run(capsys, "verify", str(path))
    assert code == 0 and "valid" in out
    # corrupt the encoding: constant blocks cannot witness 184
    bad = json.loads(path.read_text())
    bad["enc0"], bad["enc1"] = "00", "11"
    path.write_text(json.dumps(bad))
    code, out = run(capsys, "verify", str(path))
    assert code == 1 and "invalid" in out



@pytest.mark.parametrize("text", [
    '{"f": 184, "g": 148, "k": 2, "enc0": "00"}',  # no enc1: KeyError
    '[1, 2]',                                       # not an object: TypeError
    '{"f": 184, "g": 148, "k": null, "enc0": "00", "enc1": "10"}',
    '{"f": 184, "g": 148, "k": 2, "enc0": "00", "enc1": 5}',
    '{"f": 184.7, "g": 148, "k": 2, "enc0": "00", "enc1": "10"}',  # not truncated
    '{"f": 184, "g": 148, "k": 2, "enc0": [0, 0], "enc1": "10"}',
    '{"f": 184, "g": 148, "k": 2, "enc0": "00", "enc1": "\\uff11\\uff10"}',  # fullwidth 10
    '{"f": 184, "g": 148, "k": 2, "enc0": "00", "enc1": "\\u0661\\u0660"}',  # Arabic-Indic 10
    '{"f": 184, "g": 148, "k": 2, "enc0": "000", "enc1": "100"}',  # codes longer than k
    pytest.param("[" * 100_000, id="nested-past-the-recursion-limit"),
    pytest.param("[" * 60_000, id="nested-within-the-size-bound"),
    # a valid witness padded past 2^16 bytes is refused before json reads it
    pytest.param('{"f": 184, "g": 148, "k": 2, "enc0": "00", "enc1": "10"}' + " " * (1 << 16),
                 id="padded-past-the-size-bound"),
])
def test_verify_malformed_witness_exit_two(capsys, tmp_path, text):
    # exit 1 is the verdict "invalid"; a file that is no witness is exit 2
    path = tmp_path / "w.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as err:
        main(["verify", str(path)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

def test_verify_bounds_the_witness_size(capsys, tmp_path, monkeypatch):
    # verify takes a composition of two CLI-sized witnesses (k <= 20 x 20)
    # and refuses a larger one before checking it: holds() and
    # verify_witness cost ~k^2, and a k = 4,000 file took 14 s
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"f": 204, "g": 204, "k": 401,
                                "enc0": "0" * 401, "enc1": "1" * 401}))
    monkeypatch.setattr(cli, "verify_witness", _refuse)
    with pytest.raises(SystemExit) as err:
        main(["verify", str(path)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    monkeypatch.undo()
    # rule 204 moves each block into the next, so any code words witness
    # 204 <=_20 204; composed with itself, that is a k = 400 witness
    w20 = EmulationWitness(R(204), R(204), 20,
                           Encoding(Word(0x5A5A5, 20), Word(0xF0F0F, 20)))
    composed = compose_witnesses(w20, w20)
    assert composed.k == 400
    path.write_text(json.dumps(composed.to_json_dict()))
    code, out = run(capsys, "verify", str(path))
    assert code == 0 and out == "valid\n"


def _refused_before_work(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        captured.err.splitlines()[-1]]


@pytest.mark.parametrize("command", ["hierarchy", "classify"])
def test_workers_are_bounded(capsys, monkeypatch, command):
    # a pool starts all its processes at once, so --workers 65 would fork 65
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _refuse)
    _refused_before_work(capsys, [command, "--kmax", "2", "--workers", "65"])


def test_simulate_bounds_the_diagram(capsys, monkeypatch):
    # 65,281 x 257 is 2^24 + 1 cells, counted with the initial row
    monkeypatch.setattr(cli, "render_diagram", _refuse)
    _refused_before_work(capsys, ["simulate", "--rule", "30", "--width", "65281",
                                  "--steps", "256"])
    _refused_before_work(capsys, ["simulate", "--rule", "30", "--init", "01" * 32640 + "1",
                                  "--steps", "256", "--width", "1"])
    # each row costs ~200 bytes of objects at any width: 3 x 5,592,405 rows
    # fit the cell bound and took 1.2 GB, so --steps stops at 2^16 - 1
    _refused_before_work(capsys, ["simulate", "--rule", "30", "--width", "3",
                                  "--steps", "65536"])
    # 2^24 cells and 2^16 rows pass the checks; the stand-in keeps the test
    # from drawing them
    sizes = []

    def one_cell(r, g, steps):
        sizes.append((len(g), steps))
        return Diagram((Word(0, 1),))

    monkeypatch.setattr(cli, "render_diagram", one_cell)
    code, out = run(capsys, "simulate", "--rule", "30", "--width", "65536", "--steps", "255")
    assert code == 0 and sizes == [(65536, 255)] and out == "P1\n1 1\n0\n"
    code, out = run(capsys, "simulate", "--rule", "30", "--width", "256", "--steps", "65535")
    assert code == 0 and sizes[1:] == [(256, 65535)] and out == "P1\n1 1\n0\n"


def test_verify_bounds_the_sample_length(capsys, tmp_path, monkeypatch):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"f": 184, "g": 148, "k": 2, "enc0": "00", "enc1": "10"}))
    monkeypatch.setattr(cli, "verify_witness", _refuse)
    _refused_before_work(capsys, ["verify", str(path), "--length", "100001"])
    monkeypatch.undo()
    code, out = run(capsys, "verify", str(path), "--length", "100000", "--samples", "2")
    assert code == 0 and out == "valid\n"


def test_hierarchy_formats(capsys, tmp_path):
    out_csv = tmp_path / "h.csv"
    code, _ = run(capsys, "hierarchy", "--kmax", "2", "--rules", "148",
                  "-o", str(out_csv))
    assert code == 0
    assert "148,184,2" in out_csv.read_text()
    code, out = run(capsys, "hierarchy", "--kmax", "2", "--rules", "148", "--json")
    assert code == 0
    assert json.loads(out)["K"] == 2


def test_hierarchy_worker_independence(capsys, tmp_path):
    files = []
    for workers in ("1", "2"):
        path = tmp_path / f"h{workers}.json"
        code, _ = run(capsys, "hierarchy", "--kmax", "2", "--workers", workers,
                      "--json", "-o", str(path))
        assert code == 0
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_hierarchy_without_cache_dir_writes_no_shard(capsys, tmp_path, monkeypatch):
    # --cache-dir is the one way to a shard cache; the environment is not read
    monkeypatch.setenv("ECA_EMULATION_CACHE", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "hierarchy", "--kmax", "1", "--rules", "110")
    assert code == 0 and out.startswith("emulator,emulated,kmin\n")
    assert list(tmp_path.iterdir()) == []


def _orbit_dying_at_2_3(args):
    # module level, so that worker processes can unpickle it; the exit
    # stands in for a worker killed by the kernel
    if args[:2] == (2, 3):
        os._exit(9)
    return _real_compute_orbit(args)


_real_compute_orbit = hierarchy._compute_orbit


def _out_of_memory(*args):
    raise MemoryError


@pytest.mark.parametrize("argv, patch", [
    (["hierarchy", "--kmax", "3", "--rules", "0", "1", "2", "--workers", "2"],
     (hierarchy, "_compute_orbit", _orbit_dying_at_2_3)),
    (["subalgebras", "204", "--k", "3"], (cli, "emulated_rules", _out_of_memory)),
], ids=["dead-worker", "memory-error"])
def test_crash_exits_two(capsys, monkeypatch, argv, patch):
    # exit 1 is the verdict "absent"; a run that crashes is exit 2, not a
    # traceback's exit 1, and leaves no worker behind
    monkeypatch.setattr(*patch)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert multiprocessing.active_children() == []


def test_classify_json(capsys):
    code, out = run(capsys, "classify", "--kmax", "2", "--rules", "30", "45", "204")
    assert code == 0
    report = json.loads(out)
    assert set(report["chaos_candidates"]) == {30, 45}
    assert report["memory_capable"] == [204]


def test_chaos_command(capsys):
    code, out = run(capsys, "chaos", "30", "--kmax", "3")
    assert code == 0
    assert out.count("no proper subalgebra") == 2
    code, out = run(capsys, "chaos", "204", "--kmax", "2")
    assert "proper subalgebra of 2 elements" in out


def test_chaos_outputs_unchanged(capsys):
    # sha256 of the stdout of `eca-emu chaos g --kmax 5` for g = 0..255 in
    # turn (1,024 lines), recorded before _close answered a full closure in
    # one way; it pins every scan-order-minimal subalgebra the search finds
    digest = hashlib.sha256()
    for g in range(256):
        code, out = run(capsys, "chaos", str(g), "--kmax", "5")
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == \
        "37045368368092e4783307423b4fcb1973228d2b75dd6b8f90228783f4764309"


def test_bench_smoke(capsys):
    code, out = run(capsys, "bench", "--k", "3", "--rule", "148")
    assert code == 0
    assert "ratio:" in out


def _well_formed(d) -> bool:
    """The witness shape, stated apart from the parser: rules f and g, a
    size k and two distinct k-cell texts; other keys are ignored."""
    if not isinstance(d, dict) or not {"f", "g", "k", "enc0", "enc1"} <= d.keys():
        return False
    f, g, k, e0, e1 = (d[key] for key in ("f", "g", "k", "enc0", "enc1"))
    return (all(type(v) is int for v in (f, g, k)) and 0 <= f <= 255 and 0 <= g <= 255
            and 1 <= k <= 400 and all(type(e) is str and len(e) == k and set(e) <= {"0", "1"}
                               for e in (e0, e1))
            and e0 != e1)


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-300, 300) | st.floats(allow_nan=False)
    | st.text("01x ", max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)


@st.composite
def _witness_docs(draw):
    """A witness with a few of its fields dropped or replaced by any JSON
    value, an extra field perhaps added; or some JSON that is no object."""
    k = draw(st.integers(1, 3))
    cells = st.text("01\uff11", min_size=k, max_size=k)  # a fullwidth 1 is no cell
    doc = {"f": draw(st.integers(0, 255)), "g": draw(st.integers(0, 255)), "k": k,
           "enc0": draw(cells), "enc1": draw(cells)}
    for key in draw(st.sets(st.sampled_from([*doc, "note"]), max_size=2)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_json)
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=_witness_docs() | _json)
def test_verify_exit_code_follows_the_witness_shape(doc):
    # A well-formed witness gets a verdict, exit 0 or 1; anything else is
    # malformed input, exit 2 with one error line and nothing on stdout.
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/w.json"
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["verify", path, "--length", "12", "--horizon", "2",
                             "--samples", "10"])
            except SystemExit as exc:
                code = exc.code
    if _well_formed(doc):
        assert code in (0, 1)
        assert out.getvalue() == ("valid\n" if code == 0 else "invalid\n")
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
