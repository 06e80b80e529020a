"""Which commands load numpy, and with how many BLAS threads.

Commands that build no array (`rule info`, `simulate`, a warm `hierarchy`
export, `load_json` with its witness checks) start without numpy and
without the process pool's module.  The CLI, not the package, sets
numpy's BLAS to one thread unless the caller chose.  Each case runs in a
fresh interpreter, since this one imported both long ago.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eca_emulation
from eca_emulation.cli import main
from test_cli import _K8_EXPORTS, _K8_REDUCED

SRC = str(Path(eca_emulation.__file__).resolve().parents[1])
WATCHED = ("numpy", "concurrent.futures.process")

# Runs `eca-emu ARGS` through cli.main, or load_json on a file when the
# first argument is "load_json", then writes the exit code and the loaded
# modules of WATCHED to stderr as its last line.
_PROBE = f"""
import json, sys
if sys.argv[1] == "load_json":
    from eca_emulation import load_json
    with open(sys.argv[2], "rb") as fh:
        code = 0 if load_json(fh.read()).edges else 1
else:
    from eca_emulation.cli import main
    code = main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write("\\n" + json.dumps([code, [m for m in {WATCHED!r} if m in sys.modules]]))
"""

# Builds compute_hierarchy's pool from a recorder that notes whether numpy
# was loaded at that moment, and prints that with whether it was loaded
# before the sweep started.
_FORK_ORDER = """
import concurrent.futures, json, sys

class Recorder:
    seen = []

    def __init__(self, max_workers):
        self.seen.append("numpy" in sys.modules)

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)

    def shutdown(self):
        pass

concurrent.futures.ProcessPoolExecutor = Recorder
from eca_emulation import compute_hierarchy
before = "numpy" in sys.modules
compute_hierarchy(3, workers=2)
print(json.dumps([before, Recorder.seen]))
"""

# Imports the package, runs `eca-emu rule info 110` through cli.main, and
# writes OPENBLAS_NUM_THREADS as it was after each step to stderr as its
# last line.
_BLAS = """
import json, os, sys
import eca_emulation
imported = os.environ.get("OPENBLAS_NUM_THREADS")
from eca_emulation.cli import main
main(["rule", "info", "110"])
sys.stderr.write("\\n" + json.dumps([imported, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def _python(*args, code: int = 0) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=300)
    assert out.returncode == code, out.stderr.decode()
    return out


def _probe(*argv) -> tuple[bytes, list[str]]:
    """stdout of the probe and the WATCHED modules it had loaded at the end."""
    out = _python("-c", _PROBE, *argv)
    code, loaded = json.loads(out.stderr.decode().splitlines()[-1])
    assert code == 0
    return out.stdout, loaded


@pytest.fixture(scope="module")
def k8(tmp_path_factory):
    """A shard cache of sizes 1..8 and the K = 8 JSON export that filled it."""
    root = tmp_path_factory.mktemp("k8")
    cache, path = root / "cache", root / "h.json"
    assert main(["hierarchy", "--kmax", "8", "--workers", "2", "--json",
                 "--cache-dir", str(cache), "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _K8_EXPORTS["json"]
    return cache, path


@pytest.mark.parametrize("argv", [["rule", "info", "110"],
                                  ["simulate", "--rule", "110", "--steps", "64"]])
def test_commands_without_arrays_skip_numpy(argv):
    _, loaded = _probe(*argv)
    assert loaded == []


@pytest.mark.parametrize("reduce", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json", "dot"])
def test_warm_hierarchy_skips_numpy(k8, fmt, reduce):
    cache, _ = k8
    argv = ["hierarchy", "--kmax", "8", f"--{fmt}", "--cache-dir", str(cache)]
    out, loaded = _probe(*argv, *(["--reduce"] if reduce else []))
    assert loaded == []
    golden = _K8_REDUCED if reduce else _K8_EXPORTS
    assert hashlib.sha256(out).hexdigest() == golden[fmt]


def test_load_json_checks_witnesses_without_numpy(k8):
    _, path = k8
    _, loaded = _probe("load_json", str(path))
    assert loaded == []


def test_cold_hierarchy_loads_numpy():
    # the probe can see numpy: a sweep that computes does load it
    _, loaded = _probe("hierarchy", "--kmax", "3")
    assert loaded == ["numpy"]


def test_pool_forks_after_numpy_is_loaded():
    # Forked workers inherit numpy; a pool built before it loads has every
    # worker import it again on its first task.
    before, seen = json.loads(_python("-c", _FORK_ORDER).stdout)
    assert before is False
    assert seen == [True]


@pytest.mark.parametrize("caller, after", [(None, "1"), ("4", "4")])
def test_cli_runs_numpy_on_one_blas_thread(monkeypatch, caller, after):
    # numpy's OpenBLAS starts a thread at import that spins ~0.1 s of CPU,
    # and nothing calls BLAS; so the CLI defaults to one thread, a caller's
    # setting wins, and importing the package sets nothing
    if caller is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller)
    out = _python("-c", _BLAS)
    assert json.loads(out.stderr.decode().splitlines()[-1]) == [caller, after]


def test_missing_numpy_exits_two():
    # exit 1 is the verdict "absent"; a sweep that cannot import numpy used
    # to exit 1 with a ModuleNotFoundError traceback
    out = _python("-c", "import sys; sys.modules['numpy'] = None; "
                        "from eca_emulation.cli import main; sys.exit(main(sys.argv[1:]))",
                  "hierarchy", "--kmax", "2", "--rules", "30", code=2)
    assert out.stdout == b""
    assert out.stderr == b"error: import of numpy halted; None in sys.modules\n"
