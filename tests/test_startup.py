"""Start-up stays lazy: the light entry points load none of the heavy
subsystems.  This pins which modules load, not how long it takes."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

HEAVY = ("repro.harness", "repro.exec.plan", "repro.exec.wholeprog",
         "repro.regalloc.ssa")

#: runs one entry point in-process, then prints the repro modules loaded
PROBE = """
import contextlib, io, runpy, sys
sys.argv = ["repro", *sys.argv[1:]]
if len(sys.argv) == 1:
    import repro
else:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            assert not exc.code, exc.code
print("\\n".join(m for m in sys.modules if m.split(".")[0] == "repro"))
"""


@pytest.mark.parametrize("argv", [["--help"], ["cache", "stats"]],
                         ids=["help", "cache-stats"])
def test_cli_loads_no_heavy_module(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC,
               REPRO_CACHE_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "repro" in loaded
    heavy = [m for m in loaded
             if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert heavy == []


def test_import_repro_loads_only_the_package():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["repro"]
