"""The CLI loads scipy only where it takes a Schur form: importing
``qazb.cli`` and running every subcommand but ``roundtrip`` leave it out of
``sys.modules``.  Each case runs in a fresh interpreter, since the test
process itself has loaded scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUN = """
import contextlib, io, sys
import qazb.cli
argv = sys.argv[1:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        qazb.cli.main(argv)
print("scipy" in sys.modules)
"""


def loads_scipy(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", RUN, *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return {"True": True, "False": False}[done.stdout.split()[-1]]


@pytest.mark.parametrize("argv, loaded", [
    ([], False),
    (["exp-identity", "--M-list", "8"], False),
    (["corep", "--M-list", "4"], False),
    (["verify-pair"], False),
    (["fq-table"], False),
    (["roundtrip"], True),
], ids=["import", "exp-identity", "corep", "verify-pair", "fq-table", "roundtrip"])
def test_only_roundtrip_loads_scipy(argv, loaded):
    assert loads_scipy(argv) is loaded
