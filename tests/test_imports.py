"""The CLI loads scipy only where it takes a Schur form: importing
``qazb.cli`` and running every subcommand but ``roundtrip`` leave it out of
``sys.modules``.  The witnesses that draw nothing, ``exp-identity`` and
``verify-pair``, also leave ``numpy.random`` out, which would add about
5 MB to the process.  Each case runs in a fresh interpreter, since the test
process itself has loaded both."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUN = """
import contextlib, io, json, sys
import qazb.cli
argv = sys.argv[1:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        qazb.cli.main(argv)
print(json.dumps({name: name in sys.modules for name in ("scipy", "numpy.random")}))
"""


def loaded(argv) -> dict[str, bool]:
    """Whether scipy and numpy.random are in sys.modules after `argv`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", RUN, *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, loads", [
    ([], False),
    (["exp-identity", "--M-list", "8"], False),
    (["corep", "--M-list", "4"], False),
    (["verify-pair"], False),
    (["fq-table"], False),
    (["roundtrip"], True),
], ids=["import", "exp-identity", "corep", "verify-pair", "fq-table", "roundtrip"])
def test_only_roundtrip_loads_scipy(argv, loads):
    assert loaded(argv)["scipy"] is loads


@pytest.mark.parametrize("argv", [
    ["exp-identity", "--M-list", "8"],
    ["verify-pair"],
], ids=["exp-identity", "verify-pair"])
def test_witnesses_leave_numpy_random_out(argv):
    assert loaded(argv)["numpy.random"] is False
