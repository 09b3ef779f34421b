"""Every command is a fresh process, so what ``import hybridsens`` loads is
paid on every run.  scipy is needed for LAPACK only: scipy.integrate, with
the optimize, sparse and special packages it pulls in, used to cost more
start-up time than the rest of the package together."""

import os
import subprocess
import sys
from pathlib import Path

import hybridsens

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special")

CHECK = f"""
import sys
import hybridsens, hybridsens.cli
heavy = sorted(m for m in sys.modules if ".".join(m.split(".")[:2]) in {HEAVY!r})
assert not heavy, heavy
"""


def test_import_loads_no_heavy_scipy_package():
    src = str(Path(hybridsens.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    run = subprocess.run([sys.executable, "-c", CHECK], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
