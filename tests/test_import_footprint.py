"""Every command is a fresh process, so what ``import hybridsens`` loads is
paid on every run.  scipy is needed for four LAPACK routines only, which the
package takes from scipy's LAPACK extension module itself: neither the
scipy.linalg package (whose init pulls in numpy.f2py) nor scipy.integrate,
with the optimize, sparse and special packages it pulls in, is imported.
Either cost more start-up time than the rest of the package together.

The routines must stay scipy's own, whichever of scipy.linalg and hybridsens
is imported first: another LAPACK build (numpy's bundled one, say) is not
bitwise equal to scipy's."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hybridsens

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special")

FOOTPRINT = f"""
import sys
import hybridsens, hybridsens.cli
heavy = sorted(m for m in sys.modules if ".".join(m.split(".")[:2]) in {HEAVY!r})
assert not heavy, heavy
loaded = [m for m in ("scipy.linalg", "numpy.f2py") if m in sys.modules]
assert not loaded, loaded
"""

ORDER = """
import sys
import numpy as np
if {linalg_first}:
    import scipy.linalg
from hybridsens import constrained, model
import scipy.linalg
import scipy.linalg.lapack as lapack

assert constrained._getrf is lapack.dgetrf and constrained._getrs is lapack.dgetrs
assert model._potrf is lapack.dpotrf and model._potrs is lapack.dpotrs
assert scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"]

rng = np.random.default_rng(7)
for n in (1, 3, 8):
    A = rng.standard_normal((n, n)) + n * np.eye(n)
    M = A @ A.T + np.eye(n)
    B = rng.standard_normal((n, 2))
    x = constrained.checked_lu(A, "A")(B)
    ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), B)
    assert x.tobytes() == ref.tobytes(), (n, x, ref)
    x = model._spd_solve(M, B, "M", 0.0)
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(M), B)
    assert x.tobytes() == ref.tobytes(), (n, x, ref)
"""


def run_fresh(code):
    src = str(Path(hybridsens.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_import_loads_no_heavy_scipy_package():
    run_fresh(FOOTPRINT)


@pytest.mark.parametrize("linalg_first", [True, False],
                         ids=["scipy.linalg-first", "hybridsens-first"])
def test_lapack_routines_are_scipys_in_either_import_order(linalg_first):
    run_fresh(ORDER.format(linalg_first=linalg_first))


def test_missing_lapack_extension_names_its_path(tmp_path, monkeypatch):
    import scipy

    from hybridsens import model

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "scipy" / "linalg" / "_flapack"))):
        model._load_flapack()
