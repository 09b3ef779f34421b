"""The README's library sketch runs as documented, so the API it shows
cannot drift from the code."""

import re
from pathlib import Path

from conftest import rel_err

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs_and_its_gradients_agree():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(sketch, "README.md:library-sketch", "exec"), scope)
    traj, sol, grad = scope["traj"], scope["sol"], scope["grad_direct"]
    assert all(seg.tangent is not None for seg in traj.segments)
    assert scope["X_tF"].Z.shape == grad.shape
    assert sol.traj is traj
    assert rel_err(sol.gradient, grad) <= 1e-10
    assert scope["grad_tangent"].tobytes() == grad.tobytes()
    assert rel_err(scope["grad_fd"], grad) <= 1e-4
