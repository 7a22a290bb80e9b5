"""Exercise the polytope code and ``qtoric polytope`` with scipy unimportable.

Run as ``python tests/no_scipy_check.py`` in an environment where qtoric is
importable; it exits 0 when every check passes and names the first failure
otherwise. ``tests/test_toric.py`` runs it in a subprocess, and CI runs it
from a bare ``pip install .``, the built package without its test extras.
"""

import contextlib
import io
import sys

sys.modules["scipy"] = None  # every later ``import scipy...`` raises ImportError

import numpy as np  # noqa: E402

from qtoric import LatticePolytope, RedundantVertexError, delzant_check  # noqa: E402
from qtoric.cli import main  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"no-scipy check failed: {what}")


triangle = LatticePolytope(np.array([[0, 0], [1, 0], [0, 2]]))
check(not delzant_check(triangle).is_delzant, "the triangle (0,0), (1,0), (0,2) is not Delzant")
tetrahedron = LatticePolytope(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]))
check(delzant_check(tetrahedron).is_delzant, "the standard tetrahedron is Delzant")
try:
    LatticePolytope(np.array([[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]]))
    check(False, "the centre of a square is redundant")
except RedundantVertexError:
    pass

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["polytope", "cube", "-m", "3", "--delzant", "--lattice-points", "--fan"])
text = out.getvalue()
check(code == 0, f"polytope cube exit code {code}")
for line in ("delzant: true", "lattice points: 27", "normal fan: 27 cones (8 maximal)"):
    check(line in text, f"polytope cube output lacks {line!r}")
print("no-scipy check passed")
