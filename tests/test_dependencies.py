"""The runtime depends on numpy alone.

scipy, networkx and hypothesis are installed alongside for tests; a solve
must import none of them, so no runtime import of them can slip into sndp.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOLVE_TRI3B = """
import sys
import sndp
from sndp.instances import Edge, Instance, Node
inst = Instance(
    nodes=(Node(1, 10.0), Node(2, 0.0), Node(3, -10.0)),
    edges=(Edge(0, 1, 2, u=10.0, c=1.0, r=1.0),
           Edge(1, 2, 3, u=10.0, c=1.0, r=1.0),
           Edge(2, 1, 3, u=6.0, c=3.0, r=1.0)),
    budget=1.0, penalty=100.0)
assert abs(sndp.solve_delayed(inst).objective - 45.0) <= 1e-6
print(",".join(sorted(name for name in ("scipy", "networkx", "hypothesis")
                      if name in sys.modules)))
"""


def test_solve_imports_no_test_only_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", SOLVE_TRI3B], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == ""
