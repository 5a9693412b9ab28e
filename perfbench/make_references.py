"""Recompute ``references.json``: one reference per pool instance.

    python3 perfbench/make_references.py [workload ...]

Each reference comes from a second method, not the one the workload times:
``solve_benders`` for dsg-ring, ``solve_delayed`` for bd-grid,
``solve_benders(shed_cap=...)`` for each cap-sweep point and the implicit
oracle path of ``verify_design`` for verify-ring.  Only rerun this when a
pool changes; the stored values are what every run checks against.
"""

from __future__ import annotations

import json
import sys
import time

from run import REFERENCES, import_program
from workloads import WORKLOADS, prepare_instance


def main(argv) -> int:
    sndp = import_program()
    names = argv or sorted(WORKLOADS)
    stored = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in names:
        workload = WORKLOADS[name]
        refs = {}
        for spec in workload.pool:
            start = time.perf_counter()
            refs[spec.key] = workload.reference(
                sndp, prepare_instance(sndp, spec))
            print(f"{name} {spec.key} {refs[spec.key]} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
        stored[name] = refs
    REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
