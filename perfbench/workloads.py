"""The benchmark's workloads: instance pools, the timed operation and its check.

Each workload owns a fixed pool of generator specs.  Every pass of a run
sets up and solves each pool instance once, in an order drawn from the
workload seed, so every run measures the same work and its medians stay put
from seed to seed.  Pools are sized so one pass takes 6 to 12 seconds on a
2-vCPU x86 VM.  Each pool holds the first seeds of its family; no seed was
dropped for its outcome or run time.

Every result is checked against a reference stored in ``references.json``,
computed once by a second method (``make_references.py``), and each design a
solver returns is re-certified with ``verify_design`` outside the timed
window.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

OP_TIME_LIMIT = 60.0   # seconds per operation; generous, no op nears it
ALLOWED_SHEDS = (0.0, 0.05, 0.1, 0.2, 0.3)
TOL = 1e-6


@dataclasses.dataclass(frozen=True)
class Spec:
    """One pool instance: a generator spec plus the attack budget."""

    family: str
    num_nodes: int
    replication: int
    seed: int
    placement_seed: int
    budget: float

    @property
    def key(self) -> str:
        return (f"{self.family}-{self.num_nodes}x{self.replication}"
                f"-s{self.seed}-p{self.placement_seed}-b{self.budget:g}")


@dataclasses.dataclass
class Case:
    spec: Spec
    inst: object
    reference: dict | None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool: tuple[Spec, ...]
    run: Callable        # (sndp, case) -> result; the timed operation
    signature: Callable  # result -> hashable summary, to check each once
    check: Callable      # (sndp, case, result) -> "" or a mismatch message
    reference: Callable  # (sndp, inst) -> JSON-ready reference, second method


def prepare_instance(sndp, spec: Spec):
    """Generate, round-trip through the instance document, validate, count.

    This is the set-up a user pays before the first solve.
    """
    inst = sndp.generate_instance(sndp.GeneratorSpec(
        spec.family, spec.num_nodes, spec.replication, seed=spec.seed,
        placement_seed=spec.placement_seed))
    inst = dataclasses.replace(inst, budget=spec.budget)
    inst = sndp.parse_instance(sndp.serialize_instance(inst))
    report = sndp.validate(inst)
    if not report.ok:
        raise ValueError(f"{spec.key}: invalid instance: {report.findings}")
    count = getattr(sndp.decomposition, "count_scenarios", None)
    if count is not None:
        count(inst)
    return inst


def expected_attacks(inst) -> int:
    """Budget-feasible nonempty attacks on all edges, in closed form.

    Generated instances give every edge attack cost 1.
    """
    if any(e.r != 1.0 for e in inst.edges):
        raise ValueError("closed-form attack count needs unit attack costs")
    most = min(len(inst.edges), int(inst.budget + 1e-9))
    return sum(math.comb(len(inst.edges), k) for k in range(1, most + 1))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# Solver workloads: dsg-ring and bd-grid


def _solution_signature(sol):
    return (sol.design.built, sol.objective, sol.worst_shed)


def _check_solution(sndp, case, sol) -> str:
    ref = case.reference["objective"]
    if not _close(sol.objective, ref):
        return f"objective {sol.objective!r} != reference {ref!r}"
    report = sndp.verify_design(case.inst, sol.design)
    if not report.exact or abs(report.worst_shed - sol.worst_shed) > TOL:
        return (f"verify_design worst shed {report.worst_shed!r} != "
                f"reported {sol.worst_shed!r}")
    return ""


# ---------------------------------------------------------------------------
# cap-sweep


def _sweep(sndp, case):
    return sndp.sweep_tradeoff(case.inst, ALLOWED_SHEDS, [case.inst.budget],
                               time_limit=OP_TIME_LIMIT)


def _sweep_signature(points):
    return tuple((p.allowed_shed, p.feasible, p.build_cost, p.error)
                 for p in points)


def _sweep_reference(sndp, inst):
    costs = []
    for eps in ALLOWED_SHEDS:
        trial = dataclasses.replace(inst, allowed_shed=eps)
        try:
            costs.append(sndp.solve_benders(trial, shed_cap=eps).build_cost)
        except sndp.decomposition.InfeasibleDesignError:
            costs.append(None)
    return {"method": "bd shed_cap", "build_costs": costs}


def _check_sweep(sndp, case, points) -> str:
    costs = case.reference["build_costs"]
    if len(points) != len(costs):
        return f"{len(points)} sweep points, expected {len(costs)}"
    for point, ref in zip(points, costs):
        if ref is None:
            if point.feasible or point.error != "infeasible":
                return (f"shed {point.allowed_shed:g}: expected infeasible, "
                        f"got {point}")
        elif not point.feasible or not _close(point.build_cost, ref):
            return (f"shed {point.allowed_shed:g}: build cost "
                    f"{point.build_cost!r} != reference {ref!r} "
                    f"({point.error or 'feasible'})")
    return ""


# ---------------------------------------------------------------------------
# verify-ring


def _verify_all(sndp, case):
    return sndp.verify_design(case.inst, sndp.DesignVector.all_edges(case.inst))


def _verify_signature(report):
    return (report.worst_shed, report.passed, report.attacks_enumerated)


def _verify_reference(sndp, inst):
    # enumeration_cap=1 forces the implicit path: the min-cut and exact
    # worst-attack oracles instead of screening every attack.
    report = sndp.verify_design(inst, sndp.DesignVector.all_edges(inst),
                                enumeration_cap=1)
    return {"method": "implicit oracles", "worst_shed": report.worst_shed,
            "passed": report.passed}


def _check_verify(sndp, case, report) -> str:
    ref = case.reference
    if abs(report.worst_shed - ref["worst_shed"]) > TOL \
            or report.passed != ref["passed"]:
        return (f"worst shed {report.worst_shed!r} passed {report.passed} != "
                f"reference {ref['worst_shed']!r} passed {ref['passed']}")
    expected = expected_attacks(case.inst)
    if report.attacks_enumerated != expected:
        return (f"{report.attacks_enumerated} attacks enumerated, "
                f"expected {expected}")
    return ""


# ---------------------------------------------------------------------------


def _ring(placement_seed: int, replication: int = 18) -> Spec:
    # Demo 04's ring: capacities and costs from seed 1; the pool varies where
    # supply and demand sit.  Varying the cost seed instead gives solves of
    # 1 s to over 40 s, which no run of a few seconds can hold.
    return Spec("replicated", 6, replication, 1, placement_seed, 2.0)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="dsg-ring",
        why="solve_delayed on the 108-edge ring, budget 2: the master MILP "
            "dominates; warm-starting it should show here",
        pool=tuple(_ring(p) for p in range(1, 5)),
        run=lambda sndp, case: sndp.solve_delayed(
            case.inst, time_limit=OP_TIME_LIMIT),
        signature=_solution_signature,
        check=_check_solution,
        reference=lambda sndp, inst: {
            "method": "bd", "objective": sndp.solve_benders(inst).objective},
    ),
    Workload(
        name="bd-grid",
        why="solve_benders on 12-node grids, budget 2: recourse LPs dominate; "
            "pricing scenarios by cuts should show here",
        pool=tuple(Spec("grid", 12, 1, s, s, 2.0) for s in range(1, 9)),
        run=lambda sndp, case: sndp.solve_benders(
            case.inst, time_limit=OP_TIME_LIMIT),
        signature=_solution_signature,
        check=_check_solution,
        reference=lambda sndp, inst: {
            "method": "dsg", "objective": sndp.solve_delayed(inst).objective},
    ),
    Workload(
        name="cap-sweep",
        why="sweep_tradeoff in shortage-cap mode on 6x3 rings: many short "
            "solves, the only run of the exact worst-attack oracle",
        pool=tuple(Spec("replicated", 6, 3, s, s, 2.0) for s in range(1, 7)),
        run=_sweep,
        signature=_sweep_signature,
        check=_check_sweep,
        reference=_sweep_reference,
    ),
    Workload(
        name="verify-ring",
        why="verify_design of fully built 72-edge rings: 2,628 max-flow "
            "screens and no LP; LP and MILP changes must leave it flat",
        # 6x12, not 6x18: a 5 s verification is too long for the speed
        # scaling around each op, and its medians spread by 15%.
        pool=tuple(_ring(p, replication=12) for p in range(1, 5)),
        run=_verify_all,
        signature=_verify_signature,
        check=_check_verify,
        reference=_verify_reference,
    ),
)}
