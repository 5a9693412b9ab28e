"""Extensive form: one monolithic MILP with a recourse block per scenario.

The reference solver for small instances.  Every enumerated attack gets its
own flow variables, balance rows and capacity rows; a shared worst-shed
variable dominates each block's shed.  Capacity rows are pre-simplified:
attacked edges get a zero right-hand side outright, surviving edges are
bounded by capacity times the build binary.
"""

from __future__ import annotations

import math
import time

from sndp.branch_and_bound import MilpModel, solve_milp
from sndp.decomposition import (
    DesignSolution,
    InfeasibleDesignError,
    _list_scenarios,
    _require_valid,
    build_cost,
)
from sndp.instances import (
    AttackVector,
    DesignVector,
    EMPTY_ATTACK,
    Instance,
)
from sndp.recourse import add_flow_block, price_scenarios, worst_case
from sndp.simplex import LpModel

DEFAULT_EF_SCENARIO_CAP = 2000


def build_extensive(inst: Instance, scenarios, *,
                    shed_cap: float | None = None) -> MilpModel:
    """Assemble the monolithic design MILP over the given attack list.

    A no-attack block is always prepended so the nominal shed is bounded as
    well; it is dominated by any other block but keeps the zero-budget case
    well-formed.
    """
    blocks: list[AttackVector] = [EMPTY_ATTACK]
    blocks.extend(s for s in scenarios if s != EMPTY_ATTACK)
    lp = LpModel("extensive")
    for e in inst.edges:
        lb = 1.0 if e.existing else 0.0
        lp.add_var(f"build[{e.id}]", lb=lb, ub=1.0, obj=e.c)
    lp.add_var("worst_shed", lb=0.0,
               ub=shed_cap if shed_cap is not None else math.inf,
               obj=0.0 if shed_cap is not None else inst.penalty)
    for s, attack in enumerate(blocks):
        shed_s = lp.add_var(f"shed[{s}]", lb=0.0)
        lp.add_row(f"dominate[{s}]", {shed_s: 1.0, "worst_shed": -1.0},
                   "<=", 0.0)
        add_flow_block(lp, inst, shed_s, f"{s}:")
        for e in inst.edges:
            for tag in ("fwd", "rev"):
                name = f"flow[{s}:{e.id}:{tag}]"
                if e.id in attack.disrupted:
                    lp.add_row(f"cap[{s}:{e.id}:{tag}]", {name: 1.0}, "<=", 0.0)
                else:
                    lp.add_row(f"cap[{s}:{e.id}:{tag}]",
                               {name: 1.0, f"build[{e.id}]": -e.u}, "<=", 0.0)
    binaries = tuple(lp.var_id(f"build[{e.id}]") for e in inst.edges)
    return MilpModel(lp, binaries)


def solve_extensive(inst: Instance, *,
                    scenario_cap: int = DEFAULT_EF_SCENARIO_CAP,
                    shed_cap: float | None = None,
                    time_limit: float | None = None) -> DesignSolution:
    """Exact solve of the full scenario-expanded MILP (small instances only).

    ``time_limit`` counts from entry, so enumeration and model building
    spend from it too.
    """
    _require_valid(inst)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    scenarios = _list_scenarios(
        inst, scenario_cap, f"attack enumeration exceeds {scenario_cap}; "
        "use the delayed-scenario solver for this instance")
    t0 = time.perf_counter()
    milp = build_extensive(inst, scenarios, shed_cap=shed_cap)
    sol = solve_milp(milp, deadline=deadline)
    elapsed = time.perf_counter() - t0
    if sol.status != "optimal":
        raise InfeasibleDesignError("no design satisfies the shortage cap")
    built = frozenset(
        e.id for e in inst.edges if sol.value(f"build[{e.id}]") > 0.5)
    design = DesignVector(built)
    # block shed variables are unpenalized slack below the worst-shed bound,
    # so the reported worst case is recomputed from the design directly
    worst_shed, worst_attack = worst_case(price_scenarios(
        inst, design, scenarios or [EMPTY_ATTACK]))
    cost = build_cost(inst, design)
    return DesignSolution(
        design=design, objective=cost + inst.penalty * worst_shed,
        worst_shed=worst_shed, build_cost=cost, iterations=sol.node_count,
        scenarios_evaluated=len(scenarios),
        timings={"rmp": elapsed, "ndp": 0.0, "sp": 0.0, "total": elapsed},
        method="ef", worst_attack=worst_attack)
