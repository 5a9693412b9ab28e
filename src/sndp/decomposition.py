"""Decomposition drivers: restricted master, explicit Benders, delayed scenarios.

Both drivers alternate a design MILP (build binaries plus a worst-shed
variable bounded from below by the optimality cuts found so far) with
separation:

* the explicit driver re-prices every enumerated scenario each round and
  adds all violated cuts; scenarios that agree on the built edges share one
  max-flow screen and recourse LP per round;
* the delayed driver asks an oracle for one violated scenario, lists it, and
  re-checks only the listed scenarios, so the exponential scenario space is
  searched implicitly.

Two objective modes.  Penalty mode (the default) minimizes build cost plus
penalty times the worst shed.  Shortage-cap mode bounds the worst shed by a
given fraction and minimizes build cost alone, which is what the
investment-versus-shortage sweeps need.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time

from sndp.branch_and_bound import MilpModel, solve_milp
from sndp.instances import (
    AttackVector,
    DesignVector,
    EMPTY_ATTACK,
    Instance,
    restrict_attack,
    validate,
)
from sndp.recourse import (
    CUT_TOL,
    FWD,
    REV,
    BendersCut,
    make_cut,
    price_scenarios,
    worst_case,
)
from sndp.separation import (
    SeparationError,
    budget_attacks,
    find_mincut_attack,
    find_worst_attack,
)
from sndp.simplex import LpModel, check_deadline

VIOLATION_TOL = 1e-6
DEFAULT_SCENARIO_CAP = 10 ** 7


class ScenarioCapError(RuntimeError):
    """The enumerated scenario space exceeds the configured cap."""


class InfeasibleDesignError(RuntimeError):
    """No design satisfies the shortage cap."""


@dataclasses.dataclass
class MasterState:
    """Mutable driver state: cut pool, scenario list and phase timers."""

    cuts: list[BendersCut] = dataclasses.field(default_factory=list)
    scenarios: list[AttackVector] = dataclasses.field(default_factory=list)
    t: int = 0
    timers: dict[str, float] = dataclasses.field(
        default_factory=lambda: {"rmp": 0.0, "ndp": 0.0, "sp": 0.0})
    cut_keys: set = dataclasses.field(default_factory=set)
    log: list[dict] = dataclasses.field(default_factory=list)

    def add_cut(self, cut: BendersCut) -> bool:
        key = cut.key()
        if key in self.cut_keys:
            return False
        self.cut_keys.add(key)
        self.cuts.append(cut)
        return True

    def add_scenario(self, attack: AttackVector) -> bool:
        if attack in self.scenarios:
            return False
        self.scenarios.append(attack)
        self.t += 1
        return True

    def record(self, master, severity, cuts_added) -> None:
        """Log one round: the master solution, the oracle's severity (None
        for ``bd``) and the cuts added."""
        self.log.append({
            "t": self.t,
            "master_objective": master.objective,
            "master_nodes": master.node_count,
            "oracle_severity": severity,
            "scenarios": len(self.scenarios),
            "cuts_added": cuts_added,
            "rmp_seconds": round(self.timers["rmp"], 6),
            "ndp_seconds": round(self.timers["ndp"], 6),
            "sp_seconds": round(self.timers["sp"], 6),
        })


@dataclasses.dataclass(frozen=True)
class DesignSolution:
    """Final design with objective decomposition and solve statistics."""

    design: DesignVector
    objective: float
    worst_shed: float
    build_cost: float
    iterations: int
    scenarios_evaluated: int
    timings: dict[str, float]
    method: str
    worst_attack: AttackVector | None = None
    iteration_log: tuple[dict, ...] = ()


def _require_valid(inst: Instance) -> None:
    report = validate(inst)
    if not report.ok:
        raise ValueError("invalid instance: " + "; ".join(report.findings))


def build_cost(inst: Instance, design: DesignVector) -> float:
    return sum(e.c for e in inst.edges if e.id in design.built and not e.existing)


# ---------------------------------------------------------------------------
# Scenario enumeration


def enumerate_scenarios(inst: Instance, *, cap: int = DEFAULT_SCENARIO_CAP):
    """Every nonempty budget-feasible attack, by cardinality then edge ids."""
    return budget_attacks(inst, inst.edge_index.keys(), inst.budget, cap=cap)


def count_scenarios(inst: Instance, edge_ids=None, *,
                    cap: int = DEFAULT_SCENARIO_CAP) -> tuple[int, bool]:
    """Nonempty budget-feasible attacks over ``edge_ids`` (default: all
    edges) as a (count, exact) pair; count is the cap when exact is False.

    Uniform attack costs admit a closed-form count; otherwise enumeration
    stops at the cap.
    """
    if edge_ids is None:
        edge_ids = inst.edge_index.keys()
    costs = [inst.edge(e).r for e in edge_ids]
    if not costs or inst.budget < min(costs) - 1e-9:
        return 0, True
    if max(costs) - min(costs) <= 1e-12:
        most = min(len(costs), int((inst.budget + 1e-9) / costs[0]))
        count = sum(math.comb(len(costs), k) for k in range(1, most + 1))
        return (count, True) if count <= cap else (cap, False)
    count = 0
    try:
        for _ in budget_attacks(inst, edge_ids, inst.budget, cap=cap):
            count += 1
    except SeparationError:
        return cap, False
    return count, True


def _list_scenarios(inst: Instance, cap: int, message: str) -> list:
    """Every scenario, enumerated only once an exact count shows at most
    ``cap``; raises ScenarioCapError(message) otherwise."""
    if not count_scenarios(inst, cap=cap)[1]:
        raise ScenarioCapError(message)
    return list(enumerate_scenarios(inst, cap=cap))


# ---------------------------------------------------------------------------
# Restricted master problem


def build_master(inst: Instance, cuts, *, shed_cap: float | None = None
                 ) -> MilpModel:
    """Design MILP: build binaries, a worst-shed variable, one row per cut.

    Existing edges are fixed built.  In shortage-cap mode the objective drops
    the penalty term and the worst-shed variable is capped.

    Each cut ``constant + sum coef_e*x_e <= theta`` (every coef_e <= 0) is
    written with its coefficients clipped at ``-max(constant - target, 0)``:
    target 0 in penalty mode (theta >= 0) and shed_cap in shortage-cap mode
    (theta costs nothing, only feasibility matters).  For binary x the
    clipped row admits the same designs and the same least theta,
    ``max(0, cut(x))``, with a tighter LP relaxation (coefficient
    strengthening; Savelsbergh, ORSA J. Computing 1994).  The pool keeps
    the unclipped cuts.
    """
    lp = LpModel("master")
    for e in inst.edges:
        lb = 1.0 if e.existing else 0.0
        lp.add_var(f"build[{e.id}]", lb=lb, ub=1.0, obj=e.c)
    lp.add_var("worst_shed", lb=0.0,
               ub=shed_cap if shed_cap is not None else math.inf,
               obj=0.0 if shed_cap is not None else inst.penalty)
    target = shed_cap if shed_cap is not None else 0.0
    for k, cut in enumerate(cuts):
        floor = max(cut.constant - target, 0.0)
        coeffs: dict[str, float] = {"worst_shed": -1.0}
        for eid, coef in cut.coefficients.items():
            coef = max(coef, -floor)
            if coef != 0.0:
                coeffs[f"build[{eid}]"] = coef
        lp.add_row(f"cut[{k}]", coeffs, "<=", -cut.constant)
    binaries = tuple(lp.var_id(f"build[{e.id}]") for e in inst.edges)
    return MilpModel(lp, binaries)


def _solve_master(inst, state, shed_cap, deadline):
    t0 = time.perf_counter()
    milp = build_master(inst, state.cuts, shed_cap=shed_cap)
    sol = solve_milp(milp, deadline=deadline)
    state.timers["rmp"] += time.perf_counter() - t0
    if sol.status != "optimal":
        raise InfeasibleDesignError(
            "no design satisfies the shortage cap")
    built = frozenset(
        e.id for e in inst.edges if sol.value(f"build[{e.id}]") > 0.5)
    return DesignVector(built), sol


def _recheck_scenarios(inst, state, design, threshold, deadline):
    """Re-price listed scenarios at the current design and add violated cuts.

    Each distinct restriction of the listed scenarios to the built edges is
    priced once, in first-seen order; every scenario then cuts from its
    restriction's duals.  A scenario's cut differs from its restriction's
    only in the zero coefficients of its attacked edges off the design, so
    scenarios that agree on the restriction and on which of those edges
    carry a coefficient that survives the pool's rounding share one pool
    key; the first of them builds the cut, the rest build none.  Returns the
    number of cuts added, the worst shed seen and the attack that attains
    it.
    """
    t0 = time.perf_counter()
    restricted = [restrict_attack(s, design) for s in state.scenarios]
    outcome = dict(price_scenarios(inst, design, dict.fromkeys(restricted),
                                   deadline))
    priced = [(scenario, effective, outcome[effective])
              for scenario, effective in zip(state.scenarios, restricted)
              if effective in outcome]
    added = 0
    built_cuts = set()
    for scenario, effective, result in priced:
        if result.shed <= threshold + VIOLATION_TOL:
            continue
        zeroed = frozenset(
            eid for eid in scenario.disrupted - effective.disrupted
            if round(inst.edge(eid).u * (result.arc_duals[(eid, FWD)]
                                         + result.arc_duals[(eid, REV)])
                     / CUT_TOL))
        if (effective, zeroed) in built_cuts:
            continue
        built_cuts.add((effective, zeroed))
        if state.add_cut(make_cut(result, inst, scenario)):
            added += 1
    state.timers["sp"] += time.perf_counter() - t0
    worst, worst_attack = worst_case(
        (scenario, result) for scenario, _, result in priced)
    return added, worst, worst_attack


def _finish(inst, state, design, worst_shed, worst_attack, method):
    cost = build_cost(inst, design)
    total = state.timers["rmp"] + state.timers["ndp"] + state.timers["sp"]
    timings = dict(state.timers)
    timings["total"] = total
    return DesignSolution(
        design=design, objective=cost + inst.penalty * worst_shed,
        worst_shed=worst_shed, build_cost=cost, iterations=state.t,
        scenarios_evaluated=len(state.scenarios), timings=timings,
        method=method, worst_attack=worst_attack,
        iteration_log=tuple(state.log))


# ---------------------------------------------------------------------------
# Explicit Benders over the enumerated scenario list


def solve_benders(inst: Instance, *, shed_cap: float | None = None,
                  scenario_cap: int = DEFAULT_SCENARIO_CAP,
                  time_limit: float | None = None) -> DesignSolution:
    """Alternate master solves with a full scenario sweep until no cut is
    violated.  Every budget-feasible attack is enumerated up front, once the
    scenario count shows it fits under ``scenario_cap``."""
    _require_valid(inst)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    state = MasterState()
    scenarios = _list_scenarios(
        inst, scenario_cap, f"more than {scenario_cap} scenarios to enumerate")
    if not scenarios:
        # nothing is attackable; one empty scenario bounds the nominal shed
        scenarios = [EMPTY_ATTACK]
    state.scenarios.extend(scenarios)
    state.t = len(scenarios)

    while True:
        check_deadline(deadline, "time limit expired during master solve")
        design, master = _solve_master(inst, state, shed_cap, deadline)
        threshold = shed_cap if shed_cap is not None \
            else master.value("worst_shed")
        added, worst_seen, worst_attack = _recheck_scenarios(
            inst, state, design, threshold, deadline)
        state.record(master, None, added)
        if added == 0:
            return _finish(inst, state, design, worst_seen, worst_attack, "bd")


# ---------------------------------------------------------------------------
# Delayed scenario generation with the implicit oracle


def _separate(inst, design, bound, state, deadline):
    """One oracle round against the incumbent design.

    The min-cut oracle returns an attack that sheds more than ``bound``, to
    be listed.  When it finds none, the design is certified; for a positive
    bound the Dinkelbach loop then prices the exact worst shed to report.
    """
    t0 = time.perf_counter()
    try:
        result = find_mincut_attack(inst, design, bound,
                                    deadline=deadline)
        if result.attack is None and bound > VIOLATION_TOL:
            return None, find_worst_attack(inst, design,
                                           deadline=deadline)
        return result.attack, result
    finally:
        state.timers["ndp"] += time.perf_counter() - t0


def solve_delayed(inst: Instance, *, shed_cap: float | None = None,
                  time_limit: float | None = None) -> DesignSolution:
    """Delayed scenario generation: list scenarios only when an oracle call
    proves them violated, then cut from the listed scenarios until the oracle
    certifies the incumbent design."""
    _require_valid(inst)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    state = MasterState()

    while True:
        check_deadline(deadline, "time limit expired during master solve")
        design, master = _solve_master(inst, state, shed_cap, deadline)
        bound = shed_cap if shed_cap is not None \
            else master.value("worst_shed")
        violated, result = _separate(inst, design, bound, state, deadline)
        if violated is None:
            state.record(master, result.severity, 0)
            # the worst_case rule: no attack when the worst shed needs none
            worst_attack = result.attack if result.attack is not None \
                and result.attack.disrupted else None
            return _finish(inst, state, design, result.severity, worst_attack,
                           "dsg")
        state.add_scenario(violated)
        added, _, _ = _recheck_scenarios(
            inst, state, design, bound, deadline)
        state.record(master, result.severity, added)
        if added == 0:
            raise RuntimeError(
                "separation reported a violated scenario but no cut was "
                "violated; numerical stall")


# ---------------------------------------------------------------------------
# Exhaustive reference: enumerate designs x attacks


def solve_exhaustive(inst: Instance, *, design_cap: int = 4096,
                     scenario_cap: int = 4096,
                     shed_cap: float | None = None) -> DesignSolution:
    """Ground-truth solver for small instances: try every candidate design
    against every budget-feasible attack."""
    _require_valid(inst)
    candidates = sorted(inst.candidate_ids)
    if 2 ** len(candidates) > design_cap:
        raise ValueError(
            f"too many designs for exhaustive search (2^{len(candidates)})")
    scenarios = list(enumerate_scenarios(inst, cap=scenario_cap))
    t0 = time.perf_counter()
    best = None
    for k in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, k):
            design = DesignVector(inst.existing_ids | frozenset(combo))
            worst, worst_attack = worst_case(price_scenarios(
                inst, design, scenarios or [EMPTY_ATTACK]))
            if shed_cap is not None and worst > shed_cap + VIOLATION_TOL:
                continue
            cost = build_cost(inst, design)
            ranking = cost if shed_cap is not None \
                else cost + inst.penalty * worst
            if best is None or ranking < best[0] - 1e-12:
                best = (ranking, design, worst, worst_attack, cost)
    if best is None:
        raise InfeasibleDesignError("no design satisfies the shortage cap")
    _, design, worst, worst_attack, cost = best
    elapsed = time.perf_counter() - t0
    return DesignSolution(
        design=design, objective=cost + inst.penalty * worst,
        worst_shed=worst, build_cost=cost, iterations=0,
        scenarios_evaluated=len(scenarios),
        timings={"rmp": 0.0, "ndp": 0.0, "sp": elapsed, "total": elapsed},
        method="brute", worst_attack=worst_attack)
