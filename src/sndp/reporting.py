"""Verification postpass, benchmark tables and the cost-versus-shortage sweep.

* ``verify_design`` certifies a design against every budget-feasible attack,
  by exact enumeration when the scenario space is small and through the
  exact worst-attack oracle otherwise.
* ``bench`` runs each solver on each instance and renders one CSV row per
  cell with a per-phase timing breakdown; cells that exceed the timeout are
  marked "x" and scenario counts beyond the cap are written as ">N" lower
  bounds.  A cell whose solver fails or runs out of memory is recorded and
  the table goes on.
* ``sweep_tradeoff`` maps the minimal build cost as a function of the
  allowed shortage fraction and the disruption budget.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json

from sndp.branch_and_bound import SolveTimeout
from sndp.decomposition import (
    DesignSolution,
    InfeasibleDesignError,
    ScenarioCapError,
    build_cost,
    count_scenarios,
    solve_benders,
    solve_delayed,
)
from sndp.extensive import solve_extensive
from sndp.instances import (
    AttackVector,
    DesignVector,
    EMPTY_ATTACK,
    Instance,
)
from sndp.recourse import price_scenarios, worst_case
from sndp.separation import budget_attacks, find_worst_attack

PASS_TOL = 1e-7
DEFAULT_VERIFY_CAP = 20000
DEFAULT_CELL_TIMEOUT = 600.0

CSV_COLUMNS = ("instance", "N", "k", "scenarios", "method", "objective",
               "build_cost", "theta", "iters", "scen_evaluated", "t_total",
               "t_rmp", "t_ndp", "t_sp")

METHOD_SOLVERS = {
    "ef": solve_extensive,
    "bd": solve_benders,
    "dsg": solve_delayed,
}


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one design against the whole attack space."""

    design: DesignVector
    attacks_enumerated: int
    worst_attack: AttackVector | None
    worst_shed: float
    allowed_shed: float
    passed: bool
    exact: bool
    note: str = ""


@dataclasses.dataclass(frozen=True)
class BenchRow:
    instance: str
    edges: int
    budget: float
    scenario_count: int
    scenario_exact: bool
    method: str
    solution: DesignSolution | None
    failure: str = ""  # "" | "timeout" | "cap" | "infeasible" | "memory"

    def as_csv(self) -> list[str]:
        scen = str(self.scenario_count) if self.scenario_exact \
            else f">{self.scenario_count}"
        budget = f"{self.budget:g}"
        if self.solution is None:
            return [self.instance, str(self.edges), budget, scen, self.method,
                    "", "", "", "", "", "x", "x", "x", "x"]
        s = self.solution
        return [
            self.instance, str(self.edges), budget, scen, self.method,
            f"{s.objective:.9g}", f"{s.build_cost:.9g}", f"{s.worst_shed:.9g}",
            str(s.iterations), str(s.scenarios_evaluated),
            f"{s.timings['total']:.3f}", f"{s.timings['rmp']:.3f}",
            f"{s.timings['ndp']:.3f}", f"{s.timings['sp']:.3f}",
        ]


@dataclasses.dataclass(frozen=True)
class TradeoffPoint:
    allowed_shed: float
    budget: float
    build_cost: float | None
    feasible: bool
    error: str = ""


def verify_design(inst: Instance, design: DesignVector, *,
                  allowed_shed: float | None = None,
                  enumeration_cap: int = DEFAULT_VERIFY_CAP
                  ) -> VerificationReport:
    """Certify the worst shed of a design over all budget-feasible attacks.

    Small attack spaces are enumerated exactly, with each attack screened by
    a max-flow solve before any LP runs.  Larger spaces are priced by the
    exact worst-attack oracle instead.
    """
    eps = inst.allowed_shed if allowed_shed is None else allowed_shed
    count, exact = count_scenarios(inst, design.built, cap=enumeration_cap)
    if exact:
        attacks = budget_attacks(inst, design.built, inst.budget,
                                 cap=enumeration_cap) if count else [EMPTY_ATTACK]
        worst, worst_attack = worst_case(price_scenarios(inst, design, attacks))
        return VerificationReport(
            design=design, attacks_enumerated=count,
            worst_attack=worst_attack, worst_shed=worst, allowed_shed=eps,
            passed=worst <= eps + PASS_TOL, exact=True)
    oracle = find_worst_attack(inst, design)
    return VerificationReport(
        design=design, attacks_enumerated=0,
        worst_attack=oracle.attack if oracle.attack.disrupted else None,
        worst_shed=oracle.severity, allowed_shed=eps,
        passed=oracle.severity <= eps + PASS_TOL, exact=True,
        note="worst case found by the exact separation oracle")


def sweep_tradeoff(inst: Instance, allowed_sheds, budgets, *,
                   time_limit: float | None = None) -> list[TradeoffPoint]:
    """Minimal build cost per (allowed shed, budget) pair, one capped solve
    each; per-point failures are recorded and the sweep continues."""
    points = []
    for budget in budgets:
        for eps in allowed_sheds:
            trial = dataclasses.replace(inst, budget=float(budget),
                                        allowed_shed=float(eps))
            try:
                sol = solve_delayed(trial, shed_cap=float(eps),
                                    time_limit=time_limit)
                points.append(TradeoffPoint(
                    allowed_shed=float(eps), budget=float(budget),
                    build_cost=sol.build_cost, feasible=True))
            except InfeasibleDesignError:
                points.append(TradeoffPoint(
                    allowed_shed=float(eps), budget=float(budget),
                    build_cost=None, feasible=False, error="infeasible"))
            except (SolveTimeout, ScenarioCapError, RuntimeError) as exc:
                points.append(TradeoffPoint(
                    allowed_shed=float(eps), budget=float(budget),
                    build_cost=None, feasible=False, error=str(exc)))
    return points


def bench(instances, methods=("ef", "bd", "dsg"), *,
          time_limit: float = DEFAULT_CELL_TIMEOUT,
          scenario_cap: int = 10 ** 7) -> list[BenchRow]:
    """One solver run per (instance, method) cell, run one after another so
    the timing columns are clean.

    ``instances`` is an iterable of (name, Instance) pairs.
    """
    cells = []
    for name, inst in instances:
        count, exact = count_scenarios(inst, cap=scenario_cap)
        for method in methods:
            if method not in METHOD_SOLVERS:
                raise ValueError(f"unknown method {method!r}")
            cells.append((name, inst, count, exact, method))
    rows = []
    for name, inst, count, exact, method in cells:
        try:
            solution = METHOD_SOLVERS[method](inst, time_limit=time_limit)
            failure = ""
        except SolveTimeout:
            solution, failure = None, "timeout"
        except ScenarioCapError:
            solution, failure = None, "cap"
        except InfeasibleDesignError:
            solution, failure = None, "infeasible"
        except MemoryError:
            solution, failure = None, "memory"
        except RuntimeError as exc:
            solution, failure = None, f"error: {exc}"
        rows.append(BenchRow(
            instance=name, edges=len(inst.edges), budget=inst.budget,
            scenario_count=count, scenario_exact=exact, method=method,
            solution=solution, failure=failure))
    return rows


def bench_csv(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.as_csv())
    return buffer.getvalue()


def tradeoff_csv(points) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("allowed_shed", "budget", "build_cost", "feasible",
                     "error"))
    for p in points:
        writer.writerow((
            f"{p.allowed_shed:g}", f"{p.budget:g}",
            "" if p.build_cost is None else f"{p.build_cost:.9g}",
            "yes" if p.feasible else "no", p.error))
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# JSON serialization of solve results


def solution_to_dict(sol: DesignSolution) -> dict:
    """JSON-ready rendering; timings live in their own non-deterministic key."""
    return {
        "method": sol.method,
        "objective": sol.objective,
        "build_cost": sol.build_cost,
        "worst_shed": sol.worst_shed,
        "design": {"built": sorted(sol.design.built)},
        "worst_attack": sorted(sol.worst_attack.disrupted)
        if sol.worst_attack is not None else None,
        "iterations": sol.iterations,
        "scenarios_evaluated": sol.scenarios_evaluated,
        "timings": {k: round(v, 6) for k, v in sol.timings.items()},
    }


def verification_to_dict(report: VerificationReport) -> dict:
    return {
        "design": {"built": sorted(report.design.built)},
        "attacks_enumerated": report.attacks_enumerated,
        "worst_attack": sorted(report.worst_attack.disrupted)
        if report.worst_attack is not None else None,
        "worst_shed": report.worst_shed,
        "allowed_shed": report.allowed_shed,
        "passed": report.passed,
        "exact": report.exact,
        "note": report.note,
    }


def iteration_log_lines(sol: DesignSolution) -> str:
    """Driver iteration records as JSON lines."""
    return "".join(json.dumps(rec, sort_keys=True) + "\n"
                   for rec in sol.iteration_log)
