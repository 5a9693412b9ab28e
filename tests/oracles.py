"""Exhaustive reference solvers that the tests compare the library against.

Each one enumerates what the library searches, so it is exact and slow:
binary assignments of a MILP, budget-feasible attacks against a design, and
the value of one Benders cut at one design.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from sndp.branch_and_bound import (
    FATHOM_TOL,
    INT_TOL,
    MilpError,
    MilpModel,
    MilpSolution,
)
from sndp.instances import EMPTY_ATTACK, DesignVector, Instance
from sndp.recourse import BendersCut, solve_recourse
from sndp.separation import SEV_TOL, SeparationResult, budget_attacks
from sndp.simplex import solve_lp


def solve_bruteforce(model: MilpModel) -> MilpSolution:
    """Enumerate binary assignments and LP-solve the rest.

    Limited to 20 binaries.  Assignments are visited in binary counting order
    with the first optimum kept, so results are deterministic.
    """
    if len(model.binaries) > 20:
        raise MilpError("brute force limited to 20 binary variables")
    lp = model.lp
    best: np.ndarray | None = None
    best_obj = math.inf
    solved = 0
    for assignment in itertools.product((0.0, 1.0), repeat=len(model.binaries)):
        fixings = {}
        for idx, val in zip(model.binaries, assignment):
            lo, hi = lp.lower[idx], lp.upper[idx]
            if val < lo - INT_TOL or val > hi + INT_TOL:
                break
            fixings[idx] = (val, val)
        else:
            sol = solve_lp(lp, bounds_override=fixings)
            solved += 1
            if sol.status != "optimal":
                continue
            if sol.objective < best_obj - FATHOM_TOL:
                best_obj = sol.objective
                best = sol.values.copy()
                for idx, val in zip(model.binaries, assignment):
                    best[idx] = val
    if best is None:
        return MilpSolution(
            status="infeasible", objective=math.nan,
            values=np.full(lp.num_vars, math.nan), node_count=solved,
            var_names=tuple(lp.var_names))
    return MilpSolution(
        status="optimal", objective=best_obj, values=best,
        node_count=solved, var_names=tuple(lp.var_names))


def find_worst_attack_bruteforce(inst: Instance, design: DesignVector, *,
                                 cap: int = 10 ** 6) -> SeparationResult:
    """Exact worst attack by enumerating every budget-feasible disruption."""
    best_attack = EMPTY_ATTACK
    best = solve_recourse(inst, design, EMPTY_ATTACK).shed
    for attack in budget_attacks(inst, design.built, inst.budget, cap=cap):
        shed = solve_recourse(inst, design, attack).shed
        if shed > best + SEV_TOL:
            best, best_attack = shed, attack
    return SeparationResult(attack=best_attack, severity=best)


def evaluate_cut(cut: BendersCut, design: DesignVector,
                 worst_shed: float) -> float:
    """Cut violation at (design, worst_shed); positive means violated."""
    value = cut.constant
    for eid, coef in cut.coefficients.items():
        if eid in design.built:
            value += coef
    return value - worst_shed
