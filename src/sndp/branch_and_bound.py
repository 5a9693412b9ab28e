"""Branch-and-bound for mixed-binary linear programs on top of the simplex.

Best-first search ordered by LP relaxation bound, ties broken by node
creation order.  Branching is by pseudo-costs (Achterberg, Koch and Martin,
"Branching rules revisited", ORL 2005): every expansion solves both children,
and each records, for its variable and side, the bound gain per unit moved.
A fractional binary scores the product of its expected down and up gains;
the highest score branches, lowest index on ties.  Pseudo-costs live for one
solve, so the search is deterministic.

Every child re-solves from its parent's optimal basis: an open node keeps
only that basis (on its LP solution).  The first child of an expansion
factorizes it, its sibling reuses that factorization, and then it is
dropped; ``solve_lp`` runs the bounded dual simplex under each child's
bounds, falling back to a cold solve when that path cannot finish.  No
cutting planes or presolve: problem-specific strengthening belongs to the
callers.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math

import numpy as np

# SolveTimeout lives in simplex (LPs check deadlines too) and is re-exported
from sndp.simplex import (
    LpError,
    LpModel,
    SolveTimeout,
    check_deadline,
    solve_lp,
)

INT_TOL = 1e-6
FATHOM_TOL = 1e-9
MAX_NODES = 200000  # LP relaxations per search before MilpError


class MilpError(LpError):
    """MILP-level failure (bad model or search limits)."""


@dataclasses.dataclass(frozen=True)
class MilpModel:
    """A linear program plus the indices of variables restricted to {0, 1}."""

    lp: LpModel
    binaries: tuple[int, ...]

    def __post_init__(self):
        for idx in self.binaries:
            lo, hi = self.lp.lower[idx], self.lp.upper[idx]
            if lo < -INT_TOL or hi > 1.0 + INT_TOL:
                raise MilpError(
                    f"binary variable {self.lp.var_names[idx]} must have bounds "
                    f"within [0, 1], got [{lo}, {hi}]")


@dataclasses.dataclass(frozen=True)
class MilpSolution:
    status: str  # optimal | infeasible
    objective: float
    values: np.ndarray
    node_count: int
    var_names: tuple[str, ...]

    def value(self, name: str) -> float:
        return float(self.values[self.var_names.index(name)])


class _PseudoCosts:
    """Mean bound gain per unit moved, per binary and branch side."""

    def __init__(self, num_vars: int, binaries):
        self.binaries = np.array(sorted(binaries), dtype=int)
        self.gain = np.zeros((2, num_vars))   # row 0: down, row 1: up
        self.count = np.zeros((2, num_vars))

    def record(self, idx: int, side: int, gain: float, moved: float) -> None:
        self.gain[side, idx] += max(gain, 0.0) / moved
        self.count[side, idx] += 1

    def branch_var(self, values: np.ndarray) -> int | None:
        """Highest-scoring fractional binary, lowest index on ties; None if
        every binary is integral."""
        idx = self.binaries
        frac = values[idx] - np.floor(values[idx])
        fractional = (frac > INT_TOL) & (frac < 1.0 - INT_TOL)
        if not fractional.any():
            return None
        idx, frac = idx[fractional], frac[fractional]
        seen = self.count > 0
        unit = self.gain / np.maximum(self.count, 1)
        # an unrecorded side borrows the mean of that side's recorded ones
        fallback = [unit[side][seen[side]].mean() if seen[side].any() else 1.0
                    for side in (0, 1)]
        down = np.where(seen[0, idx], unit[0, idx], fallback[0]) * frac
        up = np.where(seen[1, idx], unit[1, idx], fallback[1]) * (1.0 - frac)
        # product rule; the floor keeps a side that gains nothing from
        # zeroing the other side's gain
        score = np.maximum(down, INT_TOL) * np.maximum(up, INT_TOL)
        # scores within a relative FATHOM_TOL are ties
        ties = score >= score.max() * (1.0 - FATHOM_TOL)
        return int(idx[np.argmax(ties)])


def solve_milp(model: MilpModel, *,
               deadline: float | None = None) -> MilpSolution:
    """Solve to an absolute optimality gap of 1e-6 with deterministic search.

    ``deadline`` is an absolute time.monotonic() stamp; crossing it raises
    SolveTimeout.
    """
    lp = model.lp
    counter = itertools.count()
    incumbent: np.ndarray | None = None
    incumbent_obj = math.inf

    pseudo = _PseudoCosts(lp.num_vars, model.binaries)
    nodes_solved = 0

    def solve_node(bounds, basis, shared=None):
        nonlocal nodes_solved
        nodes_solved += 1
        if nodes_solved > MAX_NODES:
            raise MilpError(f"node limit {MAX_NODES} exceeded")
        check_deadline(deadline, "MILP search deadline expired")
        sol = solve_lp(lp, bounds_override=bounds, basis=basis,
                       shared=shared, deadline=deadline)
        if sol.status == "unbounded":
            raise MilpError("LP relaxation is unbounded")
        return sol

    root = solve_node({}, None)
    heap: list = []
    if root.status == "optimal":
        heapq.heappush(heap, (root.objective, next(counter), {}, root))

    while heap:
        bound, _, bounds, sol = heapq.heappop(heap)
        if bound >= incumbent_obj - FATHOM_TOL:
            continue
        branch = pseudo.branch_var(sol.values)
        if branch is None:
            incumbent = sol.values.copy()
            for idx in model.binaries:
                incumbent[idx] = round(incumbent[idx])
            incumbent_obj = bound
            continue
        value = sol.values[branch]
        shared: dict = {}  # the parent basis, factorized once for both
        for side, (fixed, moved) in enumerate(((0.0, value),
                                               (1.0, 1.0 - value))):
            child_bounds = dict(bounds)
            child_bounds[branch] = (fixed, fixed)
            child = solve_node(child_bounds, sol.basis, shared)
            if child.status != "optimal":
                continue
            child_bound = child.objective
            pseudo.record(branch, side, child_bound - bound, moved)
            if child_bound < incumbent_obj - FATHOM_TOL:
                heapq.heappush(heap, (child_bound, next(counter), child_bounds, child))

    if incumbent is None:
        return MilpSolution(
            status="infeasible", objective=math.nan,
            values=np.full(lp.num_vars, math.nan), node_count=nodes_solved,
            var_names=tuple(lp.var_names))
    return MilpSolution(
        status="optimal", objective=incumbent_obj,
        values=incumbent, node_count=nodes_solved,
        var_names=tuple(lp.var_names))
