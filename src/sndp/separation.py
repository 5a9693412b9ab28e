"""Separation oracles: worst budget-feasible attack against a fixed design.

By Gale's feasibility theorem the recourse shed of an attack A is
1 - min over node sets S with b(S) > 0 of u_A(delta(S)) / b(S), where
u_A(delta(S)) is the surviving capacity leaving S.  Put S on the source side
of the network augmented with a source arc of capacity b per supply node and
a terminal arc of capacity -b per demand node, scale those arcs by
lam = 1 - bound, and the cut costs lam * (D - b(S)) + u_A(delta(S)) for
total demand D.  It drops below lam * D exactly when A sheds more than
``bound`` on S, so one min-cut MILP over attacks and sides decides whether
any attack sheds more than a given bound:

* ``find_mincut_attack`` answers that question and returns the shed the
  violating cut proves;
* ``find_worst_attack`` is Dinkelbach's ratio loop over it: raise the bound
  to each shed found until no attack beats it, which gives the exact worst
  shed;
* ``budget_attacks`` enumerates attacks for the explicit solvers.
"""

from __future__ import annotations

import dataclasses
import itertools

from sndp.branch_and_bound import MilpModel, solve_milp
from sndp.instances import (
    AttackVector,
    DesignVector,
    EMPTY_ATTACK,
    Instance,
)
from sndp.simplex import LpModel

SEV_TOL = 1e-6


class SeparationError(RuntimeError):
    """Oracle failure, including an attack enumeration over its cap."""


@dataclasses.dataclass(frozen=True)
class SeparationResult:
    """Attack found (or none) and its severity, a shed fraction in [0, 1]."""

    attack: AttackVector | None
    severity: float


def _built_edges(inst: Instance, design: DesignVector):
    return [e for e in inst.edges if e.id in design.built]


# ---------------------------------------------------------------------------
# Min-cut oracle on the augmented network


def build_mincut_attack_milp(inst: Instance, design: DesignVector,
                             scale: float = 1.0) -> MilpModel:
    """MILP minimizing the post-attack cut capacity of the augmented network.

    Node-side binaries place each node on the source or terminal side;
    per-arc cut indicators are continuous in [0, 1] yet take binary values at
    any optimum.  Augmentation arcs cannot be attacked; their capacities are
    the injections times ``scale``.
    """
    model = LpModel("mincut-attack")
    built = _built_edges(inst, design)
    for n in inst.nodes:
        model.add_var(f"side[{n.id}]", lb=0.0, ub=1.0)
    for e in built:
        model.add_var(f"attack[{e.id}]", lb=0.0, ub=1.0)
    for e in built:
        model.add_var(f"cut[{e.id}:fwd]", lb=0.0, ub=1.0, obj=e.u)
        model.add_var(f"cut[{e.id}:rev]", lb=0.0, ub=1.0, obj=e.u)
    for n in inst.nodes:
        if n.b > 0:
            model.add_var(f"cut[source:{n.id}]", lb=0.0, ub=1.0,
                          obj=scale * n.b)
        elif n.b < 0:
            model.add_var(f"cut[sink:{n.id}]", lb=0.0, ub=1.0,
                          obj=-scale * n.b)
    for e in built:
        for tag, tail, head in (("fwd", e.i, e.j), ("rev", e.j, e.i)):
            model.add_row(
                f"cover[{e.id}:{tag}]",
                {f"side[{tail}]": 1.0, f"side[{head}]": -1.0,
                 f"cut[{e.id}:{tag}]": 1.0, f"attack[{e.id}]": 1.0},
                ">=", 0.0)
    for n in inst.nodes:
        # source sits on side 0, terminal on side 1
        if n.b > 0:
            model.add_row(f"cover[source:{n.id}]",
                          {f"side[{n.id}]": -1.0, f"cut[source:{n.id}]": 1.0},
                          ">=", 0.0)
        elif n.b < 0:
            model.add_row(f"cover[sink:{n.id}]",
                          {f"side[{n.id}]": 1.0, f"cut[sink:{n.id}]": 1.0},
                          ">=", 1.0)
    if built:
        model.add_row(
            "budget", {f"attack[{e.id}]": e.r for e in built}, "<=", inst.budget)
    binaries = tuple(
        itertools.chain(
            (model.var_id(f"side[{n.id}]") for n in inst.nodes),
            (model.var_id(f"attack[{e.id}]") for e in built)))
    return MilpModel(model, binaries)


def find_mincut_attack(inst: Instance, design: DesignVector,
                       bound: float = 0.0, *,
                       deadline: float | None = None) -> SeparationResult:
    """Attack shedding more than ``bound`` (a shed fraction), or None.

    The severity is the shed fraction the optimal cut proves for its attack,
    a lower bound on that attack's shed; an attack is returned when it beats
    ``bound`` by more than ``SEV_TOL``.
    """
    milp = build_mincut_attack_milp(inst, design, 1.0 - bound)
    sol = solve_milp(milp, deadline=deadline)
    if sol.status != "optimal":  # pragma: no cover - model is always feasible
        raise SeparationError(f"min-cut attack MILP ended {sol.status}")
    built = _built_edges(inst, design)
    source_side = {n.id for n in inst.nodes
                   if sol.value(f"side[{n.id}]") < 0.5}
    attacked = frozenset(
        e.id for e in built if sol.value(f"attack[{e.id}]") > 0.5)
    injection = sum(n.b for n in inst.nodes if n.id in source_side)
    crossing = sum(e.u for e in built
                   if e.id not in attacked
                   and (e.i in source_side) != (e.j in source_side))
    severity = max(0.0, 1.0 - crossing / injection) if injection > 0 else 0.0
    if severity <= bound + SEV_TOL:
        return SeparationResult(attack=None, severity=severity)
    return SeparationResult(attack=AttackVector(attacked), severity=severity)


def find_worst_attack(inst: Instance, design: DesignVector, *,
                      deadline: float | None = None) -> SeparationResult:
    """Budget-feasible attack maximizing the shed fraction (Dinkelbach loop).

    Starts at bound 0 with the empty attack and raises the bound to the shed
    of each attack the min-cut oracle finds, until it finds none.
    """
    worst = SeparationResult(attack=EMPTY_ATTACK, severity=0.0)
    while True:
        result = find_mincut_attack(inst, design, worst.severity,
                                    deadline=deadline)
        if result.attack is None:
            return worst
        worst = result


# ---------------------------------------------------------------------------
# Attack enumeration


def budget_attacks(inst: Instance, edge_ids, budget: float, *,
                   cap: int = 10 ** 6):
    """All nonempty attacks over ``edge_ids`` within the budget, ordered by
    cardinality then lexicographic edge ids."""
    ids = sorted(edge_ids)
    costs = sorted(inst.edge(e).r for e in ids)
    prefix = list(itertools.accumulate(costs))
    yielded = 0
    for k in range(1, len(ids) + 1):
        if prefix[k - 1] > budget + 1e-9:
            break  # even the cheapest k-subset exceeds the budget
        for combo in itertools.combinations(ids, k):
            if sum(inst.edge(e).r for e in combo) <= budget + 1e-9:
                yielded += 1
                if yielded > cap:
                    raise SeparationError(f"attack enumeration exceeds {cap}")
                yield AttackVector(frozenset(combo))
