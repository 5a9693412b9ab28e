"""Per-scenario recourse LP: minimal shed fraction, duals and Benders cuts.

Given a design and an attack, the recourse problem scales every injection by
a common factor (1 - shed) and routes flow on the surviving arcs.  Arc
capacities are flow bounds, which the simplex carries itself (Dantzig,
Econometrica 1955), so the LP has one balance row per node.  The balance
duals and the capacity duals, read off the flows' reduced costs, assemble
into an optimality cut valid for every design.  ``price_scenarios`` is the
one scan that prices a list of attacks against a design.
"""

from __future__ import annotations

import dataclasses
import math

from sndp.instances import (
    AttackVector,
    DesignVector,
    Instance,
    attack_consistent,
    restrict_attack,
)
from sndp.maxflow import feasible_full_demand
from sndp.simplex import LpModel, check_deadline, solve_lp

CUT_TOL = 1e-9  # coefficient rounding used for cut deduplication
WORST_TOL = 1e-12  # a shed must beat the worst so far by this to replace it

FWD, REV = 0, 1  # direction keys: FWD is i->j as the edge is stored


@dataclasses.dataclass(frozen=True)
class RecourseResult:
    """Optimal shed fraction with row duals."""

    shed: float
    node_duals: dict[int, float]             # balance-row multipliers
    arc_duals: dict[tuple[int, int], float]  # capacity multipliers, <= 0
    design: DesignVector
    attack: AttackVector


@dataclasses.dataclass(frozen=True)
class BendersCut:
    """Affine lower bound on the worst-shed variable for one attack scenario.

    The cut reads  constant + sum coeff[e]*x_e <= theta.  Attacked edges
    carry a zero coefficient: their capacity is lost no matter what the
    design does, which keeps the bound valid at designs that do not build
    them (and coincides with the dual objective wherever the pairing is
    consistent).
    """

    constant: float
    coefficients: dict[int, float]
    attack: AttackVector
    design: DesignVector

    def key(self) -> tuple:
        """Rounded fingerprint for pool deduplication."""
        items = tuple(
            (eid, round(coef / CUT_TOL))
            for eid, coef in sorted(self.coefficients.items())
        )
        return (round(self.constant / CUT_TOL), items)


def _var_f(edge_id: int, direction: int) -> str:
    return f"flow[{edge_id}:{'fwd' if direction == FWD else 'rev'}]"


def add_flow_block(model: LpModel, inst: Instance, shed: int,
                   prefix: str, ub=lambda e: math.inf) -> None:
    """Add ``flow[{prefix}{edge}:fwd|rev]`` per edge, both with upper bound
    ``ub(edge)``, then one balance row ``balance[{prefix}{node}]`` per node:
    outflow - inflow + b*shed == b."""
    rows = {n.id: {shed: n.b} for n in inst.nodes}
    for e in inst.edges:
        for tag, tail, head in (("fwd", e.i, e.j), ("rev", e.j, e.i)):
            flow = model.add_var(f"flow[{prefix}{e.id}:{tag}]", ub=ub(e))
            rows[tail][flow] = rows[tail].get(flow, 0.0) + 1.0
            rows[head][flow] = rows[head].get(flow, 0.0) - 1.0
    for n in inst.nodes:
        model.add_row(f"balance[{prefix}{n.id}]", rows[n.id], "=", n.b)


def build_recourse_lp(inst: Instance, design: DesignVector,
                      attack: AttackVector) -> LpModel:
    """Assemble the shed-minimizing LP for a consistent (design, attack) pair.

    Variables: one flow per edge direction plus the shed fraction.  Rows: one
    balance equality per node.  A flow's upper bound is its edge's capacity
    when the edge is built and not attacked, and 0 otherwise.
    """
    if not attack_consistent(design, attack):
        extra = sorted(attack.disrupted - design.built)
        raise ValueError(f"attack disrupts unbuilt edges {extra}")
    model = LpModel("recourse")
    active = design.built - attack.disrupted
    add_flow_block(model, inst, model.add_var("shed", lb=0.0, obj=1.0), "",
                   ub=lambda e: e.u if e.id in active else 0.0)
    return model


def solve_recourse(inst: Instance, design: DesignVector,
                   attack: AttackVector,
                   deadline: float | None = None) -> RecourseResult:
    """Minimal shed fraction for the surviving network, with duals.

    A capacity's dual is ``min(d, 0)`` for its flow's reduced cost ``d``,
    the dual a ``flow <= bound`` row would have in the same basis.
    ``deadline`` is an absolute time.monotonic() stamp for the LP's pivots.
    """
    model = build_recourse_lp(inst, design, attack)
    sol = solve_lp(model, deadline=deadline)
    if sol.status != "optimal":  # pragma: no cover - always feasible/bounded
        raise RuntimeError(f"recourse LP ended {sol.status}")
    shed = min(max(sol.value("shed"), 0.0), 1.0)
    arc_duals = {(e.id, direction): min(sol.reduced_costs[
                     model.var_id(_var_f(e.id, direction))].item(), 0.0)
                 for e in inst.edges for direction in (FWD, REV)}
    node_duals = {n.id: sol.dual(f"balance[{n.id}]") for n in inst.nodes}
    return RecourseResult(shed=shed, node_duals=node_duals,
                          arc_duals=arc_duals, design=design, attack=attack)


def price_scenarios(inst: Instance, design: DesignVector, attacks,
                    deadline=None):
    """Yield ``(attack, recourse)`` for each attack, in order, that sheds.

    Each attack is restricted to the built edges; when the surviving network
    still routes all demand (one max-flow) it sheds nothing and is skipped,
    otherwise its recourse LP is solved on the restricted attack.
    ``deadline``, an absolute time.monotonic() stamp or None, is checked
    before each attack and passed to every recourse LP.

    Many attacks restrict to the same attack.  An outcome is kept only when
    restriction changed the attack, and every later attack with the same
    restriction reuses it, so each restricted attack is screened and priced
    at most twice per scan: once as an attack of its own and once as a
    restriction.  An attack on built edges keeps nothing, so a scan over
    built edges holds no result after yielding it.
    """
    priced = {}  # restricted attack -> recourse result, None if no shed
    for attack in attacks:
        check_deadline(deadline, "time limit expired during scenario pricing")
        effective = restrict_attack(attack, design)
        if effective in priced:
            result = priced[effective]
        else:
            result = None if feasible_full_demand(inst, design, effective) \
                else solve_recourse(inst, design, effective, deadline)
            if effective != attack:
                priced[effective] = result
        if result is not None:
            yield attack, result


def worst_case(priced) -> tuple[float, AttackVector | None]:
    """The worst shed over ``price_scenarios`` output and the attack on it.

    The one rule every caller keeps: start at shed 0 with no attack, and let
    an attack take over only when its shed beats the worst so far by more
    than ``WORST_TOL``.  The reported attack is therefore the first one, in
    scan order, to reach the worst shed, restricted to the design.  It is
    None when nothing is shed or when that attack disrupts no built edge,
    that is, when the worst shed needs no attack at all.
    """
    worst, worst_attack = 0.0, None
    for _, result in priced:
        if result.shed > worst + WORST_TOL:
            worst = result.shed
            worst_attack = result.attack if result.attack.disrupted else None
    return worst, worst_attack


def make_cut(result: RecourseResult, inst: Instance,
             attack: AttackVector | None = None) -> BendersCut:
    """Optimality cut from the duals of one recourse solve.

    ``attack`` defaults to the attack of the generating solve; passing the
    original scenario allows cutting from a solve whose attack was restricted
    to the built edges.
    """
    scenario = attack if attack is not None else result.attack
    constant = sum(inst.node(nid).b * alpha
                   for nid, alpha in result.node_duals.items())
    coefficients = {}
    for e in inst.edges:
        if e.id in scenario.disrupted:
            coefficients[e.id] = 0.0
        else:
            coefficients[e.id] = e.u * (result.arc_duals[(e.id, FWD)]
                                        + result.arc_duals[(e.id, REV)])
    return BendersCut(constant=constant, coefficients=coefficients,
                      attack=scenario, design=result.design)
