import dataclasses
import random
import time

import numpy as np
import pytest
from conftest import rescaled
from oracles import evaluate_cut

import sndp.branch_and_bound
import sndp.decomposition
import sndp.recourse
from sndp.branch_and_bound import solve_milp
from sndp.decomposition import (
    InfeasibleDesignError,
    ScenarioCapError,
    build_master,
    count_scenarios,
    enumerate_scenarios,
    solve_benders,
    solve_delayed,
    solve_exhaustive,
)
from sndp.instances import (
    EMPTY_ATTACK,
    AttackVector,
    DesignVector,
    Edge,
    GeneratorSpec,
    Instance,
    Node,
    attack_cost,
    generate_instance,
)
from sndp.maxflow import feasible_full_demand
from sndp.recourse import BendersCut, make_cut, solve_recourse

E12, E23, E13 = 0, 1, 2


def test_scenario_enumeration(tri3a):
    assert len(list(enumerate_scenarios(tri3a))) == 3
    two = dataclasses.replace(tri3a, budget=2.0)
    assert len(list(enumerate_scenarios(two))) == 6
    zero = dataclasses.replace(tri3a, budget=0.0)
    assert list(enumerate_scenarios(zero)) == []
    assert count_scenarios(tri3a) == (3, True)
    assert count_scenarios(two) == (6, True)
    big = dataclasses.replace(tri3a, budget=3.0)
    assert count_scenarios(big, cap=5) == (5, False)
    # an edge subset counts only the attacks on those edges
    assert count_scenarios(two, [E12, E13]) == (3, True)
    assert count_scenarios(two, []) == (0, True)
    assert count_scenarios(big, [E12, E23], cap=2) == (2, False)
    # non-uniform attack costs are counted by enumeration, up to the cap
    mixed = dataclasses.replace(two, edges=tuple(
        dataclasses.replace(e, r=2.0) if e.id == E13 else e
        for e in two.edges))
    # budget 2 admits {12}, {23}, {13} and {12, 23}
    assert count_scenarios(mixed) == (4, True)
    assert count_scenarios(mixed, [E12, E13]) == (2, True)
    assert count_scenarios(mixed, cap=3) == (3, False)
    assert count_scenarios(mixed, [E12, E23], cap=2) == (2, False)


def test_count_propagates_non_cap_errors(tri3a, monkeypatch):
    mixed = dataclasses.replace(tri3a, edges=tuple(
        dataclasses.replace(e, r=2.0) if e.id == E13 else e
        for e in tri3a.edges))

    def broken(*args, **kwargs):
        raise ValueError("broken enumeration")
        yield

    monkeypatch.setattr(sndp.decomposition, "budget_attacks", broken)
    with pytest.raises(ValueError, match="broken enumeration"):
        count_scenarios(mixed)


def test_enumeration_cap(tri3a):
    with pytest.raises(ScenarioCapError):
        solve_benders(dataclasses.replace(tri3a, budget=3.0), scenario_cap=2)


def test_benders_cap_checked_before_enumeration(tri3a, monkeypatch):
    # uniform attack costs: the closed-form count (7) already exceeds the cap
    started = []

    def enumerate_nothing(*args, **kwargs):
        started.append(args)
        return iter(())

    monkeypatch.setattr(sndp.decomposition, "budget_attacks",
                        enumerate_nothing)
    with pytest.raises(ScenarioCapError):
        solve_benders(dataclasses.replace(tri3a, budget=3.0), scenario_cap=2)
    assert started == []


def test_benders_passes_its_deadline_to_every_recourse_lp(tri3b, monkeypatch):
    seen = []
    original = sndp.recourse.solve_lp
    monkeypatch.setattr(sndp.recourse, "solve_lp", lambda *a, **k: seen.append(
        k.get("deadline")) or original(*a, **k))
    start = time.monotonic()
    solve_benders(tri3b, time_limit=60.0)
    end = time.monotonic()
    assert len(seen) > 0 and len(set(seen)) == 1
    assert start + 60.0 <= seen[0] <= end + 60.0


def test_master_with_fixture_cuts_is_a_relaxation(tri3a):
    # cuts from zero-shed scenarios are valid but need not be tight: the
    # master optimum must stay at or below the true optimum of 5
    allx = DesignVector.all_edges(tri3a)
    cuts = []
    for eid in (E12, E23, E13):
        res = solve_recourse(tri3a, allx, AttackVector.from_ids([eid]))
        cuts.append(make_cut(res, tri3a))
    sol = solve_milp(build_master(tri3a, cuts))
    assert sol.status == "optimal"
    assert sol.objective <= 5.0 + 1e-9
    # the true optimum (build everything, no shed) satisfies every cut
    for cut in cuts:
        assert evaluate_cut(cut, allx, 0.0) <= 1e-7


def _cut(constant, coefficients):
    return BendersCut(constant, coefficients, EMPTY_ATTACK,
                      DesignVector.from_ids([]))


def _cut_rows(inst, master):
    """Each master cut row as (constant, {edge id: coefficient})."""
    lp = master.lp
    edge_of = {lp.var_id(f"build[{e.id}]"): e.id for e in inst.edges}
    rows = []
    for pos, coeffs in enumerate(lp.row_coeffs):
        assert coeffs[lp.var_id("worst_shed")] == -1.0
        assert lp.row_relations[pos] == "<="
        rows.append((-lp.rhs[pos], {edge_of[idx]: coef
                                    for idx, coef in coeffs.items()
                                    if idx in edge_of}))
    return rows


def test_master_clips_cut_coefficients(tri3a):
    cut = _cut(0.6, {E12: -1.0, E23: -0.3, E13: 0.0})
    # penalty mode: no coefficient below -constant
    assert _cut_rows(tri3a, build_master(tri3a, [cut])) \
        == [(0.6, {E12: -0.6, E23: -0.3})]
    # shortage-cap mode: no coefficient below -(constant - shed_cap)
    [(constant, coeffs)] = _cut_rows(
        tri3a, build_master(tri3a, [cut], shed_cap=0.2))
    assert constant == 0.6
    assert coeffs == pytest.approx({E12: -0.4, E23: -0.3})
    # a cut every design already meets keeps no build coefficient
    assert _cut_rows(tri3a, build_master(tri3a, [cut], shed_cap=0.7)) \
        == [(0.6, {})]
    assert _cut_rows(tri3a, build_master(tri3a, [_cut(-0.1, {E12: -0.5})])) \
        == [(-0.1, {})]
    # the pool's cut is left unclipped
    assert cut.coefficients == {E12: -1.0, E23: -0.3, E13: 0.0}


def _least_theta(rows, xs):
    """max(0, every row's value) at each binary design in ``xs``."""
    least = np.zeros(len(xs))
    for constant, coeffs in rows:
        value = constant + sum(coef * xs[:, eid]
                               for eid, coef in coeffs.items())
        least = np.maximum(least, value)
    return least


def test_clipped_rows_keep_every_design():
    # random pools of cuts with repeated coefficients on a multiple of 0.05,
    # over up to 12 edges: at every binary design the clipped rows give the
    # least theta of the pool (penalty mode) and the same feasibility under
    # the cap (shortage-cap mode)
    rng = random.Random(29)
    for trial in range(60):
        n = rng.randint(1, 12)
        inst = Instance(
            nodes=(Node(1, 1.0), Node(2, -1.0)),
            edges=tuple(Edge(j, 1, 2, u=1.0, c=1.0, r=1.0) for j in range(n)),
            budget=1.0, penalty=10.0)
        steps = [0.05 * rng.randint(1, 12) for _ in range(2)]
        cuts = [_cut(0.05 * rng.randint(-2, 16),
                     {j: -rng.choice(steps) for j in range(n)
                      if rng.random() < 0.7})
                for _ in range(rng.randint(1, 6))]
        xs = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        pool = [(c.constant, c.coefficients) for c in cuts]
        least = _least_theta(pool, xs)
        clipped = _least_theta(_cut_rows(inst, build_master(inst, cuts)), xs)
        assert np.allclose(clipped, least, atol=1e-12), f"trial {trial}"
        for cap in (0.0, 0.1, 0.3):
            rows = _cut_rows(inst, build_master(inst, cuts, shed_cap=cap))
            assert np.array_equal(_least_theta(rows, xs) <= cap + 1e-9,
                                  least <= cap + 1e-9), f"trial {trial}"


def test_delayed_matches_benders_on_rescaled_instances():
    # clipped masters in both modes on data that need not be integral
    rng = random.Random(8)
    checked, seed = 0, 0
    while checked < 6:
        seed += 1
        family = ("random", "grid", "replicated")[seed % 3]
        inst = generate_instance(GeneratorSpec(
            family, 4 + seed % 2, replication=2, seed=seed,
            placement_seed=seed + 50))
        if not 4 <= len(inst.candidate_ids) <= 10:
            continue
        inst = rescaled(dataclasses.replace(inst, budget=1.5), rng)
        bd, dsg = solve_benders(inst), solve_delayed(inst)
        assert dsg.objective == pytest.approx(
            bd.objective, abs=1e-6 * (1 + abs(bd.objective))), family
        for cap in (0.1, 0.3):
            try:
                expected = solve_benders(inst, shed_cap=cap).build_cost
            except InfeasibleDesignError:
                with pytest.raises(InfeasibleDesignError):
                    solve_delayed(inst, shed_cap=cap)
                continue
            assert solve_delayed(inst, shed_cap=cap).build_cost \
                == pytest.approx(expected, abs=1e-6), (family, cap)
        checked += 1


def test_clipping_and_pseudo_costs_shrink_the_master_tree():
    # 6x6 ring, budget 2: 678 master nodes with unclipped cuts and
    # most-fractional branching, 38 with both changes
    ring = dataclasses.replace(generate_instance(
        GeneratorSpec("replicated", 6, replication=6, seed=2,
                      placement_seed=2)), budget=2.0)
    sol = solve_delayed(ring)
    assert sum(rec["master_nodes"] for rec in sol.iteration_log) <= 200
    assert sol.objective == pytest.approx(solve_benders(ring).objective,
                                          abs=1e-6)


def test_warm_started_nodes_cut_the_pivots_of_a_solve(monkeypatch):
    # the ring above: 2,115 pivots over the master and min-cut B&B node
    # LPs (416 and 1,699) when every node was solved cold
    ring = dataclasses.replace(generate_instance(
        GeneratorSpec("replicated", 6, replication=6, seed=2,
                      placement_seed=2)), budget=2.0)
    pivots = []
    original = sndp.branch_and_bound.solve_lp

    def counted(*args, **kwargs):
        sol = original(*args, **kwargs)
        pivots.append(sol.iterations)
        return sol
    monkeypatch.setattr(sndp.branch_and_bound, "solve_lp", counted)
    sol = solve_delayed(ring)
    assert sol.objective == pytest.approx(6.0, abs=1e-6)
    assert sum(pivots) <= 1000


def test_benders_on_grid12_needs_few_rounds():
    # grid-12, seed 1, placement 1, budget 2: 5 rounds, 68 cuts and 63
    # master nodes when capacities were rows of the recourse LP
    inst = dataclasses.replace(generate_instance(
        GeneratorSpec("grid", 12, seed=1, placement_seed=1)), budget=2.0)
    sol = solve_benders(inst)
    assert sol.objective == pytest.approx(540.0, abs=1e-6)
    assert len(sol.iteration_log) <= 3


def test_duplicated_cut_changes_nothing(tri3b):
    allx = DesignVector.all_edges(tri3b)
    res = solve_recourse(tri3b, allx, AttackVector.from_ids([E12]))
    cut = make_cut(res, tri3b)
    one = solve_milp(build_master(tri3b, [cut]))
    two = solve_milp(build_master(tri3b, [cut, cut]))
    assert one.objective == pytest.approx(two.objective, abs=1e-9)


def test_benders_fixtures(tri3a, tri3b):
    a = solve_benders(tri3a)
    assert a.build_cost == pytest.approx(5.0, abs=1e-6)
    assert a.worst_shed == pytest.approx(0.0, abs=1e-6)
    b = solve_benders(tri3b)
    assert b.objective == pytest.approx(45.0, abs=1e-6)
    assert b.worst_shed == pytest.approx(0.4, abs=1e-6)
    zero = solve_benders(dataclasses.replace(tri3a, budget=0.0))
    assert zero.build_cost == pytest.approx(2.0, abs=1e-6)
    assert zero.worst_shed == pytest.approx(0.0, abs=1e-6)


def test_benders_certifies_every_scenario(tri3b):
    sol = solve_benders(tri3b)
    for attack in enumerate_scenarios(tri3b):
        shed = solve_recourse(tri3b, sol.design, attack).shed
        assert shed <= sol.worst_shed + 1e-6


def test_delayed_fixtures(tri3a, tri3b):
    a = solve_delayed(tri3a)
    assert a.build_cost == pytest.approx(5.0, abs=1e-6)
    assert a.scenarios_evaluated <= 3
    b = solve_delayed(tri3b)
    assert b.objective == pytest.approx(45.0, abs=1e-6)
    assert b.worst_shed == pytest.approx(0.4, abs=1e-6)
    assert b.worst_attack is not None
    assert attack_cost(tri3b, b.worst_attack) <= tri3b.budget + 1e-9


def test_delayed_zero_budget_trivial_instance(tri3a):
    # existing edges already satisfy demand: one oracle round, no scenarios
    covered = Instance(
        nodes=(Node(1, 10.0), Node(2, 0.0), Node(3, -10.0)),
        edges=(Edge(E12, 1, 2, u=10.0, c=0.0, r=1.0, existing=True),
               Edge(E23, 2, 3, u=10.0, c=0.0, r=1.0, existing=True)),
        budget=0.0, penalty=100.0)
    sol = solve_delayed(covered)
    assert sol.build_cost == pytest.approx(0.0)
    assert sol.scenarios_evaluated == 0
    assert sol.iterations == 0
    zero = solve_delayed(dataclasses.replace(tri3a, budget=0.0))
    assert zero.build_cost == pytest.approx(2.0, abs=1e-6)


def test_delayed_iterations_bounded_by_scenarios(tri3a, tri3b):
    for inst in (tri3a, tri3b):
        sol = solve_delayed(inst)
        assert sol.iterations == sol.scenarios_evaluated
        assert sol.scenarios_evaluated <= count_scenarios(inst)[0] + 1
        listed = sol.iteration_log
        # master objective is nondecreasing across rounds (penalty mode)
        objs = [rec["master_objective"] for rec in listed]
        assert all(x <= y + 1e-9 for x, y in zip(objs, objs[1:]))


def test_delayed_scenario_list_unique(tri3b):
    sol = solve_delayed(tri3b)
    listed = [tuple(sorted(rec.items())) for rec in sol.iteration_log]
    assert len(listed) == len(sol.iteration_log)
    # scenario count never decreases and increases by at most one per round
    counts = [rec["scenarios"] for rec in sol.iteration_log]
    assert all(0 <= y - x <= 1 for x, y in zip(counts, counts[1:]))


def test_exhaustive_matches_fixtures(tri3a, tri3b):
    assert solve_exhaustive(tri3a).build_cost == pytest.approx(5.0)
    assert solve_exhaustive(tri3b).objective == pytest.approx(45.0)
    assert solve_exhaustive(
        dataclasses.replace(tri3a, budget=0.0)).build_cost == pytest.approx(2.0)


def test_cap_mode_fixture_costs(tri3b):
    assert solve_exhaustive(tri3b, shed_cap=0.5).build_cost \
        == pytest.approx(5.0)
    assert solve_delayed(tri3b, shed_cap=0.5).build_cost == pytest.approx(5.0)
    assert solve_benders(tri3b, shed_cap=0.5).build_cost == pytest.approx(5.0)
    assert solve_delayed(tri3b, shed_cap=1.0).build_cost == pytest.approx(0.0)
    with pytest.raises(InfeasibleDesignError):
        solve_delayed(tri3b, shed_cap=0.0)


def test_cap_mode_solution_respects_cap(tri3b):
    sol = solve_delayed(tri3b, shed_cap=0.5)
    for attack in enumerate_scenarios(tri3b):
        shed = solve_recourse(tri3b, sol.design, attack).shed
        assert shed <= 0.5 + 1e-6


def test_final_design_survives_when_possible(tri3a):
    sol = solve_delayed(tri3a)
    for attack in enumerate_scenarios(tri3a):
        assert feasible_full_demand(tri3a, sol.design, attack)


def test_timings_are_recorded(tri3b):
    sol = solve_delayed(tri3b)
    assert set(sol.timings) == {"rmp", "ndp", "sp", "total"}
    assert sol.timings["total"] >= 0
    assert sol.timings["rmp"] + sol.timings["ndp"] + sol.timings["sp"] \
        <= sol.timings["total"] + 0.1


def test_time_limit_raises(tri3b):
    from sndp.branch_and_bound import SolveTimeout
    with pytest.raises(SolveTimeout):
        solve_delayed(tri3b, time_limit=-1.0)
