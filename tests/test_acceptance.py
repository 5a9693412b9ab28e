"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (visible with ``pytest -s``);
a failure surfaces as an ordinary assertion error.  The heavy fixtures
(solved instance pools) are session-scoped so later criteria can re-examine
the designs produced by earlier ones.
"""

from __future__ import annotations

import dataclasses
import random
import time

import pytest
from oracles import evaluate_cut, find_worst_attack_bruteforce

from sndp.branch_and_bound import solve_milp
from sndp.decomposition import (
    count_scenarios,
    solve_benders,
    solve_delayed,
    solve_exhaustive,
)
from sndp.extensive import solve_extensive
from sndp.instances import (
    AttackVector,
    DesignVector,
    Edge,
    GeneratorSpec,
    Instance,
    Node,
    generate_instance,
    restrict_attack,
)
from sndp.maxflow import FlowGraph, max_flow, min_cut_bruteforce
from sndp.recourse import FWD, REV, make_cut, solve_recourse
from sndp.reporting import bench, bench_csv, sweep_tradeoff, verify_design
from sndp.separation import (
    build_mincut_attack_milp,
    find_mincut_attack,
    find_worst_attack,
)

E12, E23, E13 = 0, 1, 2


def _tri3(direct_capacity: float) -> Instance:
    return Instance(
        nodes=(Node(1, 10.0), Node(2, 0.0), Node(3, -10.0)),
        edges=(Edge(E12, 1, 2, u=10.0, c=1.0, r=1.0),
               Edge(E23, 2, 3, u=10.0, c=1.0, r=1.0),
               Edge(E13, 1, 3, u=direct_capacity, c=3.0, r=1.0)),
        budget=1.0, penalty=100.0)


def equivalence_pool():
    """30 deterministic instances with 6..12 candidate edges and small
    scenario spaces (well under 300)."""
    instances = []
    seed = 0
    while len(instances) < 30:
        seed += 1
        family = ("replicated", "random", "grid")[seed % 3]
        spec = GeneratorSpec(family, num_nodes=4 + seed % 3,
                             replication=2 + seed % 2, seed=seed,
                             placement_seed=seed + 100)
        inst = generate_instance(spec)
        candidates = len(inst.candidate_ids)
        if not 6 <= candidates <= 12:
            continue
        budget = 2.0 if len(inst.edges) <= 8 else 1.0
        inst = dataclasses.replace(inst, budget=budget)
        if count_scenarios(inst)[0] > 300:
            continue
        instances.append((f"{family}-{seed}", inst))
    return instances


@pytest.fixture(scope="session")
def solved_pool():
    """Criterion 1 work product: every pool instance solved three ways."""
    t0 = time.perf_counter()
    results = []
    for name, inst in equivalence_pool():
        ef = solve_extensive(inst)
        bd = solve_benders(inst)
        dsg = solve_delayed(inst)
        results.append((name, inst, ef, bd, dsg))
    return results, time.perf_counter() - t0


@pytest.fixture(scope="session")
def oracle_pool():
    """Criterion 3 work product: 50 small instances with oracle answers."""
    rng = random.Random(4242)
    rows = []
    trial = 0
    while len(rows) < 50:
        trial += 1
        family = ("random", "replicated", "grid")[trial % 3]
        inst = generate_instance(
            GeneratorSpec(family, num_nodes=rng.randint(3, 5),
                          replication=rng.randint(1, 2), seed=trial,
                          placement_seed=trial + 9))
        if not inst.edges or len(inst.edges) > 8:
            continue
        inst = dataclasses.replace(inst, budget=float(rng.randint(1, 2)))
        built = frozenset(e for e in inst.edge_index
                          if rng.random() < 0.85) | inst.existing_ids
        design = DesignVector(built)
        general = find_worst_attack(inst, design)
        brute = find_worst_attack_bruteforce(inst, design)
        strong_milp = build_mincut_attack_milp(inst, design)
        strong_sol = solve_milp(strong_milp)
        strong = find_mincut_attack(inst, design)
        rows.append((inst, design, general, brute, strong, strong_milp,
                     strong_sol))
    return rows


def test_criterion_01_method_equivalence(solved_pool):
    results, elapsed = solved_pool
    assert len(results) == 30
    for name, inst, ef, bd, dsg in results:
        objs = (ef.objective, bd.objective, dsg.objective)
        assert max(objs) - min(objs) <= 1e-6 * (1 + abs(objs[0])), \
            f"{name}: {objs}"
    assert elapsed < 120.0, f"equivalence pool took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 method equivalence (30 instances, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_02_fixture_optima():
    tri3a, tri3b = _tri3(10.0), _tri3(6.0)
    # the exhaustive design-by-attack enumerator is the oracle of record
    assert solve_exhaustive(tri3a).build_cost == pytest.approx(5.0, abs=1e-9)
    assert solve_exhaustive(
        dataclasses.replace(tri3a, budget=0.0)).build_cost \
        == pytest.approx(2.0, abs=1e-9)
    brute_b = solve_exhaustive(tri3b)
    assert brute_b.objective == pytest.approx(45.0, abs=1e-9)
    assert brute_b.worst_shed == pytest.approx(0.4, abs=1e-9)
    for solver in (solve_extensive, solve_benders, solve_delayed):
        assert solver(tri3a).build_cost == pytest.approx(5.0, abs=1e-6)
        assert solver(
            dataclasses.replace(tri3a, budget=0.0)).build_cost \
            == pytest.approx(2.0, abs=1e-6)
        sol_b = solver(tri3b)
        assert sol_b.objective == pytest.approx(45.0, abs=1e-6)
        assert sol_b.worst_shed == pytest.approx(0.4, abs=1e-6)
    print("ACCEPTANCE 2 fixture optima: PASS")


def test_criterion_03_oracle_equivalence(oracle_pool):
    assert len(oracle_pool) == 50
    for inst, design, general, brute, strong, _, _ in oracle_pool:
        assert general.severity == pytest.approx(brute.severity, abs=1e-6)
        if strong.attack is not None:
            shed = solve_recourse(inst, design,
                                  restrict_attack(strong.attack, design)).shed
            assert shed > 1e-9  # sound: the returned attack causes shortage
            assert shed >= strong.severity - 1e-7
        else:
            # complete: brute force confirms no attack sheds anything
            assert brute.severity <= 1e-6
    print("ACCEPTANCE 3 oracle equivalence (50 instances): PASS")


def test_criterion_04_duality_suite():
    rng = random.Random(777)
    checked = 0
    while checked < 200:
        inst = generate_instance(
            GeneratorSpec(("random", "replicated")[checked % 2],
                          num_nodes=rng.randint(3, 6),
                          replication=rng.randint(1, 2),
                          seed=1000 + checked, placement_seed=checked))
        if not inst.edges:
            continue
        built = frozenset(e for e in inst.edge_index
                          if rng.random() < 0.75) | inst.existing_ids
        design = DesignVector(built)
        attack = AttackVector(frozenset(e for e in built
                                        if rng.random() < 0.3))
        res = solve_recourse(inst, design, attack)
        ident = sum(inst.node(n).b * a for n, a in res.node_duals.items())
        for e in inst.edges:
            x = 1.0 if e.id in built else 0.0
            d = 1.0 if e.id in attack.disrupted else 0.0
            ident += e.u * (x - d) * (res.arc_duals[(e.id, FWD)]
                                      + res.arc_duals[(e.id, REV)])
        assert abs(ident - res.shed) <= 1e-7, f"triple {checked}"
        checked += 1

    rng = random.Random(778)
    for trial in range(100):
        n = rng.randint(1, 10)
        nodes = list(range(n))
        arcs = []
        for _ in range(rng.randint(0, 2 * n)):
            if n < 2:
                break
            tail, head = rng.sample(nodes, 2)
            arcs.append((tail, head, float(rng.randint(0, 9))))
        for v in rng.sample(nodes, max(1, n // 2)):
            arcs.append((n, v, float(rng.randint(1, 8))))
        for v in rng.sample(nodes, max(1, n // 2)):
            arcs.append((v, n + 1, float(rng.randint(1, 8))))
        graph = FlowGraph(n + 2, arcs)
        assert max_flow(graph).value \
            == pytest.approx(min_cut_bruteforce(graph), abs=1e-9)
    print("ACCEPTANCE 4 duality suite (200 recourse triples, "
          "100 flow graphs): PASS")


def test_criterion_05_cut_validity():
    rng = random.Random(555)
    cuts_checked = 0
    while cuts_checked < 100:
        inst = generate_instance(
            GeneratorSpec(("random", "grid", "replicated")[cuts_checked % 3],
                          num_nodes=rng.randint(3, 5),
                          replication=rng.randint(1, 2),
                          seed=2000 + cuts_checked,
                          placement_seed=cuts_checked))
        if not inst.edges:
            continue
        ids = sorted(inst.edge_index)
        design = DesignVector(
            frozenset(e for e in ids if rng.random() < 0.7)
            | inst.existing_ids)
        attack = AttackVector(frozenset(e for e in design.built
                                        if rng.random() < 0.35))
        cut = make_cut(solve_recourse(inst, design, attack), inst)
        for _ in range(10):
            other = DesignVector(
                frozenset(e for e in ids if rng.random() < 0.5)
                | inst.existing_ids)
            truth = solve_recourse(inst, other,
                                   restrict_attack(attack, other)).shed
            assert evaluate_cut(cut, other, 0.0) <= truth + 1e-7
        cuts_checked += 1
    print("ACCEPTANCE 5 cut validity (100 cuts x 10 designs): PASS")


def test_criterion_06_implicit_scenario_search():
    inst = generate_instance(
        GeneratorSpec("replicated", num_nodes=6, replication=18, seed=1,
                      placement_seed=1))
    inst = dataclasses.replace(inst, budget=2.0)
    assert len(inst.candidate_ids) >= 100
    scenario_count, exact = count_scenarios(inst)
    assert exact and scenario_count >= 4950
    t0 = time.perf_counter()
    sol = solve_delayed(inst, time_limit=300.0)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    assert sol.scenarios_evaluated <= 0.10 * scenario_count
    report = verify_design(inst, sol.design, enumeration_cap=10 ** 5)
    assert report.worst_shed <= sol.worst_shed + 1e-7
    print(f"ACCEPTANCE 6 implicit search ({sol.scenarios_evaluated} of "
          f"{scenario_count} scenarios, {elapsed:.1f}s): PASS")


def test_criterion_07_survivability_certification(solved_pool):
    results, _ = solved_pool
    tri3a, tri3b = _tri3(10.0), _tri3(6.0)
    fixture_results = [
        ("tri3a", tri3a, solve_delayed(tri3a)),
        ("tri3a-g0", dataclasses.replace(tri3a, budget=0.0),
         solve_delayed(dataclasses.replace(tri3a, budget=0.0))),
        ("tri3b", tri3b, solve_delayed(tri3b)),
    ]
    todo = [(name, inst, dsg) for name, inst, _, _, dsg in results]
    todo.extend(fixture_results)
    for name, inst, sol in todo:
        report = verify_design(inst, sol.design)
        assert report.exact, name
        # the design delivers the shed the solver reported...
        assert report.worst_shed <= sol.worst_shed + 1e-7, name
        # ...and fully survivable solves verify clean at zero allowance
        if sol.worst_shed <= 1e-7:
            assert report.passed, name
    print(f"ACCEPTANCE 7 survivability certification "
          f"({len(todo)} designs): PASS")


def test_criterion_08_cut_indicator_integrality(oracle_pool):
    for _, _, _, _, _, strong_milp, strong_sol in oracle_pool:
        assert strong_sol.status == "optimal"
        for name in strong_milp.lp.var_names:
            if name.startswith("cut["):
                value = strong_sol.value(name)
                assert min(abs(value), abs(value - 1.0)) <= 1e-6
    print("ACCEPTANCE 8 cut-indicator integrality (50 models): PASS")


def test_criterion_09_tradeoff_monotonicity():
    sheds = [0.0, 0.01, 0.05, 0.2, 1.0]
    budgets = [1.0, 2.0]
    for seed in (0, 1, 2, 3, 4):
        inst = generate_instance(
            GeneratorSpec("replicated", num_nodes=4 + seed % 3, replication=3,
                          seed=seed, placement_seed=seed))
        points = sweep_tradeoff(inst, sheds, budgets)
        costs = {}
        for p in points:
            assert p.feasible, (seed, p)
            costs[(p.allowed_shed, p.budget)] = p.build_cost
        for budget in budgets:
            series = [costs[(e, budget)] for e in sheds]
            assert all(x >= y - 1e-9 for x, y in zip(series, series[1:])), \
                (seed, budget, series)
        for eps in sheds:
            assert costs[(eps, 2.0)] >= costs[(eps, 1.0)] - 1e-9, (seed, eps)
    print("ACCEPTANCE 9 trade-off monotonicity (5 instances x 10 points): "
          "PASS")


def test_criterion_10_bench_table_shape():
    small = [(f"small-{seed}", dataclasses.replace(
        generate_instance(GeneratorSpec("replicated", num_nodes=4,
                                        replication=2, seed=seed,
                                        placement_seed=seed)), budget=1.0))
        for seed in (1, 2, 3)]
    rows = bench(small, methods=("ef", "bd", "dsg"), time_limit=120.0)
    for name, _ in small:
        finished = [r.solution.objective for r in rows
                    if r.instance == name and r.solution is not None]
        assert len(finished) == 3
        assert max(finished) - min(finished) <= 1e-6 * (1 + abs(finished[0]))

    # a scenario space beyond the cap yields a ">" lower bound, and cells
    # that cannot finish in time (or exceed the extensive-form cap) yield "x"
    big = generate_instance(GeneratorSpec("replicated", num_nodes=40,
                                          replication=6, seed=9,
                                          placement_seed=9))
    big = dataclasses.replace(big, budget=4.0)
    rows += bench([("big", big)], methods=("ef", "dsg"), time_limit=0.2)
    text = bench_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ("instance,N,k,scenarios,method,objective,build_cost,"
                        "theta,iters,scen_evaluated,t_total,t_rmp,t_ndp,t_sp")
    big_rows = [ln for ln in lines if ln.startswith("big,")]
    assert len(big_rows) == 2
    for ln in big_rows:
        cells = ln.split(",")
        assert cells[3].startswith(">")
        assert cells[10] == "x"
    small_rows = [ln for ln in lines if ln.startswith("small-")]
    assert all(len(ln.split(",")) == 14 for ln in small_rows)
    print("ACCEPTANCE 10 bench table shape: PASS")
