import dataclasses

import pytest

import sndp.recourse
import sndp.reporting
from sndp.decomposition import solve_benders, solve_delayed, solve_exhaustive
from sndp.extensive import solve_extensive
from sndp.instances import (
    DesignVector,
    GeneratorSpec,
    generate_instance,
)
from sndp.reporting import (
    CSV_COLUMNS,
    bench,
    bench_csv,
    iteration_log_lines,
    solution_to_dict,
    sweep_tradeoff,
    tradeoff_csv,
    verify_design,
)

E12, E23, E13 = 0, 1, 2


def test_verify_survivable_design(tri3a):
    report = verify_design(tri3a, DesignVector.all_edges(tri3a))
    assert report.passed
    assert report.exact
    assert report.worst_shed == pytest.approx(0.0, abs=1e-9)
    assert report.attacks_enumerated == 3


def test_verify_failing_design(tri3b):
    report = verify_design(tri3b, DesignVector.all_edges(tri3b))
    assert not report.passed
    assert report.worst_shed == pytest.approx(0.4, abs=1e-9)
    assert report.worst_attack is not None
    assert report.worst_attack.disrupted in ({E12}, {E23})


def test_verify_zero_budget_reports_nominal(tri3b):
    inst = dataclasses.replace(tri3b, budget=0.0)
    design = DesignVector.from_ids([E13])  # capacity 6 of 10
    report = verify_design(inst, design)
    assert report.worst_shed == pytest.approx(0.4, abs=1e-9)
    assert report.worst_attack is None


def test_scans_agree_on_the_worst_case(tri3b):
    # verify_design, brute, ef and bd price scenarios through one scan and
    # one worst-case rule, so they report the same worst shed and attack;
    # dsg reports the oracle's attack, which may differ at the same shed,
    # but keeps the rule that an attack disrupting no built edge is None
    grid = generate_instance(GeneratorSpec("grid", 6, seed=1, placement_seed=1))
    for inst in (tri3b, dataclasses.replace(grid, budget=1.0)):
        brute = solve_exhaustive(inst)
        assert brute.worst_shed > 0.0
        report = verify_design(inst, brute.design)
        assert report.worst_shed == pytest.approx(brute.worst_shed, abs=1e-9)
        assert report.worst_attack == brute.worst_attack
        for sol in (solve_extensive(inst), solve_benders(inst)):
            assert sol.design == brute.design
            assert sol.worst_shed == pytest.approx(brute.worst_shed, abs=1e-9)
            assert sol.worst_attack == brute.worst_attack
        dsg = solve_delayed(inst)
        assert dsg.objective == pytest.approx(brute.objective, abs=1e-6)
        assert dsg.worst_shed == pytest.approx(brute.worst_shed, abs=1e-6)
        assert (dsg.worst_attack is None) == (brute.worst_attack is None)
        if dsg.worst_attack is not None:
            assert dsg.worst_attack.disrupted <= dsg.design.built
    # at budget 2 the optimum builds nothing, so no attack disrupts anything
    bare = dataclasses.replace(grid, budget=2.0)
    bd, dsg = solve_benders(bare), solve_delayed(bare)
    assert dsg.design == bd.design == DesignVector.from_ids([])
    assert dsg.worst_shed == bd.worst_shed == pytest.approx(1.0)
    assert dsg.worst_attack is None and bd.worst_attack is None


def test_verify_enumeration_solves_no_lp_when_screens_pass(tri3a, monkeypatch):
    # every attack on fully built tri3a is screened out by max-flow, and an
    # empty attack space is priced through the same scan
    calls = []
    original = sndp.recourse.solve_lp
    monkeypatch.setattr(sndp.recourse, "solve_lp",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    report = verify_design(tri3a, DesignVector.all_edges(tri3a))
    assert report.passed and report.attacks_enumerated == 3
    assert calls == []
    unattackable = dataclasses.replace(tri3a, budget=0.0)
    report = verify_design(unattackable, DesignVector.from_ids([E13]))
    assert report.attacks_enumerated == 0
    assert report.worst_shed == 0.0 and report.worst_attack is None
    assert calls == []


def _scaled(inst, factor):
    return dataclasses.replace(
        inst,
        nodes=tuple(dataclasses.replace(n, b=n.b * factor) for n in inst.nodes),
        edges=tuple(dataclasses.replace(e, u=e.u * factor) for e in inst.edges))


def test_scaled_data_prices_like_the_original(tri3b):
    # shed fractions do not depend on the units of b and u
    small = _scaled(tri3b, 0.01)
    assert solve_delayed(small).objective == pytest.approx(45.0, abs=1e-6)
    assert solve_delayed(small, shed_cap=0.5).build_cost \
        == pytest.approx(5.0, abs=1e-6)
    report = verify_design(small, DesignVector.all_edges(small),
                           enumeration_cap=1)
    assert report.worst_shed == pytest.approx(0.4, abs=1e-6)
    assert not report.passed


def test_verify_oracle_path_matches_enumeration(tri3b):
    design = DesignVector.all_edges(tri3b)
    exact = verify_design(tri3b, design)
    implicit = verify_design(tri3b, design, enumeration_cap=1)
    assert implicit.note != ""
    assert implicit.passed == exact.passed
    assert implicit.worst_shed == pytest.approx(exact.worst_shed, abs=1e-6)


def test_verify_respects_allowed_shed(tri3b):
    design = DesignVector.all_edges(tri3b)
    report = verify_design(tri3b, design, allowed_shed=0.5)
    assert report.passed


def test_sweep_fixture_costs(tri3b):
    points = sweep_tradeoff(tri3b, [0.5, 1.0], [1.0])
    by_eps = {p.allowed_shed: p for p in points}
    assert by_eps[0.5].build_cost == pytest.approx(5.0, abs=1e-6)
    assert by_eps[1.0].build_cost == pytest.approx(0.0, abs=1e-6)
    # brute-force confirmation of the 0.5 point
    assert solve_exhaustive(tri3b, shed_cap=0.5).build_cost \
        == pytest.approx(5.0)


def test_sweep_zero_budget_point(tri3a):
    points = sweep_tradeoff(tri3a, [0.0], [0.0])
    assert points[0].feasible
    assert points[0].build_cost == pytest.approx(2.0, abs=1e-6)


def test_sweep_records_infeasible_points(tri3b):
    points = sweep_tradeoff(tri3b, [0.0, 1.0], [1.0])
    by_eps = {p.allowed_shed: p for p in points}
    assert not by_eps[0.0].feasible
    assert by_eps[0.0].error == "infeasible"
    assert by_eps[1.0].feasible
    text = tradeoff_csv(points)
    assert "no,infeasible" in text


def test_sweep_monotone_on_generated_instance():
    inst = generate_instance(
        GeneratorSpec("replicated", num_nodes=4, replication=3, seed=5))
    points = sweep_tradeoff(inst, [0.0, 0.2, 1.0], [1.0, 2.0])
    costs = {}
    for p in points:
        assert p.feasible, p
        costs[(p.allowed_shed, p.budget)] = p.build_cost
    for budget in (1.0, 2.0):
        assert costs[(0.0, budget)] >= costs[(0.2, budget)] - 1e-9
        assert costs[(0.2, budget)] >= costs[(1.0, budget)] - 1e-9
    for eps in (0.0, 0.2, 1.0):
        assert costs[(eps, 2.0)] >= costs[(eps, 1.0)] - 1e-9


def test_bench_rows_and_csv(tri3a, tri3b):
    rows = bench([("tri3a", tri3a), ("tri3b", tri3b)],
                 methods=("ef", "bd", "dsg"), time_limit=120.0)
    assert len(rows) == 6
    for name in ("tri3a", "tri3b"):
        objs = {r.solution.objective for r in rows if r.instance == name}
        assert max(objs) - min(objs) <= 1e-6
    text = bench_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 7
    row = lines[1].split(",")
    assert row[:5] == ["tri3a", "3", "1", "3", "ef"]


def test_bench_timeout_cell_marked(tri3b):
    rows = bench([("tri3b", tri3b)], methods=("dsg",), time_limit=-1.0)
    assert rows[0].solution is None
    assert rows[0].failure == "timeout"
    cells = rows[0].as_csv()
    assert cells[-4:] == ["x", "x", "x", "x"]
    assert cells[5] == ""  # objective cell left blank


def test_bench_records_memory_error_and_goes_on(tri3a, tri3b, monkeypatch):
    def out_of_memory(inst, **kwargs):
        raise MemoryError
    monkeypatch.setitem(sndp.reporting.METHOD_SOLVERS, "ef", out_of_memory)
    rows = bench([("tri3a", tri3a), ("tri3b", tri3b)],
                 methods=("ef", "bd", "dsg"), time_limit=120.0)
    assert [(r.instance, r.method) for r in rows] == [
        (name, m) for name in ("tri3a", "tri3b") for m in ("ef", "bd", "dsg")]
    for row in rows:
        if row.method == "ef":
            assert row.solution is None and row.failure == "memory"
            assert row.as_csv()[-4:] == ["x", "x", "x", "x"]
        else:
            assert row.solution is not None and row.failure == ""


def test_bench_scenario_lower_bound_prefix(tri3a):
    big = dataclasses.replace(tri3a, budget=3.0)
    rows = bench([("big", big)], methods=("dsg",), time_limit=60.0,
                 scenario_cap=5)
    cells = rows[0].as_csv()
    assert cells[3] == ">5"


def test_solution_serialization_is_deterministic(tri3b):
    a = solution_to_dict(solve_delayed(tri3b))
    b = solution_to_dict(solve_delayed(tri3b))
    a.pop("timings"); b.pop("timings")
    assert a == b
    assert a["design"]["built"] == [0, 1, 2]
    assert a["objective"] == pytest.approx(45.0, abs=1e-6)


def test_iteration_log_lines(tri3b):
    sol = solve_delayed(tri3b)
    lines = iteration_log_lines(sol).splitlines()
    assert len(lines) == len(sol.iteration_log)
    import json
    record = json.loads(lines[0])
    assert {"t", "master_objective", "master_nodes", "oracle_severity",
            "scenarios", "cuts_added"} <= set(record)
    # every round solves at least the master's root node
    assert all(json.loads(line)["master_nodes"] >= 1 for line in lines)


def test_oracle_severity_is_a_shed_fraction():
    ring = dataclasses.replace(generate_instance(
        GeneratorSpec("replicated", 6, replication=3, seed=1)), budget=2.0)
    for sol in (solve_delayed(ring), solve_delayed(ring, shed_cap=0.1)):
        severities = [rec["oracle_severity"] for rec in sol.iteration_log]
        assert len(severities) > 1
        assert all(0.0 <= s <= 1.0 for s in severities), severities
