import dataclasses

import pytest

import sndp.decomposition
from sndp.decomposition import (
    ScenarioCapError,
    enumerate_scenarios,
    solve_benders,
)
from sndp.extensive import build_extensive, solve_extensive
from sndp.instances import DesignVector


def test_block_structure(tri3a):
    scenarios = list(enumerate_scenarios(tri3a))
    model = build_extensive(tri3a, scenarios)
    # blocks: one nominal plus three attacks; each holds |N| balance rows,
    # 2|E| capacity rows and one dominance row
    blocks = 1 + len(scenarios)
    balance = [n for n in model.lp.row_names if n.startswith("balance")]
    capacity = [n for n in model.lp.row_names if n.startswith("cap")]
    dominance = [n for n in model.lp.row_names if n.startswith("dominate")]
    assert len(balance) == blocks * 3
    assert len(capacity) == blocks * 6
    assert len(dominance) == blocks
    sheds = [n for n in model.lp.var_names if n.startswith("shed[")]
    assert len(sheds) == blocks
    flows = [n for n in model.lp.var_names if n.startswith("flow[")]
    assert len(flows) == blocks * 6
    assert len(model.binaries) == 3


def test_attacked_capacity_rows_have_no_build_term(tri3a):
    scenarios = list(enumerate_scenarios(tri3a))
    model = build_extensive(tri3a, scenarios)
    # block 1 attacks edge 0: its capacity rows are pure f <= 0
    row = model.lp.row_coeffs[model.lp.row_id("cap[1:0:fwd]")]
    assert set(row) == {model.lp.var_id("flow[1:0:fwd]")}
    assert model.lp.rhs[model.lp.row_id("cap[1:0:fwd]")] == 0.0
    # an undisrupted edge in the same block keeps the build coupling
    row = model.lp.row_coeffs[model.lp.row_id("cap[1:1:fwd]")]
    assert model.lp.var_id("build[1]") in row


def test_fixture_optima(tri3a, tri3b):
    a = solve_extensive(tri3a)
    assert a.method == "ef"
    assert a.build_cost == pytest.approx(5.0, abs=1e-6)
    assert a.worst_shed == pytest.approx(0.0, abs=1e-6)
    assert a.design == DesignVector.all_edges(tri3a)
    b = solve_extensive(tri3b)
    assert b.objective == pytest.approx(45.0, abs=1e-6)
    assert b.worst_shed == pytest.approx(0.4, abs=1e-6)
    zero = solve_extensive(dataclasses.replace(tri3a, budget=0.0))
    assert zero.build_cost == pytest.approx(2.0, abs=1e-6)


def test_zero_demand_builds_nothing(tri3a):
    flat = dataclasses.replace(
        tri3a,
        nodes=tuple(dataclasses.replace(n, b=0.0) for n in tri3a.nodes))
    sol = solve_extensive(flat)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert sol.design.built == frozenset()


def test_matches_benders(tri3b):
    assert solve_extensive(tri3b).objective \
        == pytest.approx(solve_benders(tri3b).objective, abs=1e-6)


def test_dropping_scenarios_never_raises_optimum(tri3b):
    from sndp.branch_and_bound import solve_milp
    scenarios = list(enumerate_scenarios(tri3b))
    full = solve_milp(build_extensive(tri3b, scenarios)).objective
    fewer = solve_milp(build_extensive(tri3b, scenarios[:-1])).objective
    assert fewer <= full + 1e-9


def test_scenario_cap_error_suggests_delayed(tri3a):
    big = dataclasses.replace(tri3a, budget=2.0)
    with pytest.raises(ScenarioCapError, match="delayed"):
        solve_extensive(big, scenario_cap=3)


def test_cap_checked_before_enumeration(tri3a, monkeypatch):
    # uniform attack costs: the closed-form count (7) already exceeds the cap
    started = []

    def enumerate_nothing(*args, **kwargs):
        started.append(args)
        return iter(())

    monkeypatch.setattr(sndp.decomposition, "budget_attacks",
                        enumerate_nothing)
    with pytest.raises(ScenarioCapError, match="delayed"):
        solve_extensive(dataclasses.replace(tri3a, budget=3.0), scenario_cap=2)
    assert started == []


def test_time_limit_counts_from_entry(tri3b, monkeypatch):
    import time

    from sndp import extensive
    from sndp.branch_and_bound import SolveTimeout

    def slow_build(*args, **kwargs):
        time.sleep(0.3)
        return build_extensive(*args, **kwargs)

    monkeypatch.setattr(extensive, "build_extensive", slow_build)
    with pytest.raises(SolveTimeout):
        solve_extensive(tri3b, time_limit=0.1)
