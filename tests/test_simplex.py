import itertools
import math
import random
import time

import numpy as np
import pytest

from sndp.instances import AttackVector, DesignVector
from sndp.recourse import build_recourse_lp
import sndp.simplex
from sndp.simplex import LpModel, LpNumericalError, SolveTimeout, solve_lp


def enumerate_vertices(model):
    """Independent oracle: optimum over all basic solutions of the system."""
    n = model.num_vars
    rows, rels, rhs = [], [], []
    dense = model.dense_matrix()
    for i in range(model.num_rows):
        rows.append(dense[i])
        rels.append(model.row_relations[i])
        rhs.append(model.rhs[i])
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        if math.isfinite(model.lower[j]):
            rows.append(unit.copy()); rels.append(">="); rhs.append(model.lower[j])
        if math.isfinite(model.upper[j]):
            rows.append(unit.copy()); rels.append("<="); rhs.append(model.upper[j])
    rows = np.array(rows)
    rhs = np.array(rhs)
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        sub = rows[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        x = np.linalg.solve(sub, rhs[list(combo)])
        ok = True
        for i in range(len(rows)):
            act = rows[i] @ x
            if rels[i] == "<=" and act > rhs[i] + 1e-7:
                ok = False
            elif rels[i] == ">=" and act < rhs[i] - 1e-7:
                ok = False
            elif rels[i] == "=" and abs(act - rhs[i]) > 1e-7:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        obj = float(np.array(model.objective) @ x)
        if best is None or obj < best:
            best = obj
    return best


def test_box_maximum_with_duals():
    # maximize x1 + x2 as the minimization of -x1 - x2
    m = LpModel()
    m.add_var("x1", obj=-1.0)
    m.add_var("x2", obj=-1.0)
    m.add_row("r1", {"x1": 1.0}, "<=", 1.0)
    m.add_row("r2", {"x2": 1.0}, "<=", 1.0)
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)
    assert sol.dual("r1") == pytest.approx(-1.0, abs=1e-9)
    assert sol.dual("r2") == pytest.approx(-1.0, abs=1e-9)


def test_infeasible_detection():
    m = LpModel()
    m.add_var("x1", obj=0.0)
    m.add_row("low", {"x1": 1.0}, ">=", 1.0)
    m.add_row("high", {"x1": 1.0}, "<=", 0.0)
    assert solve_lp(m).status == "infeasible"


def test_unbounded_returns_improving_ray():
    m = LpModel()
    m.add_var("x", obj=-1.0)
    m.add_var("y", obj=0.0)
    m.add_row("tie", {"x": 1.0, "y": -1.0}, "<=", 2.0)
    sol = solve_lp(m)
    assert sol.status == "unbounded"
    assert sol.ray is not None
    assert float(np.array(m.objective) @ sol.ray) < 0
    assert sol.ray[0] - sol.ray[1] <= 1e-9  # ray keeps the row feasible


def test_slack_row_has_zero_dual():
    m = LpModel()
    m.add_var("x", obj=-1.0, ub=1.0)
    m.add_row("binding", {"x": 1.0}, "<=", 1.0)
    m.add_row("slack", {"x": 1.0}, "<=", 5.0)
    sol = solve_lp(m)
    assert abs(sol.dual("slack")) <= 1e-9


def test_unknown_row_raises():
    m = LpModel()
    m.add_var("x", obj=1.0)
    m.add_row("r", {"x": 1.0}, ">=", 1.0)
    sol = solve_lp(m)
    with pytest.raises(KeyError, match="unknown row"):
        sol.dual("nope")


def test_recourse_lp_fixture_value(tri3b):
    model = build_recourse_lp(tri3b, DesignVector.all_edges(tri3b),
                              AttackVector.from_ids([0]))
    sol = solve_lp(model)
    assert sol.objective == pytest.approx(0.4, abs=1e-9)
    assert enumerate_vertices(model) == pytest.approx(0.4, abs=1e-7)
    # flow-balance duals and the capacity duals min(reduced cost, 0) close
    # the strong-duality identity
    total = sum(n.b * sol.dual(f"balance[{n.id}]") for n in tri3b.nodes)

    def cap_dual(name):
        return min(sol.reduced_costs[model.var_id(name)], 0.0)
    for e in tri3b.edges:
        x_minus_d = 0.0 if e.id == 0 else 1.0
        total += e.u * x_minus_d * (cap_dual(f"flow[{e.id}:fwd]")
                                    + cap_dual(f"flow[{e.id}:rev]"))
    assert total == pytest.approx(0.4, abs=1e-7)


def test_random_lps_match_vertex_enumeration():
    rng = random.Random(42)
    checked = 0
    for trial in range(200):
        n = rng.randint(1, 5)
        # a drawn maximization is minimized with the negated objective and
        # compared negated; a drawn -inf lower bound becomes -10
        sign = -1 if rng.choice(["min", "max"]) == "max" else 1
        m = LpModel()
        for j in range(n):
            lb = rng.choice([0.0, float(-rng.randint(0, 3)), -math.inf])
            ub = rng.choice([math.inf, (lb if math.isfinite(lb) else 0.0)
                             + rng.randint(1, 6)])
            m.add_var(f"x{j}", lb=max(lb, -10.0), ub=ub,
                      obj=sign * rng.randint(-4, 4))
        for i in range(rng.randint(1, 5)):
            picks = rng.sample(range(n), rng.randint(1, n))
            coeffs = {f"x{k}": rng.randint(-3, 3) for k in picks}
            coeffs = {k: v for k, v in coeffs.items() if v} or {"x0": 1}
            m.add_row(f"r{i}", coeffs, rng.choice(["<=", ">=", "="]),
                      rng.randint(-5, 8))
        sol = solve_lp(m)
        ref = enumerate_vertices(m)
        if sol.status == "optimal" and ref is not None:
            checked += 1
            assert sign * sol.objective \
                == pytest.approx(sign * ref, abs=1e-7, rel=1e-7)
        elif sol.status == "infeasible":
            assert ref is None
    assert checked >= 40  # the sample must actually exercise optimal solves


def test_strong_duality_and_slackness_on_random_optimal_lps():
    rng = random.Random(9)
    for trial in range(100):
        n = rng.randint(1, 6)
        m = LpModel()
        for j in range(n):
            m.add_var(f"x{j}", lb=0.0, ub=rng.randint(2, 9),
                      obj=rng.randint(-4, 4))
        for i in range(rng.randint(1, 6)):
            picks = rng.sample(range(n), rng.randint(1, n))
            coeffs = {f"x{k}": rng.randint(-2, 3) for k in picks}
            coeffs = {k: v for k, v in coeffs.items() if v} or {"x0": 1}
            m.add_row(f"r{i}", coeffs, rng.choice(["<=", ">="]),
                      rng.randint(0, 10))
        sol = solve_lp(m)
        if sol.status != "optimal":
            continue
        dense = m.dense_matrix()
        activity = dense @ sol.values
        dual_obj = float(sol.duals @ np.array(m.rhs))
        for j in range(n):
            v = sol.values[j]
            if abs(v - m.lower[j]) <= 1e-7:
                dual_obj += sol.reduced_costs[j] * m.lower[j]
            elif abs(v - m.upper[j]) <= 1e-7:
                dual_obj += sol.reduced_costs[j] * m.upper[j]
        assert abs(dual_obj - sol.objective) <= 1e-7 * (1 + abs(sol.objective))
        for i in range(m.num_rows):
            slack = activity[i] - m.rhs[i]
            assert abs(sol.duals[i] * slack) <= 1e-7 * (1 + abs(sol.objective))
            if m.row_relations[i] == "<=":
                assert sol.duals[i] <= 1e-9  # min problem convention
            else:
                assert sol.duals[i] >= -1e-9


def test_identical_models_solve_identically(tri3a):
    def build():
        return build_recourse_lp(tri3a, DesignVector.all_edges(tri3a),
                                 AttackVector.from_ids([1]))

    a, b = solve_lp(build()), solve_lp(build())
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.duals, b.duals)
    assert a.iterations == b.iterations


def test_degenerate_lp_terminates():
    # many redundant rows through the same vertex force degenerate pivots
    m = LpModel()
    for j in range(4):
        m.add_var(f"x{j}", obj=-1.0, ub=1.0)
    for i in range(12):
        coeffs = {f"x{j}": 1.0 for j in range(4)}
        m.add_row(f"r{i}", coeffs, "<=", 2.0)
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)


def test_pivot_limit_reports_basis(monkeypatch):
    monkeypatch.setattr(sndp.simplex, "MAX_ITERS", 0)
    m = LpModel()
    m.add_var("x", obj=1.0)
    m.add_row("r", {"x": 1.0}, ">=", 1.0)
    with pytest.raises(LpNumericalError, match="basis"):
        solve_lp(m)


def test_add_var_rejects_infinite_lower_bound():
    m = LpModel()
    for lb, ub in ((-math.inf, 0.0), (-math.inf, math.inf),
                   (math.inf, math.inf)):
        with pytest.raises(ValueError, match="lower bound"):
            m.add_var("x", lb=lb, ub=ub)
    assert m.num_vars == 0


def _assignment_lp(n):
    # n x n assignment LP: its phase one needs one pivot per row at least
    m = LpModel()
    for i in range(n):
        for j in range(n):
            m.add_var(f"x{i}_{j}", ub=1.0, obj=float((3 * i + 5 * j) % 7))
    for i in range(n):
        m.add_row(f"row{i}", {f"x{i}_{j}": 1.0 for j in range(n)}, "=", 1.0)
        m.add_row(f"col{i}", {f"x{j}_{i}": 1.0 for j in range(n)}, "=", 1.0)
    return m


def test_expired_deadline_stops_the_pivot_loop():
    model = _assignment_lp(6)
    assert solve_lp(model).iterations > 6
    with pytest.raises(SolveTimeout, match="after 0 pivots"):
        solve_lp(model, deadline=time.monotonic() - 1.0)
    later = solve_lp(model, deadline=time.monotonic() + 60.0)
    assert later.objective == pytest.approx(solve_lp(model).objective)


def test_milp_passes_its_deadline_to_each_lp(monkeypatch):
    import sndp.branch_and_bound as bnb
    seen = []
    original = bnb.solve_lp
    monkeypatch.setattr(bnb, "solve_lp", lambda *a, **k: seen.append(
        k.get("deadline")) or original(*a, **k))
    lp = _assignment_lp(3)
    stamp = time.monotonic() + 60.0
    bnb.solve_milp(bnb.MilpModel(lp, tuple(range(lp.num_vars))),
                   deadline=stamp)
    assert seen and set(seen) == {stamp}
    assert bnb.SolveTimeout is SolveTimeout


def test_corrupt_basis_gets_the_cold_optimum():
    model = _assignment_lp(4)
    cold = solve_lp(model)
    columns, at_upper = cold.basis
    duplicated = columns.copy()
    duplicated[1] = duplicated[0]
    for basis in ((duplicated, at_upper), (columns[:-1], at_upper),
                  (columns, at_upper[:-1]), (columns + 10 ** 6, at_upper)):
        sol = solve_lp(model, bounds_override={0: (0.0, 0.0)}, basis=basis)
        again = solve_lp(model, bounds_override={0: (0.0, 0.0)})
        assert sol.status == again.status == "optimal"
        assert np.array_equal(sol.values, again.values)
        assert sol.basis is None  # the cold answer, under overridden bounds


def test_singular_basis_gets_the_cold_optimum():
    # x and y have equal columns, so a basis holding both is singular
    m = LpModel()
    m.add_var("x", ub=4.0, obj=1.0)
    m.add_var("y", ub=4.0, obj=2.0)
    m.add_row("r1", {"x": 1.0, "y": 1.0}, ">=", 3.0)
    m.add_row("r2", {"x": 2.0, "y": 2.0}, "<=", 7.0)
    cold = solve_lp(m)
    singular = (np.array([0, 1]), np.zeros_like(cold.basis[1]))
    sol = solve_lp(m, basis=singular)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(cold.objective, abs=1e-12)
    assert np.array_equal(sol.values, cold.values)


def test_warm_start_from_own_basis_needs_no_pivot():
    model = _assignment_lp(5)
    cold = solve_lp(model)
    warm = solve_lp(model, basis=cold.basis)
    assert warm.iterations == 0
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
