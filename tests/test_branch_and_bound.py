import collections
import math
import random

import numpy as np
import pytest
from oracles import solve_bruteforce

import sndp.branch_and_bound as bnb
import sndp.simplex as simplex
from sndp.branch_and_bound import MilpError, MilpModel, solve_milp
from sndp.decomposition import build_master
from sndp.instances import DesignVector
from sndp.separation import build_mincut_attack_milp
from sndp.simplex import LpModel, solve_lp


def knapsack_pair():
    lp = LpModel()
    lp.add_var("x1", lb=0, ub=1, obj=-1.0)
    lp.add_var("x2", lb=0, ub=1, obj=-1.0)
    lp.add_row("pick_one", {"x1": 1.0, "x2": 1.0}, "<=", 1.0)
    return MilpModel(lp, (0, 1))


def test_pick_either_binary():
    sol = solve_milp(knapsack_pair())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)
    assert solve_bruteforce(knapsack_pair()).objective == pytest.approx(-1.0)


def test_mincut_attack_model_value(tri3b):
    # the cheapest way to attack tri3b leaves a cut of capacity 6
    model = build_mincut_attack_milp(tri3b, DesignVector.all_edges(tri3b))
    sol = solve_milp(model)
    assert sol.objective == pytest.approx(6.0, abs=1e-6)
    assert solve_bruteforce(model).objective == pytest.approx(6.0, abs=1e-6)


def test_master_with_no_cuts_builds_nothing(tri3a):
    master = build_master(tri3a, [])
    sol = solve_milp(master)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert all(sol.value(f"build[{e.id}]") < 0.5 for e in tri3a.edges)
    assert sol.value("worst_shed") == pytest.approx(0.0, abs=1e-9)


def test_infeasible_fixings():
    lp = LpModel()
    lp.add_var("x", lb=0, ub=1, obj=1.0)
    lp.add_row("force", {"x": 1.0}, ">=", 2.0)
    model = MilpModel(lp, (0,))
    assert solve_milp(model).status == "infeasible"
    assert solve_bruteforce(model).status == "infeasible"


def test_continuous_model_equals_lp():
    lp = LpModel()
    lp.add_var("x", lb=0, ub=3, obj=-2.0)
    lp.add_row("r", {"x": 1.0}, "<=", 2.5)
    sol = solve_milp(MilpModel(lp, ()))
    assert sol.objective == pytest.approx(-5.0, abs=1e-9)
    assert sol.node_count == 1


def random_mixed_model(rng, max_binaries=12):
    n_bin = rng.randint(1, max_binaries)
    n_cont = rng.randint(0, 3)
    # a drawn maximization is minimized with the negated objective
    sign = -1 if rng.choice(["min", "max"]) == "max" else 1
    lp = LpModel()
    for j in range(n_bin):
        lp.add_var(f"b{j}", lb=0, ub=1, obj=sign * rng.randint(-5, 5))
    for j in range(n_cont):
        lp.add_var(f"c{j}", lb=0, ub=rng.randint(1, 6),
                   obj=sign * rng.randint(-3, 3))
    total = n_bin + n_cont
    for i in range(rng.randint(1, 6)):
        picks = rng.sample(range(total), rng.randint(1, total))
        coeffs = {k: rng.randint(-3, 3) for k in picks}
        coeffs = {k: v for k, v in coeffs.items() if v} or {0: 1}
        lp.add_row(f"r{i}", coeffs, rng.choice(["<=", ">=", "="]),
                   rng.randint(-4, 8))
    return MilpModel(lp, tuple(range(n_bin)))


def master_shaped_model(rng, n_bin, shed_cap=None):
    """A design master like ``build_master`` writes after clipping: binaries,
    a worst-shed variable and cut rows whose coefficients repeat a few
    values, so many branching candidates tie."""
    lp = LpModel()
    for j in range(n_bin):
        lp.add_var(f"x{j}", lb=0, ub=1, obj=rng.randint(1, 9))
    lp.add_var("theta", lb=0.0, ub=math.inf if shed_cap is None else shed_cap,
               obj=0.0 if shed_cap is not None else rng.choice((8, 15, 30)))
    for k in range(rng.randint(3, 8)):
        constant = rng.choice((0.4, 0.6, 1.0))
        step = rng.choice((0.2, constant))
        coeffs = {f"x{j}": -step
                  for j in rng.sample(range(n_bin), rng.randint(3, n_bin))}
        coeffs["theta"] = -1.0
        lp.add_row(f"cut[{k}]", coeffs, "<=", -constant)
    return MilpModel(lp, tuple(range(n_bin)))


def enumerate_master(model):
    """Closed-form oracle for ``master_shaped_model``: at binary x the least
    theta is max(0, every cut's value); the optimum scans every x at once."""
    lp = model.lp
    n, theta = len(model.binaries), lp.var_id("theta")
    xs = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(float)
    dense = lp.dense_matrix()
    least = np.zeros(2 ** n)
    for pos in range(lp.num_rows):
        least = np.maximum(least, dense[pos, :n] @ xs.T - lp.rhs[pos])
    feasible = least <= lp.upper[theta] + 1e-9
    costs = xs @ np.asarray(lp.objective[:n]) + lp.objective[theta] * least
    return costs[feasible].min() if feasible.any() else None


def test_random_models_match_bruteforce():
    rng = random.Random(100)
    for trial in range(100):
        model = random_mixed_model(rng)
        a = solve_milp(model)
        b = solve_bruteforce(model)
        assert a.status == b.status, f"trial {trial}"
        if a.status == "optimal":
            assert a.objective == pytest.approx(b.objective, abs=1e-6), \
                f"trial {trial}"
            assert all(abs(a.values[j] - round(a.values[j])) <= 1e-6
                       for j in model.binaries)
    # master-shaped models: 12 binaries, cut rows of repeated coefficients
    rng = random.Random(61)
    for trial, shed_cap in enumerate((None, 0.3)):
        model = master_shaped_model(rng, 12, shed_cap=shed_cap)
        a, b = solve_milp(model), solve_bruteforce(model)
        assert a.status == b.status == "optimal", f"master trial {trial}"
        assert a.objective == pytest.approx(b.objective, abs=1e-6)
        assert a.objective == pytest.approx(enumerate_master(model), abs=1e-6)


def test_popped_bounds_nondecreasing_and_deterministic(monkeypatch):
    rng = random.Random(55)
    model = random_mixed_model(rng)
    popped: list = []
    original = bnb.heapq.heappop

    def recorded(heap):
        item = original(heap)
        popped.append(item[0])
        return item
    monkeypatch.setattr(bnb.heapq, "heappop", recorded)
    a = solve_milp(model)
    trace_a, popped = popped, []
    assert all(x <= y + 1e-9 for x, y in zip(trace_a, trace_a[1:]))
    b = solve_milp(model)
    trace_b = popped
    assert a.node_count == b.node_count
    assert trace_a == trace_b
    if a.status == "optimal":
        assert np.array_equal(a.values, b.values)


def test_bruteforce_size_limit():
    lp = LpModel()
    for j in range(21):
        lp.add_var(f"b{j}", lb=0, ub=1, obj=1.0)
    lp.add_row("r", {0: 1.0}, ">=", 0.0)
    with pytest.raises(Exception, match="20"):
        solve_bruteforce(MilpModel(lp, tuple(range(21))))


def test_binary_bound_validation():
    lp = LpModel()
    lp.add_var("x", lb=0, ub=2, obj=1.0)
    lp.add_row("r", {"x": 1.0}, ">=", 0.0)
    with pytest.raises(Exception, match="bounds"):
        MilpModel(lp, (0,))


def test_master_shaped_models_match_enumeration():
    rng = random.Random(62)
    for trial in range(12):
        model = master_shaped_model(rng, rng.randint(12, 16),
                                    shed_cap=rng.choice((None, 0.1, 0.3)))
        a, best = solve_milp(model), enumerate_master(model)
        if best is None:
            assert a.status == "infeasible", f"trial {trial}"
            continue
        assert a.status == "optimal", f"trial {trial}"
        assert a.objective == pytest.approx(best, abs=1e-6), f"trial {trial}"
        assert all(abs(a.values[j] - round(a.values[j])) <= 1e-6
                   for j in model.binaries)


def test_node_limit_raises(monkeypatch):
    # 2 x1 + 2 x2 <= 3 has a fractional root, so the search needs a child
    lp = LpModel()
    lp.add_var("x1", ub=1.0, obj=-1.0)
    lp.add_var("x2", ub=1.0, obj=-1.0)
    lp.add_row("half", {"x1": 2.0, "x2": 2.0}, "<=", 3.0)
    model = MilpModel(lp, (0, 1))
    assert solve_milp(model).objective == pytest.approx(-1.0, abs=1e-9)
    monkeypatch.setattr(bnb, "MAX_NODES", 1)
    with pytest.raises(MilpError, match="node limit 1 exceeded"):
        solve_milp(model)


def test_warm_solves_match_cold_solves():
    # random fixing walks down from the root; every node re-solves from its
    # parent's basis and must agree with a cold solve of the same bounds
    rng = random.Random(808)
    models = [(random_mixed_model(rng), "mixed") for _ in range(60)]
    models += [(master_shaped_model(rng, 12, shed_cap=cap), kind)
               for cap, kind in ((None, "penalty"), (0.1, "cap"), (0.3, "cap"))
               for _ in range(8)]
    optimal = collections.Counter()
    infeasible = collections.Counter()
    for trial, (model, kind) in enumerate(models):
        lp = model.lp
        root = solve_lp(lp)
        if root.status != "optimal":
            continue
        assert root.basis is not None
        for _ in range(3):
            parent, bounds = root, {}
            for idx in rng.sample(model.binaries, len(model.binaries)):
                value = float(rng.randint(0, 1))
                bounds = {**bounds, idx: (value, value)}
                warm = solve_lp(lp, bounds_override=bounds,
                                basis=parent.basis)
                cold = solve_lp(lp, bounds_override=bounds)
                assert warm.status == cold.status, f"trial {trial} {bounds}"
                if warm.status != "optimal":
                    infeasible[kind] += 1
                    break
                optimal[kind] += 1
                assert warm.objective == pytest.approx(cold.objective,
                                                       abs=1e-7)
                # only the warm path reports a basis under overridden bounds
                assert warm.basis is not None and cold.basis is None
                parent = warm
    assert min(optimal.values()) >= 100 and len(optimal) == 3
    # shortage-cap children that no fixing can keep under the cap
    assert infeasible["mixed"] >= 20 and infeasible["cap"] >= 10


def test_each_expansion_factorizes_the_parent_basis_once(monkeypatch):
    factorizations = []
    warm = []
    factorize, solve = simplex._factorize, bnb.solve_lp

    def counted_factorize(std, columns):
        factorizations.append(columns.copy())
        return factorize(std, columns)

    def counted_solve(lp, **kwargs):
        if kwargs.get("basis") is not None:
            warm.append(kwargs["basis"][0])
        return solve(lp, **kwargs)
    monkeypatch.setattr(simplex, "_factorize", counted_factorize)
    monkeypatch.setattr(bnb, "solve_lp", counted_solve)
    rng = random.Random(56)
    models = [random_mixed_model(rng) for _ in range(30)]
    models += [master_shaped_model(rng, 12, shed_cap=cap)
               for cap in (None, 0.3) for _ in range(4)]
    for model in models:
        factorizations.clear()
        warm.clear()
        sol = solve_milp(model)
        # each expansion solves both children from the parent basis
        assert len(warm) == sol.node_count - 1 and len(warm) % 2 == 0
        assert len(factorizations) == len(warm) // 2
        for got, parent in zip(factorizations, warm[::2]):
            assert np.array_equal(got, parent)


def test_shared_factorization_gives_the_unshared_solve():
    # sibling fixings of one parent: the second reuses the first's
    # factorization and must equal, bit for bit, a solve that does not
    rng = random.Random(809)
    models = [random_mixed_model(rng) for _ in range(40)]
    models += [master_shaped_model(rng, 12, shed_cap=cap)
               for cap in (None, 0.1, 0.3) for _ in range(4)]
    compared = 0
    for model in models:
        root = solve_lp(model.lp)
        if root.status != "optimal":
            continue
        for idx in model.binaries[:4]:
            shared: dict = {}
            for value in (0.0, 1.0):
                bounds = {idx: (value, value)}
                a = solve_lp(model.lp, bounds_override=bounds,
                             basis=root.basis, shared=shared)
                b = solve_lp(model.lp, bounds_override=bounds,
                             basis=root.basis)
                assert a.status == b.status and a.iterations == b.iterations
                if a.status == "optimal":
                    assert a.objective == b.objective
                    assert np.array_equal(a.values, b.values)
                    assert np.array_equal(a.duals, b.duals)
                    compared += 1
            assert len(shared) <= 1
    assert compared >= 100
