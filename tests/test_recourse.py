import collections
import dataclasses
import itertools
import random
import weakref

import pytest
from oracles import evaluate_cut

import sndp.decomposition
import sndp.recourse
from sndp.decomposition import (
    VIOLATION_TOL,
    MasterState,
    _recheck_scenarios,
    enumerate_scenarios,
)
from sndp.instances import (
    AttackVector,
    DesignVector,
    EMPTY_ATTACK,
    GeneratorSpec,
    generate_instance,
    restrict_attack,
)
from sndp.maxflow import feasible_full_demand
from sndp.recourse import (
    FWD,
    REV,
    build_recourse_lp,
    make_cut,
    price_scenarios,
    solve_recourse,
    worst_case,
)
from sndp.separation import budget_attacks
from sndp.simplex import solve_lp

E12, E23, E13 = 0, 1, 2


def test_model_shape(tri3a):
    model = build_recourse_lp(tri3a, DesignVector.all_edges(tri3a),
                              EMPTY_ATTACK)
    assert model.num_vars == 7  # six directed flows plus the shed fraction
    balance = [n for n in model.row_names if n.startswith("balance")]
    capacity = [n for n in model.row_names if n.startswith("cap[")]
    assert len(balance) == 3 and len(capacity) == 0
    assert model.num_rows == 3
    assert all(model.upper[model.var_id(f"flow[{e}:{tag}]")] == 10.0
               for e in (E12, E23, E13) for tag in ("fwd", "rev"))


def _flow_ub(model, name):
    return model.upper[model.var_id(name)]


def test_unbuilt_and_attacked_edges_get_zero_upper_bounds(tri3a, tri3b):
    nothing = build_recourse_lp(tri3a, DesignVector.from_ids([]), EMPTY_ATTACK)
    assert all(_flow_ub(nothing, f"flow[{e}:fwd]") == 0.0
               for e in (E12, E23, E13))
    attacked = build_recourse_lp(tri3b, DesignVector.all_edges(tri3b),
                                 AttackVector.from_ids([E12]))
    assert _flow_ub(attacked, "flow[0:fwd]") == 0.0
    assert _flow_ub(attacked, "flow[0:rev]") == 0.0
    assert _flow_ub(attacked, "flow[1:fwd]") == 10.0


def test_ring_recourse_lp_has_one_row_per_node():
    # the 108-edge ring of the dsg-ring benchmark: 216 capacities, no rows
    ring = dataclasses.replace(generate_instance(
        GeneratorSpec("replicated", 6, replication=18, seed=1,
                      placement_seed=1)), budget=2.0)
    design = DesignVector.all_edges(ring)
    attack = AttackVector.from_ids([ring.edges[0].id, ring.edges[5].id])
    model = build_recourse_lp(ring, design, attack)
    assert model.num_rows == len(ring.nodes) == 6
    assert model.num_vars == 2 * len(ring.edges) + 1
    assert solve_recourse(ring, design, attack).shed \
        == pytest.approx(solve_lp(model).objective, abs=1e-12)


def test_capacity_duals_are_clipped_reduced_costs():
    # every arc dual is min(d, 0) for its flow's reduced cost d, and every
    # cut bounds the true shed from below at every design
    rng = random.Random(79)
    for trial in range(50):
        inst = generate_instance(
            GeneratorSpec("random", num_nodes=rng.randint(3, 6), seed=trial,
                          placement_seed=trial))
        ids = sorted(inst.edge_index)
        design = DesignVector(
            frozenset(e for e in ids if rng.random() < 0.7) | inst.existing_ids)
        attack = AttackVector(frozenset(e for e in design.built
                                        if rng.random() < 0.3))
        res = solve_recourse(inst, design, attack)
        model = build_recourse_lp(inst, design, attack)
        sol = solve_lp(model)
        for e in inst.edges:
            for direction, tag in ((FWD, "fwd"), (REV, "rev")):
                d = sol.reduced_costs[model.var_id(f"flow[{e.id}:{tag}]")]
                assert res.arc_duals[(e.id, direction)] <= 1e-9
                assert res.arc_duals[(e.id, direction)] == min(d, 0.0)
        cut = make_cut(res, inst)
        candidates = sorted(inst.candidate_ids)
        for k in range(len(candidates) + 1):
            for combo in itertools.combinations(candidates, k):
                other = DesignVector(inst.existing_ids | frozenset(combo))
                truth = solve_recourse(
                    inst, other, restrict_attack(attack, other)).shed
                assert evaluate_cut(cut, other, truth) <= 1e-7, \
                    f"trial {trial} design {sorted(other.built)}"


def test_inconsistent_pair_rejected(tri3a):
    with pytest.raises(ValueError, match="unbuilt"):
        build_recourse_lp(tri3a, DesignVector.from_ids([E12]),
                          AttackVector.from_ids([E23]))


def test_shed_fixtures(tri3a, tri3b):
    allx = DesignVector.all_edges(tri3a)
    assert solve_recourse(tri3a, allx, AttackVector.from_ids([E13])).shed \
        == pytest.approx(0.0, abs=1e-9)
    assert solve_recourse(tri3a, DesignVector.from_ids([]), EMPTY_ATTACK).shed \
        == pytest.approx(1.0, abs=1e-9)
    assert solve_recourse(tri3b, DesignVector.all_edges(tri3b),
                          AttackVector.from_ids([E12])).shed \
        == pytest.approx(0.4, abs=1e-9)


def test_result_invariants(tri3b):
    design = DesignVector.all_edges(tri3b)
    attack = AttackVector.from_ids([E12])
    res = solve_recourse(tri3b, design, attack)
    assert 0.0 <= res.shed <= 1.0
    assert all(v <= 1e-9 for v in res.arc_duals.values())
    sol = solve_lp(build_recourse_lp(tri3b, design, attack))
    flows = {(e.id, d): sol.value(f"flow[{e.id}:{tag}]")
             for e in tri3b.edges for d, tag in ((FWD, "fwd"), (REV, "rev"))}
    for n in tri3b.nodes:  # balance: out - in == b (1 - shed)
        net = 0.0
        for e in tri3b.edges:
            if e.i == n.id:
                net += flows[(e.id, FWD)] - flows[(e.id, REV)]
            if e.j == n.id:
                net += flows[(e.id, REV)] - flows[(e.id, FWD)]
        assert net == pytest.approx(n.b * (1 - res.shed), abs=1e-9)


def test_shed_zero_iff_full_demand_feasible():
    rng = random.Random(77)
    for trial in range(60):
        inst = generate_instance(
            GeneratorSpec("random", num_nodes=rng.randint(2, 6), seed=trial))
        built = frozenset(e for e in inst.edge_index
                          if rng.random() < 0.7) | inst.existing_ids
        design = DesignVector(built)
        attack = AttackVector(frozenset(e for e in built
                                        if rng.random() < 0.3))
        res = solve_recourse(inst, design, attack)
        assert (res.shed <= 1e-9) == feasible_full_demand(inst, design, attack)


def test_strong_duality_identity_random():
    rng = random.Random(78)
    for trial in range(60):
        inst = generate_instance(
            GeneratorSpec("replicated", num_nodes=rng.randint(3, 5),
                          replication=rng.randint(1, 2), seed=trial))
        built = frozenset(e for e in inst.edge_index
                          if rng.random() < 0.8) | inst.existing_ids
        design = DesignVector(built)
        attack = AttackVector(frozenset(e for e in built
                                        if rng.random() < 0.25))
        res = solve_recourse(inst, design, attack)
        ident = sum(inst.node(n).b * a for n, a in res.node_duals.items())
        for e in inst.edges:
            x = 1.0 if e.id in built else 0.0
            d = 1.0 if e.id in attack.disrupted else 0.0
            ident += e.u * (x - d) * (res.arc_duals[(e.id, FWD)]
                                      + res.arc_duals[(e.id, REV)])
        assert ident == pytest.approx(res.shed, abs=1e-7)


def test_cut_self_evaluation(tri3b):
    allx = DesignVector.all_edges(tri3b)
    attack = AttackVector.from_ids([E12])
    res = solve_recourse(tri3b, allx, attack)
    cut = make_cut(res, tri3b)
    assert evaluate_cut(cut, allx, 0.0) == pytest.approx(0.4, abs=1e-7)
    assert evaluate_cut(cut, allx, 1e18) < 0
    # attacked edges carry no coefficient; the rest are nonpositive
    assert cut.coefficients[E12] == 0.0
    assert all(c <= 1e-9 for c in cut.coefficients.values())


def test_cut_with_zero_shed_never_violated_at_origin(tri3a):
    allx = DesignVector.all_edges(tri3a)
    res = solve_recourse(tri3a, allx, AttackVector.from_ids([E13]))
    assert res.shed == pytest.approx(0.0, abs=1e-9)
    cut = make_cut(res, tri3a)
    assert evaluate_cut(cut, allx, 0.0) <= 1e-9


def test_cut_weak_duality_at_other_design(tri3b):
    res = solve_recourse(tri3b, DesignVector.all_edges(tri3b),
                         AttackVector.from_ids([E12]))
    cut = make_cut(res, tri3b)
    other = DesignVector.from_ids([E13])
    effective = restrict_attack(cut.attack, other)
    true_shed = solve_recourse(tri3b, other, effective).shed
    assert true_shed == pytest.approx(0.4, abs=1e-9)
    assert evaluate_cut(cut, other, 0.0) <= true_shed + 1e-7


def test_cuts_never_overestimate_random():
    rng = random.Random(80)
    for trial in range(60):
        inst = generate_instance(
            GeneratorSpec("random", num_nodes=rng.randint(3, 5), seed=trial))
        ids = sorted(inst.edge_index)
        design = DesignVector(
            frozenset(e for e in ids if rng.random() < 0.7) | inst.existing_ids)
        attack = AttackVector(frozenset(e for e in design.built
                                        if rng.random() < 0.3))
        cut = make_cut(solve_recourse(inst, design, attack), inst)
        for _ in range(5):
            other = DesignVector(
                frozenset(e for e in ids if rng.random() < 0.5)
                | inst.existing_ids)
            effective = restrict_attack(attack, other)
            truth = solve_recourse(inst, other, effective).shed
            assert evaluate_cut(cut, other, 0.0) <= truth + 1e-7


def test_shed_monotone_in_attack_and_design(tri3b):
    allx = DesignVector.all_edges(tri3b)
    small = solve_recourse(tri3b, allx, AttackVector.from_ids([E12])).shed
    # a bigger attack on a copy with budget 2 sheds at least as much
    big = solve_recourse(tri3b, allx, AttackVector.from_ids([E12, E23])).shed
    assert big >= small - 1e-9
    # a smaller design sheds at least as much
    partial = solve_recourse(tri3b, DesignVector.from_ids([E23, E13]),
                             EMPTY_ATTACK).shed
    nominal = solve_recourse(tri3b, allx, EMPTY_ATTACK).shed
    assert partial >= nominal - 1e-9


def test_shed_invariant_under_uniform_scaling(tri3b):
    allx = DesignVector.all_edges(tri3b)
    attack = AttackVector.from_ids([E12])
    base = solve_recourse(tri3b, allx, attack).shed
    scaled_inst = dataclasses.replace(
        tri3b,
        nodes=tuple(dataclasses.replace(n, b=7 * n.b) for n in tri3b.nodes),
        edges=tuple(dataclasses.replace(e, u=7 * e.u) for e in tri3b.edges))
    assert solve_recourse(scaled_inst, allx, attack).shed \
        == pytest.approx(base, abs=1e-9)


def _grid12():
    inst = generate_instance(GeneratorSpec("grid", 12, seed=1,
                                           placement_seed=1))
    inst = dataclasses.replace(inst, budget=2.0)
    # a partial design: the even-numbered edges
    return inst, DesignVector.from_ids(e.id for e in inst.edges
                                       if e.id % 2 == 0)


def test_scan_reuses_the_price_of_a_restriction(monkeypatch):
    inst, design = _grid12()
    attacks = list(enumerate_scenarios(inst))
    reference = []
    for attack in attacks:
        effective = restrict_attack(attack, design)
        if not feasible_full_demand(inst, design, effective):
            reference.append((attack, solve_recourse(inst, design, effective)))
    calls = []

    def counted(i, d, a, deadline=None):
        calls.append(a)
        return solve_recourse(i, d, a, deadline)
    monkeypatch.setattr(sndp.recourse, "solve_recourse", counted)
    priced = list(price_scenarios(inst, design, attacks))
    # the same pairs in the same order, results equal to the last bit
    assert priced == reference
    # one LP for an attack on built edges, one more when it first shows up
    # as the restriction of a larger attack; never more
    distinct = {restrict_attack(a, design) for a, _ in reference}
    assert len(attacks) == 153 and len(reference) == 153
    assert set(calls) == distinct
    assert max(collections.Counter(calls).values()) <= 2
    assert len(calls) <= 2 * len(distinct)


def test_scan_over_built_edges_keeps_no_result():
    inst, design = _grid12()
    attacks = budget_attacks(inst, design.built, inst.budget)
    scan = price_scenarios(inst, design, attacks)
    alive = []
    for _, result in scan:
        # every result yielded before this one is gone
        assert all(ref() is None for ref in alive)
        alive.append(weakref.ref(result))
        del result
    assert len(alive) > 10


def test_recheck_prices_each_restriction_once(monkeypatch):
    inst, design = _grid12()
    attacks = list(enumerate_scenarios(inst))
    threshold = 0.1
    # reference: every scenario priced by one scan, cut from its own pair
    reference = list(price_scenarios(inst, design, attacks))
    expected = MasterState()
    for attack, result in reference:
        if result.shed > threshold + VIOLATION_TOL:
            expected.add_cut(make_cut(result, inst, attack))
    calls = []

    def counted(i, d, a, deadline=None):
        calls.append(a)
        return solve_recourse(i, d, a, deadline)
    monkeypatch.setattr(sndp.recourse, "solve_recourse", counted)
    state = MasterState(scenarios=list(attacks))
    added, worst, worst_attack = _recheck_scenarios(
        inst, state, design, threshold, None)
    distinct = {restrict_attack(a, design) for a in attacks}
    assert max(collections.Counter(calls).values()) == 1
    assert set(calls) == distinct
    # the same cuts, in the same order, and the same worst case
    assert added == len(expected.cuts) > 0
    assert [c.key() for c in state.cuts] == [c.key() for c in expected.cuts]
    assert [c.attack for c in state.cuts] \
        == [c.attack for c in expected.cuts]
    assert (worst, worst_attack) == worst_case(reference)


def test_recheck_builds_each_distinct_cut_once(monkeypatch):
    inst, design = _grid12()
    attacks = list(enumerate_scenarios(inst))
    threshold = 0.1
    # reference: a cut built for every violated scenario, then deduplicated
    expected = MasterState()
    violated = 0
    for attack, result in price_scenarios(inst, design, attacks):
        if result.shed > threshold + VIOLATION_TOL:
            violated += 1
            expected.add_cut(make_cut(result, inst, attack))
    built = []

    def counted(result, i, attack=None):
        cut = make_cut(result, i, attack)
        built.append((restrict_attack(cut.attack, design), cut.key()))
        return cut
    monkeypatch.setattr(sndp.decomposition, "make_cut", counted)
    state = MasterState(scenarios=list(attacks))
    added, _, _ = _recheck_scenarios(inst, state, design, threshold, None)
    # the same pool, in the same order, equal to the last bit
    assert added == len(expected.cuts) > 0
    assert state.cuts == expected.cuts
    # no cut built twice from one restriction's duals
    assert len(set(built)) == len(built) < violated
