import dataclasses
import random

import pytest
from conftest import rescaled
from oracles import find_worst_attack_bruteforce

from sndp.branch_and_bound import solve_milp
from sndp.instances import (
    AttackVector,
    DesignVector,
    GeneratorSpec,
    attack_cost,
    generate_instance,
)
from sndp.maxflow import feasible_full_demand
from sndp.recourse import solve_recourse
from sndp.separation import (
    build_mincut_attack_milp,
    budget_attacks,
    find_mincut_attack,
    find_worst_attack,
)

E12, E23, E13 = 0, 1, 2


def small_instances(count, max_edges=8, max_budget=2):
    rng = random.Random(4242)
    made = 0
    trial = 0
    while made < count:
        trial += 1
        family = ("random", "replicated", "grid")[trial % 3]
        inst = generate_instance(
            GeneratorSpec(family, num_nodes=rng.randint(3, 5),
                          replication=rng.randint(1, 2), seed=trial,
                          placement_seed=trial + 9))
        if not inst.edges or len(inst.edges) > max_edges:
            continue
        inst = dataclasses.replace(inst,
                                   budget=float(rng.randint(1, max_budget)))
        built = frozenset(e for e in inst.edge_index
                          if rng.random() < 0.85) | inst.existing_ids
        made += 1
        yield inst, DesignVector(built)


def test_general_oracle_fixtures(tri3a, tri3b):
    allx = DesignVector.all_edges(tri3a)
    worst_b = find_worst_attack(tri3b, allx)
    assert worst_b.severity == pytest.approx(0.4, abs=1e-6)
    assert worst_b.attack is not None
    assert solve_recourse(tri3b, allx, worst_b.attack).shed \
        == pytest.approx(0.4, abs=1e-7)
    worst_a = find_worst_attack(tri3a, allx)
    assert worst_a.severity == pytest.approx(0.0, abs=1e-6)


def test_general_oracle_zero_budget(tri3b):
    inst = dataclasses.replace(tri3b, budget=0.0)
    design = DesignVector.from_ids([E13])
    result = find_worst_attack(inst, design)
    assert result.attack == AttackVector.from_ids([])
    nominal = solve_recourse(inst, design, AttackVector.from_ids([])).shed
    assert result.severity == pytest.approx(nominal, abs=1e-6)


def test_bruteforce_oracle_fixtures(tri3a, tri3b):
    allx = DesignVector.all_edges(tri3a)
    assert find_worst_attack_bruteforce(tri3b, allx).severity \
        == pytest.approx(0.4, abs=1e-9)
    assert find_worst_attack_bruteforce(tri3a, allx).severity \
        == pytest.approx(0.0, abs=1e-9)
    starved = dataclasses.replace(tri3a, budget=0.5)  # below any attack cost
    res = find_worst_attack_bruteforce(starved, allx)
    assert res.severity == pytest.approx(0.0, abs=1e-9)
    assert res.attack == AttackVector.from_ids([])


def test_strong_oracle_fixtures(tri3a, tri3b):
    allx = DesignVector.all_edges(tri3a)
    hit = find_mincut_attack(tri3b, allx)
    assert hit.severity == pytest.approx(0.4, abs=1e-7)  # cut 6 of demand 10
    assert hit.attack is not None
    assert not feasible_full_demand(tri3b, allx, hit.attack)
    miss = find_mincut_attack(tri3a, allx)
    assert miss.severity == pytest.approx(0.0, abs=1e-7)
    assert miss.attack is None
    bare = find_mincut_attack(tri3a, DesignVector.from_ids([]))
    assert bare.severity == pytest.approx(1.0, abs=1e-7)
    assert bare.attack is not None
    assert attack_cost(tri3a, bare.attack) <= tri3a.budget + 1e-9


def test_strong_oracle_bound(tri3b):
    # an attack is returned exactly when some attack sheds more than the bound
    allx = DesignVector.all_edges(tri3b)
    below = find_mincut_attack(tri3b, allx, 0.39)
    assert below.attack is not None
    assert below.severity == pytest.approx(0.4, abs=1e-9)
    assert find_mincut_attack(tri3b, allx, 0.4).attack is None
    assert find_mincut_attack(tri3b, allx, 1.0).attack is None


def test_strong_model_from_milp_module(tri3b):
    sol = solve_milp(build_mincut_attack_milp(tri3b,
                                              DesignVector.all_edges(tri3b)))
    assert sol.objective == pytest.approx(6.0, abs=1e-6)


def test_oracles_agree_on_seeded_instances():
    rng = random.Random(99)
    pool = list(small_instances(50))
    pool += [(rescaled(inst, rng), design) for inst, design in pool]
    for inst, design in pool:
        general = find_worst_attack(inst, design)
        brute = find_worst_attack_bruteforce(inst, design)
        assert general.severity == pytest.approx(brute.severity, abs=1e-6)
        assert general.attack.disrupted <= design.built
        assert attack_cost(inst, general.attack) <= inst.budget + 1e-9


def test_strong_oracle_sound_and_complete():
    for inst, design in small_instances(50):
        result = find_mincut_attack(inst, design)
        if result.attack is not None:
            assert not feasible_full_demand(inst, design, result.attack)
            assert attack_cost(inst, result.attack) <= inst.budget + 1e-9
            shed = solve_recourse(inst, design, result.attack).shed
            assert shed >= result.severity - 1e-7
        else:
            for attack in budget_attacks(inst, design.built, inst.budget):
                assert feasible_full_demand(inst, design, attack)


def test_strong_oracle_cut_indicators_are_binary():
    for inst, design in small_instances(50):
        milp = build_mincut_attack_milp(inst, design)
        sol = solve_milp(milp)
        for name in milp.lp.var_names:
            if name.startswith("cut["):
                value = sol.value(name)
                assert min(abs(value), abs(value - 1.0)) <= 1e-6


def test_budget_attack_enumeration_order(tri3a):
    attacks = list(budget_attacks(tri3a, [0, 1, 2], 2.0))
    listed = [tuple(sorted(a.disrupted)) for a in attacks]
    assert listed == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    assert list(budget_attacks(tri3a, [0, 1, 2], 0.0)) == []


def test_budget_attack_cap(tri3a):
    with pytest.raises(Exception, match="exceeds"):
        list(budget_attacks(tri3a, [0, 1, 2], 3.0, cap=2))
