import random

import pytest

import sndp.maxflow
from sndp.instances import AttackVector, DesignVector, EMPTY_ATTACK
from sndp.maxflow import (
    FlowGraph,
    build_augmented,
    feasible_full_demand,
    max_flow,
    min_cut_bruteforce,
)

E12, E23, E13 = 0, 1, 2


def crossing_arcs(graph, side):
    return [arc for arc in graph.arcs if arc[0] in side and arc[1] not in side]


def cut_capacity(graph, side):
    return sum(capacity for _, _, capacity in crossing_arcs(graph, side))


def test_augmented_construction_counts(tri3a):
    g = build_augmented(tri3a, DesignVector.all_edges(tri3a), EMPTY_ATTACK)
    assert g.n == 5
    assert len(g.arcs) == 8  # six edge arcs plus the two augmentation arcs
    empty = build_augmented(tri3a, DesignVector.from_ids([]), EMPTY_ATTACK)
    assert len(empty.arcs) == 2


def test_attacked_edges_contribute_nothing(tri3b):
    g = build_augmented(tri3b, DesignVector.all_edges(tri3b),
                        AttackVector.from_ids([E12]))
    # nodes 1, 2, 3 sit at positions 0, 1, 2; the source and terminal at 3, 4
    internal = {(tail, head) for tail, head, _ in g.arcs if max(tail, head) < 3}
    assert internal == {(1, 2), (2, 1), (0, 2), (2, 0)}


def test_inconsistent_pair_rejected(tri3a):
    with pytest.raises(ValueError, match="unbuilt"):
        build_augmented(tri3a, DesignVector.from_ids([E12]),
                        AttackVector.from_ids([E13]))


def test_full_design_flow_value(tri3a):
    g = build_augmented(tri3a, DesignVector.all_edges(tri3a), EMPTY_ATTACK)
    result = max_flow(g)
    assert result.value == pytest.approx(10.0, abs=1e-9)
    assert cut_capacity(g, result.source_side) \
        == pytest.approx(result.value, abs=1e-9)
    assert min_cut_bruteforce(g) == pytest.approx(10.0, abs=1e-9)


def test_empty_network_flow():
    g = FlowGraph(2, [])
    result = max_flow(g)
    assert result.value == 0.0
    assert result.source_side == frozenset({0})


def test_min_cut_after_attack(tri3b):
    g = build_augmented(tri3b, DesignVector.all_edges(tri3b),
                        AttackVector.from_ids([E12]))
    result = max_flow(g)
    assert result.value == pytest.approx(6.0, abs=1e-9)
    assert min_cut_bruteforce(g) == pytest.approx(6.0, abs=1e-9)
    # only edge 2 in its stored direction, node 1 -> node 3, crosses the cut
    assert crossing_arcs(g, result.source_side) == [(0, 2, 6.0)]


def test_feasibility_fixtures(tri3a, tri3b):
    assert feasible_full_demand(tri3a, DesignVector.all_edges(tri3a),
                                AttackVector.from_ids([E13]))
    assert not feasible_full_demand(tri3b, DesignVector.all_edges(tri3b),
                                    AttackVector.from_ids([E12]))


def test_screen_reads_no_min_cut(tri3a, tri3b, monkeypatch):
    # the feasibility screen needs the flow value only; the min-cut side
    # is found on demand
    def no_cut(self, s):
        raise AssertionError("min-cut side computed")
    monkeypatch.setattr(sndp.maxflow._Residual, "reachable", no_cut)
    assert feasible_full_demand(tri3a, DesignVector.all_edges(tri3a),
                                AttackVector.from_ids([E13]))
    assert not feasible_full_demand(tri3b, DesignVector.all_edges(tri3b),
                                    AttackVector.from_ids([E12]))


def test_zero_demand_always_feasible(tri3a):
    import dataclasses
    flat = dataclasses.replace(
        tri3a, nodes=tuple(dataclasses.replace(n, b=0.0) for n in tri3a.nodes))
    assert feasible_full_demand(flat, DesignVector.from_ids([]), EMPTY_ATTACK)


def random_flow_graph(rng, max_internal=10):
    n = rng.randint(1, max_internal)
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
    return FlowGraph(n + 2, arcs)


def test_flow_equals_bruteforce_cut_on_random_graphs():
    rng = random.Random(17)
    for _ in range(100):
        g = random_flow_graph(rng)
        result = max_flow(g)
        assert result.value == pytest.approx(min_cut_bruteforce(g), abs=1e-9)
        assert cut_capacity(g, result.source_side) \
            == pytest.approx(result.value, abs=1e-9)


def test_flows_conserve_and_respect_capacity():
    rng = random.Random(23)
    for _ in range(50):
        g = random_flow_graph(rng)
        result = max_flow(g)
        for (_, _, capacity), flow in zip(g.arcs, result.flows):
            assert -1e-12 <= flow <= capacity + 1e-9
        for node in range(g.n - 2):
            net = sum(f for a, f in zip(g.arcs, result.flows) if a[0] == node)
            net -= sum(f for a, f in zip(g.arcs, result.flows) if a[1] == node)
            assert abs(net) <= 1e-9
        sent = sum(f for a, f in zip(g.arcs, result.flows) if a[0] == g.n - 2)
        assert sent == pytest.approx(result.value, abs=1e-9)


def test_monotone_in_capacity_and_arcs():
    rng = random.Random(31)
    for _ in range(40):
        g = random_flow_graph(rng, max_internal=6)
        base = max_flow(g).value
        # raise one capacity
        if g.arcs:
            k = rng.randrange(len(g.arcs))
            raised = [(tail, head, capacity + (3.0 if i == k else 0.0))
                      for i, (tail, head, capacity) in enumerate(g.arcs)]
            assert max_flow(FlowGraph(g.n, raised)).value >= base - 1e-9
        # add an arc
        extra = list(g.arcs) + [(g.n - 2, 0, 2.0)]
        assert max_flow(FlowGraph(g.n, extra)).value >= base - 1e-9


def test_shrinking_attack_preserves_feasibility(tri3a, tri3b):
    # if the design survives a larger attack, it survives any subset of it
    for inst in (tri3a, tri3b):
        design = DesignVector.all_edges(inst)
        for big in ([E12, E23], [E12], [E13]):
            big_attack = AttackVector.from_ids(big)
            if not feasible_full_demand(inst, design, big_attack):
                continue
            for e in big:
                small = AttackVector.from_ids([x for x in big if x != e])
                assert feasible_full_demand(inst, design, small)


def test_bruteforce_size_limit():
    g = FlowGraph(23, [])
    with pytest.raises(ValueError, match="20"):
        min_cut_bruteforce(g)


def test_graph_rejects_bad_arcs():
    with pytest.raises(ValueError, match="negative"):
        FlowGraph(3, [(2, 0, -1.0)])
    with pytest.raises(ValueError, match="unknown"):
        FlowGraph(3, [(0, 3, 1.0)])
    with pytest.raises(ValueError, match="source"):
        FlowGraph(1, [])
