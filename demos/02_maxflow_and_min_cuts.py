"""Max-flow and min-cut on the source/terminal-augmented network.

Every built, undisrupted edge becomes a pair of directed arcs; a super
source feeds supplies and a super terminal drains demands.  Nodes are
numbered by position, with the source and the terminal last, and each arc
is a (tail, head, capacity) tuple.  The max flow says how much demand the
surviving network can route, and the nodes still reachable from the source
in the residual graph are the source side of a matching minimum cut.

    python3 demos/02_maxflow_and_min_cuts.py
"""

import dataclasses

from sndp import AttackVector, DesignVector, Edge, Instance, Node, total_demand
from sndp.maxflow import (
    build_augmented,
    feasible_full_demand,
    max_flow,
    min_cut_bruteforce,
)

triangle = Instance(
    nodes=(Node(1, 10.0), Node(2, 0.0), Node(3, -10.0)),
    edges=(
        Edge(0, 1, 2, u=10.0, c=1.0, r=1.0),
        Edge(1, 2, 3, u=10.0, c=1.0, r=1.0),
        Edge(2, 1, 3, u=6.0, c=3.0, r=1.0),  # the direct edge is undersized
    ),
    budget=1.0,
    penalty=100.0,
)
design = DesignVector.all_edges(triangle)
labels = [str(n.id) for n in triangle.nodes] + ["s", "t"]


def arc_text(arc):
    tail, head, capacity = arc
    return f"{labels[tail]}->{labels[head]} ({capacity:g})"


print(f"total demand: {total_demand(triangle)}")
for attacked in ([], [0], [2]):
    attack = AttackVector.from_ids(attacked)
    graph = build_augmented(triangle, design, attack)
    result = max_flow(graph)
    label = f"attack {attacked or 'none'}"
    crossing = [arc for arc in graph.arcs
                if arc[0] in result.source_side
                and arc[1] not in result.source_side]
    print(f"\n{label}: max flow {result.value:g}, "
          f"min cut {sum(arc[2] for arc in crossing):g}")
    print(f"  crossing arcs: {[arc_text(arc) for arc in crossing]}")
    print(f"  exhaustive min cut agrees: "
          f"{abs(min_cut_bruteforce(graph) - result.value) < 1e-9}")
    print(f"  all demand routable: "
          f"{feasible_full_demand(triangle, design, attack)}")

# the arc list is handy when debugging a surprising cut
print("\naugmented arc list under attack on edge 0:")
for arc in build_augmented(triangle, design, AttackVector.from_ids([0])).arcs:
    print(f"  {arc_text(arc)}")

# removing an arc can only lower the flow; raising a capacity only raise it
bigger = dataclasses.replace(
    triangle,
    edges=tuple(dataclasses.replace(e, u=e.u + 5) for e in triangle.edges))
print(f"\nflow after +5 capacity everywhere: "
      f"{max_flow(build_augmented(bigger, design, AttackVector.from_ids([]))).value:g} "
      "(was 10)")
