"""Max-flow / min-cut on the source/terminal-augmented network.

The design/attack pair is turned into a directed flow graph: every built,
non-disrupted edge {i, j} contributes the arcs (i, j) and (j, i), each with
the full edge capacity; a super source feeds every supply node and a super
terminal drains every demand node.  A shortest-augmenting-path scheme with
BFS layering computes the max flow, and the nodes reachable in the final
residual graph are the source side of a min cut.  The per-arc flows and the
min-cut side are read off the final residual only when asked for.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque

from sndp.instances import (
    AttackVector,
    DesignVector,
    Instance,
    attack_consistent,
    total_demand,
)

FLOW_EPS = 1e-12  # residual capacities at or below this count as saturated


class FlowGraph:
    """Directed capacitated graph on nodes 0..n-1 whose last two nodes are
    the source and the terminal; ``arcs`` holds (tail, head, capacity)."""

    def __init__(self, n: int, arcs):
        if n < 2:
            raise ValueError("a flow graph needs a source and a terminal")
        self.n = n
        self.arcs = tuple(arcs)
        for tail, head, capacity in self.arcs:
            if capacity < 0:
                raise ValueError(f"negative capacity on arc {tail}->{head}")
            if not (0 <= tail < n and 0 <= head < n):
                raise ValueError(f"arc {tail}->{head} references unknown node")


def build_augmented(inst: Instance, design: DesignVector,
                    attack: AttackVector) -> FlowGraph:
    """Augmented graph for a consistent (design, attack) pair; node k is
    ``inst.nodes[k]``, followed by the source and the terminal."""
    if not attack_consistent(design, attack):
        extra = sorted(attack.disrupted - design.built)
        raise ValueError(f"attack disrupts unbuilt edges {extra}")
    index = inst.node_index
    source = len(inst.nodes)
    arcs = []
    for e in inst.edges:  # edges are id-sorted: deterministic arc order
        if e.id not in design.built or e.id in attack.disrupted:
            continue
        i, j = index[e.i], index[e.j]
        arcs.append((i, j, e.u))
        arcs.append((j, i, e.u))
    for pos, n in enumerate(inst.nodes):
        if n.b > 0:
            arcs.append((source, pos, n.b))
        elif n.b < 0:
            arcs.append((pos, source + 1, -n.b))
    return FlowGraph(source + 2, arcs)


class _Residual:
    """Arc-pair residual representation: slots 2k / 2k+1 are forward/backward."""

    def __init__(self, graph: FlowGraph):
        n = graph.n
        self.head = []
        self.residual = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for u, v, capacity in graph.arcs:
            self.adj[u].append(len(self.head))
            self.head.append(v)
            self.residual.append(capacity)
            self.adj[v].append(len(self.head))
            self.head.append(u)
            self.residual.append(0.0)
        self.n = n

    def bfs_levels(self, s: int, t: int):
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for slot in self.adj[u]:
                v = self.head[slot]
                if level[v] < 0 and self.residual[slot] > FLOW_EPS:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def blocking_flow(self, s: int, t: int, level) -> float:
        """Send flow along level-increasing paths until the layer is exhausted."""
        pushed_total = 0.0
        pointer = [0] * self.n
        path: list[int] = []  # stack of arc slots from s to the current node
        u = s
        while True:
            if u == t:
                bottleneck = min(self.residual[slot] for slot in path)
                for slot in path:
                    self.residual[slot] -= bottleneck
                    self.residual[slot ^ 1] += bottleneck
                pushed_total += bottleneck
                if bottleneck <= FLOW_EPS:  # float-drift guard
                    return pushed_total
                path = []
                u = s
                continue
            advanced = False
            while pointer[u] < len(self.adj[u]):
                slot = self.adj[u][pointer[u]]
                v = self.head[slot]
                if self.residual[slot] > FLOW_EPS and level[v] == level[u] + 1:
                    path.append(slot)
                    u = v
                    advanced = True
                    break
                pointer[u] += 1
            if advanced:
                continue
            if u == s:
                return pushed_total
            # dead end: drop u from the layered graph and step back; the parent
            # pointer still addresses the arc into u and will skip it next scan
            level[u] = -2
            slot = path.pop()
            u = self.head[slot ^ 1]

    def reachable(self, s: int):
        seen = [False] * self.n
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for slot in self.adj[u]:
                v = self.head[slot]
                if not seen[v] and self.residual[slot] > FLOW_EPS:
                    seen[v] = True
                    stack.append(v)
        return seen


class FlowResult:
    """Max-flow value, with the final residual graph kept for the lazy
    per-arc flows and min-cut side."""

    def __init__(self, value: float, graph: FlowGraph, residual: _Residual):
        self.value = value
        self._graph = graph
        self._residual = residual

    @functools.cached_property
    def flows(self) -> tuple[float, ...]:
        """Per-arc flows, aligned with ``graph.arcs``."""
        residual = self._residual.residual
        return tuple(max(0.0, capacity - residual[2 * k])
                     for k, (_, _, capacity) in enumerate(self._graph.arcs))

    @functools.cached_property
    def source_side(self) -> frozenset:
        """Node positions on the source side of a min cut."""
        seen = self._residual.reachable(self._graph.n - 2)
        return frozenset(v for v in range(self._graph.n) if seen[v])


def max_flow(graph: FlowGraph) -> FlowResult:
    """Max flow value, per-arc flows and the source side of a min cut."""
    res = _Residual(graph)
    s, t = graph.n - 2, graph.n - 1
    value = 0.0
    while True:
        level = res.bfs_levels(s, t)
        if level is None:
            break
        pushed = res.blocking_flow(s, t, level)
        if pushed <= 0.0:
            break
        value += pushed
    return FlowResult(value, graph, res)


def min_cut_bruteforce(graph: FlowGraph) -> float:
    """Exhaustive minimum s-t cut; test oracle for graphs with <= 20 internal nodes."""
    internal = graph.n - 2  # also the position of the source
    if internal > 20:
        raise ValueError("brute-force cut limited to 20 internal nodes")
    best = float("inf")
    for k in range(internal + 1):
        for subset in itertools.combinations(range(internal), k):
            side = set(subset) | {internal}
            cap = sum(c for tail, head, c in graph.arcs
                      if tail in side and head not in side)
            best = min(best, cap)
    return best


def feasible_full_demand(inst: Instance, design: DesignVector,
                         attack: AttackVector) -> bool:
    """True when the surviving network can route every unit of demand."""
    graph = build_augmented(inst, design, attack)
    return max_flow(graph).value >= total_demand(inst) - 1e-9
