"""Network instance model, validation, deterministic generators and file I/O.

An instance is an undirected capacitated multigraph with node injections
(positive = supply, negative = demand), per-edge build and attack costs, a
disruption budget and a shortage penalty.  Instances are immutable once
constructed and safe to share between threads.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from functools import cached_property

TOL = 1e-9

GENERATOR_FAMILIES = ("grid", "random", "replicated")


class InstanceFormatError(ValueError):
    """Raised when an instance document cannot be parsed or validated."""


@dataclasses.dataclass(frozen=True)
class Node:
    id: int
    b: float  # injection: >0 supply, <0 demand, 0 transshipment


@dataclasses.dataclass(frozen=True)
class Edge:
    id: int
    i: int
    j: int
    u: float  # capacity, per direction
    c: float  # build cost (0 for existing edges)
    r: float  # attack cost
    existing: bool = False


@dataclasses.dataclass(frozen=True)
class Instance:
    """Immutable problem instance.

    Nodes and edges are stored sorted by id so that structurally equal
    instances compare equal regardless of construction order.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    budget: float
    penalty: float
    allowed_shed: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes, key=lambda n: n.id)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: e.id)))

    @cached_property
    def node_index(self) -> dict[int, int]:
        """Dense 0..n-1 position of each node id."""
        return {n.id: pos for pos, n in enumerate(self.nodes)}

    @cached_property
    def edge_index(self) -> dict[int, int]:
        """Dense 0..m-1 position of each edge id."""
        return {e.id: pos for pos, e in enumerate(self.edges)}

    def node(self, node_id: int) -> Node:
        return self.nodes[self.node_index[node_id]]

    def edge(self, edge_id: int) -> Edge:
        return self.edges[self.edge_index[edge_id]]

    @property
    def existing_ids(self) -> frozenset[int]:
        return frozenset(e.id for e in self.edges if e.existing)

    @property
    def candidate_ids(self) -> frozenset[int]:
        return frozenset(e.id for e in self.edges if not e.existing)


@dataclasses.dataclass(frozen=True)
class DesignVector:
    """First-level decision: the set of built edge ids (existing edges included)."""

    built: frozenset[int]

    @classmethod
    def from_ids(cls, ids) -> "DesignVector":
        return cls(frozenset(ids))

    @classmethod
    def all_edges(cls, inst: Instance) -> "DesignVector":
        return cls(frozenset(e.id for e in inst.edges))


@dataclasses.dataclass(frozen=True)
class AttackVector:
    """Second-level decision: the set of disrupted edge ids."""

    disrupted: frozenset[int]

    @classmethod
    def from_ids(cls, ids) -> "AttackVector":
        return cls(frozenset(ids))


EMPTY_ATTACK = AttackVector(frozenset())


@dataclasses.dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic instance generator parameters.

    The same spec always produces a byte-identical instance.  ``placement_seed``
    governs where supplies and demands land; ``seed`` governs magnitudes,
    capacities and costs.
    """

    family: str
    num_nodes: int
    replication: int = 1
    seed: int = 0
    placement_seed: int = 0


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    findings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def attack_cost(inst: Instance, attack: AttackVector) -> float:
    return sum(inst.edge(e).r for e in attack.disrupted)


def attack_consistent(design: DesignVector, attack: AttackVector) -> bool:
    """Attacks may only target built edges."""
    return attack.disrupted <= design.built


def restrict_attack(attack: AttackVector, design: DesignVector) -> AttackVector:
    """Drop attacked edges that are not built; disrupting them is a no-op."""
    return AttackVector(attack.disrupted & design.built)


def total_demand(inst: Instance) -> float:
    """Total demand D = sum of -b over demand nodes (equals total supply)."""
    return sum(-n.b for n in inst.nodes if n.b < 0)


def default_penalty(edges) -> float:
    """Shortage penalty large enough to dominate any build-cost saving."""
    return 10.0 * (1.0 + sum(e.c for e in edges if not e.existing))


def validate(inst: Instance) -> ValidationReport:
    """Check every instance invariant; an empty report means solvable input."""
    findings: list[str] = []
    seen_nodes: set[int] = set()
    for n in inst.nodes:
        if n.id in seen_nodes:
            findings.append(f"duplicate node id {n.id}")
        seen_nodes.add(n.id)
        if not math.isfinite(n.b):
            findings.append(f"node {n.id}: injection must be finite")
    balance = sum(n.b for n in inst.nodes)
    if abs(balance) > TOL:
        findings.append(f"injections do not sum to zero (total {balance:g})")
    seen_edges: set[int] = set()
    for e in inst.edges:
        if e.id in seen_edges:
            findings.append(f"duplicate edge id {e.id}")
        seen_edges.add(e.id)
        for field in ("u", "c", "r"):
            if not math.isfinite(getattr(e, field)):
                findings.append(f"edge {e.id}: {field} must be finite")
        for endpoint in (e.i, e.j):
            if endpoint not in seen_nodes:
                findings.append(f"edge {e.id}: unknown endpoint {endpoint}")
        if e.u < 0:
            findings.append(f"edge {e.id}: capacity must be nonnegative")
        if e.c < 0:
            findings.append(f"edge {e.id}: build cost must be nonnegative")
        if e.r <= 0:
            findings.append(f"edge {e.id}: attack cost must be positive")
        if e.existing and e.c != 0:
            findings.append(f"edge {e.id}: existing edge must have zero build cost")
    if inst.budget < 0:
        findings.append("budget must be nonnegative")
    if inst.penalty <= 0:
        findings.append("penalty must be positive")
    if not 0.0 <= inst.allowed_shed <= 1.0:
        findings.append("allowed shed must be within [0, 1]")
    return ValidationReport(tuple(findings))


# ---------------------------------------------------------------------------
# File format


_TOP_KEYS = ("nodes", "edges", "budget", "penalty", "allowed_shed")
_NODE_KEYS = ("id", "b")
_EDGE_KEYS = ("id", "i", "j", "u", "c", "r", "existing")


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _check_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise InstanceFormatError(f"{where}: unknown keys {unknown}")


def parse_instance(text: str) -> Instance:
    """Parse and validate an instance document.

    Raises InstanceFormatError with the position for syntax errors and the
    violated rule for validation errors.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("document root must be an object")
    _check_keys(doc, _TOP_KEYS, "document")
    for key in ("nodes", "edges"):
        if key not in doc or not isinstance(doc[key], list):
            raise InstanceFormatError(f"document: missing or non-list '{key}'")
    if "budget" not in doc:
        raise InstanceFormatError("document: missing 'budget'")

    nodes = []
    for k, raw in enumerate(doc["nodes"]):
        if not isinstance(raw, dict):
            raise InstanceFormatError(f"nodes[{k}]: expected an object")
        _check_keys(raw, _NODE_KEYS, f"nodes[{k}]")
        nodes.append(
            Node(
                id=_require_int(raw.get("id"), f"nodes[{k}].id"),
                b=_require_number(raw.get("b"), f"nodes[{k}].b"),
            )
        )
    edges = []
    for k, raw in enumerate(doc["edges"]):
        if not isinstance(raw, dict):
            raise InstanceFormatError(f"edges[{k}]: expected an object")
        _check_keys(raw, _EDGE_KEYS, f"edges[{k}]")
        existing = raw.get("existing", False)
        if not isinstance(existing, bool):
            raise InstanceFormatError(f"edges[{k}].existing: expected a boolean")
        edges.append(
            Edge(
                id=_require_int(raw.get("id"), f"edges[{k}].id"),
                i=_require_int(raw.get("i"), f"edges[{k}].i"),
                j=_require_int(raw.get("j"), f"edges[{k}].j"),
                u=_require_number(raw.get("u"), f"edges[{k}].u"),
                c=_require_number(raw.get("c"), f"edges[{k}].c"),
                r=_require_number(raw.get("r"), f"edges[{k}].r"),
                existing=existing,
            )
        )
    budget = _require_number(doc["budget"], "budget")
    penalty = (
        _require_number(doc["penalty"], "penalty")
        if "penalty" in doc
        else default_penalty(edges)
    )
    allowed_shed = (
        _require_number(doc["allowed_shed"], "allowed_shed")
        if "allowed_shed" in doc
        else 0.0
    )
    inst = Instance(
        nodes=tuple(nodes),
        edges=tuple(edges),
        budget=budget,
        penalty=penalty,
        allowed_shed=allowed_shed,
    )
    report = validate(inst)
    if not report.ok:
        raise InstanceFormatError("; ".join(report.findings))
    return inst


def serialize_instance(inst: Instance) -> str:
    """Canonical serialization: sorted ids, fixed field order, byte-stable."""
    doc = {
        "nodes": [{"id": n.id, "b": n.b} for n in inst.nodes],
        "edges": [
            {"id": e.id, "i": e.i, "j": e.j, "u": e.u, "c": e.c, "r": e.r,
             "existing": e.existing}
            for e in inst.edges
        ],
        "budget": inst.budget,
        "penalty": inst.penalty,
        "allowed_shed": inst.allowed_shed,
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Generators


def _place_injections(node_ids, placement_rng, values_rng):
    """Pick disjoint supply/demand node sets and integer balanced injections."""
    n = len(node_ids)
    if n < 2:
        return {nid: 0.0 for nid in node_ids}
    shuffled = list(node_ids)
    placement_rng.shuffle(shuffled)
    n_demand = max(1, n // 3)
    n_supply = max(1, n // 3)
    demand_nodes = shuffled[:n_demand]
    supply_nodes = shuffled[n_demand:n_demand + n_supply]
    demands = {d: float(values_rng.randint(2, 8)) for d in demand_nodes}
    total = sum(demands.values())
    base, extra = divmod(int(total), n_supply)
    supplies = {}
    for k, s in enumerate(supply_nodes):
        supplies[s] = float(base + (1 if k < extra else 0))
    b = {nid: 0.0 for nid in node_ids}
    for d, amount in demands.items():
        b[d] = -amount
    for s, amount in supplies.items():
        b[s] = amount
    return b


def _grid_shape(n: int) -> tuple[int, int]:
    rows = 1
    for cand in range(int(math.isqrt(n)), 0, -1):
        if n % cand == 0:
            rows = cand
            break
    return rows, n // rows


def generate_instance(spec: GeneratorSpec) -> Instance:
    """Build an instance deterministically from a generator spec."""
    if spec.family not in GENERATOR_FAMILIES:
        raise ValueError(f"unknown generator family {spec.family!r}")
    if spec.num_nodes < 1:
        raise ValueError("infeasible spec: need at least one node")
    if spec.replication < 1:
        raise ValueError("infeasible spec: replication factor must be >= 1")
    values_rng = random.Random(f"sndp-values-{spec.family}-{spec.seed}")
    placement_rng = random.Random(f"sndp-placement-{spec.family}-{spec.placement_seed}")

    node_ids = list(range(spec.num_nodes))
    edges: list[Edge] = []
    next_id = 0

    def add_edge(i, j, u, c, existing):
        nonlocal next_id
        edges.append(Edge(id=next_id, i=i, j=j, u=u, c=c, r=1.0, existing=existing))
        next_id += 1

    if spec.family == "grid":
        rows, cols = _grid_shape(spec.num_nodes)
        for rr in range(rows):
            for cc in range(cols):
                here = rr * cols + cc
                if cc + 1 < cols:
                    add_edge(here, here + 1, float(values_rng.randint(6, 14)),
                             float(values_rng.randint(1, 6)), False)
                if rr + 1 < rows:
                    add_edge(here, here + cols, float(values_rng.randint(6, 14)),
                             float(values_rng.randint(1, 6)), False)
    elif spec.family == "random":
        # random spanning tree plus a few chords; multigraph duplicates allowed
        for k in range(1, spec.num_nodes):
            other = values_rng.randrange(k)
            add_edge(other, k, float(values_rng.randint(5, 15)),
                     float(values_rng.randint(1, 6)), False)
        for _ in range(spec.num_nodes // 2):
            i = values_rng.randrange(spec.num_nodes)
            j = values_rng.randrange(spec.num_nodes)
            if i == j:
                j = (j + 1) % spec.num_nodes
            if spec.num_nodes > 1:
                add_edge(min(i, j), max(i, j), float(values_rng.randint(5, 15)),
                         float(values_rng.randint(1, 6)), False)
    else:  # replicated: existing ring plus candidate copies of every ring edge
        ring: list[tuple[int, int, float]] = []
        for k in range(spec.num_nodes):
            if spec.num_nodes == 1:
                break
            i, j = k, (k + 1) % spec.num_nodes
            if spec.num_nodes == 2 and k == 1:
                break  # avoid a duplicate existing pair on two nodes
            u = float(values_rng.randint(6, 12))
            ring.append((min(i, j), max(i, j), u))
            add_edge(min(i, j), max(i, j), u, 0.0, True)
        for _ in range(spec.replication - 1):
            for i, j, u in ring:
                add_edge(i, j, u, float(values_rng.randint(1, 9)), False)

    b = _place_injections(node_ids, placement_rng, values_rng)
    nodes = tuple(Node(id=nid, b=b[nid]) for nid in node_ids)
    inst = Instance(
        nodes=nodes,
        edges=tuple(edges),
        budget=1.0,
        penalty=default_penalty(edges),
        allowed_shed=0.0,
    )
    report = validate(inst)
    if not report.ok:  # pragma: no cover - generator must produce valid output
        raise RuntimeError("generator produced invalid instance: " + "; ".join(report.findings))
    return inst
