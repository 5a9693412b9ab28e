"""Shared fixtures: the two canonical three-node instances, plus helpers.

tri3a: one supply (10) and one demand node joined by three candidate edges of
ample capacity; survivable under any single-edge attack once all three are
built.  tri3b shrinks the direct edge to capacity 6, so no design survives a
single-edge attack without shortage.  ``rescaled`` copies an instance with
data that need not be integral.
"""

from __future__ import annotations

import dataclasses

import pytest

from sndp.instances import Edge, Instance, Node

E12, E23, E13 = 0, 1, 2


def _tri3a() -> Instance:
    return Instance(
        nodes=(Node(1, 10.0), Node(2, 0.0), Node(3, -10.0)),
        edges=(
            Edge(E12, 1, 2, u=10.0, c=1.0, r=1.0),
            Edge(E23, 2, 3, u=10.0, c=1.0, r=1.0),
            Edge(E13, 1, 3, u=10.0, c=3.0, r=1.0),
        ),
        budget=1.0,
        penalty=100.0,
    )


@pytest.fixture
def tri3a() -> Instance:
    return _tri3a()


@pytest.fixture
def tri3b() -> Instance:
    base = _tri3a()
    edges = tuple(
        dataclasses.replace(e, u=6.0) if e.id == E13 else e for e in base.edges
    )
    return dataclasses.replace(base, edges=edges)


def rescaled(inst, rng):
    """A copy with b and u scaled by one factor in [0.01, 0.2] and attack
    costs drawn from {0.5, 1, 1.5}, so no datum need be integral."""
    factor = rng.uniform(0.01, 0.2)
    nodes = tuple(dataclasses.replace(n, b=n.b * factor) for n in inst.nodes)
    edges = tuple(dataclasses.replace(e, u=e.u * factor,
                                      r=rng.choice((0.5, 1.0, 1.5)))
                  for e in inst.edges)
    return dataclasses.replace(inst, nodes=nodes, edges=edges)
