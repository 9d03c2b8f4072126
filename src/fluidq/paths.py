"""Simple paths in the basic-activity tree: enumeration, signs and weights.

Every class-station pair that is not a basic activity induces exactly one
simple path: the unique tree path between the two vertices, oriented so the
class is the starting leaf. One signed walk per path (``signed_path``) gives
everything else: +1 on edges traversed station-to-class, -1 on edges
traversed class-to-station and on the leaf pair of a closed path, the
per-class signed rate sums, whose total is the path's weight, and the
class- or pool-dependence that the zero paths' verdicts read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import DEFAULT_TOL, NetworkModel
from .static_fluid import FluidSolution, spanning_forest, tree_path

OPEN = "open"
CLOSED = "closed"

NEGATIVE = "negative"
ZERO = "zero"
POSITIVE = "positive"

CLASS_DEPENDENT = "class"
POOL_DEPENDENT = "pool"
NEITHER = "neither"

SignedEdge = tuple[tuple[int, int], int]


class NotATree(RuntimeError):
    """Path enumeration requires the basic graph to be a spanning tree."""


@dataclass(frozen=True)
class SimplePath:
    kind: str                           # OPEN or CLOSED
    class_leaf: int
    station_leaf: int
    vertices: tuple[int, ...]           # alternating class, station, ...
    signed_edges: tuple[SignedEdge, ...]
    class_weights: np.ndarray           # per-class signed rate sums, length num_classes
    weight: float                       # total signed rate sum
    sign_class: str                     # NEGATIVE, ZERO or POSITIVE
    dependence: str                     # CLASS_DEPENDENT, POOL_DEPENDENT or NEITHER

    @property
    def leaf_pair(self) -> tuple[int, int]:
        return (self.class_leaf, self.station_leaf)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "class_leaf": self.class_leaf,
            "station_leaf": self.station_leaf,
            "vertices": list(self.vertices),
            "edges": [
                {"class": i, "station": j, "sign": s} for (i, j), s in self.signed_edges
            ],
            "class_weights": self.class_weights.tolist(),
            "weight": self.weight,
            "sign_class": self.sign_class,
            "dependence": self.dependence,
        }


def signed_path(
    vertices: Sequence[int], closed: bool, model: NetworkModel
) -> tuple[tuple[SignedEdge, ...], np.ndarray, str]:
    """Signed edges, per-class signed rate sums and dependence of an oriented path.

    ``vertices`` alternates class, station, class, ... station. Edges at even
    offsets pair a class with its own station and get +1; odd offsets hand
    over to the next class and get -1. The closing leaf-pair edge, present
    only on closed paths, gets -1. Each edge adds its signed rate to its
    class's and its station's sum, in edge order. The path is class-dependent
    if every class sum vanishes, pool-dependent if every station sum does;
    class-dependence wins when both hold. Either one forces a zero path.
    """
    if len(vertices) < 4 or len(vertices) % 2:
        raise ValueError("a simple path has an even vertex count of at least 4")
    signed: list[SignedEdge] = [
        ((u, v), +1) if k % 2 == 0 else ((v, u), -1)
        for k, (u, v) in enumerate(zip(vertices, vertices[1:]))
    ]
    if closed:
        signed.append(((vertices[0], vertices[-1]), -1))
    per_class: dict[int, float] = {}
    per_station: dict[int, float] = {}
    for (i, j), s in signed:
        term = s * model.rate(i, j)
        per_class[i] = per_class.get(i, 0.0) + term
        per_station[j] = per_station.get(j, 0.0) + term
    class_weights = np.zeros(model.num_classes)
    for i, v in per_class.items():
        class_weights[model.class_pos(i)] = v
    class_weights.setflags(write=False)
    if all(abs(v) <= DEFAULT_TOL for v in per_class.values()):
        dependence = CLASS_DEPENDENT
    elif all(abs(v) <= DEFAULT_TOL for v in per_station.values()):
        dependence = POOL_DEPENDENT
    else:
        dependence = NEITHER
    return tuple(signed), class_weights, dependence


def enumerate_simple_paths(
    sol: FluidSolution, acts: frozenset[tuple[int, int]], model: NetworkModel
) -> list[SimplePath]:
    """One simple path per non-basic (class, station) pair.

    The count is always I*J - (I + J - 1) on a spanning tree. Paths come back
    sorted by leaf pair for deterministic downstream iteration.

    Raises:
        NotATree: the basic graph is not a spanning tree of all vertices.
    """
    parent, closing = spanning_forest(model, sol.basic_edges)
    if closing or len(sol.basic_edges) != len(parent) - 1:
        raise NotATree("basic activities do not form a spanning tree")

    paths: list[SimplePath] = []
    for i in model.class_labels:
        for j in model.station_labels:
            if (i, j) in sol.basic_edges:
                continue
            vertices = tuple(tree_path(parent, i, j))
            closed = (i, j) in acts
            signed, m, dependence = signed_path(vertices, closed, model)
            weight = float(m.sum())
            paths.append(
                SimplePath(
                    kind=CLOSED if closed else OPEN,
                    class_leaf=i,
                    station_leaf=j,
                    vertices=vertices,
                    signed_edges=signed,
                    class_weights=m,
                    weight=weight,
                    sign_class=(ZERO if abs(weight) <= DEFAULT_TOL
                                else NEGATIVE if weight < 0 else POSITIVE),
                    dependence=dependence,
                )
            )
    return paths


def basic_cycle_weights(
    sol: FluidSolution, model: NetworkModel
) -> list[tuple[tuple[int, ...], float]]:
    """Signed weights of the fundamental cycles of the basic graph.

    Diagnostic for non-tree basic graphs: each basic edge outside a spanning
    forest closes one cycle, whose weight is the alternating signed rate sum
    around it (class-to-station steps count -1, station-to-class +1): minus
    its weight as a closed path. The sign of a cycle weight depends on
    traversal direction; its zero-ness does not.
    """
    parent, closing = spanning_forest(model, sol.basic_edges)
    cycles = []
    for i, j in closing:
        cycle = (i, *tree_path(parent, j, i)[:-1])  # i -> j -> ... -> back to i
        _, m, _ = signed_path(cycle, closed=True, model=model)
        cycles.append((cycle, -float(m.sum())))
    return cycles
