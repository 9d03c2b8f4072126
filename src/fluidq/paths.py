"""Simple paths in the basic-activity tree: enumeration, signs and weights.

Every class-station pair that is not a basic activity induces exactly one
simple path: the unique tree path between the two vertices, oriented so the
class is the starting leaf. Walking the path from the station leaf back to
the class leaf assigns +1 to edges traversed station-to-class and -1 to edges
traversed class-to-station; a closed path (leaf pair is itself an activity)
additionally carries the leaf pair with sign -1. The per-class signed rate
sums and their total are the path's weight data, and the weight's sign is
what throughput analysis consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


def assign_signs(vertices: Sequence[int], closed: bool) -> tuple[SignedEdge, ...]:
    """Sign the edges of an oriented simple path.

    ``vertices`` alternates class, station, class, ... station. Edges at even
    offsets pair a class with its own station and get +1; odd offsets hand
    over to the next class and get -1. The closing leaf-pair edge, present
    only on closed paths, gets -1.
    """
    if len(vertices) < 4 or len(vertices) % 2:
        raise ValueError("a simple path has an even vertex count of at least 4")
    signed: list[SignedEdge] = []
    for idx in range(len(vertices) - 1):
        u, v = vertices[idx], vertices[idx + 1]
        if idx % 2 == 0:
            signed.append(((u, v), +1))
        else:
            signed.append(((v, u), -1))
    if closed:
        signed.append(((vertices[0], vertices[-1]), -1))
    return tuple(signed)


def path_weights(
    signed_edges: Iterable[SignedEdge], model: NetworkModel
) -> tuple[np.ndarray, float]:
    """Per-class signed rate sums and their total along signed edges."""
    m = np.zeros(model.num_classes)
    for (i, j), s in signed_edges:
        m[model.class_pos(i)] += s * model.rate(i, j)
    m.setflags(write=False)
    return m, float(m.sum())


def classify_dependence(signed_edges: Iterable[SignedEdge], model: NetworkModel) -> str:
    """Class-dependent if every class's signed sum along the path vanishes,
    pool-dependent if every station's does; class-dependence wins when both
    hold. Either one forces a zero path."""
    per_class: dict[int, float] = {}
    per_station: dict[int, float] = {}
    for (i, j), s in signed_edges:
        term = s * model.rate(i, j)
        per_class[i] = per_class.get(i, 0.0) + term
        per_station[j] = per_station.get(j, 0.0) + term
    if all(abs(v) <= DEFAULT_TOL for v in per_class.values()):
        return CLASS_DEPENDENT
    if all(abs(v) <= DEFAULT_TOL for v in per_station.values()):
        return POOL_DEPENDENT
    return NEITHER


def _sign_class(weight: float) -> str:
    if abs(weight) <= DEFAULT_TOL:
        return ZERO
    return NEGATIVE if weight < 0 else POSITIVE


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
            signed = assign_signs(vertices, closed)
            m, weight = path_weights(signed, model)
            paths.append(
                SimplePath(
                    kind=CLOSED if closed else OPEN,
                    class_leaf=i,
                    station_leaf=j,
                    vertices=vertices,
                    signed_edges=signed,
                    class_weights=m,
                    weight=weight,
                    sign_class=_sign_class(weight),
                    dependence=classify_dependence(signed, model),
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
        _, weight = path_weights(assign_signs(cycle, closed=True), model)
        cycles.append((cycle, -weight))
    return cycles
