"""Simple paths in the basic-activity tree: enumeration, signs and weights.

Every class-station pair that is not a basic activity induces exactly one
simple path: the unique tree path between the two vertices, oriented so the
class is the starting leaf. ``_signed_paths``, the only walk of the
``spanning_forest`` and the only place a ``SimplePath`` is made, builds all
paths of a call in one batch, and the cycles of a non-tree basic graph as
closed paths: +1 on edges traversed class to station, -1 on edges traversed
station to class and on a closed path's leaf pair; the per-class signed rate
sums, whose total is the weight and gives the sign class; and the class- or
pool-dependence the zero paths' verdicts read. A simple path meets each class
and station at most twice, and fl(a + b) does not depend on the order of two
terms, so each sum is bit for bit a walk's in edge order from 0.0.
``AnalysisReport.to_dict`` writes the JSON form.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

import numpy as np

from .model import DEFAULT_TOL, NetworkModel
from .static_fluid import FluidSolution, _to_root, _tree_check, spanning_forest

OPEN = "open"
CLOSED = "closed"

NEGATIVE = "negative"
ZERO = "zero"
POSITIVE = "positive"

CLASS_DEPENDENT = "class"
POOL_DEPENDENT = "pool"
NEITHER = "neither"

SignedEdge = tuple[tuple[int, int], int]


class NotATree(ValueError):
    """Path enumeration requires the basic graph to be a spanning tree; the
    message is the tree test's violations, joined by "; "."""


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


def _signed_paths(parent: dict[int, int], leaves: list, model: NetworkModel) -> list[SimplePath]:
    """Per (class i, station j, closed): the path up the ``parent`` forest
    from i to the lowest common ancestor, then down to j, in i's tree. With
    rho_k the rate of edge k and rho_-1 the closing edge's (0.0 if open),
    vertex k sums rho_k - rho_(k-1) if a class and minus that if a station."""
    I, tol = model.num_classes, DEFAULT_TOL
    up = {v: tuple(_to_root(parent, v)) for v in parent}
    order = sorted(up, key=lambda v: len(up[v]))  # the roots, then parents before children
    rise = {v: () for v in order if len(up[v]) == 1}  # the signed steps up each chain
    fall = dict(rise)  # and down it, empty at every root
    for v in order[len(rise):]:
        e = ((v, parent[v]), +1) if v <= I else ((parent[v], v), -1)  # classes are 1..I
        rise[v], fall[v] = (e, *rise[parent[v]]), (*fall[parent[v]], (e[0], -e[1]))
    rate, K = (model.service_rates + 0.0).tolist(), I + 1  # -0.0 read as 0.0, as 0.0 + -0.0 is
    walks, at, class_sums, dependence, last = [], [], [], [], None
    for p, (i, j, closed) in enumerate(leaves):
        if i != last:  # leaves come grouped by class
            on_up, last = set(up[i]).__contains__, i
        top = len(up[next(filter(on_up, up[j]))])  # the common ancestor's chain length
        v = up[i][:len(up[i]) - top + 1] + up[j][:len(up[j]) - top][::-1]
        s = rise[i][:len(up[i]) - top] + fall[j][top - 1:] + (((i, j), -1),) * closed
        walks.append((v, s))
        rho = [rate[a - 1][b - K] for (a, b), _ in s]
        if not closed:
            rho.append(0.0)
        d = list(map(sub, rho, [rho[-1], *rho[:-1]]))
        at += map((p * I - 1).__add__, v[0::2])  # the classes' places in one (P, I) matrix
        class_sums += (c := d[0::2])
        dependence.append(CLASS_DEPENDENT if -tol <= min(c) and max(c) <= tol else POOL_DEPENDENT
                          if -tol <= min(st := d[1::2]) and max(st) <= tol else NEITHER)
    w = np.zeros((len(leaves), I))
    w.put(at, class_sums)
    w.setflags(write=False)
    return [  # the fields in order; the rows of w are views
        SimplePath(CLOSED if len(s) == len(v) else OPEN, v[0], v[-1], v, s, row, weight,
                   ZERO if abs(weight) <= tol else NEGATIVE if weight < 0 else POSITIVE, dep)
        for (v, s), row, weight, dep in zip(walks, w, w.sum(axis=1).tolist(), dependence)
    ]


def enumerate_simple_paths(
    sol: FluidSolution, acts: frozenset[tuple[int, int]], model: NetworkModel
) -> list[SimplePath]:
    """One simple path per non-basic (class, station) pair.

    The count is always I*J - (I + J - 1) on a spanning tree. Paths come back
    sorted by leaf pair for deterministic downstream iteration.

    Raises:
        NotATree: the basic graph is not a spanning tree of all vertices, by
            ``static_fluid._tree_check``, the test ``check_assumptions`` runs
            too; the message is its violations.
    """
    parent, violations = _tree_check(model, sol.basic_edges)
    if violations:
        raise NotATree("; ".join(violations))
    leaves = [(i, j, (i, j) in acts) for i in model.class_labels for j in model.station_labels
              if (i, j) not in sol.basic_edges]
    return _signed_paths(parent, leaves, model)


def basic_cycle_weights(
    sol: FluidSolution, model: NetworkModel
) -> list[tuple[tuple[int, ...], float]]:
    """Signed weights of the fundamental cycles of the basic graph.

    Diagnostic for non-tree basic graphs: each basic edge (i, j) outside a
    spanning forest closes the cycle i -> j -> ... -> i, the closed forest path
    from i to j reversed. Its weight, the alternating signed rate sum around it
    (class-to-station steps count -1, station-to-class +1), is the path's, as
    reversal negates each class sum exactly; -(0.0 - w) keeps a zero cycle's
    -0.0. Its sign depends on traversal direction; its zero-ness does not.
    """
    parent, closing = spanning_forest(model, sol.basic_edges)
    paths = _signed_paths(parent, [(i, j, True) for i, j in closing], model)
    return [((p.class_leaf, *p.vertices[:0:-1]), -(0.0 - p.weight)) for p in paths]
