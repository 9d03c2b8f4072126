"""Planted-certificate instances: critically loaded networks whose unique
optimal allocation and basic-activity tree are known before any solve.

Station prices w_j > 0 with sum 1 and class prices y_i > 0 form a feasible
dual solution of the allocation program (y_i * mu_ij * nu_j <= w_j). Tree
pairs get the rate mu_ij = w_j / (y_i * nu_j), so their dual constraints are
tight; every other activity gets a rate strictly below that bound (at most
0.9 of it), so its constraint is slack. A positive allocation on the tree
whose columns each sum to 1 fixes lambda. Its load, 1, equals the dual
objective sum_i y_i * lambda_i, so it is optimal; strict complementary
slackness confines every optimal allocation to the tree, and a spanning tree
carries only one allocation that serves lambda exactly. The instance is
therefore critically loaded with a unique optimum whose basic graph is the
planted tree, at any size and without rejection sampling.
"""

from __future__ import annotations

import numpy as np

EXTRA_ACTIVITY_PROB = 0.5
EXTRA_RATE_SHARE = (0.1, 0.9)   # share of the dual bound w_j / (y_i nu_j)


def spanning_tree(rng: np.random.Generator, I: int, J: int) -> list[tuple[int, int]]:
    """Uniform spanning tree of the complete bipartite graph K_{I,J}.

    First-entry edges of a random walk (Aldous-Broder). Vertices 0..I-1 are
    classes and I..I+J-1 stations; edges are (class position, station
    position).
    """
    total = I + J
    current = int(rng.integers(total))
    visited = {current}
    edges: list[tuple[int, int]] = []
    while len(visited) < total:
        nxt = I + int(rng.integers(J)) if current < I else int(rng.integers(I))
        if nxt not in visited:
            visited.add(nxt)
            i, s = (current, nxt) if current < I else (nxt, current)
            edges.append((i, s - I))
        current = nxt
    return edges


def planted_instance(
    rng: np.random.Generator, I: int, J: int
) -> tuple[dict, frozenset[tuple[int, int]]]:
    """Draw one planted instance.

    Returns the model in the on-disk JSON layout and the planted tree as
    vertex-labelled edges (class i+1, station I+1+j), the form the analysis
    report uses for ``basic_edges``.
    """
    tree = spanning_tree(rng, I, J)
    on_tree = np.zeros((I, J), dtype=bool)
    for i, j in tree:
        on_tree[i, j] = True

    w = rng.uniform(0.5, 1.5, size=J)
    w /= w.sum()
    y = rng.uniform(0.1, 1.0, size=I) / J
    nu = rng.uniform(0.5, 2.0, size=J)
    bound = w[None, :] / (y[:, None] * nu[None, :])

    extra = ~on_tree & (rng.random((I, J)) < EXTRA_ACTIVITY_PROB)
    share = rng.uniform(*EXTRA_RATE_SHARE, size=(I, J))
    mu = np.where(on_tree, bound, np.where(extra, share * bound, 0.0))

    allocation = np.where(on_tree, rng.uniform(0.1, 1.0, size=(I, J)), 0.0)
    allocation /= allocation.sum(axis=0, keepdims=True)
    lam = (mu * nu[None, :] * allocation).sum(axis=1)

    raw = {
        "classes": I,
        "stations": J,
        "lambda": lam.tolist(),
        "nu": nu.tolist(),
        "mu": mu.tolist(),
    }
    return raw, frozenset((i + 1, I + 1 + j) for i, j in tree)
