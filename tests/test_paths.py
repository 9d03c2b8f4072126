from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fluidq import (
    CLASS_DEPENDENT,
    CLOSED,
    NEITHER,
    NotATree,
    OPEN,
    POOL_DEPENDENT,
    ZERO,
    InfeasibleModel,
    activity_set,
    basic_cycle_weights,
    enumerate_simple_paths,
    generate_critical_instance,
    load_model,
    signed_path,
    solve_static_allocation,
    validate_model,
)

from support import (
    assign_signs,
    classify_dependence,
    forest_oracle,
    path_weights,
    relabel_model,
    sign_class,
)

MODELS = Path(__file__).resolve().parents[1] / "models"


def _paths(model):
    sol = solve_static_allocation(model)
    return sol, enumerate_simple_paths(sol, activity_set(model), model)


def test_case_a_two_closed_paths(case_a):
    _, paths = _paths(case_a)
    assert len(paths) == 2
    by_leaves = {p.leaf_pair: p for p in paths}
    assert set(by_leaves) == {(2, 3), (1, 5)}
    assert all(p.kind == CLOSED for p in paths)


def test_case_b_open_and_closed(case_b):
    _, paths = _paths(case_b)
    by_leaves = {p.leaf_pair: p for p in paths}
    assert by_leaves[(2, 3)].kind == OPEN
    assert by_leaves[(1, 5)].kind == CLOSED


def test_case_a_signs_and_weights(case_a):
    _, paths = _paths(case_a)
    p = {q.leaf_pair: q for q in paths}[(2, 3)]
    assert p.vertices == (2, 4, 1, 3)
    signs = dict(p.signed_edges)
    assert signs[(2, 4)] == +1
    assert signs[(1, 4)] == -1
    assert signs[(1, 3)] == +1
    assert signs[(2, 3)] == -1
    assert p.class_weights.tolist() == [-7.0, 3.0]
    assert p.weight == -4.0

    q = {q.leaf_pair: q for q in paths}[(1, 5)]
    assert q.vertices == (1, 4, 2, 5)
    signs = dict(q.signed_edges)
    assert signs[(1, 4)] == +1
    assert signs[(2, 4)] == -1
    assert signs[(2, 5)] == +1
    assert signs[(1, 5)] == -1
    assert q.weight == 7.0


def test_case_b_weights(case_b):
    _, paths = _paths(case_b)
    p = {q.leaf_pair: q for q in paths}[(2, 3)]
    assert p.class_weights.tolist() == [-7.0, 4.0]
    assert p.weight == -3.0


def test_no_paths_single_class():
    m = validate_model(
        {"classes": 1, "stations": 3, "lambda": [6], "nu": [1, 1, 1], "mu": [[1, 2, 3]]}
    )
    _, paths = _paths(m)
    assert paths == []


def test_open_path_sign_alternation():
    # k+1 edges signed +1 and k signed -1 on any open path
    rng = np.random.default_rng(31)
    found = 0
    seed = 0
    while found < 10:
        seed += 1
        I = int(rng.integers(2, 4))
        J = int(rng.integers(2, 4))
        model, sol = generate_critical_instance(seed * 13, I, J)
        for p in enumerate_simple_paths(sol, activity_set(model), model):
            if p.kind != OPEN:
                continue
            found += 1
            plus = sum(1 for _, s in p.signed_edges if s > 0)
            minus = sum(1 for _, s in p.signed_edges if s < 0)
            assert plus == minus + 1


def test_signed_path_rejects_short_sequences(case_a):
    for vertices in ((1, 3), (1, 3, 2)):
        for closed in (False, True):
            with pytest.raises(ValueError):
                signed_path(vertices, closed, case_a)


def test_path_count_formula():
    rng = np.random.default_rng(8)
    for _ in range(20):
        I = int(rng.integers(1, 4))
        J = int(rng.integers(1, 4))
        model, sol = generate_critical_instance(int(rng.integers(0, 5000)), I, J)
        paths = enumerate_simple_paths(sol, activity_set(model), model)
        assert len(paths) == I * J - (I + J - 1)


def test_weight_equals_class_weight_sum_exactly():
    rng = np.random.default_rng(19)
    for _ in range(20):
        I = int(rng.integers(2, 4))
        J = int(rng.integers(2, 4))
        model, sol = generate_critical_instance(int(rng.integers(0, 5000)), I, J)
        for p in enumerate_simple_paths(sol, activity_set(model), model):
            assert p.weight == float(p.class_weights.sum())
            edges, m, dependence = signed_path(p.vertices, p.kind == CLOSED, model)
            assert edges == p.signed_edges and dependence == p.dependence
            assert np.array_equal(m, p.class_weights)
            assert float(m.sum()) == p.weight


def test_class_dependent_rates_give_zero_class_weights():
    m = validate_model(
        {"classes": 2, "stations": 2, "lambda": [4.5, 1], "nu": [1, 1], "mu": [[3, 3], [2, 2]]}
    )
    sol = solve_static_allocation(m)
    paths = enumerate_simple_paths(sol, activity_set(m), m)
    assert len(paths) == 1
    p = paths[0]
    assert p.dependence == CLASS_DEPENDENT
    assert signed_path(p.vertices, p.kind == CLOSED, m)[2] == CLASS_DEPENDENT
    assert np.abs(p.class_weights).max() <= 1e-9
    assert p.sign_class == "zero"


def test_pool_dependent_rates_classified():
    # rates depend only on the station; build the path directly
    m = validate_model(
        {"classes": 2, "stations": 2, "lambda": [5, 2], "nu": [1, 1], "mu": [[3, 2], [3, 2]]}
    )
    edges, class_weights, dependence = signed_path((2, 4, 1, 3), closed=True, model=m)
    assert edges == (((2, 4), +1), ((1, 4), -1), ((1, 3), +1), ((2, 3), -1))
    assert class_weights.tolist() == [1.0, -1.0]
    assert dependence == POOL_DEPENDENT


def test_nonzero_weight_is_neither(case_a):
    _, paths = _paths(case_a)
    for p in paths:
        assert p.dependence == NEITHER


def test_relabeling_preserves_weight_multiset(case_a):
    rng = np.random.default_rng(4)
    base_sol, base_paths = _paths(case_a)
    base_weights = sorted(p.weight for p in base_paths)
    for _ in range(6):
        cp = rng.permutation(case_a.num_classes)
        sp = rng.permutation(case_a.num_stations)
        relabeled = relabel_model(case_a, cp, sp)
        _, paths = _paths(relabeled)
        assert sorted(p.weight for p in paths) == pytest.approx(base_weights, abs=1e-9)


def test_enumeration_requires_tree():
    m = validate_model(
        {"classes": 2, "stations": 2, "lambda": [3, 2], "nu": [1, 1], "mu": [[3, 0], [0, 2]]}
    )
    sol = solve_static_allocation(m)
    with pytest.raises(NotATree):
        enumerate_simple_paths(sol, activity_set(m), m)


def test_cycle_weights_on_forced_cycle():
    # two classes fully wired to two stations with a square of basic activities
    m = validate_model(
        {"classes": 2, "stations": 2, "lambda": [5, 5], "nu": [1, 1], "mu": [[2, 3], [3, 2]]}
    )
    sol = solve_static_allocation(m)
    forced = replace(sol, basic_edges=frozenset({(1, 3), (1, 4), (2, 3), (2, 4)}))
    cycles = basic_cycle_weights(forced, m)
    assert len(cycles) == 1
    verts, weight = cycles[0]
    # the closing edge (2, 4), then the tree path back: 2 -> 4 -> 1 -> 3 -> 2, -2 +3 -2 +3
    assert verts == (2, 4, 1, 3)
    assert weight == 2.0


def test_cycle_weights_empty_on_tree(case_a):
    sol = solve_static_allocation(case_a)
    assert basic_cycle_weights(sol, case_a) == []


def test_path_serialization_round_trip(case_a):
    _, paths = _paths(case_a)
    d = paths[0].to_dict()
    assert d["kind"] in (OPEN, CLOSED)
    assert len(d["edges"]) == len(paths[0].signed_edges)
    assert d["weight"] == paths[0].weight


def _random_integer_model(rng):
    """Small integer rates with some pairs missing; a third of the draws make
    rates depend only on the class and a third only on the station, so zero,
    class- and pool-dependent paths turn up often."""
    I, J = (int(v) for v in rng.integers(2, 5, size=2))
    shape = {"free": (I, J), "class": (I, 1), "pool": (1, J)}[rng.choice(["free", "class", "pool"])]
    mu = np.broadcast_to(rng.integers(1, 4, size=shape), (I, J)) * (rng.random((I, J)) < 0.75)
    return validate_model({
        "classes": I, "stations": J, "lambda": rng.integers(1, 7, size=I).tolist(),
        "nu": rng.integers(1, 3, size=J).tolist(), "mu": mu.tolist(),
    })


def _oracle_models():
    yield from (load_model(str(p)) for p in sorted(MODELS.glob("*.json")))
    for size in (3, 4, 5, 6, 8, 12, 16):
        for seed in range(3 if size <= 6 else 1):
            yield generate_critical_instance(seed, size, size)[0]
    rng = np.random.default_rng(2015)
    for _ in range(320):
        yield _random_integer_model(rng)


def test_signed_walk_matches_old_walks():
    """Every SimplePath field and every cycle weight equals what the separate
    sign, weight, sign-class and dependence passes give, floats with ==."""
    seen = Counter()
    for model in _oracle_models():
        try:
            sol = solve_static_allocation(model)
        except InfeasibleModel:
            continue
        seen["models"] += 1
        acts = activity_set(model)
        # the basic graph itself, then every activity as basic: many cycles
        for edges in (sol.basic_edges, acts):
            for cycle, weight in basic_cycle_weights(replace(sol, basic_edges=edges), model):
                assert weight == -path_weights(assign_signs(cycle, True), model)[1]
                seen["cycles"] += 1
        try:
            paths = enumerate_simple_paths(sol, acts, model)
        except NotATree:
            seen["non-tree"] += 1
            continue
        forest = forest_oracle(model.num_classes + model.num_stations, sol.basic_edges)
        leaves = [(i, j) for i in model.class_labels for j in model.station_labels
                  if (i, j) not in sol.basic_edges]
        assert [p.leaf_pair for p in paths] == leaves
        for p in paths:
            closed = p.leaf_pair in acts
            vertices = tuple(forest.path(*p.leaf_pair))
            signed = assign_signs(vertices, closed)
            m, weight = path_weights(signed, model)
            assert p.kind == (CLOSED if closed else OPEN)
            assert p.vertices == vertices and p.signed_edges == signed
            assert p.class_weights.dtype == m.dtype and p.class_weights.shape == m.shape
            assert p.class_weights.tobytes() == m.tobytes()
            assert not p.class_weights.flags.writeable
            assert p.weight == weight
            assert p.sign_class == sign_class(weight)
            assert p.dependence == classify_dependence(signed, model)
            seen[p.dependence] += 1
            seen[p.sign_class] += 1
    assert seen["models"] >= 300, seen
    for reached in (CLASS_DEPENDENT, POOL_DEPENDENT, NEITHER, ZERO, "non-tree", "cycles"):
        assert seen[reached] > 0, reached
