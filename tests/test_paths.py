import numpy as np
import pytest

from fluidq import (
    CLASS_DEPENDENT,
    CLOSED,
    NEITHER,
    NotATree,
    OPEN,
    POOL_DEPENDENT,
    activity_set,
    assign_signs,
    basic_cycle_weights,
    classify_dependence,
    enumerate_simple_paths,
    generate_critical_instance,
    path_weights,
    solve_static_allocation,
    validate_model,
)

from support import relabel_model


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


def test_assign_signs_rejects_short_sequences():
    with pytest.raises(ValueError):
        assign_signs((1, 3), closed=False)


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
            m, w = path_weights(p.signed_edges, model)
            assert np.array_equal(m, p.class_weights)
            assert w == p.weight


def test_class_dependent_rates_give_zero_class_weights():
    m = validate_model(
        {"classes": 2, "stations": 2, "lambda": [4.5, 1], "nu": [1, 1], "mu": [[3, 3], [2, 2]]}
    )
    sol = solve_static_allocation(m)
    paths = enumerate_simple_paths(sol, activity_set(m), m)
    assert len(paths) == 1
    p = paths[0]
    assert classify_dependence(p.signed_edges, m) == CLASS_DEPENDENT
    assert np.abs(p.class_weights).max() <= 1e-9
    assert p.sign_class == "zero"


def test_pool_dependent_rates_classified():
    # rates depend only on the station; build the path directly
    m = validate_model(
        {"classes": 2, "stations": 2, "lambda": [5, 2], "nu": [1, 1], "mu": [[3, 2], [3, 2]]}
    )
    edges = (((2, 4), +1), ((1, 4), -1), ((1, 3), +1), ((2, 3), -1))
    assert classify_dependence(edges, m) == POOL_DEPENDENT


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
    from dataclasses import replace

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
