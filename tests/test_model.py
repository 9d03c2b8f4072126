import numpy as np
import pytest

from fluidq import ModelError, activity_set, validate_model

from conftest import CASE_A
from support import relabel_model


def test_case_a_validates(case_a):
    assert case_a.num_classes == 2
    assert case_a.num_stations == 3
    assert list(case_a.class_labels) == [1, 2]
    assert list(case_a.station_labels) == [3, 4, 5]
    assert case_a.service_rates[case_a.edge_positions((2, 3))] == 1.0


@pytest.mark.parametrize("class_label, station_label", [(1, 2), (0, 3), (3, 4), (1, 6)])
def test_rate_refuses_labels_outside_range(case_a, class_label, station_label):
    # (1, 2) would read mu[0][2] through station position -1
    with pytest.raises(ValueError, match="is not a (class|station) label of this model$"):
        case_a.edge_positions((class_label, station_label))


def test_minimal_model(minimal):
    assert minimal.arrival_rates.tolist() == [2.0]
    assert minimal.capacities.tolist() == [1.0]


def test_negative_arrival_rate_rejected():
    with pytest.raises(ModelError, match="^every arrival rate must be strictly positive$"):
        validate_model({"classes": 2, "stations": 1, "lambda": [8, -4], "nu": [1], "mu": [[1], [1]]})


def test_zero_capacity_rejected():
    with pytest.raises(ModelError, match="^every capacity must be strictly positive$"):
        validate_model({"classes": 1, "stations": 1, "lambda": [1], "nu": [0], "mu": [[1]]})


def test_negative_service_rate_rejected():
    with pytest.raises(ModelError, match="^service rates must be nonnegative$"):
        validate_model({"classes": 1, "stations": 2, "lambda": [1], "nu": [1, 1], "mu": [[1, -0.5]]})


def test_dimension_mismatches_rejected():
    with pytest.raises(ModelError, match=r"^lambda has shape \(1,\), expected \(2,\)$"):
        validate_model({"classes": 2, "stations": 1, "lambda": [1], "nu": [1], "mu": [[1], [1]]})
    with pytest.raises(ModelError, match=r"^mu has shape \(1, 1\), expected \(1, 2\)$"):
        validate_model({"classes": 1, "stations": 2, "lambda": [1], "nu": [1, 1], "mu": [[1]]})
    with pytest.raises(ModelError, match=r"^nu has shape \(1,\), expected \(2,\)$"):
        validate_model({"classes": 1, "stations": 2, "lambda": [1], "nu": [1], "mu": [[1, 1]]})
    with pytest.raises(ModelError, match="^need at least one class and one station$"):
        validate_model({"classes": 0, "stations": 1, "lambda": [], "nu": [1], "mu": []})
    with pytest.raises(ModelError, match="^missing model field 'mu'$"):
        validate_model({"classes": 1, "stations": 1, "lambda": [1], "nu": [1]})
    # every entry is a number, but the rows of mu differ in length
    with pytest.raises(ModelError, match=r"^mu has rows of unequal lengths \[3, 2\]$"):
        validate_model({"classes": 2, "stations": 3, "lambda": [1, 1], "nu": [1, 1, 1],
                        "mu": [[1, 2, 3], [4, 5]]})


@pytest.mark.parametrize("raw", [[1, 2], None, "model", 3],
                         ids=["list", "null", "str", "int"])
def test_non_object_rejected(raw):
    # not a subscripting error from inside the checks: the message names what was given
    with pytest.raises(ModelError, match=f"a model is a JSON object, not {type(raw).__name__}$"):
        validate_model(raw)


@pytest.mark.parametrize(
    "count", [2.5, 2.0, "2", True], ids=["float", "integral-float", "str", "bool"]
)
@pytest.mark.parametrize("field", ["classes", "stations"])
def test_non_integer_count_rejected(field, count):
    raw = {"classes": 2, "stations": 2, "lambda": [1, 1], "nu": [1, 1], "mu": [[1, 1], [1, 1]]}
    with pytest.raises(ModelError, match="must be integers"):
        validate_model(raw | {field: count})


def test_numpy_integer_count_accepted():
    m = validate_model(
        {"classes": np.int64(2), "stations": np.int32(1), "lambda": [1, 1], "nu": [2],
         "mu": [[1], [1]]}
    )
    assert (m.num_classes, m.num_stations) == (2, 1)
    assert type(m.num_classes) is int and type(m.num_stations) is int


@pytest.mark.parametrize("field,value", [
    ("lambda", ["8", 4]),
    ("lambda", [8, True]),
    ("nu", [1, 1, "1"]),
    ("nu", [1, False, 1]),
    ("mu", [[3, 10, 1], [1, 4, "2"]]),
    ("mu", [[3, 10, True], [1, 4, 2]]),
    ("mu", np.array([[1, 1, 0], [1, 0, 1]], dtype=bool)),
    ("lambda", np.array(["8", "4"])),
], ids=["lambda-str", "lambda-bool", "nu-str", "nu-bool", "mu-str", "mu-bool",
        "mu-bool-array", "lambda-str-array"])
def test_non_numeric_rate_rejected(field, value):
    with pytest.raises(ModelError, match=f"{field} entries must be ints or floats"):
        validate_model(CASE_A | {field: value})


def test_numpy_rate_arrays_accepted():
    m = validate_model(CASE_A | {"lambda": np.array([8, 4]), "nu": np.ones(3, dtype=np.float32),
                                 "mu": np.array(CASE_A["mu"], dtype=np.int32)})
    assert m.arrival_rates.tolist() == [8.0, 4.0]
    assert m.capacities.tolist() == [1.0, 1.0, 1.0]
    assert m.service_rates.tolist() == [[3.0, 10.0, 1.0], [1.0, 4.0, 2.0]]


def test_rate_beyond_float_range_rejected():
    with pytest.raises(ModelError, match="malformed model data"):
        validate_model(CASE_A | {"lambda": [10**400, 4]})


def test_non_finite_rejected():
    with pytest.raises(ModelError, match="^lambda contains a non-finite entry$"):
        validate_model({"classes": 1, "stations": 1, "lambda": [float("nan")], "nu": [1], "mu": [[1]]})


def test_model_arrays_are_readonly(case_a):
    with pytest.raises(ValueError, match="read-only"):
        case_a.arrival_rates[0] = 5.0


def test_activity_set_case_a(case_a):
    assert sorted(activity_set(case_a)) == [
        (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
    ]


def test_activity_set_case_b_excludes_disabled(case_b):
    edges = activity_set(case_b)
    assert (2, 3) not in edges
    assert len(edges) == 5


def test_activity_set_single_pair():
    m = validate_model(
        {"classes": 2, "stations": 2, "lambda": [1, 1], "nu": [1, 1], "mu": [[2, 0], [0, 0]]}
    )
    assert activity_set(m) == frozenset({(1, 3)})


def test_activity_set_is_positive_rates():
    rng = np.random.default_rng(5)
    for _ in range(20):
        I, J = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        mu = np.where(rng.random((I, J)) < 0.4, 0.0, rng.uniform(0, 5, (I, J)))
        m = validate_model(
            {"classes": I, "stations": J, "lambda": [1] * I, "nu": [1] * J, "mu": mu.tolist()}
        )
        expect = {(i + 1, I + 1 + j) for i, j in np.argwhere(mu > 0)}
        assert activity_set(m) == expect


def test_relabeling_commutes(case_a):
    rng = np.random.default_rng(11)
    for _ in range(10):
        cp = rng.permutation(case_a.num_classes)
        sp = rng.permutation(case_a.num_stations)
        relabeled = relabel_model(case_a, cp, sp)
        # activities computed after relabeling match relabeled activities
        expect = set()
        for i, j in activity_set(case_a):
            new_i = int(np.flatnonzero(cp == case_a.class_pos(i))[0]) + 1
            new_j = int(np.flatnonzero(sp == case_a.station_pos(j))[0]) + case_a.num_classes + 1
            expect.add((new_i, new_j))
        assert activity_set(relabeled) == expect
        assert np.array_equal(
            relabeled.service_rates, case_a.service_rates[np.ix_(cp, sp)]
        )
