"""Validated network primitives shared by every other module.

A model couples per-class fluid arrival rates, per-station capacities and the
class-by-station service-rate matrix. Classes carry vertex labels
1..num_classes and stations num_classes+1..num_classes+num_stations; matrices
are indexed positionally (row = class label - 1, column = station label -
num_classes - 1). Edge sets always use vertex labels, never positions.
``NetworkModel.class_labels`` and ``station_labels`` are the only conversion
from a position to a label: ``class_labels[i]`` labels row i. ``class_pos``
and ``station_pos`` are its inverse, and refuse a label out of range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

# The one absolute tolerance of the static layer: every zero, sign and
# equality test downstream uses it, and no call can set another. Input rates
# are plain decimals of magnitude ~1-10, so exact conditions such as "this
# signed sum vanishes" are decidable on doubles with a wide margin.
DEFAULT_TOL = 1e-9


class ModelError(ValueError):
    """Candidate model data cannot form a valid network."""


@dataclass(frozen=True)
class NetworkModel:
    """Immutable primitive data of a multiclass parallel-server network."""

    num_classes: int
    num_stations: int
    arrival_rates: np.ndarray   # (num_classes,), strictly positive
    capacities: np.ndarray      # (num_stations,), strictly positive
    service_rates: np.ndarray   # (num_classes, num_stations), nonnegative

    @property
    def class_labels(self) -> range:
        return range(1, self.num_classes + 1)

    @property
    def station_labels(self) -> range:
        first = self.num_classes + 1
        return range(first, first + self.num_stations)

    def class_pos(self, label: int) -> int:
        if 0 < label <= self.num_classes:
            return label - 1
        raise ValueError(f"{label} is not a class label of this model")

    def station_pos(self, label: int) -> int:
        if 0 < label - self.num_classes <= self.num_stations:
            return label - self.num_classes - 1
        raise ValueError(f"{label} is not a station label of this model")

    def edge_positions(self, edge: tuple[int, int]) -> tuple[int, int]:
        return self.class_pos(edge[0]), self.station_pos(edge[1])


def _as_int(value: Any, name: str) -> int:
    """A seed, a count or a size as an int, if it is an int or a numpy
    integer: a bool, a float or anything else is a ValueError, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _rates(raw: Mapping[str, Any], name: str) -> np.ndarray:
    """``raw[name]`` as a fresh read-only float array, if every entry is an int
    or a float: a bool or a string is refused, not converted, and so is a
    numpy array of either. Rows of unequal length are a ModelError."""
    entries = np.asarray(raw[name], dtype=object)
    if entries.ndim == 1 and entries.size and all(np.ndim(v) == 1 for v in entries):
        raise ModelError(f"{name} has rows of unequal lengths {[len(v) for v in entries]}")
    if not all(isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
               for v in entries.flat):
        raise TypeError(f"{name} entries must be ints or floats")
    rates = entries.astype(float)
    rates.setflags(write=False)
    return rates


def validate_model(raw: Mapping[str, Any]) -> NetworkModel:
    """Validate candidate data and return an immutable :class:`NetworkModel`.

    ``raw`` is a mapping with keys ``classes``, ``stations``, ``lambda``,
    ``nu`` and ``mu`` (the on-disk JSON layout; arrays are positional).

    Raises:
        ModelError: data that is not a mapping, a count that is not an
            integer, or a rate that is not an int or a float (a bool or string
            is refused, not converted), or malformed array data; counts below
            one, missing fields, rows of unequal length or arrays whose lengths
            disagree with the declared counts; an arrival rate or capacity
            that is not > 0, or a service rate below zero.
    """
    if not isinstance(raw, Mapping):
        raise ModelError(f"a model is a JSON object, not {type(raw).__name__}")
    try:
        counts = (raw["classes"], raw["stations"])
        lam, nu, mu = (_rates(raw, name) for name in ("lambda", "nu", "mu"))
    except KeyError as exc:
        raise ModelError(f"missing model field {exc}") from None
    except ModelError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"malformed model data: {exc}") from None
    if any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) for c in counts):
        raise ModelError(f"classes and stations must be integers, got {counts}")
    num_classes, num_stations = (int(c) for c in counts)

    if num_classes < 1 or num_stations < 1:
        raise ModelError("need at least one class and one station")
    for name, arr, shape in (("lambda", lam, (num_classes,)), ("nu", nu, (num_stations,)),
                             ("mu", mu, (num_classes, num_stations))):
        if arr.shape != shape:
            raise ModelError(f"{name} has shape {arr.shape}, expected {shape}")
    for name, arr in (("lambda", lam), ("nu", nu), ("mu", mu)):
        if not np.isfinite(arr).all():
            raise ModelError(f"{name} contains a non-finite entry")
    if (lam <= 0).any():
        raise ModelError("every arrival rate must be strictly positive")
    if (nu <= 0).any():
        raise ModelError("every capacity must be strictly positive")
    if (mu < 0).any():
        raise ModelError("service rates must be nonnegative")

    return NetworkModel(
        num_classes=num_classes,
        num_stations=num_stations,
        arrival_rates=lam,
        capacities=nu,
        service_rates=mu,
    )


def lp_columns(model: NetworkModel) -> tuple[np.ndarray, np.ndarray]:
    """Class and station positions of the activities (mu_ij > 0) in row-major
    order: the LP columns of the static programs. Pairs without service get
    no variable, so they carry no allocation. The one test of mu_ij > 0 in
    the static layer."""
    return np.nonzero(model.service_rates > 0.0)


def activity_set(model: NetworkModel) -> frozenset[tuple[int, int]]:
    """The pairs along which service is possible: the ``lp_columns``, by vertex labels."""
    ci, sj = model.class_labels, model.station_labels
    return frozenset((ci[i], sj[j]) for i, j in zip(*(c.tolist() for c in lp_columns(model))))


def model_to_dict(model: NetworkModel) -> dict[str, Any]:
    return {
        "classes": model.num_classes,
        "stations": model.num_stations,
        "lambda": model.arrival_rates.tolist(),
        "nu": model.capacities.tolist(),
        "mu": model.service_rates.tolist(),
    }


def load_model(path: str) -> NetworkModel:
    """Read and validate a model JSON file; a file that cannot be decoded as
    UTF-8 JSON (invalid, or nested too deep) raises ModelError too."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ModelError(f"cannot decode {path} as JSON: {exc}") from None
    return validate_model(raw)
