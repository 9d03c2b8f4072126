"""Validated network primitives shared by every other module.

A model couples per-class fluid arrival rates, per-station capacities and the
class-by-station service-rate matrix. Classes carry vertex labels
1..num_classes and stations num_classes+1..num_classes+num_stations; matrices
are indexed positionally (row = class label - 1, column = station label -
num_classes - 1). Edge sets always use vertex labels, never positions.
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


class DimensionMismatch(ModelError):
    pass


class NonPositiveRate(ModelError):
    pass


class NegativeServiceRate(ModelError):
    pass


def _readonly(values: Any, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


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
        return label - 1

    def station_pos(self, label: int) -> int:
        return label - self.num_classes - 1

    def rate(self, class_label: int, station_label: int) -> float:
        """Service rate of the (class, station) pair, by vertex labels."""
        return float(
            self.service_rates[self.class_pos(class_label), self.station_pos(station_label)]
        )

    def edge_positions(self, edge: tuple[int, int]) -> tuple[int, int]:
        return self.class_pos(edge[0]), self.station_pos(edge[1])


def validate_model(raw: Mapping[str, Any]) -> NetworkModel:
    """Validate candidate data and return an immutable :class:`NetworkModel`.

    ``raw`` is a mapping with keys ``classes``, ``stations``, ``lambda``,
    ``nu`` and ``mu`` (the on-disk JSON layout; arrays are positional).

    Raises:
        ModelError: a count that is not an integer (a bool, float or string
            is refused, not converted), or malformed array data.
        DimensionMismatch: counts below one, missing fields or arrays whose
            lengths disagree with the declared counts.
        NonPositiveRate: an arrival rate or capacity that is not > 0.
        NegativeServiceRate: a service rate below zero.
    """
    try:
        counts = (raw["classes"], raw["stations"])
        lam = np.asarray(raw["lambda"], dtype=float)
        nu = np.asarray(raw["nu"], dtype=float)
        mu = np.asarray(raw["mu"], dtype=float)
    except KeyError as exc:
        raise DimensionMismatch(f"missing model field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ModelError(f"malformed model data: {exc}") from None
    if any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) for c in counts):
        raise ModelError(f"classes and stations must be integers, got {counts}")
    num_classes, num_stations = (int(c) for c in counts)

    if num_classes < 1 or num_stations < 1:
        raise DimensionMismatch("need at least one class and one station")
    if lam.shape != (num_classes,):
        raise DimensionMismatch(
            f"lambda has shape {lam.shape}, expected ({num_classes},)"
        )
    if nu.shape != (num_stations,):
        raise DimensionMismatch(f"nu has shape {nu.shape}, expected ({num_stations},)")
    if mu.shape != (num_classes, num_stations):
        raise DimensionMismatch(
            f"mu has shape {mu.shape}, expected ({num_classes}, {num_stations})"
        )
    for name, arr in (("lambda", lam), ("nu", nu), ("mu", mu)):
        if not np.isfinite(arr).all():
            raise ModelError(f"{name} contains a non-finite entry")
    if (lam <= 0).any():
        raise NonPositiveRate("every arrival rate must be strictly positive")
    if (nu <= 0).any():
        raise NonPositiveRate("every capacity must be strictly positive")
    if (mu < 0).any():
        raise NegativeServiceRate("service rates must be nonnegative")

    return NetworkModel(
        num_classes=num_classes,
        num_stations=num_stations,
        arrival_rates=_readonly(lam),
        capacities=_readonly(nu),
        service_rates=_readonly(mu),
    )


def activity_set(model: NetworkModel) -> frozenset[tuple[int, int]]:
    """Return the pairs along which service is possible (rate > 0)."""
    return frozenset(
        (i, j)
        for i in model.class_labels
        for j in model.station_labels
        if model.rate(i, j) > 0.0
    )


def model_to_dict(model: NetworkModel) -> dict[str, Any]:
    return {
        "classes": model.num_classes,
        "stations": model.num_stations,
        "lambda": model.arrival_rates.tolist(),
        "nu": model.capacities.tolist(),
        "mu": model.service_rates.tolist(),
    }


def load_model(path: str) -> NetworkModel:
    """Read and validate a model JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return validate_model(raw)


def save_model(model: NetworkModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
