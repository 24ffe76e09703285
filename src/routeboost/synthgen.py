"""Deterministic generator of production-line datasets.

Each generated item follows one production route sampled by probability;
only signals of traversed units get values, everything else stays
missing, and the target is a linear function of the traversed signals
plus Gaussian noise. Missingness is therefore exactly route-determined,
the structure that route-aware ensembles exploit.

Randomness is counter-based (Philox; Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011). The rows are cut into blocks of
``_BLOCK_ROWS`` (1,024), and block b of a dataset with seed s draws from
its own stream, that of ``Generator(Philox(key=(s << 64) | b))``. Each
block makes the same three full-size calls, whatever the table's length:
``random(B)`` for the route picks, ``standard_normal((B, n_normal))``
for the normal columns in column order with the target's noise last,
and ``random((B, n_uniform))`` for the uniform columns. A row keeps the
draws of its route's columns and its other cells stay missing. The
values are therefore reproducible across platforms, depend only on the
seed and the row's index, and generating more rows never reshuffles
earlier ones.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .data import Dataset, SignalId, is_name_list, is_number, number, signal_names
from .errors import InvalidLayout, NonFinite

PROBABILITY_TOL = 1e-9


@dataclass(frozen=True)
class SignalSpec:
    """One sensor channel: name plus value distribution.

    ``dist`` is ("normal", mean, sd) or ("uniform", low, high).
    """

    name: SignalId
    dist: tuple

    def validate(self) -> None:
        kind, *params = self.dist or (None,)
        if kind not in ("normal", "uniform"):
            raise InvalidLayout(f"signal {self.name!r}: unknown distribution {kind!r}")
        if len(params) != 2 or not all(is_number(p) for p in params):
            raise InvalidLayout(
                f"signal {self.name!r}: {kind} needs two numbers, got {params!r}"
            )
        if kind == "normal" and params[1] < 0:
            raise InvalidLayout(f"signal {self.name!r}: negative sd")
        if kind == "uniform" and params[1] < params[0]:
            raise InvalidLayout(f"signal {self.name!r}: empty uniform range")


@dataclass(frozen=True)
class Unit:
    name: str
    signals: tuple[SignalSpec, ...]


@dataclass(frozen=True)
class Route:
    name: str
    units: tuple[str, ...]
    probability: float


@dataclass(frozen=True)
class TargetRule:
    """Linear target: intercept + sum of coeff * value over traversed signals.

    Signals of units an item did not visit contribute nothing; their
    causal effect exists only when the unit is visited.
    """

    target: SignalId
    intercept: float
    coefficients: Mapping[SignalId, float]
    noise_sigma: float


@dataclass(frozen=True)
class PlantLayout:
    units: tuple[Unit, ...]
    routes: tuple[Route, ...]
    target_rule: TargetRule

    def validate(self) -> None:
        unit_names = [u.name for u in self.units]
        signals = self.signal_names()
        names = unit_names + signals + [r.name for r in self.routes]
        if not is_name_list(names + [self.target_rule.target]):
            raise InvalidLayout("unit, route, signal and target names must be strings")
        if len(set(unit_names)) != len(unit_names):
            raise InvalidLayout("unit names must be unique")
        if len(set(signals)) != len(signals):
            raise InvalidLayout("signal names must be globally unique")
        if self.target_rule.target in signals:
            raise InvalidLayout("target name collides with a unit signal")
        for unit in self.units:
            for sig in unit.signals:
                sig.validate()
        if not self.routes:
            raise InvalidLayout("layout declares no routes")
        rule = self.target_rule
        numbers = [(f"route {r.name!r}: probability", r.probability) for r in self.routes]
        numbers += [(f"coefficient of {s!r}", c) for s, c in rule.coefficients.items()]
        numbers += [("intercept", rule.intercept), ("noise_sigma", rule.noise_sigma)]
        try:
            for field, value in numbers:
                number(value, field)
        except ValueError as exc:
            raise InvalidLayout(str(exc)) from None
        total = 0.0
        for route in self.routes:
            if route.probability <= 0:
                raise InvalidLayout(f"route {route.name!r}: non-positive probability")
            total += route.probability
            for name in route.units:
                if name not in unit_names:
                    raise InvalidLayout(f"route {route.name!r}: unknown unit {name!r}")
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise InvalidLayout(f"route probabilities sum to {total!r}, expected 1")
        for name in rule.coefficients:
            if name not in signals:
                raise InvalidLayout(f"coefficient references unknown signal {name!r}")
        if rule.noise_sigma < 0:
            raise InvalidLayout("noise_sigma must be non-negative")

    def signal_names(self) -> list[SignalId]:
        return [sig.name for unit in self.units for sig in unit.signals]

    def unit(self, name: str) -> Unit:
        for unit in self.units:
            if unit.name == name:
                return unit
        raise InvalidLayout(f"unknown unit {name!r}")

    def route_signals(self, route: Route) -> set[SignalId]:
        out: set[SignalId] = set()
        for name in route.units:
            out.update(sig.name for sig in self.unit(name).signals)
        return out


@dataclass(frozen=True)
class GenSpec:
    layout: PlantLayout
    n_rows: int
    seed: int

    def __post_init__(self) -> None:
        # NumPy integers are taken as the int they hold; bools and floats,
        # which would be read as another count or seed, are refused.
        for field in ("n_rows", "seed"):
            value = getattr(self, field)
            try:
                if isinstance(value, (bool, np.bool_)):
                    raise TypeError
                object.__setattr__(self, field, operator.index(value))
            except TypeError:
                raise InvalidLayout(f"{field} must be an integer, got {value!r}") from None
        if self.n_rows < 1:
            raise InvalidLayout("n_rows must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise InvalidLayout("seed must be an unsigned 64-bit integer")


# Calibrated so that, with the benchmark's default ridge penalty, the wide
# stratum is the most predictable, the narrow stratum lands near R2 0.55,
# and the route-aware chain clearly outperforms the complete-case baseline.
DEFAULT_NOISE_SIGMA = 1.55

_UNIT3 = math.sqrt(3.0)  # half-width of a variance-1 uniform


def default_layout() -> PlantLayout:
    """Steel-line style layout: 7 units, 2 signals each, 3 routes.

    Routes: narrow (PLTCM, CAL) probability 0.5, balanced (HSM1, PLTCM,
    CAL) probability 0.3, wide (all units) probability 0.2; the route
    signal sets are strictly nested. Every signal carries a nonzero
    target coefficient, with enough weight upstream that items on the
    wide route are strictly more predictable.
    """

    def normal(name: str) -> SignalSpec:
        return SignalSpec(name, ("normal", 0.0, 1.0))

    units = (
        Unit("DES", (normal("DES_1"), SignalSpec("DES_2", ("uniform", -_UNIT3, _UNIT3)))),
        Unit("BOF", (normal("BOF_1"), normal("BOF_2"))),
        Unit("CCM", (normal("CCM_1"), normal("CCM_2"))),
        Unit("RHLF", (normal("RHLF_1"), normal("RHLF_2"))),
        Unit("HSM1", (normal("HSM1_1"), normal("HSM1_2"))),
        Unit("PLTCM", (normal("PLTCM_1"), normal("PLTCM_2"))),
        Unit("CAL", (normal("CAL_1"), normal("CAL_2"))),
    )
    routes = (
        Route("narrow", ("PLTCM", "CAL"), 0.5),
        Route("balanced", ("HSM1", "PLTCM", "CAL"), 0.3),
        Route("wide", ("DES", "BOF", "CCM", "RHLF", "HSM1", "PLTCM", "CAL"), 0.2),
    )
    coefficients = {
        "DES_1": 0.81,
        "DES_2": 0.69,
        "BOF_1": 0.75,
        "BOF_2": 0.75,
        "CCM_1": 0.78,
        "CCM_2": 0.72,
        "RHLF_1": 0.75,
        "RHLF_2": 0.83,
        "HSM1_1": 0.9,
        "HSM1_2": 0.8,
        "PLTCM_1": 1.0,
        "PLTCM_2": 0.8,
        "CAL_1": 0.9,
        "CAL_2": 0.7,
    }
    rule = TargetRule("Y", 5.0, coefficients, DEFAULT_NOISE_SIGMA)
    layout = PlantLayout(units, routes, rule)
    layout.validate()
    return layout


def _route_draws(layout: PlantLayout, route: Route) -> list[SignalSpec]:
    """The signals a route's rows draw, in unit order."""
    traversed = set(route.units)
    return [sig for unit in layout.units if unit.name in traversed for sig in unit.signals]


# Rows per random stream: block b of a table with seed s draws from
# ``Generator(Philox(key=(s << 64) | b))``. Part of the stream's definition.
_BLOCK_ROWS = 1024


def generate(spec: GenSpec) -> Dataset:
    """Sample a dataset; fully determined by the layout, n_rows, and seed."""
    layout = spec.layout
    layout.validate()
    signals = [sig for unit in layout.units for sig in unit.signals]
    target = layout.target_rule.target
    columns = tuple(sig.name for sig in signals) + (target,)
    col_index = {name: j for j, name in enumerate(columns)}
    t = col_index[target]
    normal_cols = [j for j, sig in enumerate(signals) if sig.dist[0] == "normal"] + [t]
    uniform_cols = [j for j, sig in enumerate(signals) if sig.dist[0] == "uniform"]
    # Per route, the columns its rows get a value in.
    drawn = np.zeros((len(layout.routes), len(columns)), dtype=bool)
    for r, route in enumerate(layout.routes):
        drawn[r, [col_index[sig.name] for sig in _route_draws(layout, route)] + [t]] = True
    cum = np.cumsum([r.probability for r in layout.routes])
    values = np.empty((spec.n_rows, len(columns)))
    route_of = np.empty(spec.n_rows, dtype=np.intp)
    for b, start in enumerate(range(0, spec.n_rows, _BLOCK_ROWS)):
        # Every block makes the same three full-size draws, so a row's values
        # depend on its seed and index alone.
        rng = np.random.Generator(np.random.Philox(key=(spec.seed << 64) | b))
        picks = rng.random(_BLOCK_ROWS)
        normals = rng.standard_normal((_BLOCK_ROWS, len(normal_cols)))
        uniforms = rng.random((_BLOCK_ROWS, len(uniform_cols)))
        stop = min(start + _BLOCK_ROWS, spec.n_rows)
        n = stop - start
        picked = np.minimum(cum.searchsorted(picks[:n], "right"), cum.size - 1)
        route_of[start:stop] = picked
        block = values[start:stop]
        block[:, normal_cols] = normals[:n]
        block[:, uniform_cols] = uniforms[:n]
        block[~drawn[picked]] = np.nan

    # Turn the raw draws into values and the target, route by route, with
    # the same operations in the same order as a row-at-a-time sum.
    rule = layout.target_rule
    coeffs = rule.coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        for r, route in enumerate(layout.routes):
            rows = np.flatnonzero(route_of == r)
            total = np.full(rows.size, rule.intercept, dtype=np.float64)
            for sig in _route_draws(layout, route):
                j = col_index[sig.name]
                kind, first, second = sig.dist
                # mean + sd * z, or lo + (hi - lo) * u
                scale = second if kind == "normal" else second - first
                v = first + scale * values[rows, j]
                values[rows, j] = v
                total = total + coeffs.get(sig.name, 0.0) * v
            values[rows, t] = total + rule.noise_sigma * values[rows, t]
    # A non-finite value makes its row's target sum non-finite, so the
    # target column alone shows whether any row overflowed.
    overflowed = np.flatnonzero(~np.isfinite(values[:, t]))
    if overflowed.size:
        i = int(overflowed[0])
        j = int(np.flatnonzero(drawn[route_of[i]] & ~np.isfinite(values[i]))[0])
        raise NonFinite(
            f"row {i}, column {columns[j]!r}: the generated value {values[i, j]} "
            "is not finite; the layout's numbers overflow float64"
        )
    values.flags.writeable = False  # nothing else holds it, so Dataset need not copy
    return Dataset(columns, values, target)


def route_of_row(layout: PlantLayout, dataset: Dataset, row: int) -> Route | None:
    """The unique route whose signal set matches a row's availability."""
    present = dataset.present_signals(row) - {dataset.target}
    for route in layout.routes:
        if layout.route_signals(route) == present:
            return route
    return None


# --- JSON layout configs --------------------------------------------------------

def layout_to_dict(layout: PlantLayout) -> dict:
    return {
        "units": [
            {
                "name": u.name,
                "signals": [{"name": s.name, "dist": list(s.dist)} for s in u.signals],
            }
            for u in layout.units
        ],
        "routes": [
            {"name": r.name, "units": list(r.units), "probability": r.probability}
            for r in layout.routes
        ],
        "target_rule": {
            "target": layout.target_rule.target,
            "intercept": layout.target_rule.intercept,
            "coefficients": dict(layout.target_rule.coefficients),
            "noise_sigma": layout.target_rule.noise_sigma,
        },
    }


def layout_from_dict(d: dict) -> PlantLayout:
    try:
        units = tuple(
            Unit(
                u["name"],
                tuple(SignalSpec(s["name"], tuple(s["dist"])) for s in u["signals"]),
            )
            for u in d["units"]
        )
        routes = tuple(
            Route(r["name"], signal_names(r["units"]), r["probability"])
            for r in d["routes"]
        )
        rule = d["target_rule"]
        layout = PlantLayout(
            units,
            routes,
            TargetRule(
                rule["target"],
                rule["intercept"],
                rule["coefficients"],
                rule["noise_sigma"],
            ),
        )
        layout.validate()
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidLayout(f"malformed layout document: {exc}") from None
    return layout


def with_noise_sigma(layout: PlantLayout, noise_sigma: float) -> PlantLayout:
    return replace(layout, target_rule=replace(layout.target_rule, noise_sigma=noise_sigma))
