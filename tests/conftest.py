import tracemalloc

import numpy as np
import pytest

from routeboost.data import Dataset, dataset_from_columns
from routeboost.subsetting import StrategyOptions, build_subset_specs
from routeboost.synthgen import (
    GenSpec,
    PlantLayout,
    Route,
    SignalSpec,
    TargetRule,
    Unit,
    generate,
)


@pytest.fixture
def toy6() -> Dataset:
    """Six-row exclusive-branch fixture: C and D are never both present.

    Y = 2*A exactly; A and Y are always available.
    """
    return dataset_from_columns(
        {
            "A": [1, 2, 3, 4, 5, 6],
            "C": [10, 20, 30, None, None, None],
            "D": [None, None, None, 5, 6, 7],
            "Y": [2, 4, 6, 8, 10, 12],
        },
        target="Y",
    )


# Table widths at the edges of the packed presence words: none, within
# one byte, at and past 1, 2, 4 and 8 bytes, and past two 8-byte words.
WORD_EDGES = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 128, 129]


def random_masked_dataset(rng: np.random.Generator, target="Y") -> Dataset:
    """A small random dataset with random holes (target column stays last)."""
    n = int(rng.integers(1, 30))
    p = int(rng.integers(1, 7))
    values = rng.normal(size=(n, p + 1))
    holes = rng.random(size=(n, p + 1)) < rng.uniform(0.0, 0.6)
    values[holes] = np.nan
    signals = tuple(f"s{j}" for j in range(p)) + (target,)
    return Dataset(signals, values, target)


def peak_over_values(build) -> float:
    """Peak traced allocation of ``build()`` over its dataset's value bytes.

    A table built once and never copied stays close to 1.0.
    """
    tracemalloc.start()
    try:
        dataset = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / dataset.values.nbytes


def nested_chain(n_routes: int) -> dict[str, tuple[int, ...]]:
    """Routes ``c0``, ``c1``, ... where route k visits units 0 to k."""
    return {f"c{k}": tuple(range(k + 1)) for k in range(n_routes)}


def route_plant(routes: dict[str, tuple[int, ...]], n_rows: int, seed: int):
    """A generated plant and its "routes" subset specs, one per route.

    Route ``name`` visits the units numbered ``routes[name]``, all routes
    at one probability. Unit i is ``u{i}`` with two normal signals, and
    every signal has its own target coefficient.
    """
    n_units = 1 + max(max(units) for units in routes.values())
    normal = ("normal", 0.0, 1.0)
    units = tuple(
        Unit(f"u{i}", (SignalSpec(f"u{i}_1", normal), SignalSpec(f"u{i}_2", normal)))
        for i in range(n_units)
    )
    signals = [s.name for unit in units for s in unit.signals]
    weights = {s: 1.0 - j / (2 * len(signals)) for j, s in enumerate(signals)}
    layout = PlantLayout(
        units,
        tuple(
            Route(name, tuple(f"u{i}" for i in visited), 1.0 / len(routes))
            for name, visited in routes.items()
        ),
        TargetRule("Y", 5.0, weights, 1.0),
    )
    layout.validate()
    dataset = generate(GenSpec(layout, n_rows, seed))
    options = StrategyOptions("routes", *layout.route_strategy())
    specs, _ = build_subset_specs(dataset, options)
    return dataset, specs
