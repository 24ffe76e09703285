import tracemalloc

import numpy as np
import pytest

from routeboost.data import Dataset, dataset_from_columns


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
