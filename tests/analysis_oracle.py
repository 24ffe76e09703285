"""Reference presence and missingness summaries, read from the values alone.

``routeboost.data`` keeps a dataset's presence as packed row words and
``routeboost.analysis`` reduces the distinct patterns found by sorting
them. These functions read presence from its definition, a cell that is
not NaN (``presence``), and use NumPy's own row sort,
``np.unique(axis=0)``, and column gathers; the package must return
exactly what they return, compared with ``==``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from routeboost.analysis import RoutePattern, SignalGroup, check_groups
from routeboost.data import AvailabilityPattern, Dataset, SignalId


def presence(dataset: Dataset) -> np.ndarray:
    """Bool (n_rows, n_signals): True where a cell is present."""
    return ~np.isnan(dataset.values)


def rows_with(dataset: Dataset, signals: Iterable[SignalId]) -> np.ndarray:
    idx = [dataset.index(s) for s in signals]
    return presence(dataset)[:, idx].all(axis=1)


def present_signals(dataset: Dataset, row: int) -> set[SignalId]:
    return {s for s, ok in zip(dataset.signals, presence(dataset)[row]) if ok}


def availability_patterns(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The distinct presence rows, sorted, and the rows showing each."""
    return np.unique(presence(dataset), axis=0, return_counts=True)


def _count_patterns(
    mask: np.ndarray, names: Sequence[str]
) -> list[tuple[frozenset[str], int]]:
    """Distinct rows of ``mask`` as sets of column ``names`` with their
    counts, most frequent first, ties in the order of the sorted names."""
    rows, counts = np.unique(mask, axis=0, return_counts=True)
    patterns = [
        (frozenset(n for n, ok in zip(names, row) if ok), count)
        for row, count in zip(rows.tolist(), counts.tolist())
    ]
    patterns.sort(key=lambda p: (-p[1], tuple(sorted(p[0]))))
    return patterns


def pattern_summary(dataset: Dataset) -> list[AvailabilityPattern]:
    return [
        AvailabilityPattern(present, count)
        for present, count in _count_patterns(presence(dataset), dataset.signals)
    ]


def infer_signal_groups(dataset: Dataset) -> list[SignalGroup]:
    mask = presence(dataset)
    buckets: dict[bytes, list[SignalId]] = {}
    order: list[bytes] = []
    for j, signal in enumerate(dataset.signals):
        key = mask[:, j].tobytes()
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append(signal)
    return [
        SignalGroup(f"G{i + 1}", tuple(buckets[key])) for i, key in enumerate(order)
    ]


def always_available_signals(dataset: Dataset) -> set[SignalId]:
    complete = presence(dataset).all(axis=0)
    return {s for s, ok in zip(dataset.signals, complete) if ok}


def route_frequencies(
    dataset: Dataset, groups: Sequence[SignalGroup]
) -> list[RoutePattern]:
    check_groups(dataset, groups)
    group_ok = np.zeros((dataset.n_rows, len(groups)), dtype=bool)
    for k, g in enumerate(groups):
        group_ok[:, k] = rows_with(dataset, g.members)
    return [
        RoutePattern(present, count)
        for present, count in _count_patterns(group_ok, [g.name for g in groups])
    ]
