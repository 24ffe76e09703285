"""Reference missingness summaries: each reads the full availability mask.

``routeboost.analysis`` reduces a dataset's distinct availability
patterns (``Dataset.availability_patterns()``), a few rows whatever the
table's length. These functions sort or scan every row of
``availability_mask()`` instead; the analysis must return exactly what
they return, compared with ``==``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from routeboost.analysis import RoutePattern, SignalGroup, check_groups
from routeboost.data import AvailabilityPattern, Dataset, SignalId, unique_rows


def _count_patterns(
    mask: np.ndarray, names: Sequence[str]
) -> list[tuple[frozenset[str], int]]:
    """Distinct rows of ``mask`` as sets of column ``names`` with their
    counts, most frequent first, ties in the order of the sorted names."""
    first, inverse = unique_rows(mask)
    patterns = [
        (frozenset(n for n, ok in zip(names, row) if ok), count)
        for row, count in zip(mask[first].tolist(), np.bincount(inverse).tolist())
    ]
    patterns.sort(key=lambda p: (-p[1], tuple(sorted(p[0]))))
    return patterns


def pattern_summary(dataset: Dataset) -> list[AvailabilityPattern]:
    return [
        AvailabilityPattern(present, count)
        for present, count in _count_patterns(dataset.availability_mask(), dataset.signals)
    ]


def infer_signal_groups(dataset: Dataset) -> list[SignalGroup]:
    mask = dataset.availability_mask()
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
    complete = dataset.availability_mask().all(axis=0)
    return {s for s, ok in zip(dataset.signals, complete) if ok}


def route_frequencies(
    dataset: Dataset, groups: Sequence[SignalGroup]
) -> list[RoutePattern]:
    check_groups(dataset, groups)
    group_ok = np.zeros((dataset.n_rows, len(groups)), dtype=bool)
    for k, g in enumerate(groups):
        group_ok[:, k] = dataset.rows_with(g.members)
    return [
        RoutePattern(present, count)
        for present, count in _count_patterns(group_ok, [g.name for g in groups])
    ]
