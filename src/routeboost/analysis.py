"""Missingness structure analysis.

Summarizes which signals are present together: availability patterns,
inferred signal groups (signals whose availability columns are
identical), always-available signals, and production-route frequencies.
These summaries drive the choice of subsetting strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import AvailabilityPattern, Dataset, SignalId, unique_rows
from .errors import OverlappingGroups, UnknownSignal


@dataclass(frozen=True)
class SignalGroup:
    """Signals emitted by one processing unit; missing together."""

    name: str
    members: tuple[SignalId, ...]


@dataclass(frozen=True)
class RoutePattern:
    """A combination of fully-present groups and how many rows match it."""

    groups_present: frozenset[str]
    count: int


def check_groups(dataset: Dataset, groups: Sequence[SignalGroup]) -> None:
    """Raise unless the groups are disjoint and name only signals of ``dataset``."""
    seen: dict[SignalId, str] = {}
    for g in groups:
        for s in g.members:
            if s in seen:
                raise OverlappingGroups(
                    f"signal {s!r} belongs to groups {seen[s]!r} and {g.name!r}"
                )
            if s not in dataset.signals:
                raise UnknownSignal(f"group {g.name!r} references unknown signal {s!r}")
            seen[s] = g.name


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
    """Distinct availability patterns, most frequent first.

    Ties are broken by the lexicographic order of the sorted signal sets,
    so the output is stable. Counts sum to n_rows.
    """
    return [
        AvailabilityPattern(present, count)
        for present, count in _count_patterns(dataset.availability_mask(), dataset.signals)
    ]


def infer_signal_groups(dataset: Dataset) -> list[SignalGroup]:
    """Group signals whose availability columns are exactly equal.

    Names are auto-assigned G1, G2, ... ordered by the first member's
    column index. This stands in for plant-layout knowledge when no
    explicit grouping is configured.
    """
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
    """Signals present in every row.

    For a 0-row dataset this is vacuously all signals.
    """
    complete = dataset.availability_mask().all(axis=0)
    return {s for s, ok in zip(dataset.signals, complete) if ok}


def route_frequencies(
    dataset: Dataset, groups: Sequence[SignalGroup]
) -> list[RoutePattern]:
    """Distinct group-availability combinations, most frequent first.

    A group counts as present in a row only if every member signal is
    present. Counts sum to n_rows.
    """
    check_groups(dataset, groups)
    group_ok = np.zeros((dataset.n_rows, len(groups)), dtype=bool)
    for k, g in enumerate(groups):
        group_ok[:, k] = dataset.rows_with(g.members)
    return [
        RoutePattern(present, count)
        for present, count in _count_patterns(group_ok, [g.name for g in groups])
    ]
