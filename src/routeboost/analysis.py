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
    rows: np.ndarray, counts: np.ndarray, names: Sequence[str]
) -> list[tuple[frozenset[str], int]]:
    """The distinct rows of the bool matrix ``rows`` as sets of column
    ``names``, each with the summed ``counts`` of the rows equal to it,
    most frequent first, ties in the order of the sorted names.

    ``rows`` are a dataset's availability patterns, or a reduction of
    them in which several patterns may become one.
    """
    first, inverse = unique_rows(rows)
    totals = np.zeros(first.size, dtype=np.int64)
    np.add.at(totals, inverse, counts)
    patterns = [
        (frozenset(n for n, ok in zip(names, row) if ok), total)
        for row, total in zip(rows[first].tolist(), totals.tolist())
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
        for present, count in _count_patterns(
            *dataset.availability_patterns(), dataset.signals
        )
    ]


def infer_signal_groups(dataset: Dataset) -> list[SignalGroup]:
    """Group signals whose availability columns are exactly equal.

    Names are auto-assigned G1, G2, ... ordered by the first member's
    column index. This stands in for plant-layout knowledge when no
    explicit grouping is configured. Two columns are equal on every row
    exactly when they are equal on every distinct availability pattern.
    """
    patterns, _ = dataset.availability_patterns()
    buckets: dict[bytes, list[SignalId]] = {}
    for signal, column in zip(dataset.signals, patterns.T):
        buckets.setdefault(column.tobytes(), []).append(signal)
    return [
        SignalGroup(f"G{i + 1}", tuple(members))
        for i, members in enumerate(buckets.values())
    ]


def always_available_signals(dataset: Dataset) -> set[SignalId]:
    """Signals present in every row.

    For a 0-row dataset this is vacuously all signals.
    """
    complete = dataset.availability_patterns()[0].all(axis=0)
    return {s for s, ok in zip(dataset.signals, complete) if ok}


def route_frequencies(
    dataset: Dataset, groups: Sequence[SignalGroup]
) -> list[RoutePattern]:
    """Distinct group-availability combinations, most frequent first.

    A group counts as present in a row only if every member signal is
    present. Counts sum to n_rows.
    """
    check_groups(dataset, groups)
    patterns, counts = dataset.availability_patterns()
    group_ok = np.zeros((len(patterns), len(groups)), dtype=bool)
    for k, g in enumerate(groups):
        group_ok[:, k] = patterns[:, [dataset.index(s) for s in g.members]].all(axis=1)
    return [
        RoutePattern(present, count)
        for present, count in _count_patterns(group_ok, counts, [g.name for g in groups])
    ]
