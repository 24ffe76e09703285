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

from .data import AvailabilityPattern, Dataset, SignalId
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


def ensure_disjoint_groups(groups: Sequence[SignalGroup]) -> None:
    seen: dict[SignalId, str] = {}
    for g in groups:
        for s in g.members:
            if s in seen:
                raise OverlappingGroups(
                    f"signal {s!r} belongs to groups {seen[s]!r} and {g.name!r}"
                )
            seen[s] = g.name


def pattern_summary(dataset: Dataset) -> list[AvailabilityPattern]:
    """Distinct availability patterns, most frequent first.

    Ties are broken by the lexicographic order of the sorted signal sets,
    so the output is stable. Counts sum to n_rows.
    """
    mask = dataset.availability_mask()
    if dataset.n_rows == 0:
        return []
    uniq, counts = np.unique(mask, axis=0, return_counts=True)
    patterns = []
    for row, count in zip(uniq, counts):
        names = frozenset(s for s, ok in zip(dataset.signals, row) if ok)
        patterns.append(AvailabilityPattern(names, int(count)))
    patterns.sort(key=lambda p: (-p.count, tuple(sorted(p.present))))
    return patterns


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
    mask = dataset.availability_mask()
    complete = mask.all(axis=0) if dataset.n_rows else np.ones(len(dataset.signals), bool)
    return {s for s, ok in zip(dataset.signals, complete) if ok}


def route_frequencies(
    dataset: Dataset, groups: Sequence[SignalGroup]
) -> list[RoutePattern]:
    """Distinct group-availability combinations, most frequent first.

    A group counts as present in a row only if every member signal is
    present. Counts sum to n_rows.
    """
    ensure_disjoint_groups(groups)
    for g in groups:
        for s in g.members:
            if s not in dataset.signals:
                raise UnknownSignal(f"group {g.name!r} references unknown signal {s!r}")
    if dataset.n_rows == 0:
        return []
    if not groups:
        return [RoutePattern(frozenset(), dataset.n_rows)]
    mask = dataset.availability_mask()
    group_ok = np.column_stack(
        [mask[:, [dataset.index(s) for s in g.members]].all(axis=1) for g in groups]
    )
    uniq, counts = np.unique(group_ok, axis=0, return_counts=True)
    patterns = []
    for row, count in zip(uniq, counts):
        names = frozenset(g.name for g, ok in zip(groups, row) if ok)
        patterns.append(RoutePattern(names, int(count)))
    patterns.sort(key=lambda p: (-p.count, tuple(sorted(p.groups_present))))
    return patterns

