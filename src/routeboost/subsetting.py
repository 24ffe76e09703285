"""Construction of missing-value-free data subsets.

Two strategies produce subset specs: splitting by signal groups
(one base subset over always-available signals plus one subset per
incomplete group) and splitting by common production routes (one subset
per route segment, derived automatically from route frequencies or given
explicitly). Materializing a spec yields a dataset with zero missing
cells; training rows additionally require a present target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .analysis import (
    SignalGroup,
    always_available_signals,
    check_groups,
    infer_signal_groups,
    route_frequencies,
)
from .data import Dataset, SignalId
from .errors import (
    ConfigError,
    DuplicateFeatureSet,
    EmptySegment,
    EmptySubset,
    NoBaseSignals,
    NoQualifyingRoutes,
    NotNested,
    UnknownGroup,
    UnknownTarget,
)


@dataclass(frozen=True)
class SubsetSpec:
    """A named feature set; its materialization is missing-value free."""

    name: str
    features: tuple[SignalId, ...]

    def __post_init__(self) -> None:
        if not self.features:
            raise ValueError(f"subset {self.name!r} has no features")
        if len(set(self.features)) != len(self.features):
            raise ValueError(f"subset {self.name!r} repeats a feature")

    @property
    def feature_set(self) -> frozenset[SignalId]:
        return frozenset(self.features)


@dataclass(frozen=True)
class RouteSegment:
    """An ordered list of group names an item must have passed."""

    name: str
    groups: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.groups)) != len(self.groups):
            raise ValueError(f"segment {self.name!r} repeats a group")


def _ordered_features(dataset: Dataset, wanted: set[SignalId]) -> tuple[SignalId, ...]:
    # Canonical feature order is the dataset's signal order.
    return tuple(s for s in dataset.signals if s in wanted)


def subsets_by_grouped_signals(
    dataset: Dataset,
    groups: Sequence[SignalGroup],
    include_base_signals: bool = True,
) -> list[SubsetSpec]:
    """One base spec plus one spec per incomplete signal group.

    The base spec covers the always-available non-target signals. Each
    group that is not fully always-available yields a spec named r1, r2,
    ... in group order; with ``include_base_signals`` its features are
    the group plus the base signals (use this when relations between the
    group and the rest of the data are suspected), otherwise the group
    signals alone.
    """
    check_groups(dataset, groups)
    always = always_available_signals(dataset)
    base = {s for s in always if s != dataset.target}
    if not base:
        raise NoBaseSignals("no signal is available in every row")
    specs = [SubsetSpec("base", _ordered_features(dataset, base))]
    k = 0
    for g in groups:
        members = {s for s in g.members if s != dataset.target}
        if not members or members <= always:
            continue
        k += 1
        feats = members | base if include_base_signals else members
        specs.append(SubsetSpec(f"r{k}", _ordered_features(dataset, feats)))
    return specs


def _check_route_options(min_support: float, uncommon_policy: str) -> None:
    if uncommon_policy not in ("drop", "merge_common"):
        raise ConfigError(f"unknown uncommon_policy {uncommon_policy!r}")
    if not 0.0 < min_support <= 1.0:
        raise ConfigError(f"min_support must be in (0, 1], got {min_support}")


def subsets_by_common_routes(
    dataset: Dataset,
    groups: Sequence[SignalGroup],
    segments: Sequence[RouteSegment] | None = None,
    *,
    min_support: float = 0.05,
    uncommon_policy: str = "drop",
) -> list[SubsetSpec]:
    """One spec per route segment.

    With explicit ``segments``, each spec's features are the union of the
    segment's group signals. Without them, segments are derived from the
    route frequencies: every group combination whose share of rows is at
    least ``min_support`` becomes a spec named by its sorted group names
    joined with '+'.

    Rows matching no spec are "uncommon": policy ``drop`` excludes them,
    ``merge_common`` adds one extra spec over the intersection of their
    present signals when that intersection is non-empty.
    """
    _check_route_options(min_support, uncommon_policy)
    check_groups(dataset, groups)
    by_name = {g.name: g for g in groups}

    specs: list[SubsetSpec] = []
    if segments is not None:
        if not segments:
            raise EmptySegment("no route segments given")
        for seg in segments:
            if not seg.groups:
                raise EmptySegment(f"segment {seg.name!r} lists no groups")
            feats: set[SignalId] = set()
            for gname in seg.groups:
                if gname not in by_name:
                    raise UnknownGroup(f"segment {seg.name!r}: unknown group {gname!r}")
                feats.update(by_name[gname].members)
            feats.discard(dataset.target)
            if not feats:
                raise EmptySegment(f"segment {seg.name!r} covers no feature signals")
            specs.append(SubsetSpec(seg.name, _ordered_features(dataset, feats)))
    else:
        routes = route_frequencies(dataset, groups)
        threshold = min_support * dataset.n_rows
        for route in routes:
            if route.count < threshold or not route.groups_present:
                continue
            feats = set()
            for gname in route.groups_present:
                feats.update(by_name[gname].members)
            feats.discard(dataset.target)
            if not feats:
                continue
            name = "+".join(sorted(route.groups_present))
            specs.append(SubsetSpec(name, _ordered_features(dataset, feats)))
        if not specs and uncommon_policy == "drop":
            raise NoQualifyingRoutes(
                f"no route reaches min_support={min_support} "
                f"({dataset.n_rows} rows)"
            )

    if uncommon_policy == "merge_common":
        covered = np.zeros(dataset.n_rows, dtype=bool)
        for spec in specs:
            covered |= dataset.rows_with(spec.features)
        uncommon = ~covered
        if uncommon.any():
            common_cols = dataset.availability_mask()[uncommon].all(axis=0)
            feats = {
                s
                for s, ok in zip(dataset.signals, common_cols)
                if ok and s != dataset.target
            }
            if feats:
                specs.append(SubsetSpec("uncommon", _ordered_features(dataset, feats)))
    if not specs:
        raise NoQualifyingRoutes("route subsetting produced no subsets")
    return specs


def materialize(dataset: Dataset, spec: SubsetSpec) -> Dataset:
    """Rows where every feature and the target are present.

    The result contains zero missing cells. Raises EmptySubset when no
    row qualifies; an empty subset is reported, never silently used.
    """
    rows = training_rows(dataset, spec)
    return dataset.project((*spec.features, dataset.target), rows)


def subset_rows(dataset: Dataset, spec: SubsetSpec) -> np.ndarray:
    """Indices of rows where all features and the target are present."""
    if dataset.target is None:
        raise UnknownTarget(f"subset {spec.name!r} needs a dataset with a target")
    return np.flatnonzero(dataset.rows_with((*spec.features, dataset.target)))


def training_rows(dataset: Dataset, spec: SubsetSpec) -> np.ndarray:
    """``subset_rows``, raising EmptySubset when no row qualifies."""
    rows = subset_rows(dataset, spec)
    if rows.size == 0:
        raise EmptySubset(f"subset {spec.name!r} has no complete rows")
    return rows


def validate_nested_chain(specs: Sequence[SubsetSpec]) -> list[SubsetSpec]:
    """Order specs into a strictly nested chain, smallest feature set first.

    The returned order is the residual-chain training order. Raises
    NotNested when two specs are subset-incomparable and
    DuplicateFeatureSet when two specs share a feature set.
    """
    if not specs:
        raise ValueError("a chain needs at least one subset")
    ordered = sorted(specs, key=lambda s: (len(s.features), s.name))
    for a, b in zip(ordered, ordered[1:]):
        if a.feature_set == b.feature_set:
            raise DuplicateFeatureSet(
                f"subsets {a.name!r} and {b.name!r} have identical features"
            )
        if not a.feature_set < b.feature_set:
            raise NotNested(
                f"features of {a.name!r} are not a strict subset of {b.name!r}"
            )
    return list(ordered)


@dataclass(frozen=True)
class StrategyOptions:
    """Subsetting choices from the CLI or a config file, checked when built."""

    strategy: str = "grouped"  # grouped | routes | auto
    groups: Mapping[str, Sequence[SignalId]] | None = None
    segments: Mapping[str, Sequence[str]] | None = None
    include_base_signals: bool = True
    min_support: float = 0.05
    uncommon_policy: str = "drop"

    def __post_init__(self) -> None:
        if self.strategy not in ("grouped", "routes", "auto"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        _check_route_options(self.min_support, self.uncommon_policy)


def resolve_groups(
    dataset: Dataset, mapping: Mapping[str, Sequence[SignalId]] | None
) -> list[SignalGroup]:
    """Configured groups win over inference."""
    if mapping:
        return [SignalGroup(name, tuple(members)) for name, members in mapping.items()]
    return infer_signal_groups(dataset)


def build_subset_specs(
    dataset: Dataset, options: StrategyOptions
) -> tuple[list[SubsetSpec], list[SignalGroup]]:
    """Turn strategy options into subset specs against a dataset."""
    groups = resolve_groups(dataset, options.groups)
    if options.strategy == "grouped":
        specs = subsets_by_grouped_signals(
            dataset, groups, include_base_signals=options.include_base_signals
        )
        return specs, groups
    segments = None  # "auto": derived from the route frequencies
    if options.strategy == "routes":
        if not options.segments:
            raise ConfigError("strategy 'routes' needs route segments")
        try:
            segments = [RouteSegment(n, tuple(gs)) for n, gs in options.segments.items()]
        except ValueError as exc:  # a segment repeats a group
            raise ConfigError(str(exc)) from None
    specs = subsets_by_common_routes(
        dataset, groups, segments, min_support=options.min_support,
        uncommon_policy=options.uncommon_policy,
    )
    return specs, groups
