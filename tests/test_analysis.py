import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeboost.analysis import (
    SignalGroup,
    always_available_signals,
    infer_signal_groups,
    pattern_summary,
    route_frequencies,
)
from routeboost.data import Dataset, dataset_from_columns, unique_rows
from routeboost.errors import OverlappingGroups, UnknownSignal
from tests import analysis_oracle
from tests.conftest import random_masked_dataset


class TestPatternSummary:
    def test_toy6(self, toy6):
        patterns = pattern_summary(toy6)
        assert [(sorted(p.present), p.count) for p in patterns] == [
            (["A", "C", "Y"], 3),
            (["A", "D", "Y"], 3),
        ]

    def test_complete_dataset_single_pattern(self):
        ds = dataset_from_columns({"A": [1, 2], "Y": [3, 4]}, target="Y")
        patterns = pattern_summary(ds)
        assert len(patterns) == 1
        assert patterns[0].count == 2

    def test_zero_rows(self):
        ds = dataset_from_columns({"A": [], "Y": []}, target="Y")
        assert pattern_summary(ds) == []

    def test_counts_partition_rows(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            ds = random_masked_dataset(rng)
            patterns = pattern_summary(ds)
            assert sum(p.count for p in patterns) == ds.n_rows


class TestInferGroups:
    def test_toy6(self, toy6):
        groups = infer_signal_groups(toy6)
        assert [(g.name, g.members) for g in groups] == [
            ("G1", ("A", "Y")),
            ("G2", ("C",)),
            ("G3", ("D",)),
        ]

    def test_branch_schema_with_interleaved_rows(self):
        # A/B/E always present, C and D mutually exclusive; rows arrive in
        # arbitrary order, so inference must not assume contiguity.
        rng = np.random.default_rng(3)
        c = [1.0, None, 2.0, None, 3.0, None, 4.0, None]
        d = [None, 1.0, None, 2.0, None, 3.0, None, 4.0]
        order = rng.permutation(8)
        ds = dataset_from_columns(
            {
                "A": [float(i) for i in range(8)],
                "B": [float(i) for i in range(8)],
                "C": [c[i] for i in order],
                "D": [d[i] for i in order],
                "E": [1.0] * 8,
            },
            target="E",
        )
        groups = infer_signal_groups(ds)
        assert [g.members for g in groups] == [("A", "B", "E"), ("C",), ("D",)]

    def test_complete_dataset_one_group(self):
        ds = dataset_from_columns({"A": [1], "B": [2], "Y": [3]}, target="Y")
        groups = infer_signal_groups(ds)
        assert [g.members for g in groups] == [("A", "B", "Y")]

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(11)
        ds = random_masked_dataset(rng)
        perm = rng.permutation(len(ds.signals))
        shuffled = Dataset(
            tuple(ds.signals[j] for j in perm), ds.values[:, perm], ds.target
        )
        original = {frozenset(g.members) for g in infer_signal_groups(ds)}
        permuted = {frozenset(g.members) for g in infer_signal_groups(shuffled)}
        assert original == permuted


class TestAlwaysAvailable:
    def test_toy6(self, toy6):
        assert always_available_signals(toy6) == {"A", "Y"}

    def test_every_signal_has_holes(self):
        ds = dataset_from_columns(
            {"A": [1.0, None], "Y": [None, 2.0]}, target="Y"
        )
        assert always_available_signals(ds) == set()

    def test_zero_rows_vacuous(self):
        ds = dataset_from_columns({"A": [], "Y": []}, target="Y")
        assert always_available_signals(ds) == {"A", "Y"}

    def test_equals_intersection_of_patterns(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            ds = random_masked_dataset(rng)
            if ds.n_rows == 0:
                continue
            patterns = pattern_summary(ds)
            expected = set(ds.signals)
            for p in patterns:
                expected &= p.present
            assert always_available_signals(ds) == expected


class TestRouteFrequencies:
    def test_toy6(self, toy6):
        groups = [
            SignalGroup("A", ("A",)),
            SignalGroup("C", ("C",)),
            SignalGroup("D", ("D",)),
        ]
        routes = route_frequencies(toy6, groups)
        assert [(sorted(r.groups_present), r.count) for r in routes] == [
            (["A", "C"], 3),
            (["A", "D"], 3),
        ]

    def test_overlapping_groups(self, toy6):
        groups = [SignalGroup("g1", ("C",)), SignalGroup("g2", ("C",))]
        with pytest.raises(OverlappingGroups):
            route_frequencies(toy6, groups)

    def test_unknown_signal(self, toy6):
        with pytest.raises(UnknownSignal):
            route_frequencies(toy6, [SignalGroup("g", ("NOPE",))])

    def test_counts_partition_rows(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            ds = random_masked_dataset(rng)
            groups = infer_signal_groups(ds)
            routes = route_frequencies(ds, groups)
            if ds.n_rows:
                assert sum(r.count for r in routes) == ds.n_rows


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_partition_properties_hold_for_random_masks(seed):
    rng = np.random.default_rng(seed)
    ds = random_masked_dataset(rng)
    patterns = pattern_summary(ds)
    assert sum(p.count for p in patterns) == ds.n_rows
    groups = infer_signal_groups(ds)
    assert sorted(s for g in groups for s in g.members) == sorted(ds.signals)
    routes = route_frequencies(ds, groups)
    assert sum(r.count for r in routes) == ds.n_rows


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.integers(0, 20), st.integers(0, 2**32 - 1))
def test_packed_unique_rows_match_row_sort(n_rows, n_cols, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((n_rows, n_cols)) < rng.uniform(0.0, 1.0)
    first, inverse = unique_rows(mask)
    assert np.array_equal(mask[first][inverse], mask)
    rows, counts = mask[first], np.bincount(inverse)
    want_rows, want_counts = np.unique(mask, axis=0, return_counts=True)
    assert dict(zip(map(bytes, rows), counts.tolist())) == dict(
        zip(map(bytes, want_rows), want_counts.tolist())
    )
    assert len(rows) == len(want_rows)


def random_groups(rng: np.random.Generator, dataset: Dataset) -> list[SignalGroup]:
    """The signals dealt at random into disjoint groups; some may be empty."""
    n_groups = int(rng.integers(1, 5))
    owner = rng.integers(0, n_groups, size=len(dataset.signals)).tolist()
    return [
        SignalGroup(f"g{k}", tuple(s for s, o in zip(dataset.signals, owner) if o == k))
        for k in range(n_groups)
    ]


def assert_matches_oracle(dataset: Dataset, groups: list[SignalGroup]) -> None:
    """Every summary over the distinct patterns equals its full-mask oracle."""
    assert pattern_summary(dataset) == analysis_oracle.pattern_summary(dataset)
    inferred = infer_signal_groups(dataset)
    assert inferred == analysis_oracle.infer_signal_groups(dataset)
    assert always_available_signals(dataset) == analysis_oracle.always_available_signals(
        dataset
    )
    for g in (inferred, groups):
        assert route_frequencies(dataset, g) == analysis_oracle.route_frequencies(dataset, g)


NAN = np.nan
EDGE_DATASETS = {
    "no_rows_no_signals": Dataset((), np.empty((0, 0))),
    "no_signals": Dataset((), np.empty((4, 0))),
    "no_rows": Dataset(("A", "B", "Y"), np.empty((0, 3)), "Y"),
    "one_column": Dataset(("Y",), [[1.0], [NAN], [2.0], [NAN]], "Y"),
    "one_column_all_present": Dataset(("Y",), [[1.0], [2.0]], "Y"),
    "one_column_all_missing": Dataset(("Y",), [[NAN], [NAN], [NAN]], "Y"),
    "all_missing_and_all_present_columns": Dataset(
        ("A", "B", "C", "Y"),
        [[1.0, NAN, 2.0, NAN], [3.0, NAN, NAN, 4.0], [5.0, NAN, 6.0, 7.0]],
        "Y",
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_DATASETS))
def test_edge_datasets_match_full_mask_oracle(name):
    dataset = EDGE_DATASETS[name]
    assert_matches_oracle(dataset, random_groups(np.random.default_rng(0), dataset))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["as drawn", "all missing", "all present"]),
)
def test_summaries_match_full_mask_oracle(seed, forced):
    """With one random column forced all missing or all present."""
    rng = np.random.default_rng(seed)
    dataset = random_masked_dataset(rng)
    if forced != "as drawn":
        values = dataset.values.copy()
        j = int(rng.integers(len(dataset.signals)))
        values[:, j] = NAN if forced == "all missing" else rng.normal(size=dataset.n_rows)
        dataset = Dataset(dataset.signals, values, dataset.target)
    assert_matches_oracle(dataset, random_groups(rng, dataset))


def test_patterns_are_read_only_and_found_once(toy6):
    patterns, counts = toy6.availability_patterns()
    assert toy6.availability_patterns()[0] is patterns
    assert not patterns.flags.writeable and not counts.flags.writeable
    assert sorted(map(tuple, patterns.tolist())) == [
        (True, False, True, True), (True, True, False, True)
    ]
    assert counts.tolist() == [3, 3] and counts.sum() == toy6.n_rows
