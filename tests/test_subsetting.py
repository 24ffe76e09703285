import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeboost.analysis import SignalGroup, infer_signal_groups
from routeboost.data import dataset_from_columns
from routeboost.errors import (
    ConfigError,
    DuplicateFeatureSet,
    EmptySubset,
    NoBaseSignals,
    NoQualifyingRoutes,
    NotNested,
    UnknownGroup,
)
from routeboost.subsetting import (
    RouteSegment,
    SubsetSpec,
    materialize,
    subset_rows,
    subsets_by_common_routes,
    subsets_by_grouped_signals,
    validate_nested_chain,
)
from routeboost.synthgen import GenSpec, default_layout, generate
from tests.conftest import random_masked_dataset


def toy6_groups():
    return [
        SignalGroup("A", ("A",)),
        SignalGroup("C", ("C",)),
        SignalGroup("D", ("D",)),
    ]


class TestGroupedSignals:
    def test_with_base_signals(self, toy6):
        specs = subsets_by_grouped_signals(toy6, infer_signal_groups(toy6), True)
        assert [(s.name, s.features) for s in specs] == [
            ("base", ("A",)),
            ("r1", ("A", "C")),
            ("r2", ("A", "D")),
        ]

    def test_group_signals_only(self, toy6):
        specs = subsets_by_grouped_signals(toy6, infer_signal_groups(toy6), False)
        assert [(s.name, s.features) for s in specs] == [
            ("base", ("A",)),
            ("r1", ("C",)),
            ("r2", ("D",)),
        ]

    def test_no_base_signals(self):
        ds = dataset_from_columns(
            {"A": [1.0, None], "B": [None, 1.0], "Y": [1.0, 2.0]}, target="Y"
        )
        with pytest.raises(NoBaseSignals):
            subsets_by_grouped_signals(ds, infer_signal_groups(ds), True)


class TestCommonRoutes:
    def test_steel_segments_are_nested(self):
        layout = default_layout()
        ds = generate(GenSpec(layout, 400, 11))
        groups = [
            SignalGroup(u.name, tuple(s.name for s in u.signals))
            for u in layout.units
        ]
        segments = [RouteSegment(r.name, r.units) for r in layout.routes]
        specs = subsets_by_common_routes(ds, groups, segments)
        assert [s.name for s in specs] == ["narrow", "balanced", "wide"]
        narrow, balanced, wide = specs
        assert narrow.feature_set < balanced.feature_set < wide.feature_set
        counts = [subset_rows(ds, s).size for s in specs]
        assert counts[0] >= counts[1] >= counts[2]

    def test_auto_mode_finds_both_routes(self, toy6):
        specs = subsets_by_common_routes(
            toy6, toy6_groups(), None, min_support=0.4
        )
        assert {s.features for s in specs} == {("A", "C"), ("A", "D")}

    def test_auto_mode_drop_policy_fails_when_nothing_qualifies(self, toy6):
        with pytest.raises(NoQualifyingRoutes):
            subsets_by_common_routes(toy6, toy6_groups(), None, min_support=0.6)

    def test_auto_mode_merge_common_keeps_shared_signals(self, toy6):
        specs = subsets_by_common_routes(
            toy6,
            toy6_groups(),
            None,
            min_support=0.6,
            uncommon_policy="merge_common",
        )
        assert [(s.name, s.features) for s in specs] == [("uncommon", ("A",))]

    def test_unknown_group_in_segment(self, toy6):
        with pytest.raises(UnknownGroup):
            subsets_by_common_routes(
                toy6, toy6_groups(), [RouteSegment("seg", ("A", "NOPE"))]
            )

    def test_auto_names_join_sorted_groups(self, toy6):
        specs = subsets_by_common_routes(toy6, toy6_groups(), None, min_support=0.4)
        assert {s.name for s in specs} == {"A+C", "A+D"}

    def test_segment_named_like_the_merged_subset(self, toy6):
        """The rows with D are on no segment, so merge_common adds its own
        "uncommon" subset beside the segment of that name."""
        with pytest.raises(ConfigError, match="^two route subsets are named 'uncommon'$"):
            subsets_by_common_routes(
                toy6, toy6_groups(), [RouteSegment("uncommon", ("A", "C"))],
                uncommon_policy="merge_common",
            )

    def test_auto_names_that_collide(self):
        """Groups P and Q together, and the group named "P+Q" alone, both
        join to the name "P+Q"."""
        ds = dataset_from_columns(
            {
                "P": [1, 2, None, None],
                "Q": [3, 4, None, None],
                "R": [None, None, 5, 6],
                "Y": [1, 2, 3, 4],
            },
            target="Y",
        )
        groups = [SignalGroup("P", ("P",)), SignalGroup("Q", ("Q",)),
                  SignalGroup("P+Q", ("R",))]
        with pytest.raises(ConfigError, match=r"^two route subsets are named 'P\+Q'$"):
            subsets_by_common_routes(ds, groups, None, min_support=0.25)


class TestMaterialize:
    def test_base(self, toy6):
        sub = materialize(toy6, SubsetSpec("base", ("A",)))
        assert sub.n_rows == 6
        assert sub.signals == ("A", "Y")
        assert not np.isnan(sub.values).any()

    def test_branch(self, toy6):
        sub = materialize(toy6, SubsetSpec("r1", ("A", "C")))
        assert sub.n_rows == 3
        assert sub.column("C").tolist() == [10.0, 20.0, 30.0]

    def test_exclusive_branch_is_empty(self, toy6):
        with pytest.raises(EmptySubset):
            materialize(toy6, SubsetSpec("both", ("C", "D")))

    def test_rows_without_target_are_excluded(self):
        ds = dataset_from_columns(
            {"A": [1.0, 2.0, 3.0], "Y": [1.0, None, 3.0]}, target="Y"
        )
        sub = materialize(ds, SubsetSpec("base", ("A",)))
        assert sub.n_rows == 2


class TestNestedChain:
    def test_reorders_narrowest_first(self):
        wide = SubsetSpec("wide", ("A", "C", "H"))
        narrow = SubsetSpec("narrow", ("A",))
        balanced = SubsetSpec("balanced", ("A", "C"))
        chain = validate_nested_chain([wide, narrow, balanced])
        assert [s.name for s in chain] == ["narrow", "balanced", "wide"]

    def test_incomparable_sets(self):
        with pytest.raises(NotNested):
            validate_nested_chain(
                [SubsetSpec("x", ("A", "C")), SubsetSpec("y", ("A", "D"))]
            )

    def test_single_spec(self):
        spec = SubsetSpec("only", ("A",))
        assert validate_nested_chain([spec]) == [spec]

    def test_duplicate_feature_sets(self):
        with pytest.raises(DuplicateFeatureSet):
            validate_nested_chain(
                [SubsetSpec("x", ("A", "C")), SubsetSpec("y", ("C", "A"))]
            )


class TestSubsetProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_materializations_have_zero_missing_cells(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_masked_dataset(rng)
        groups = infer_signal_groups(ds)
        all_specs = []
        try:
            all_specs += subsets_by_grouped_signals(ds, groups, True)
        except NoBaseSignals:
            pass
        try:
            all_specs += subsets_by_common_routes(
                ds, groups, None, min_support=0.1, uncommon_policy="merge_common"
            )
        except NoQualifyingRoutes:
            pass
        for spec in all_specs:
            try:
                sub = materialize(ds, spec)
            except EmptySubset:
                continue
            assert not np.isnan(sub.values).any()

    def test_nesting_implies_row_monotonicity(self):
        layout = default_layout()
        ds = generate(GenSpec(layout, 300, 5))
        groups = [
            SignalGroup(u.name, tuple(s.name for s in u.signals))
            for u in layout.units
        ]
        segments = [RouteSegment(r.name, r.units) for r in layout.routes]
        specs = subsets_by_common_routes(ds, groups, segments)
        for a in specs:
            for b in specs:
                if a.feature_set < b.feature_set:
                    rows_a = set(subset_rows(ds, a).tolist())
                    rows_b = set(subset_rows(ds, b).tolist())
                    assert rows_b <= rows_a

    def test_drop_policy_accounting(self, toy6):
        # Rows covered by the route specs plus dropped rows equal all rows.
        specs = subsets_by_common_routes(
            toy6, toy6_groups(), None, min_support=0.4
        )
        covered = set()
        for spec in specs:
            covered |= set(subset_rows(toy6, spec).tolist())
        dropped = set(range(toy6.n_rows)) - covered
        assert covered | dropped == set(range(toy6.n_rows))
        assert len(dropped) == 0  # both TOY6 routes qualify at 0.4
