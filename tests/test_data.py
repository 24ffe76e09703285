import math

import numpy as np
import pytest

from routeboost.data import (
    Dataset,
    coalesce_signals,
    dataset_from_columns,
    load_dataset,
    load_table,
    write_csv,
)
from routeboost.errors import (
    CoalesceConflict,
    DuplicateSignal,
    MalformedCsv,
    RowOutOfRange,
    UnknownSignal,
    UnknownTarget,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_empty_cell_is_missing(self, tmp_path):
        ds = load_dataset(write(tmp_path, "A,Y\n1,2\n,4\n"), "Y")
        assert ds.n_rows == 2
        assert ds.signals == ("A", "Y")
        assert math.isnan(ds.column("A")[1])
        assert ds.column("Y").tolist() == [2.0, 4.0]

    def test_row_arity_violation(self, tmp_path):
        with pytest.raises(MalformedCsv):
            load_dataset(write(tmp_path, "A,Y\n1,2\n3\n"), "Y")

    def test_duplicate_signal(self, tmp_path):
        with pytest.raises(DuplicateSignal):
            load_dataset(write(tmp_path, "A,A\n1,2\n"), "A")

    def test_unknown_target(self, tmp_path):
        with pytest.raises(UnknownTarget):
            load_dataset(write(tmp_path, "A,Y\n1,2\n"), "Z")

    def test_unparsable_number(self, tmp_path):
        with pytest.raises(MalformedCsv):
            load_dataset(write(tmp_path, "A,Y\n1,abc\n"), "Y")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "Infinity"])
    def test_literal_nan_rejected(self, tmp_path, cell):
        # NaN input would create a second missing-value encoding, and an
        # infinity is no measurement.
        with pytest.raises(MalformedCsv, match="line 3, column 'A'"):
            load_dataset(write(tmp_path, f"A,Y\n1,2\n{cell},3\n"), "Y")

    def test_crlf_and_header_only(self, tmp_path):
        ds = load_dataset(write(tmp_path, "A,Y\r\n1,2\r\n"), "Y")
        assert ds.n_rows == 1
        empty = load_table(write(tmp_path, "A,Y\n", name="empty.csv"))
        assert empty.n_rows == 0


class TestRoundTrip:
    def test_write_then_load_is_identical(self, toy6, tmp_path):
        path = tmp_path / "toy6.csv"
        write_csv(toy6, path)
        back = load_dataset(path, "Y")
        assert back.signals == toy6.signals
        assert np.array_equal(back.values, toy6.values, equal_nan=True)

    def test_random_values_survive_exactly(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(scale=1e-7, size=(20, 3))
        values[rng.random(size=values.shape) < 0.3] = np.nan
        ds = Dataset(("a", "b", "Y"), values, "Y")
        path = tmp_path / "rt.csv"
        write_csv(ds, path)
        back = load_dataset(path, "Y")
        assert np.array_equal(back.values, ds.values, equal_nan=True)


class TestProject:
    def test_keep_all_rows(self, toy6):
        sub = toy6.project({"A", "Y"})
        assert sub.signals == ("A", "Y")
        assert sub.n_rows == 6
        assert not np.isnan(sub.values).any()
        assert sub.target == "Y"

    def test_keep_rows_subset(self, toy6):
        sub = toy6.project({"A", "C", "Y"}, rows={0, 1, 2})
        assert sub.n_rows == 3
        assert sub.signals == ("A", "C", "Y")
        assert not np.isnan(sub.values).any()

    def test_unknown_signal(self, toy6):
        with pytest.raises(UnknownSignal):
            toy6.project({"Z"})

    def test_row_out_of_range(self, toy6):
        with pytest.raises(RowOutOfRange):
            toy6.project({"A"}, rows={99})

    def test_target_dropped_when_not_kept(self, toy6):
        sub = toy6.project({"A", "C"})
        assert sub.target is None

    def test_row_order_preserved(self, toy6):
        sub = toy6.project({"A"}, rows={4, 1, 3})
        assert sub.column("A").tolist() == [2.0, 4.0, 5.0]

    def test_idempotent(self, toy6):
        once = toy6.project({"A", "C", "Y"}, rows={0, 2, 4})
        twice = once.project({"A", "C", "Y"}, rows=range(once.n_rows))
        assert once.signals == twice.signals
        assert np.array_equal(once.values, twice.values, equal_nan=True)

    def test_commutes_for_disjoint_selections(self, toy6):
        rows = [0, 2, 5]
        cols = {"A", "Y"}
        a = toy6.project(cols).project(cols, rows=rows)
        b = toy6.project(toy6.signals, rows=rows).project(cols)
        assert a.signals == b.signals
        assert np.array_equal(a.values, b.values, equal_nan=True)


class TestAvailabilityMask:
    def test_complete_dataset_all_true(self):
        ds = dataset_from_columns({"A": [1, 2], "Y": [3, 4]}, target="Y")
        assert ds.availability_mask().all()

    def test_toy6_column(self, toy6):
        mask = toy6.availability_mask()
        assert mask[:, toy6.index("C")].tolist() == [True] * 3 + [False] * 3

    def test_zero_rows(self):
        ds = dataset_from_columns({"A": [], "Y": []}, target="Y")
        assert ds.availability_mask().shape == (0, 2)

    def test_row_sums_match_present_counts(self, toy6):
        mask = toy6.availability_mask()
        for i in range(toy6.n_rows):
            assert mask[i].sum() == len(toy6.present_signals(i))


class TestImmutability:
    def test_values_are_read_only(self, toy6):
        with pytest.raises(ValueError):
            toy6.values[0, 0] = 99.0

    def test_row_values_excludes_missing(self, toy6):
        assert toy6.row_values(0) == {"A": 1.0, "C": 10.0, "Y": 2.0}
        assert toy6.row_values(3) == {"A": 4.0, "D": 5.0, "Y": 8.0}


class TestCoalesce:
    def build(self, b1, b2):
        return dataset_from_columns(
            {"B1": b1, "B2": b2, "Y": [1.0] * len(b1)}, target="Y"
        )

    def test_merges_exclusive_columns(self):
        ds = self.build([1.0, None, 3.0], [None, 2.0, None])
        out = coalesce_signals(ds, "B", ["B1", "B2"])
        assert out.signals == ("B", "Y")
        assert out.column("B").tolist() == [1.0, 2.0, 3.0]

    def test_agreeing_duplicates_take_first(self):
        ds = self.build([1.0, 5.0], [1.0, 5.0])
        out = coalesce_signals(ds, "B", ["B1", "B2"])
        assert out.column("B").tolist() == [1.0, 5.0]

    def test_conflict_raises(self):
        ds = self.build([1.0], [2.0])
        with pytest.raises(CoalesceConflict):
            coalesce_signals(ds, "B", ["B1", "B2"])

    def test_unknown_source(self):
        ds = self.build([1.0], [2.0])
        with pytest.raises(UnknownSignal):
            coalesce_signals(ds, "B", ["B1", "NOPE"])

    def test_merged_name_collision(self):
        ds = self.build([1.0], [None])
        with pytest.raises(DuplicateSignal):
            coalesce_signals(ds, "Y", ["B1", "B2"])

    def test_target_can_be_coalesced(self):
        ds = dataset_from_columns(
            {"A": [1.0, 2.0], "Y1": [3.0, None], "Y2": [None, 4.0]}, target="Y1"
        )
        out = coalesce_signals(ds, "Y", ["Y1", "Y2"])
        assert out.target == "Y"
        assert out.column("Y").tolist() == [3.0, 4.0]
