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
    write_json,
)
from routeboost.errors import (
    CoalesceConflict,
    DuplicateSignal,
    MalformedCsv,
    RowOutOfRange,
    UnknownSignal,
    UnknownTarget,
)
from tests.conftest import peak_over_values, random_masked_dataset


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

    @pytest.mark.parametrize("cell", ["1_0", " 7", "7 ", "7\t", '"7\n"', "١٢", "\u00a07"])
    def test_number_outside_csv_grammar_rejected(self, tmp_path, cell):
        # float() reads each of these; the CSV grammar allows none of them.
        with pytest.raises(MalformedCsv, match="line 3, column 'A': unparsable number"):
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

    @pytest.mark.parametrize(
        "rows",
        [
            {5, 0, 3},
            range(1, 5),
            [4, 1, 4, 2],
            np.array([5, 0, 5, 2, 0, 2]),
            np.array([3], dtype=np.int32),
            [],
            np.array([], dtype=np.intp),
        ],
        ids=["set", "range", "list", "array", "int32", "empty", "empty-array"],
    )
    def test_rows_match_sorted_set_semantics(self, toy6, rows):
        old = sorted(set(int(r) for r in rows))
        sub = toy6.project(toy6.signals, rows=rows)
        assert sub.n_rows == len(old)
        assert sub.values.tobytes() == toy6.values[old].tobytes()

    @pytest.mark.parametrize("rows", [[6], np.array([2, -1, 2]), range(3, 8)])
    def test_rows_out_of_range_with_repeats(self, toy6, rows):
        with pytest.raises(RowOutOfRange):
            toy6.project({"A"}, rows=rows)

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

    def test_cached_and_read_only(self, toy6):
        mask = toy6.availability_mask()
        assert toy6.availability_mask() is mask
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = False

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

    def test_project_copies_values_once(self):
        rng = np.random.default_rng(0)
        ds = Dataset(tuple(f"s{j}" for j in range(12)), rng.normal(size=(10_000, 12)))
        rows = np.arange(0, ds.n_rows, 2)
        assert peak_over_values(lambda: ds.project(ds.signals[1:], rows)) <= 1.5


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

    def test_first_conflicting_row_is_named(self):
        ds = self.build([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, None, 3.5, 9.0, 5.0])
        with pytest.raises(CoalesceConflict, match=r"^row 2: .*\(\[3\.0, 3\.5\]\)$"):
            coalesce_signals(ds, "B", ["B1", "B2"])

    def test_fused_column_is_the_first_present_source(self):
        rng = np.random.default_rng(17)
        n = 2000
        base = rng.normal(size=n)
        block = np.column_stack([base, base + 1e-12, base])
        block[rng.random(size=block.shape) < 0.4] = np.nan
        ds = Dataset(("S0", "S1", "Y", "S2"), np.insert(block, 2, 1.0, axis=1), "Y")
        out = coalesce_signals(ds, "S", ["S1", "S0", "S2"])
        expected = [
            next((v for v in (row[1], row[0], row[2]) if not math.isnan(v)), math.nan)
            for row in block.tolist()
        ]
        assert out.signals == ("S", "Y")
        assert np.array_equal(out.column("S"), expected, equal_nan=True)

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


class TestRowsWith:
    def test_matches_mask_columns(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            ds = random_masked_dataset(rng)
            k = int(rng.integers(0, len(ds.signals) + 1))
            wanted = list(rng.choice(ds.signals, size=k, replace=False))
            idx = [ds.index(s) for s in wanted]
            expected = (~np.isnan(ds.values))[:, idx].all(axis=1)
            assert ds.rows_with(wanted).tolist() == expected.tolist()

    def test_no_signals_selects_every_row(self, toy6):
        assert toy6.rows_with([]).tolist() == [True] * toy6.n_rows

    def test_unknown_signal(self, toy6):
        with pytest.raises(UnknownSignal):
            toy6.rows_with(["A", "Z"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_json_rejects_non_finite_numbers(tmp_path, bad):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_json(path, {"mae": bad})
    assert not path.exists()
