import csv
import math
import os
import threading

import numpy as np
import pytest

from routeboost import data
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
    NonFinite,
    RowOutOfRange,
    UnknownSignal,
    UnknownTarget,
)
from routeboost.synthgen import GenSpec, default_layout, generate
from tests import csv_oracle
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

    @pytest.mark.parametrize("where", ["cell", "header"])
    def test_field_over_csv_limit_names_its_line(self, tmp_path, where):
        # "0" repeated is a finite number, so only csv's field limit refuses it.
        long = "0" * (csv.field_size_limit() + 1)
        text = f"A,{long}\n1,2\n" if where == "header" else f"A,Y\n1,2\n3,{long}\n"
        line = 1 if where == "header" else 3
        with pytest.raises(MalformedCsv, match=f"line {line}: field larger than field limit"):
            load_table(write(tmp_path, text))

    def test_nul_byte_names_its_line(self, tmp_path):
        # csv.reader refuses a NUL before Python 3.11; from 3.11 on the
        # field is read and is no number. Either way it is MalformedCsv.
        with pytest.raises(MalformedCsv, match="line 3"):
            load_table(write(tmp_path, "A,Y\n1,2\n3,\x004\n"))

    def test_crlf_and_header_only(self, tmp_path):
        ds = load_dataset(write(tmp_path, "A,Y\r\n1,2\r\n"), "Y")
        assert ds.n_rows == 1
        empty = load_table(write(tmp_path, "A,Y\n", name="empty.csv"))
        assert empty.n_rows == 0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX FIFOs")
    def test_fifo_reads_as_the_file(self, tmp_path):
        # Five blocks of lines, through a stream that cannot be rewound.
        path = tmp_path / "plant.csv"
        write_csv(generate(GenSpec(default_layout(), 5_000, 3)), path)
        fifo = tmp_path / "plant.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
        writer.start()
        try:
            piped = load_table(fifo)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert piped.signals == load_table(path).signals
        assert piped.values.tobytes() == load_table(path).values.tobytes()

    @pytest.mark.parametrize("first", ["1,2", '"1",2'], ids=["blocks", "csv.reader"])
    def test_file_grown_after_its_lines_were_counted(self, tmp_path, monkeypatch, first):
        path = write(tmp_path, f"A,Y\n{first}\n3,4\n")
        count = data._count_lines
        monkeypatch.setattr(data, "_count_lines", lambda fh: count(fh) - 1)
        with pytest.raises(MalformedCsv, match="changed while it was read"):
            load_table(path)

    def test_file_shrunk_after_its_lines_were_counted(self, tmp_path, monkeypatch):
        path = write(tmp_path, "A,Y\n1,2\n3,\n")
        count = data._count_lines
        monkeypatch.setattr(data, "_count_lines", lambda fh: count(fh) + 1)
        table = load_table(path)
        assert table.values.tobytes() == np.array([[1.0, 2.0], [3.0, np.nan]]).tobytes()
        assert not table.values.flags.writeable


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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinity_is_refused_before_the_file_is_opened(self, tmp_path, bad):
        path = tmp_path / "inf.csv"
        ds = Dataset(("A", "Y"), [[1.0, 2.0], [np.nan, 3.0], [4.0, bad]])
        with pytest.raises(NonFinite, match=f"row 2, column 'Y': the value {bad} is not finite"):
            write_csv(ds, path)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (5, 1), (0, 1)])
    def test_empty_and_one_column_tables(self, tmp_path, shape):
        values = np.full(shape, np.nan)
        values[::2] = 2.5
        ds = Dataset(tuple(f"s{j}" for j in range(shape[1])), values)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_csv(ds, new)
        csv_oracle.write_csv(ds, old)
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("quoted", [False, True], ids=["quote-free", "csv-reader"])
    def test_budget_below_the_width_cuts_one_row_per_block(self, tmp_path, monkeypatch, quoted):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(7, 5))
        values[rng.random(values.shape) < 0.3] = np.nan
        ds = Dataset(tuple(f"s{j}" for j in range(5)), values)
        monkeypatch.setattr(data, "CSV_BLOCK_FIELDS", 4)
        # The rows of each block the writer formats and the reader splits.
        written, split = [], []
        unique_rows, split_block = data.unique_rows, data._split_block

        def spy_unique_rows(mask):
            written.append(len(mask))
            return unique_rows(mask)

        def spy_split_block(text, out):
            split.append(len(out))
            return split_block(text, out)

        monkeypatch.setattr(data, "unique_rows", spy_unique_rows)
        monkeypatch.setattr(data, "_split_block", spy_split_block)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_csv(ds, new)
        csv_oracle.write_csv(ds, old)
        assert new.read_bytes() == old.read_bytes()
        assert written == [1] * 7
        if quoted:
            quote_first_record(new)
        got = load_table(new)
        assert got.values.tobytes() == csv_oracle.load_table(new).values.tobytes()
        assert got.values.tobytes() == values.tobytes()
        # Quoted, the first block is refused and csv.reader reads the rest.
        assert split == ([1] if quoted else [1] * 7)


def quote_first_record(path):
    """Quote every field of the first record of the CSV file ``path``, so
    that every record of the file goes through csv.reader."""
    header, first, rest = path.read_text(encoding="utf-8").split("\n", 2)
    quoted = ",".join(f'"{field}"' for field in first.split(","))
    path.write_text(f"{header}\n{quoted}\n{rest}", encoding="utf-8")


class TestCsvMemory:
    """Peak traced allocation of the CSV stages, as a multiple of the
    table's value bytes: at 40k rows of the default plant (4.8 MB), at
    120k rows, and on a 3,000 x 300 table with 30% of its cells missing
    (7.2 MB).

    Measured with Python 3.11 and NumPy 2.4, plant seeds 5 and 6 and
    wide-table seeds 1 to 3. A block holds about ``CSV_BLOCK_FIELDS``
    fields at any width, so one set of pins holds for both tables.
    write_csv reads 0.125 on both. load_dataset reads 1.262 and 1.255,
    and load_table 1.211 on the wide table: the reader fills one array
    of the table's size, and the rest of its peak is one block of text
    and its fields, so at 120k rows it reads 1.086. With the first body
    line quoted, csv.reader reads every record and converts it into its
    row, so the rest of the peak is the one block of lines the splitter
    refused: 1.085 and 1.087, and 1.068 on the wide table (1.203 and
    1.134 when each block of records was built as a second array and
    copied in). Blocks of a fixed 4,096 rows read 0.413 (write), 1.938
    (load), 1.311 (120k rows) and 1.742 (quoted) on the plant, and 5.35,
    12.33 and 6.95 on the wide table, which was one block. tracemalloc
    sees only what goes through Python's and NumPy's allocators.
    """

    WRITE_PEAK = 0.25
    LOAD_PEAK = 1.4
    QUOTED_LOAD_PEAK = 1.15
    LARGE_LOAD_PEAK = 1.2

    @pytest.fixture(scope="class")
    def plant(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("memory") / "plant.csv"
        return generate(GenSpec(default_layout(), 40_000, 5)), path

    @pytest.fixture(scope="class")
    def wide(self, tmp_path_factory):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(3_000, 300))
        values[rng.random(values.shape) < 0.3] = np.nan
        path = tmp_path_factory.mktemp("memory") / "wide.csv"
        return Dataset(tuple(f"S{j}" for j in range(300)), values), path

    def test_write_csv_peak(self, plant):
        dataset, path = plant

        def written():
            write_csv(dataset, path)
            return dataset

        assert peak_over_values(written) <= self.WRITE_PEAK

    def test_load_dataset_peak(self, plant):
        dataset, path = plant
        write_csv(dataset, path)
        assert peak_over_values(lambda: load_dataset(path, "Y")) <= self.LOAD_PEAK

    def test_load_dataset_peak_with_a_quote(self, plant):
        dataset, path = plant
        write_csv(dataset, path)
        quote_first_record(path)
        loaded = load_dataset(path, "Y")
        assert np.array_equal(loaded.values, dataset.values, equal_nan=True)
        assert peak_over_values(lambda: load_dataset(path, "Y")) <= self.QUOTED_LOAD_PEAK

    def test_load_dataset_peak_at_120k_rows(self, tmp_path):
        # Three times the rows: the block's share falls and the table's stays.
        path = tmp_path / "large.csv"
        write_csv(generate(GenSpec(default_layout(), 120_000, 5)), path)
        assert peak_over_values(lambda: load_dataset(path, "Y")) <= self.LARGE_LOAD_PEAK

    def test_write_csv_peak_of_a_wide_table(self, wide):
        # Twenty times the plant's columns: a block's share must not grow with width.
        dataset, path = wide

        def written():
            write_csv(dataset, path)
            return dataset

        assert peak_over_values(written) <= self.WRITE_PEAK

    def test_load_table_peak_of_a_wide_table(self, wide):
        dataset, path = wide
        write_csv(dataset, path)
        assert peak_over_values(lambda: load_table(path)) <= self.LOAD_PEAK

    def test_load_table_peak_of_a_wide_table_with_a_quote(self, wide):
        dataset, path = wide
        write_csv(dataset, path)
        quote_first_record(path)
        assert load_table(path).values.tobytes() == dataset.values.tobytes()
        assert peak_over_values(lambda: load_table(path)) <= self.QUOTED_LOAD_PEAK


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

    @pytest.mark.parametrize(
        "n_rows,rows", [(6, None), (6, [4, 1, 4, 2]), (6, []), (0, None), (0, [])]
    )
    def test_no_columns(self, toy6, n_rows, rows):
        table = toy6.project(toy6.signals, rows=range(n_rows))
        sub = table.project([], rows=rows)
        kept = range(n_rows) if rows is None else set(rows)
        assert sub.signals == () and sub.target is None
        assert sub.values.shape == (len(kept), 0)
        assert sub.values.dtype == np.float64 and not sub.values.flags.writeable
        with pytest.raises(RowOutOfRange):
            table.project([], rows=[n_rows])

    @pytest.mark.parametrize("rows", [[6], np.array([2, -1, 2]), range(3, 8)])
    def test_rows_out_of_range_with_repeats(self, toy6, rows):
        with pytest.raises(RowOutOfRange):
            toy6.project({"A"}, rows=rows)

    def test_out_of_range_index_named_in_the_callers_type(self, toy6):
        # Cast to intp first, 2**63 would read as -2**63.
        with pytest.raises(RowOutOfRange, match=r"^row index 9223372036854775808 outside \[0, 6\)$"):
            toy6.project({"A"}, rows=np.array([1, 2**63, 1], dtype=np.uint64))
        sub = toy6.project({"A"}, rows=np.array([5, 0, 5], dtype=np.uint64))
        assert sub.column("A").tolist() == [1.0, 6.0]

    def test_commutes_for_disjoint_selections(self, toy6):
        rows = [0, 2, 5]
        cols = {"A", "Y"}
        a = toy6.project(cols).project(cols, rows=rows)
        b = toy6.project(toy6.signals, rows=rows).project(cols)
        assert a.signals == b.signals
        assert np.array_equal(a.values, b.values, equal_nan=True)


class TestAvailabilityMask:
    """Presence, a cell that is not NaN, as the row words answer for it."""

    def test_complete_dataset_all_true(self):
        ds = dataset_from_columns({"A": [1, 2], "Y": [3, 4]}, target="Y")
        assert ds.rows_with(ds.signals).tolist() == [True, True]
        patterns, counts = ds.availability_patterns()
        assert patterns.tolist() == [[True, True]] and counts.tolist() == [2]

    def test_toy6_column(self, toy6):
        assert toy6.rows_with(["C"]).tolist() == [True] * 3 + [False] * 3

    def test_zero_rows(self):
        ds = dataset_from_columns({"A": [], "Y": []}, target="Y")
        assert ds.rows_with(ds.signals).shape == (0,)
        patterns, counts = ds.availability_patterns()
        assert patterns.shape == (0, 2) and counts.shape == (0,)

    def test_row_sums_match_present_counts(self, toy6):
        present = ~np.isnan(toy6.values)
        for i in range(toy6.n_rows):
            assert present[i].sum() == len(toy6.present_signals(i))


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

    def test_read_only_view_is_copied(self):
        # The caller can still write the view's base array.
        base = np.array([[1.0, np.nan], [3.0, 4.0]])
        view = base[:]
        view.flags.writeable = False
        ds = Dataset(("a", "b"), view)
        patterns, counts = ds.availability_patterns()
        base[0, 1] = 2.0
        assert np.array_equal(ds.values, [[1.0, np.nan], [3.0, 4.0]], equal_nan=True)
        assert ds.rows_with(["b"]).tolist() == [False, True]
        assert counts.sum() == 2 and len(patterns) == 2

    @pytest.mark.parametrize(
        "make,writeable,kept",
        [
            (lambda: np.ones((2, 1)), True, False),
            (lambda: np.ones((2, 1)), False, True),
            (lambda: np.ones((2, 3))[:, :1], False, False),
            (lambda: np.ones((2, 1)).view(), False, False),
        ],
        ids=["writeable", "read-only-owned", "read-only-view", "read-only-view-of-all"],
    )
    def test_keeps_only_a_read_only_array_that_owns_its_memory(self, make, writeable, kept):
        values = make()
        values.flags.writeable = writeable
        ds = Dataset(("a",), values)
        assert (ds.values is values) == kept
        assert not ds.values.flags.writeable and ds.values.base is None

    def test_array_of_another_object_is_copied(self):
        class Holder:
            def __init__(self):
                self.values = np.ones((2, 1))

            def __array__(self, dtype=None, copy=None):
                return self.values

        holder = Holder()
        ds = Dataset(("a",), holder)
        assert ds.values is not holder.values and holder.values.flags.writeable

    def test_converted_input_is_not_copied_again(self):
        single = np.ones((50_000, 1), dtype=np.float32)
        assert peak_over_values(lambda: Dataset(("a",), single)) <= 1.25

    def test_columns_are_filled_once(self):
        column = [None, 1.5, 2.5] * 5_000
        columns = {f"s{j}": column for j in range(8)}
        assert peak_over_values(lambda: dataset_from_columns(columns)) <= 1.5


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

    def test_table_is_built_once(self):
        ds = generate(GenSpec(default_layout(), 40_000, 5))
        out = peak_over_values(lambda: coalesce_signals(ds, "CAL", ["CAL_1"]))
        assert out <= 1.5

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
