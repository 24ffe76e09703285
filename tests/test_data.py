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
        # Two blocks of lines, through a stream that cannot be rewound.
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


class TestCsvMemory:
    """Peak traced allocation of the CSV stages at 40k rows of the default
    plant, as a multiple of the table's value bytes (4.8 MB), and of
    load_dataset at 120k rows.

    Measured with Python 3.11 and NumPy 2.4, seeds 5 and 6: write_csv
    0.414 and 0.413, load_dataset 1.938 and 1.932. The reader fills one
    array of the table's size, so the rest of its peak is one block of
    text and its fields, which does not grow with the table: at 120k
    rows load_dataset reads 1.311. A reader that kept its float blocks
    and concatenated them read 2.006 and 2.001, and 2.001 at 120k rows.
    With the first body line quoted, every record goes through
    csv.reader: 1.742 and 1.741, against 2.188 and 2.186 with the blocks
    concatenated and 4.58 when the converted rows are not flushed every
    block. tracemalloc sees only what goes through Python's and NumPy's
    allocators.
    """

    WRITE_PEAK = 0.5
    LOAD_PEAK = 2.0
    QUOTED_LOAD_PEAK = 1.8
    LARGE_LOAD_PEAK = 1.5

    @pytest.fixture(scope="class")
    def plant(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("memory") / "plant.csv"
        return generate(GenSpec(default_layout(), 40_000, 5)), path

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
        header, first, rest = path.read_text(encoding="utf-8").split("\n", 2)
        quoted = ",".join(f'"{field}"' for field in first.split(","))
        path.write_text(f"{header}\n{quoted}\n{rest}", encoding="utf-8")
        loaded = load_dataset(path, "Y")
        assert np.array_equal(loaded.values, dataset.values, equal_nan=True)
        assert peak_over_values(lambda: load_dataset(path, "Y")) <= self.QUOTED_LOAD_PEAK

    def test_load_dataset_peak_at_120k_rows(self, tmp_path):
        # Three times the rows: the block's share falls and the table's stays.
        path = tmp_path / "large.csv"
        write_csv(generate(GenSpec(default_layout(), 120_000, 5)), path)
        assert peak_over_values(lambda: load_dataset(path, "Y")) <= self.LARGE_LOAD_PEAK


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
