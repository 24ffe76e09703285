"""The block CSV reader and writer against the cell-at-a-time reference.

``data.write_csv`` must write the bytes ``tests/csv_oracle.py`` writes,
and ``data.load_table`` must read the same values (compared as bytes)
or raise the same exception type with the same message. The block size
is cut to 3 records so that files span several blocks and malformed
records land past the first one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeboost import data
from routeboost.data import Dataset
from tests import csv_oracle

BLOCK = 3

CELLS = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300, 1e-300]),
)
NAMES = st.text(
    st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=5,
)


def outcome(load, path):
    try:
        table = load(path)
    except Exception as exc:  # compared with what the reference raises
        return type(exc), str(exc)
    return table.signals, table.values.tobytes()


@settings(max_examples=150, deadline=None)
@given(names=st.lists(NAMES, min_size=1, max_size=4, unique=True), data_=st.data())
def test_write_and_read_match_reference(tmp_path_factory, names, data_):
    rows = data_.draw(
        st.lists(st.lists(CELLS, min_size=len(names), max_size=len(names)), max_size=12)
    )
    values = np.array(
        [[np.nan if v is None else v for v in row] for row in rows], dtype=np.float64
    ).reshape(len(rows), len(names))
    dataset = Dataset(tuple(names), values)
    folder = tmp_path_factory.mktemp("csv")
    new, old = folder / "new.csv", folder / "old.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "CSV_BLOCK_ROWS", BLOCK)
        data.write_csv(dataset, new)
        csv_oracle.write_csv(dataset, old)
        assert new.read_bytes() == old.read_bytes()
        got = outcome(data.load_table, new)
    assert got == outcome(csv_oracle.load_table, new)
    assert got[1] == values.tobytes()


GOOD = ["", "1", "-0.0", "5e-324", "1e300", "-1e-300", "2.5", '"3.5"', '""']
BAD = ["abc", "nan", "NaN", "inf", "-Infinity", " ", "1e", "0x10", " 7 ", "1_0"]
HEADERS = ["A", "B", "E F", '"q""x"', '"C,D"', "B"]


@settings(max_examples=200, deadline=None)
@given(
    header=st.lists(st.sampled_from(HEADERS), min_size=1, max_size=3),
    bom=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    data_=st.data(),
)
def test_read_matches_reference(tmp_path_factory, header, bom, newline, data_):
    width = len(header)
    records = data_.draw(
        st.lists(st.lists(st.sampled_from(GOOD), min_size=width, max_size=width), max_size=14)
    )
    # Up to two defects: a bad cell, or a record one field short or long.
    for _ in range(data_.draw(st.integers(0, 2)) if records else 0):
        line = data_.draw(st.integers(0, len(records) - 1))
        defect = data_.draw(st.sampled_from(BAD + ["short", "long"]))
        if defect == "short":
            records[line] = records[line][:-1]
        elif defect == "long":
            records[line] = records[line] + ["1"]
        elif records[line]:
            cell = data_.draw(st.integers(0, len(records[line]) - 1))
            records[line][cell] = defect
    text = newline.join(",".join(r) for r in [header] + records) + newline
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_bytes(("\ufeff" if bom else "").encode() + text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "CSV_BLOCK_ROWS", BLOCK)
        got = outcome(data.load_table, path)
    assert got == outcome(csv_oracle.load_table, path)
