"""The block CSV reader and writer against the cell-at-a-time reference.

``data.write_csv`` must write the bytes ``tests/csv_oracle.py`` writes,
and ``data.load_table`` must read the same values (compared as bytes)
or raise the same exception type with the same message. The block size
is cut to 3 records (1 to 4 in the fallback property) so that files
span several blocks and malformed records land past the first one.
"""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeboost import data
from routeboost.data import Dataset
from routeboost.errors import MalformedCsv
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
        mp.setattr(data, "_block_rows", lambda width: BLOCK)
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
        mp.setattr(data, "_block_rows", lambda width: BLOCK)
        got = outcome(data.load_table, path)
    assert got == outcome(csv_oracle.load_table, path)


# One character past csv's default field_size_limit, and a finite number,
# so only the limit refuses it.
OVER_LIMIT = "0" * 131_073

# Files whose blocks of 3 lines leave the quote-free path at different
# points, and the outcome each must have (None: it reads).
CASES = {
    "quote in the third block": ("A,B\n" + "1,2\n" * 6 + '"3",4\n5,\n,6\n', None),
    "quote in the third block, bad cell after it": (
        "A,B\n" + "1,2\n" * 6 + '"3",4\n5,x\n', "line 9, column 'B'"
    ),
    "crlf": ("A,B\r\n1,2\r\n,3\r\n4,\r\n5,6\r\n", None),
    "lone cr": ("A,B\n1,2\n3,4\r5,6\n", None),
    "one column with a blank line": ("A\n1\n2\n\n3\n", "line 4 has 0 fields"),
    "one column with a missing cell": ('A\n1\n""\n3\n', None),
    "width + 1 then width - 1 fields": ("A,B\n1,2\n1,2,3\n4\n", "line 3 has 3 fields"),
    "over-limit field": (f"A,B\n1,2\n3,{OVER_LIMIT}\n", "line 3: field larger than"),
    "over-limit quoted field": (f'A,B\n1,2\n"3","{OVER_LIMIT}"\n', "line 3: field larger than"),
    "bad cell before an over-limit field": (
        f"A,B\n1,x\n3,{OVER_LIMIT}\n", "line 2, column 'B'"
    ),
    # Every record goes through csv.reader, and the last one fills a block.
    "quote on the first line, two blocks of records": (
        'A,B\n"1",2\n' + "3,\n" * (2 * BLOCK - 1), None
    ),
    "quote, bad cell, over-limit field a block later": (
        f'A,B\n"1",2\n3,x\n5,6\n7,8\n9,{OVER_LIMIT}\n', "line 3, column 'B'"
    ),
    # A quoted line break makes one record of two lines, so there are
    # fewer records than lines; no number or name may hold one.
    "quoted line break in the body": (
        'A,B\n1,2\n"3\n4",5\n6,7\n', "line 3, column 'A': unparsable number"
    ),
    "quoted line break in the header": ('A,"B\nC"\n1,2\n', "contains a comma or newline"),
    "no line end on the last line": ("A,B\n" + "1,2\n" * 4 + "3,4", None),
    "lone cr line ends only": ("A,B\r1,2\r3,\r,4\r5,6\r", None),
    "header only": ("A,B\n", None),
    "bom and crlf": ("\ufeffA,B\r\n1,2\r\n,3\r\n4,\r\n5,6\r\n", None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_quote_free_blocks_and_fallback_match_reference(monkeypatch, tmp_path, case):
    text, error = CASES[case]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(data, "_block_rows", lambda width: BLOCK)
    got = outcome(data.load_table, path)
    assert got == outcome(csv_oracle.load_table, path)
    if error is None:
        assert isinstance(got[0], tuple)
    else:
        assert got[0] is MalformedCsv and got[1].startswith(f"{path}: ") and error in got[1]


@settings(max_examples=150, deadline=None)
@given(
    width=st.integers(1, 5),
    n_rows=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 4),
    data_=st.data(),
)
def test_fallback_from_any_block_matches_reference(
    tmp_path_factory, width, n_rows, seed, block, data_
):
    # One quoted body line sends its block and the rest of the file to
    # csv.reader after the blocks before it were split into their rows.
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_rows, width))
    values[rng.random(values.shape) < 0.3] = np.nan
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    data.write_csv(Dataset(tuple(f"s{j}" for j in range(width)), values), path)
    header, *body = path.read_text(encoding="utf-8").splitlines()
    bad = data_.draw(st.none() | st.tuples(st.integers(0, n_rows - 1), st.integers(0, width - 1)))
    if bad is not None:
        fields = body[bad[0]].split(",")
        fields[bad[1]] = "x"
        body[bad[0]] = ",".join(fields)
    line = data_.draw(st.integers(0, n_rows - 1))
    body[line] = ",".join(
        f if f.startswith('"') else f'"{f}"' for f in body[line].split(",")
    )
    path.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
    with mock.patch.object(data, "_block_rows", lambda width: block):
        got = outcome(data.load_table, path)
    assert got == outcome(csv_oracle.load_table, path)
    if bad is None:
        assert got[1] == values.tobytes()
    else:
        assert got[0] is MalformedCsv and f"line {bad[0] + 2}, column 's{bad[1]}'" in got[1]


@settings(max_examples=200, deadline=None)
@given(
    text=st.lists(st.sampled_from(["\r", "\n", "\r\n", "1", ","]), max_size=12).map("".join),
    chunk=st.integers(1, 4),
)
def test_line_count_matches_the_text_reader(text, chunk):
    # Chunks this small put a CRLF across two of them.
    lines = io.TextIOWrapper(io.BytesIO(text.encode()), newline="").readlines()
    assert data._count_lines(io.BytesIO(text.encode()), chunk) == len(lines)
