"""Reference CSV reader and writer: one record, one cell at a time.

``routeboost.data`` converts records and formats lines in blocks. It
must write exactly the bytes ``write_csv`` here writes, read exactly the
values ``load_table`` here reads, and raise the same exception type with
the same message on the same malformed file. A ``csv.Error`` of the
header or of a record is a MalformedCsv naming that line.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from routeboost.data import Dataset, _check_signal_names, _parse_cell
from routeboost.errors import DuplicateSignal, MalformedCsv


def load_table(path: str | Path) -> Dataset:
    """Read a CSV file into a target-less dataset; every error names the file."""
    try:
        return _read(path)
    except (MalformedCsv, DuplicateSignal) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _read(path: str | Path) -> Dataset:
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsv("empty file") from None
        except csv.Error as exc:
            raise MalformedCsv(f"line 1: {exc}") from None
        if len(set(header)) != len(header):
            dupes = sorted({s for s in header if header.count(s) > 1})
            raise DuplicateSignal(f"duplicated signals {dupes}")
        _check_signal_names(header)
        rows = []
        line_no = 2  # of the record read next
        while True:
            try:
                record = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise MalformedCsv(f"line {line_no}: {exc}") from None
            if len(record) != len(header):
                raise MalformedCsv(
                    f"line {line_no} has {len(record)} fields, expected {len(header)}"
                )
            rows.append([_parse_cell(f, line_no, c) for f, c in zip(record, header)])
            line_no += 1
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    return Dataset(tuple(header), values)


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to CSV; missing cells become empty fields.

    Values are formatted with ``repr`` so a reload reproduces them
    bit-for-bit.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(dataset.signals)
        for row in dataset.values:
            writer.writerow(["" if math.isnan(v) else repr(float(v)) for v in row])
