"""Column-oriented tabular data with explicit per-cell availability.

A missing cell is stored as NaN inside the value matrix and never leaks
out: the CSV reader rejects literal NaN input, so internally NaN means
"absent" and nothing else. Datasets are immutable after construction and
safe to share across threads; every operation returns a new dataset.

CSV format: UTF-8, header line of signal names, comma separator, ``.``
decimal point, empty field = missing value, LF or CRLF line endings.

The JSON documents (config, model, layout, strata) are read by
``read_json``, written by ``write_json`` and checked with the name,
number and integer helpers beside them.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from numbers import Real
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CoalesceConflict,
    DuplicateSignal,
    InputError,
    MalformedCsv,
    RowOutOfRange,
    UnknownSignal,
    UnknownTarget,
)

SignalId = str


def _check_signal_name(name: str) -> str:
    if not name:
        raise MalformedCsv("empty signal name in header")
    if "," in name or "\n" in name or "\r" in name:
        raise MalformedCsv(f"signal name {name!r} contains a comma or newline")
    return name


@dataclass(frozen=True)
class AvailabilityPattern:
    """A distinct set of present signals and how many rows exhibit it."""

    present: frozenset[SignalId]
    count: int


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable table of optional float64 values.

    ``values`` has shape (n_rows, len(signals)); a NaN entry marks a
    missing cell. ``target`` names the prediction target column and may
    be ``None`` for feature-only tables (e.g. prediction inputs or
    projections that drop the target).
    """

    signals: tuple[SignalId, ...]
    values: np.ndarray
    target: SignalId | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(self.signals):
            raise ValueError("values must be a 2-D array with one column per signal")
        if len(set(self.signals)) != len(self.signals):
            raise DuplicateSignal("signal names must be pairwise distinct")
        for name in self.signals:
            _check_signal_name(name)
        if self.target is not None and self.target not in self.signals:
            raise UnknownTarget(f"target {self.target!r} is not a signal")
        values = values.copy() if values.flags.writeable else values
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "signals", tuple(self.signals))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def index(self, signal: SignalId) -> int:
        try:
            return self.signals.index(signal)
        except ValueError:
            raise UnknownSignal(f"unknown signal {signal!r}") from None

    def column(self, signal: SignalId) -> np.ndarray:
        """Read-only value column; NaN marks missing cells."""
        return self.values[:, self.index(signal)]

    @cached_property
    def _mask(self) -> np.ndarray:
        mask = ~np.isnan(self.values)
        mask.flags.writeable = False
        return mask

    def availability_mask(self) -> np.ndarray:
        """Boolean (n_rows, n_signals) matrix, True where a cell is present.

        It is computed on the first call and the same read-only array is
        returned by every later one.
        """
        return self._mask

    def rows_with(self, signals: Iterable[SignalId]) -> np.ndarray:
        """Boolean per row: True where every one of ``signals`` is present.

        No signals select every row; an unknown one raises UnknownSignal.
        """
        return self._mask[:, [self.index(s) for s in signals]].all(axis=1)

    def present_signals(self, row: int) -> set[SignalId]:
        self._check_row(row)
        return {s for s, ok in zip(self.signals, self._mask[row]) if ok}

    def row_values(self, row: int) -> dict[SignalId, float]:
        """Mapping of present signals to their values for one row."""
        self._check_row(row)
        vals = self.values[row].tolist()
        return {s: v for s, v in zip(self.signals, vals) if v == v}  # NaN != NaN

    def project(
        self,
        keep: Iterable[SignalId],
        rows: Iterable[int] | np.ndarray | None = None,
    ) -> "Dataset":
        """Select columns and rows; original row and column order is kept.

        ``rows`` may list indices in any order and repeat them; each
        selected row appears once. The target is retained only if it is
        among ``keep``.
        """
        keep_set = set(keep)
        unknown = keep_set - set(self.signals)
        if unknown:
            raise UnknownSignal(f"unknown signals: {sorted(unknown)}")
        cols = [s for s in self.signals if s in keep_set]
        if rows is None:
            row_idx = np.arange(self.n_rows)
        else:
            if not isinstance(rows, np.ndarray):
                rows = list(rows)
            row_idx = np.sort(np.asarray(rows, dtype=np.intp))
            first = np.ones(row_idx.size, dtype=bool)
            first[1:] = row_idx[1:] != row_idx[:-1]
            row_idx = row_idx[first]
            if row_idx.size and (row_idx[0] < 0 or row_idx[-1] >= self.n_rows):
                bad = row_idx[0] if row_idx[0] < 0 else row_idx[-1]
                raise RowOutOfRange(f"row index {bad} outside [0, {self.n_rows})")
        col_idx = [self.index(s) for s in cols]
        sub = self.values[np.ix_(row_idx, col_idx)] if col_idx else \
            np.empty((len(row_idx), 0), dtype=np.float64)
        sub.flags.writeable = False  # a fresh array, so Dataset need not copy
        target = self.target if self.target in keep_set else None
        return Dataset(tuple(cols), sub, target)

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n_rows:
            raise RowOutOfRange(f"row index {row} outside [0, {self.n_rows})")


def dataset_from_columns(
    columns: Mapping[SignalId, Sequence[float | None]],
    target: SignalId | None = None,
) -> Dataset:
    """Build a dataset from per-signal value lists; ``None`` marks missing."""
    signals = tuple(columns)
    lengths = {len(v) for v in columns.values()}
    if len(lengths) > 1:
        raise ValueError("all columns must have the same length")
    n = lengths.pop() if lengths else 0
    values = np.full((n, len(signals)), np.nan)
    for j, name in enumerate(signals):
        for i, v in enumerate(columns[name]):
            if v is not None:
                values[i, j] = float(v)
    return Dataset(signals, values, target)


# ``float`` also reads digit separators, surrounding whitespace and
# non-ASCII digits; a number in the CSV grammar holds none of them.
_NOT_IN_NUMBERS = ("_", " ", "\t", "\n", "\r", "\x0b", "\x0c")


def _plain(text: str) -> bool:
    return text.isascii() and not any(c in text for c in _NOT_IN_NUMBERS)


def _parse_cell(field: str, line_no: int, col: str) -> float:
    if field == "":
        return math.nan
    try:
        if not _plain(field):
            raise ValueError
        value = float(field)
    except ValueError:
        raise MalformedCsv(
            f"line {line_no}, column {col!r}: unparsable number {field!r}"
        ) from None
    if not math.isfinite(value):
        # A literal NaN would introduce a second missing-value encoding,
        # and an infinity is no measurement.
        raise MalformedCsv(
            f"line {line_no}, column {col!r}: {field!r} is not a finite number"
        )
    return value


# Records converted (read) or lines formatted (write) per step; bounds the
# text and Python objects held at once.
CSV_BLOCK_ROWS = 4096


def _parse_block(
    block: list[list[str]], header: list[str], first_line: int, path: str | Path
) -> np.ndarray:
    """One block of records as a (len(block), len(header)) float array."""
    width = len(header)
    if all(len(record) == width for record in block):
        fields = list(chain.from_iterable(block))
        present = np.fromiter(map(bool, fields), bool, len(fields))
        try:
            if not _plain("".join(fields)):
                raise ValueError
            parsed = np.fromiter(
                map(float, filter(None, fields)), np.float64, int(present.sum())
            )
        except ValueError:
            parsed = None
        if parsed is not None and np.isfinite(parsed).all():
            values = np.full(len(fields), np.nan)
            values[present] = parsed
            return values.reshape(len(block), width)
    # Some record is malformed: walk the block line by line, so the error
    # names the first bad line and column in file order.
    rows = []
    for line_no, record in enumerate(block, start=first_line):
        if len(record) != width:
            raise MalformedCsv(
                f"{path}: line {line_no} has {len(record)} fields, expected {width}"
            )
        rows.append([_parse_cell(f, line_no, c) for f, c in zip(record, header)])
    return np.array(rows, dtype=np.float64).reshape(len(block), width)


def load_table(path: str | Path) -> Dataset:
    """Read a CSV file into a target-less dataset.

    Records are parsed in blocks of ``CSV_BLOCK_ROWS``; an error names the
    first bad line and column in file order.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise MalformedCsv(f"{path}: empty file") from None
            if len(set(header)) != len(header):
                dupes = sorted({s for s in header if header.count(s) > 1})
                raise DuplicateSignal(f"{path}: duplicated signals {dupes}")
            for name in header:
                _check_signal_name(name)
            blocks = [np.empty((0, len(header)))]
            line_no = 2
            while block := list(islice(reader, CSV_BLOCK_ROWS)):
                blocks.append(_parse_block(block, header, line_no, path))
                line_no += len(block)
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not UTF-8 text ({exc})") from None
    values = np.concatenate(blocks)
    values.flags.writeable = False  # nothing else holds it, so Dataset need not copy
    return Dataset(tuple(header), values)


def load_dataset(path: str | Path, target: SignalId) -> Dataset:
    """Read a CSV file and designate ``target`` as the prediction target."""
    table = load_table(path)
    if target not in table.signals:
        raise UnknownTarget(f"{path}: target {target!r} not in header")
    return Dataset(table.signals, table.values, target)


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to CSV; missing cells become empty fields.

    Values are formatted with ``repr`` so a reload reproduces them
    bit-for-bit. Lines are formatted in blocks of ``CSV_BLOCK_ROWS``.
    """
    # ``repr`` spells only NaN "nan". csv.writer quotes a row made of one
    # empty field, so a missing cell of a one-column table is written '""'.
    missing = '""' if len(dataset.signals) == 1 else ""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(dataset.signals)
        for start in range(0, dataset.n_rows, CSV_BLOCK_ROWS):
            rows = dataset.values[start:start + CSV_BLOCK_ROWS].tolist()
            text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
            fh.write(text.replace("nan", missing))


def coalesce_signals(
    dataset: Dataset,
    merged: SignalId,
    sources: Sequence[SignalId],
    tol: float = 1e-9,
) -> Dataset:
    """Fuse interchangeable signals into one column.

    Per row the merged value is the first present source. Rows where
    several sources are present must agree within ``tol``, otherwise the
    data is inconsistent and CoalesceConflict is raised.
    """
    if not sources:
        raise ValueError("coalesce needs at least one source signal")
    _check_signal_name(merged)
    src_idx = [dataset.index(s) for s in sources]
    survivors = [s for s in dataset.signals if s not in set(sources)]
    if merged in survivors:
        raise DuplicateSignal(f"merged signal {merged!r} already exists")

    block = dataset.values[:, src_idx]
    present = dataset.availability_mask()[:, src_idx]
    spread = np.where(present, block, -np.inf).max(axis=1) - np.where(
        present, block, np.inf
    ).min(axis=1)
    conflicts = np.flatnonzero((present.sum(axis=1) > 1) & (spread > tol))
    if conflicts.size:
        row = conflicts[0]
        vals = block[row, present[row]]
        raise CoalesceConflict(
            f"row {row}: sources {list(sources)} disagree ({vals.tolist()})"
        )
    fused = np.full(dataset.n_rows, np.nan)
    for j in reversed(range(len(src_idx))):
        fused = np.where(present[:, j], block[:, j], fused)

    out_signals: list[SignalId] = []
    out_cols: list[np.ndarray] = []
    first_pos = min(src_idx)
    for j, name in enumerate(dataset.signals):
        if j == first_pos:
            out_signals.append(merged)
            out_cols.append(fused)
        if name not in set(sources):
            out_signals.append(name)
            out_cols.append(dataset.values[:, j])
    target = dataset.target
    if target in set(sources):
        target = merged
    return Dataset(tuple(out_signals), np.column_stack(out_cols), target)


# --- JSON documents -------------------------------------------------------------
# "A name", "a number" and "an integer" mean the same in every document.
# The predicates answer yes or no; the checks return the value or raise
# (``signal_names`` TypeError, ``number`` and ``integer`` ValueError
# naming the field).


def read_json(path: str | Path, error: type[InputError], what: str):
    """The JSON document in the file at ``path``; text that is not UTF-8,
    not JSON or nested past the recursion limit raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise error(f"{what}: {path} is not UTF-8 text ({exc})") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{what}: {path} is not valid JSON ({exc})") from None


def write_json(path: str | Path, obj) -> None:
    """``obj`` as JSON with sorted keys, two-space indents and a final newline.

    NaN and infinities raise ValueError: strict JSON has no spelling for
    them, and no report or model may hold one.
    """
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def is_name_list(value) -> bool:
    """Whether a decoded JSON value is a list of names (strings)."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def is_number(value) -> bool:
    """Whether a decoded JSON value is a finite real that is not a bool.

    ``NaN``, ``Infinity``, ``1e400`` (read as infinity) and an integer
    too large for a float are not numbers.
    """
    return (
        isinstance(value, Real)
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def is_integer(value) -> bool:
    """Whether a decoded JSON value is an integer; ``true`` and ``1.0`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def signal_names(value) -> tuple[str, ...]:
    """A JSON list of names as a tuple; TypeError for anything else,
    including a string, which would otherwise split into characters."""
    if not is_name_list(value):
        raise TypeError(f"expected a list of names, got {value!r}")
    return tuple(value)


def number(value, field: str) -> float:
    """A JSON number as a float; ValueError naming ``field`` for anything else."""
    if not is_number(value):
        raise ValueError(f"{field} must be a finite number, got {value!r}")
    return float(value)


def integer(value, field: str) -> int:
    """A JSON integer; ValueError naming ``field`` for anything else."""
    if not is_integer(value):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value
