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
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from numbers import Real
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import (
    CoalesceConflict,
    DuplicateSignal,
    InputError,
    MalformedCsv,
    NonFinite,
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

    @cached_property
    def _patterns(self) -> tuple[np.ndarray, np.ndarray]:
        first, inverse = unique_rows(self._mask)
        rows = self._mask[first]
        counts = np.bincount(inverse, minlength=first.size)
        rows.flags.writeable = counts.flags.writeable = False
        return rows, counts

    def availability_patterns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(patterns, counts)``: each distinct row of ``availability_mask()``
        once, as a read-only bool (n_patterns, n_signals) matrix in an
        unspecified but fixed order, and the read-only number of rows
        showing each, which sum to n_rows.

        The mask is sorted once, on the first call; every summary of the
        missingness structure reduces these few rows instead of the mask.
        """
        return self._patterns

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
    values.flags.writeable = False  # a fresh array, so Dataset need not copy
    return Dataset(signals, values, target)


# ``float`` also reads digit separators, surrounding whitespace and
# non-ASCII digits; a number in the CSV grammar holds none of them.
_NOT_IN_NUMBERS = frozenset("_ \t\n\r\x0b\x0c")


def _plain(text: str) -> bool:
    return text.isascii() and not any(c in text for c in _NOT_IN_NUMBERS)


def _parse_cell(field: str, line_no: int, col: str) -> float:
    if field == "":
        return math.nan
    try:
        # _plain's scans suit a block of text; a field is short.
        if not (field.isascii() and _NOT_IN_NUMBERS.isdisjoint(field)):
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


def _field_presence(text: str, n_lines: int, width: int) -> np.ndarray | None:
    """Whether each field of ``n_lines`` newline-ended lines of ASCII text
    is non-empty; ``None`` unless every line has ``width`` fields within
    ``csv.field_size_limit()``. Non-ASCII text raises UnicodeEncodeError.

    Its arrays are several times the block's values, so they are freed
    before the fields are split.
    """
    codes = np.frombuffer(text.encode("ascii"), np.uint8)
    # The comma or newline that ends each field. Each line ends in one
    # newline, so when every width-th of them is a newline and there are
    # n_lines * width, every line has exactly width fields.
    ends = np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))
    if ends.size != n_lines * width or (codes[ends[width - 1::width]] != ord("\n")).any():
        return None
    gaps = np.diff(ends, prepend=-1)  # a field's length plus one
    if gaps.max() > csv.field_size_limit() + 1:
        return None
    return gaps > 1


def _split_block(text: str, out: np.ndarray) -> bool:
    """Split whole lines of text into ``out``, the rows of the table they
    fill, one row per line; whether it did.

    This splits the text the way csv.reader would, so it answers only
    for text with no quote, no CR outside a CRLF and no non-ASCII
    character, where every line has one field per column of ``out``
    within ``csv.field_size_limit()``. Anything else, and any field that is not
    a finite number, gives False and may leave ``out`` partly written.
    """
    if '"' in text:
        return False
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return False
    if not text.endswith("\n"):  # the last line of the file
        text += "\n"
    try:
        present = _field_presence(text, *out.shape)
    except UnicodeEncodeError:
        return False
    if present is None:
        return False
    if out.shape[1] == 1 and not present.all():
        return False  # csv.reader reads a blank line as a record of no fields
    # Commas are plain, and a CR was refused above.
    text = text.replace("\n", ",")
    if not _plain(text):
        return False
    try:
        parsed = np.fromiter(
            map(float, filter(None, text.split(","))), np.float64, int(present.sum())
        )
    except ValueError:
        return False
    if not np.isfinite(parsed).all():
        return False
    flat = out.reshape(-1)  # a view: out holds whole rows of a C-ordered table
    flat.fill(np.nan)
    flat[present] = parsed
    return True


def _parse_records(
    reader: Iterator[list[str]], header: list[str], line_no: int, path: str | Path
) -> Iterator[np.ndarray]:
    """The float blocks of the records ``reader`` has left, the first of
    them on line ``line_no``.

    Each record is converted with ``_parse_cell`` as it is read, so the
    first bad record raises, and the rows are flushed every
    ``CSV_BLOCK_ROWS`` records.
    """
    width = len(header)
    rows: list[list[float]] = []
    try:
        for record in reader:
            if len(record) != width:
                raise MalformedCsv(
                    f"{path}: line {line_no} has {len(record)} fields, expected {width}"
                )
            rows.append([_parse_cell(f, line_no, c) for f, c in zip(record, header)])
            line_no += 1
            if len(rows) == CSV_BLOCK_ROWS:
                yield np.array(rows)
                rows = []
    except csv.Error as exc:
        raise MalformedCsv(f"{path}: line {line_no}: {exc}") from None
    yield np.array(rows, dtype=np.float64).reshape(len(rows), width)


def _count_lines(fh: BinaryIO, chunk: int = 1 << 20) -> int:
    """The lines of the binary stream ``fh``, read ``chunk`` bytes at a
    time, as the text reader and csv.reader split them: each ``\\n``,
    ``\\r\\n`` or lone ``\\r`` ends one, and the last may have no end."""
    lines, last = 0, b""
    while data := fh.read(chunk):
        # NumPy compares bytes several times faster than bytes.count counts them.
        codes = np.frombuffer(data, np.uint8)
        lf = codes == ord("\n")
        lines += int(np.count_nonzero(lf))
        if b"\r" in data:  # a CR ends a line unless an LF follows it
            cr = codes == ord("\r")
            lines += int(np.count_nonzero(cr[:-1] & ~lf[1:])) + bool(cr[-1])
        lines -= last == b"\r" and data.startswith(b"\n")  # a CRLF across chunks
        last = data[-1:]
    return lines + (last not in (b"", b"\n", b"\r"))


def load_table(path: str | Path) -> Dataset:
    """Read a CSV file into a target-less dataset.

    The file is opened once in binary and its lines are counted, then
    rewound and read as text by ``_read_rows``; a stream that cannot be
    rewound, such as a pipe, is read into memory first.
    """
    try:
        with open(path, "rb") as raw:
            stream = raw if raw.seekable() else io.BytesIO(raw.read())
            n_lines = _count_lines(stream)
            stream.seek(0)
            with io.TextIOWrapper(stream, encoding="utf-8-sig", newline="") as fh:
                header, values = _read_rows(fh, n_lines, path)
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not UTF-8 text ({exc})") from None
    values.flags.writeable = False  # nothing else holds it, so Dataset need not copy
    return Dataset(tuple(header), values)


def _read_rows(fh: TextIO, n_lines: int, path: str | Path) -> tuple[list[str], np.ndarray]:
    """The header and the values of the CSV text ``fh`` of ``n_lines`` lines.

    A table has at most one row per line after the header, so its values
    are allocated once. The lines are read in blocks of
    ``CSV_BLOCK_ROWS``, and ``_split_block`` writes each into its rows.
    A block it cannot split, and the rest of the file after it, go
    through csv.reader and ``_parse_records`` one record at a time,
    field by field, and each converted block is copied into its rows.
    An error names the first bad line and column in file order. A file
    that grew after its lines were counted raises MalformedCsv; one that
    shrank has its filled rows copied out.
    """
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise MalformedCsv(f"{path}: empty file") from None
    except csv.Error as exc:
        raise MalformedCsv(f"{path}: line 1: {exc}") from None
    if len(set(header)) != len(header):
        dupes = sorted({s for s in header if header.count(s) > 1})
        raise DuplicateSignal(f"{path}: duplicated signals {dupes}")
    for name in header:
        _check_signal_name(name)
    # A valid header is one line, and a record takes at least one more.
    values = np.empty((max(n_lines - 1, 0), len(header)))

    def rows(start: int, n: int) -> np.ndarray:
        if start + n > len(values):
            raise MalformedCsv(f"{path}: the file changed while it was read")
        return values[start:start + n]

    n_rows = 0
    while lines := list(islice(fh, CSV_BLOCK_ROWS)):
        if not _split_block("".join(lines), rows(n_rows, len(lines))):
            reader = csv.reader(chain(lines, fh))
            for block in _parse_records(reader, header, n_rows + 2, path):
                rows(n_rows, len(block))[...] = block
                n_rows += len(block)
            break
        n_rows += len(lines)
    return header, values if n_rows == len(values) else values[:n_rows].copy()


def load_dataset(path: str | Path, target: SignalId) -> Dataset:
    """Read a CSV file and designate ``target`` as the prediction target."""
    table = load_table(path)
    if target not in table.signals:
        raise UnknownTarget(f"{path}: target {target!r} not in header")
    return Dataset(table.signals, table.values, target)


def unique_rows(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of the distinct rows of a bool matrix:
    ``mask[first]`` holds each once, in an unspecified order, and
    ``mask[first][inverse]`` equals ``mask``.

    Each row is packed into bytes and compared as one opaque key, which
    avoids the column-by-column row sort of ``np.unique(axis=0)``.
    """
    packed = np.packbits(mask, axis=1)  # a new C-ordered array
    if not packed.shape[1]:  # no columns: every row is the same empty row
        return np.arange(min(len(mask), 1)), np.zeros(len(mask), dtype=np.intp)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to CSV; missing cells become empty fields.

    Values are formatted with ``repr`` so a reload reproduces them
    bit-for-bit. An infinity, which the reader refuses, raises NonFinite
    naming its row and column before the file is opened. Lines are
    formatted in blocks of ``CSV_BLOCK_ROWS``: each row gets the line
    template of its availability pattern, and the block is one ``%``
    of the joined templates with its present values.
    """
    values, width = dataset.values, len(dataset.signals)
    if np.isinf(values).any():
        row, col = np.argwhere(np.isinf(values))[0].tolist()
        raise NonFinite(
            f"row {row}, column {dataset.signals[col]!r}: the value "
            f"{values[row, col]} is not finite; a CSV cell holds a finite number"
        )
    # csv.writer quotes a row made of one empty field, so a missing cell
    # of a one-column table is written '""'.
    missing = '""' if width == 1 else ""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(dataset.signals)
        if not width:
            fh.write("\n" * dataset.n_rows)
            return
        for start in range(0, dataset.n_rows, CSV_BLOCK_ROWS):
            block = values[start:start + CSV_BLOCK_ROWS]
            present = block == block  # NaN != NaN
            first, pattern = unique_rows(present)
            templates = [
                ",".join(["%r" if p else missing for p in row]) + "\n"
                for row in present[first].tolist()
            ]
            line_templates = "".join(map(templates.__getitem__, pattern.tolist()))
            fh.write(line_templates % tuple(block[present].tolist()))


# How far apart the present sources of a row may be when they are coalesced.
COALESCE_TOLERANCE = 1e-9


def coalesce_signals(
    dataset: Dataset,
    merged: SignalId,
    sources: Sequence[SignalId],
) -> Dataset:
    """Fuse interchangeable signals into one column.

    Per row the merged value is the first present source. Rows where
    several sources are present must agree within ``COALESCE_TOLERANCE``,
    otherwise the data is inconsistent and CoalesceConflict is raised.
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
    conflicts = np.flatnonzero((present.sum(axis=1) > 1) & (spread > COALESCE_TOLERANCE))
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
    values = np.column_stack(out_cols)
    values.flags.writeable = False  # a fresh array, so Dataset need not copy
    return Dataset(tuple(out_signals), values, target)


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
