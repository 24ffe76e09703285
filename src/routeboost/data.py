"""Column-oriented tabular data with explicit per-cell availability.

A missing cell is stored as NaN inside the value matrix and never leaks
out: the CSV reader rejects literal NaN input, so internally NaN means
"absent" and nothing else. Datasets are immutable after construction and
safe to share across threads; every operation returns a new dataset.

Presence is kept as one bit per cell: ``_pack_rows`` packs each row's bits
into the smallest unsigned word that holds them (1, 2, 4 or 8 bytes, and
8-byte words past 64 signals), so a row never takes more bytes than its
bool row would. A dataset tests rows on these words and finds its
availability patterns by sorting them as integers; it keeps no bool
matrix of its presence.

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
from typing import BinaryIO, Iterable, Mapping, Sequence, TextIO

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


def _check_signal_names(names: Sequence[SignalId]) -> None:
    """DuplicateSignal when a name repeats, else MalformedCsv for a name
    that is empty or holds a comma or newline."""
    if len(set(names)) != len(names):
        dupes = sorted({s for s in names if names.count(s) > 1})
        raise DuplicateSignal(f"duplicated signals {dupes}")
    for name in names:
        if not name:
            raise MalformedCsv("empty signal name")
        if "," in name or "\n" in name or "\r" in name:
            raise MalformedCsv(f"signal name {name!r} contains a comma or newline")


def read_only_array(value) -> np.ndarray:
    """``value`` as a read-only float64 array: the caller's own if it is
    read-only and owns its memory (``base is None``), the one ``np.asarray``
    made of a list, tuple or array of another dtype, else a copy."""
    array = np.asarray(value, dtype=np.float64)
    fresh = array is not value and isinstance(value, (list, tuple, np.ndarray))
    if array.base is not None or (array.flags.writeable and not fresh):
        array = array.copy()
    array.flags.writeable = False
    return array


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

    A cell is present where it is not NaN, ``~np.isnan(values)``. That
    presence is packed into row words (``_pack_rows``) on the first
    question about it, and kept: a row takes 1 byte up to 8 signals, 2 up
    to 16, 4 up to 32, 8 up to 64, then 8 per 64. ``rows_with``,
    ``present_signals`` and ``availability_patterns`` read these words;
    a dataset keeps only them and its distinct patterns.
    """

    signals: tuple[SignalId, ...]
    values: np.ndarray
    target: SignalId | None = None

    def __post_init__(self) -> None:
        values = read_only_array(self.values)
        if values.ndim != 2 or values.shape[1] != len(self.signals):
            raise ValueError("values must be a 2-D array with one column per signal")
        _check_signal_names(self.signals)
        if self.target is not None and self.target not in self.signals:
            raise UnknownTarget(f"target {self.target!r} is not a signal")
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
    def _words(self) -> np.ndarray:
        words = _pack_rows(self.values)
        words.flags.writeable = False
        return words

    @cached_property
    def _patterns(self) -> tuple[np.ndarray, np.ndarray]:
        keys, counts = np.unique(_row_keys(self._words), return_counts=True)
        patterns = _unpack(keys, len(self.signals))
        patterns.flags.writeable = counts.flags.writeable = False
        return patterns, counts

    def availability_patterns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(patterns, counts)``: each distinct row of presence once, as a
        read-only bool (n_patterns, n_signals) matrix in an unspecified
        but fixed order, and the read-only number of rows showing each,
        which sum to n_rows.

        A copy of the row words is sorted once, on the first call, and its
        runs counted; every summary of the missingness structure reduces
        these few rows instead of the table.
        """
        return self._patterns

    def rows_with(self, signals: Iterable[SignalId]) -> np.ndarray:
        """Boolean per row: True where every one of ``signals`` is present.

        No signals select every row; an unknown one raises UnknownSignal.
        """
        words = self._words
        bits = 8 * words.itemsize
        wanted = [0] * words.shape[1]
        for j in map(self.index, signals):
            wanted[j // bits] |= 1 << (j % bits)
        rows = np.ones(self.n_rows, dtype=bool)
        for word, want in zip(words.T, wanted):
            if want:
                want = words.dtype.type(want)
                rows &= (word & want) == want
        return rows

    def present_signals(self, row: int) -> set[SignalId]:
        row = self._check_row(row)
        key = int.from_bytes(self._words[row].tobytes(), "little")
        return {s for j, s in enumerate(self.signals) if key >> j & 1}

    def row_values(self, row: int) -> dict[SignalId, float]:
        """Mapping of present signals to their values for one row."""
        if type(row) is not int or not 0 <= row < self.n_rows:
            row = self._check_row(row)
        vals = self.values[row].tolist()
        return {s: v for s, v in zip(self.signals, vals) if v == v}  # NaN != NaN

    def project(
        self,
        keep: Iterable[SignalId],
        rows: Iterable[int] | np.ndarray | None = None,
    ) -> "Dataset":
        """Select columns and rows; original row and column order is kept.

        ``rows`` may list indices in any order and repeat them; each
        selected row appears once, and a bool or float index raises
        TypeError. The target is retained only if it is among ``keep``.
        """
        keep_set = set(keep)
        unknown = keep_set - set(self.signals)
        if unknown:
            raise UnknownSignal(f"unknown signals: {sorted(unknown)}")
        cols = [s for s in self.signals if s in keep_set]
        if rows is None:
            row_idx = np.arange(self.n_rows)
        else:
            rows = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows))
            if rows.size and rows.dtype.kind not in "iu":
                raise TypeError(f"row indices must be integers, got {rows.dtype}")
            # Sorted and checked in the caller's integer type, so an index past
            # intp's range is named as given (np.unique would hash, then sort).
            row_idx = np.sort(rows)
            if row_idx.size and (row_idx[0] < 0 or row_idx[-1] >= self.n_rows):
                bad = row_idx[0] if row_idx[0] < 0 else row_idx[-1]
                raise RowOutOfRange(f"row index {bad} outside [0, {self.n_rows})")
            first = np.ones(row_idx.size, dtype=bool)
            first[1:] = row_idx[1:] != row_idx[:-1]
            row_idx = row_idx[first].astype(np.intp, copy=False)
        col_idx = [self.index(s) for s in cols]
        sub = self.values[np.ix_(row_idx, col_idx)]
        sub.flags.writeable = False  # a fresh array, so Dataset need not copy
        target = self.target if self.target in keep_set else None
        return Dataset(tuple(cols), sub, target)

    def _check_row(self, row: int) -> int:
        """``row`` as an ``int``; a bool or a non-integer raises TypeError."""
        if isinstance(row, (bool, np.bool_)) or not isinstance(row, (int, np.integer)):
            raise TypeError(f"row index {row!r} is not an integer")
        if not 0 <= row < self.n_rows:
            raise RowOutOfRange(f"row index {row} outside [0, {self.n_rows})")
        return int(row)


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


def _parse_cell(field: str, line_no: int, col: str) -> float:
    """The value of one field of line ``line_no``, column ``col``, NaN
    when empty; MalformedCsv when it is not a finite number in the CSV
    grammar. The csv.reader fallback and the test oracle read with it."""
    if field == "":
        return math.nan
    try:
        # _split_block scans a block once per excluded character; a field is short.
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


# Fields converted (read) or formatted (write) per step; bounds the text
# and Python objects held at once, whatever the table's width.
CSV_BLOCK_FIELDS = 16_384


def _block_rows(width: int) -> int:
    """The rows of a CSV block of a ``width``-column table: those holding
    ``CSV_BLOCK_FIELDS`` fields, and at least one. A row of no column
    counts as one field."""
    return max(1, CSV_BLOCK_FIELDS // max(width, 1))


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
    within ``csv.field_size_limit()``. Anything else, and any field that
    ``_parse_cell`` would refuse, gives False and may leave ``out``
    partly written.
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
    # Commas are plain and a CR was refused above. Non-ASCII digits were
    # refused when _field_presence encoded the text as ASCII.
    text = text.replace("\n", ",")
    if any(c in text for c in _NOT_IN_NUMBERS):
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
    rewound, such as a pipe, is read into memory first. Every error of
    reading names the file.
    """
    try:
        with open(path, "rb") as raw:
            stream = raw if raw.seekable() else io.BytesIO(raw.read())
            n_lines = _count_lines(stream)
            stream.seek(0)
            with io.TextIOWrapper(stream, encoding="utf-8-sig", newline="") as fh:
                header, values = _read_rows(fh, n_lines)
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not UTF-8 text ({exc})") from None
    except (MalformedCsv, DuplicateSignal) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    values.flags.writeable = False  # nothing else holds it, so Dataset need not copy
    return Dataset(tuple(header), values)


def _read_rows(fh: TextIO, n_lines: int) -> tuple[list[str], np.ndarray]:
    """The header and the values of the CSV text ``fh`` of ``n_lines`` lines.

    A table has at most one row per line after the header, so its values
    are allocated once. The lines are read in blocks of about
    ``CSV_BLOCK_FIELDS`` fields (``_block_rows`` lines), and
    ``_split_block`` writes each into its rows. From a block it cannot
    split to the end of the file, csv.reader reads one record at a time
    and ``_parse_cell`` converts it field by field into its row. An error
    names the first bad line and column in file order; ``load_table``
    adds the file. A file that grew after its lines were counted raises
    MalformedCsv; one that shrank has its filled rows copied out.
    """
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise MalformedCsv("empty file") from None
    except csv.Error as exc:
        raise MalformedCsv(f"line 1: {exc}") from None
    _check_signal_names(header)
    # A valid header is one line, and a record takes at least one more.
    values = np.empty((max(n_lines - 1, 0), len(header)))

    def rows(start: int, n: int) -> np.ndarray:
        if start + n > len(values):
            raise MalformedCsv("the file changed while it was read")
        return values[start:start + n]

    n_rows, block_rows = 0, _block_rows(len(header))
    while lines := list(islice(fh, block_rows)):
        if not _split_block("".join(lines), rows(n_rows, len(lines))):
            try:
                for record in csv.reader(chain(lines, fh)):
                    line_no = n_rows + 2  # of this record: the header is line 1
                    if len(record) != len(header):
                        raise MalformedCsv(
                            f"line {line_no} has {len(record)} fields, "
                            f"expected {len(header)}"
                        )
                    row = [_parse_cell(f, line_no, c) for f, c in zip(record, header)]
                    rows(n_rows, 1)[0] = row
                    n_rows += 1
            except csv.Error as exc:
                raise MalformedCsv(f"line {n_rows + 2}: {exc}") from None
            break
        n_rows += len(lines)
    return header, values if n_rows == len(values) else values[:n_rows].copy()


def load_dataset(path: str | Path, target: SignalId) -> Dataset:
    """Read a CSV file and designate ``target`` as the prediction target."""
    table = load_table(path)
    if target not in table.signals:
        raise UnknownTarget(f"{path}: target {target!r} not in header")
    return Dataset(table.signals, table.values, target)


def _pack_rows(table: np.ndarray) -> np.ndarray:
    """The presence of the cells of a float or bool matrix as row words:
    a float cell is present unless it is NaN, a bool cell when it is True.

    The words are an (n_rows, n_words) array of little-endian unsigned
    integers, 1, 2, 4 or 8 bytes wide, whichever is the smallest to hold
    a row's bits; past 64 columns, ceil(width / 64) words of 8 bytes.
    Column j is bit ``j % bits`` of word ``j // bits``, and the bits past
    the last column are 0, so equal rows have equal words.
    """
    n_rows, width = table.shape
    size = next((s for s in (1, 2, 4) if width <= 8 * s), 8)
    n_words = -(-width // (8 * size))
    # Each row padded with False to whole words, so one flat packbits
    # packs every row; packbits along rows is several times slower.
    present = np.zeros((n_rows, 8 * size * n_words), dtype=bool)
    if table.dtype == bool:
        present[:, :width] = table
    else:
        np.equal(table, table, out=present[:, :width])  # NaN != NaN
    packed = np.packbits(present, axis=None, bitorder="little")
    return packed.view(f"<u{size}").reshape(n_rows, n_words)


def _row_keys(words: np.ndarray) -> np.ndarray:
    """One key per row of ``_pack_rows`` words, equal exactly where the rows
    are: the row's word, or its bytes as one void value when it has
    several words, or zero when it has none."""
    n_rows, n_words = words.shape
    if n_words == 1:
        return words[:, 0]
    if n_words == 0:
        return np.zeros(n_rows, np.uint8)
    return words.view(np.dtype((np.void, n_words * words.itemsize)))[:, 0]


def _unpack(keys: np.ndarray, width: int) -> np.ndarray:
    """The bool rows of ``width`` cells that the row keys ``keys`` hold."""
    octets = keys.view(np.uint8).reshape(len(keys), keys.itemsize)
    return np.unpackbits(octets, axis=1, count=width, bitorder="little").view(bool)


def unique_rows(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of the distinct rows of a bool matrix:
    ``mask[first]`` holds each once, in an unspecified order, and
    ``mask[first][inverse]`` equals ``mask``.

    Each row is packed into its words and compared as one key, which
    avoids the column-by-column row sort of ``np.unique(axis=0)``.
    """
    _, first, inverse = np.unique(
        _row_keys(_pack_rows(mask)), return_index=True, return_inverse=True
    )
    return first, inverse


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to CSV; missing cells become empty fields.

    Values are formatted with ``repr`` so a reload reproduces them
    bit-for-bit. An infinity, which the reader refuses, raises NonFinite
    naming its row and column before the file is opened. Lines are
    formatted in blocks of about ``CSV_BLOCK_FIELDS`` fields
    (``_block_rows`` lines): each row gets the line template of its
    availability pattern, and the block is one ``%`` of the joined
    templates with its present values.
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
        block_rows = _block_rows(width)
        for start in range(0, dataset.n_rows, block_rows):
            block = values[start:start + block_rows]
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
    src_idx = [dataset.index(s) for s in sources]
    source_set = set(sources)
    kept = [j for j, s in enumerate(dataset.signals) if s not in source_set]
    signals = [dataset.signals[j] for j in kept]
    _check_signal_names([*signals, merged])

    block = dataset.values[:, src_idx]
    # fmax and fmin skip NaN: a row with one present source has no spread,
    # and a row with none a NaN spread; neither is a conflict.
    spread = np.fmax.reduce(block, axis=1) - np.fmin.reduce(block, axis=1)
    conflicts = np.flatnonzero(spread > COALESCE_TOLERANCE)
    if conflicts.size:
        row = conflicts[0]
        vals = block[row, ~np.isnan(block[row])]
        raise CoalesceConflict(
            f"row {row}: sources {list(sources)} disagree ({vals.tolist()})"
        )
    # The first present source, or a NaN source cell where none is present.
    fused = block[np.arange(dataset.n_rows), (~np.isnan(block)).argmax(axis=1)]

    at = sum(j < min(src_idx) for j in kept)  # the merged column's place
    columns = [dataset.values[:, j] for j in kept]
    values = np.column_stack(columns[:at] + [fused] + columns[at:])
    values.flags.writeable = False  # a fresh array, so Dataset need not copy
    target = merged if dataset.target in source_set else dataset.target
    return Dataset((*signals[:at], merged, *signals[at:]), values, target)


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
