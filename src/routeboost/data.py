"""Column-oriented tabular data with explicit per-cell availability.

A missing cell is stored as NaN inside the value matrix and never leaks
out: the CSV reader rejects literal NaN input, so internally NaN means
"absent" and nothing else. Datasets are immutable after construction and
safe to share across threads; every operation returns a new dataset.

CSV format: UTF-8, header line of signal names, comma separator, ``.``
decimal point, empty field = missing value, LF or CRLF line endings.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CoalesceConflict,
    DuplicateSignal,
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

    def availability_mask(self) -> np.ndarray:
        """Boolean (n_rows, n_signals) matrix, True where a cell is present."""
        return ~np.isnan(self.values)

    def present_signals(self, row: int) -> set[SignalId]:
        self._check_row(row)
        present = ~np.isnan(self.values[row])
        return {s for s, ok in zip(self.signals, present) if ok}

    def row_values(self, row: int) -> dict[SignalId, float]:
        """Mapping of present signals to their values for one row."""
        self._check_row(row)
        vals = self.values[row]
        return {s: float(v) for s, v in zip(self.signals, vals) if not math.isnan(v)}

    def project(
        self,
        keep: Iterable[SignalId],
        rows: Iterable[int] | None = None,
    ) -> "Dataset":
        """Select columns and rows; original row and column order is kept.

        The target is retained only if it is among ``keep``.
        """
        keep_set = set(keep)
        unknown = keep_set - set(self.signals)
        if unknown:
            raise UnknownSignal(f"unknown signals: {sorted(unknown)}")
        cols = [s for s in self.signals if s in keep_set]
        if rows is None:
            row_idx = np.arange(self.n_rows)
        else:
            row_idx = np.array(sorted(set(int(r) for r in rows)), dtype=np.intp)
            if row_idx.size and (row_idx[0] < 0 or row_idx[-1] >= self.n_rows):
                bad = row_idx[0] if row_idx[0] < 0 else row_idx[-1]
                raise RowOutOfRange(f"row index {bad} outside [0, {self.n_rows})")
        col_idx = [self.index(s) for s in cols]
        sub = self.values[np.ix_(row_idx, col_idx)] if col_idx else \
            np.empty((len(row_idx), 0), dtype=np.float64)
        target = self.target if self.target in keep_set else None
        return Dataset(tuple(cols), sub, target)

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n_rows:
            raise RowOutOfRange(f"row index {row} outside [0, {self.n_rows})")


def availability_mask(dataset: Dataset) -> np.ndarray:
    return dataset.availability_mask()


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


def _parse_cell(field: str, line_no: int, col: str) -> float:
    if field == "":
        return math.nan
    try:
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


def load_table(path: str | Path) -> Dataset:
    """Read a CSV file into a target-less dataset."""
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
        rows = []
        for line_no, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise MalformedCsv(
                    f"{path}: line {line_no} has {len(record)} fields, "
                    f"expected {len(header)}"
                )
            rows.append([_parse_cell(f, line_no, c) for f, c in zip(record, header)])
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
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
    bit-for-bit.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(dataset.signals)
        for row in dataset.values:
            writer.writerow(["" if math.isnan(v) else repr(float(v)) for v in row])


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
    present = ~np.isnan(block)
    multi = present.sum(axis=1) > 1
    for row in np.flatnonzero(multi):
        vals = block[row, present[row]]
        if np.max(vals) - np.min(vals) > tol:
            raise CoalesceConflict(
                f"row {row}: sources {list(sources)} disagree ({vals.tolist()})"
            )
    fused = np.full(dataset.n_rows, np.nan)
    for j in reversed(range(len(src_idx))):
        col = block[:, j]
        fused = np.where(np.isnan(col), fused, col)

    out_signals: list[SignalId] = []
    out_cols: list[np.ndarray] = []
    inserted = False
    first_pos = min(src_idx)
    for j, name in enumerate(dataset.signals):
        if j == first_pos:
            out_signals.append(merged)
            out_cols.append(fused)
            inserted = True
        if name not in set(sources):
            out_signals.append(name)
            out_cols.append(dataset.values[:, j])
    if not inserted:  # pragma: no cover - first_pos always < n columns
        out_signals.append(merged)
        out_cols.append(fused)
    target = dataset.target
    if target in set(sources):
        target = merged
    values = np.column_stack(out_cols) if out_cols else np.empty((dataset.n_rows, 0))
    return Dataset(tuple(out_signals), values, target)
