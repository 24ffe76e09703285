"""A dataset's presence, held as packed row words, against its definition.

Every presence question a ``Dataset`` answers is compared with
``tests/analysis_oracle.py``, which reads presence as ``~np.isnan(values)``
and nothing else, at widths on either side of each word size
(``WORD_EDGES``). Then the memory the words hold and the memory pattern
discovery takes.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeboost.data import Dataset, unique_rows
from routeboost.synthgen import GenSpec, default_layout, generate
from tests import analysis_oracle
from tests.conftest import WORD_EDGES


def masked_table(rng: np.random.Generator, n_rows: int, width: int) -> Dataset:
    """Rows drawn from a few random patterns, some cells then flipped, so
    that wide tables repeat rows too."""
    prototypes = rng.random((int(rng.integers(1, 5)), width)) < rng.uniform(0.1, 0.9)
    present = prototypes[rng.integers(len(prototypes), size=n_rows)]
    present ^= rng.random((n_rows, width)) < rng.choice([0.0, 0.02])
    values = np.where(present, rng.normal(size=(n_rows, width)), np.nan)
    return Dataset(tuple(f"s{j}" for j in range(width)), values)


def pattern_counts(rows: np.ndarray, counts: np.ndarray) -> dict[bytes, int]:
    return dict(zip(map(bytes, rows), np.asarray(counts).tolist()))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(WORD_EDGES),
    st.one_of(st.just(0), st.integers(1, 40)),
    st.integers(0, 2**32 - 1),
)
def test_presence_matches_the_mask_oracle(width, n_rows, seed):
    rng = np.random.default_rng(seed)
    ds = masked_table(rng, n_rows, width)
    picks = [[], list(ds.signals)] + [
        list(rng.choice(ds.signals, size=int(rng.integers(1, width + 1)), replace=False))
        for _ in range(3) if width
    ]
    if width > 63:
        picks.append([ds.signals[63], ds.signals[width - 1]])
    for wanted in picks:
        got = ds.rows_with(wanted)
        assert got.dtype == bool and got.shape == (n_rows,)
        assert got.tolist() == analysis_oracle.rows_with(ds, wanted).tolist()
    for row in range(n_rows):
        assert ds.present_signals(row) == analysis_oracle.present_signals(ds, row)
    patterns, counts = ds.availability_patterns()
    assert patterns.dtype == bool and patterns.shape == (len(counts), width)
    want_rows, want_counts = analysis_oracle.availability_patterns(ds)
    assert len(patterns) == len(want_rows)
    assert pattern_counts(patterns, counts) == pattern_counts(want_rows, want_counts)

    mask = analysis_oracle.presence(ds)
    first, inverse = unique_rows(mask)
    assert np.array_equal(mask[first][inverse], mask)
    assert pattern_counts(mask[first], np.bincount(inverse, minlength=len(first))) == (
        pattern_counts(want_rows, want_counts)
    )


def traced(call) -> tuple[int, int]:
    """``(held, peak)`` traced bytes of ``call()``."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def per_row(measure, small: Dataset, large: Dataset) -> float:
    """The growth of ``measure(dataset)`` per row between two table sizes,
    which leaves out what does not grow with the rows."""
    return (measure(large) - measure(small)) / (large.n_rows - small.n_rows)


# The most traced bytes a row, gained or lost, that a first presence
# question may keep beside the words. Small blocks that NumPy and the
# interpreter keep or free (57-168 bytes each) land in one measurement
# or the other at random; a cached bool matrix of presence would keep a
# byte a row for every signal.
OTHER_BYTES_PER_ROW = 0.5


def held_per_row(small: Dataset, large: Dataset) -> tuple[float, float]:
    """``(words, other)`` per row: the growth of a dataset's row words, from
    their own ``nbytes``, and of the other traced bytes its first presence
    question keeps, which should not grow with the rows."""

    def held(dataset: Dataset) -> tuple[int, int]:
        kept = traced(lambda: dataset.rows_with([]))[0]
        return dataset._words.nbytes, kept - dataset._words.nbytes

    (words, other), (more_words, more_other) = held(small), held(large)
    n = large.n_rows - small.n_rows
    return (more_words - words) / n, (more_other - other) / n


@pytest.mark.parametrize("width", WORD_EDGES)
def test_presence_holds_no_more_than_a_bool_row(width):
    """Per row, the words take at most the ``width`` bytes of a bool row:
    1 byte up to 8 signals, 2 up to 16, 4 up to 32, 8 up to 64, then 8 per
    64 signals."""
    rng = np.random.default_rng(width)
    words, other = held_per_row(
        masked_table(rng, 2_000, width), masked_table(rng, 4_000, width)
    )
    assert words <= width
    assert words == {0: 0, 1: 1, 7: 1, 8: 1, 9: 2, 15: 2, 16: 2, 17: 4}.get(
        width, 8 * -(-width // 64)
    )
    assert abs(other) < OTHER_BYTES_PER_ROW


def plant(n_rows: int) -> Dataset:
    return generate(GenSpec(default_layout(), n_rows, 5))


def test_plant_presence_holds_two_bytes_a_row():
    """The default plant has 15 signals: 2 bytes a row, where its bool
    mask held 15."""
    small, large = plant(20_000), plant(40_000)
    assert len(small.signals) == 15
    words, other = held_per_row(small, large)
    assert words == 2
    assert abs(other) < OTHER_BYTES_PER_ROW


# Peak traced bytes per row of finding the default plant's patterns from
# its words: 4.0 as measured (a sorted copy of the 2-byte words and two
# bool run flags). The bool-mask sort with its index and inverse took 31.
PATTERN_BYTES_PER_ROW = 5


def test_pattern_discovery_transient_is_pinned():
    def peak(dataset: Dataset) -> int:
        dataset.rows_with([])
        return traced(dataset.availability_patterns)[1]

    small, large = plant(20_000), plant(40_000)
    assert per_row(peak, small, large) <= PATTERN_BYTES_PER_ROW
    assert peak(plant(20_000)) <= PATTERN_BYTES_PER_ROW * 20_000
