"""A dataset's presence, held as packed row words, against the bool mask.

Every presence question a ``Dataset`` answers is compared with
``tests/analysis_oracle.py``, which reads ``availability_mask()`` alone,
and that mask with ``~np.isnan(values)``, at widths on either side of
each word size (``WORD_EDGES``). Then the memory the words hold, the
memory pattern discovery takes, and that no pipeline stage unpacks the
bool matrix.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeboost.analysis import always_available_signals, infer_signal_groups
from routeboost.analysis import pattern_summary, route_frequencies
from routeboost.benchmark import train_proposed
from routeboost.data import Dataset, load_dataset, unique_rows, write_csv
from routeboost.ensemble import evaluate, train_conventional
from routeboost.learners import LearnerConfig
from routeboost.subsetting import StrategyOptions, build_subset_specs
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
    reference = Dataset(ds.signals, ds.values)  # unpacks its mask first
    assert reference.availability_mask().tolist() == (~np.isnan(ds.values)).tolist()

    # Words first: nothing below may rely on ds's own mask.
    picks = [[], list(ds.signals)] + [
        list(rng.choice(ds.signals, size=int(rng.integers(1, width + 1)), replace=False))
        for _ in range(3) if width
    ]
    if width > 63:
        picks.append([ds.signals[63], ds.signals[width - 1]])
    for wanted in picks:
        got = ds.rows_with(wanted)
        assert got.dtype == bool and got.shape == (n_rows,)
        assert got.tolist() == analysis_oracle.rows_with(reference, wanted).tolist()
    for row in range(n_rows):
        assert ds.present_signals(row) == analysis_oracle.present_signals(reference, row)
    patterns, counts = ds.availability_patterns()
    assert patterns.dtype == bool and patterns.shape == (len(counts), width)
    want_rows, want_counts = analysis_oracle.availability_patterns(reference)
    assert len(patterns) == len(want_rows)
    assert pattern_counts(patterns, counts) == pattern_counts(want_rows, want_counts)

    mask = ds.availability_mask()
    assert mask.dtype == bool and mask.shape == (n_rows, width)
    assert mask.tolist() == reference.availability_mask().tolist()
    assert ds.availability_mask() is mask and not mask.flags.writeable

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


def held(dataset: Dataset) -> int:
    """Bytes a dataset keeps after its first presence question."""
    return traced(lambda: dataset.rows_with([]))[0]


@pytest.mark.parametrize("width", WORD_EDGES)
def test_presence_holds_no_more_than_a_bool_row(width):
    """Per row, the words take at most the ``width`` bytes of a bool row:
    1 byte up to 8 signals, 2 up to 16, 4 up to 32, 8 up to 64, then 8 per
    64 signals."""
    rng = np.random.default_rng(width)
    got = per_row(held, masked_table(rng, 2_000, width), masked_table(rng, 4_000, width))
    assert got <= width
    assert got == {0: 0, 1: 1, 7: 1, 8: 1, 9: 2, 15: 2, 16: 2, 17: 4}.get(
        width, 8 * -(-width // 64)
    )


def plant(n_rows: int) -> Dataset:
    return generate(GenSpec(default_layout(), n_rows, 5))


def test_plant_presence_holds_two_bytes_a_row():
    """The default plant has 15 signals: 2 bytes a row, where its bool
    mask held 15."""
    small, large = plant(20_000), plant(40_000)
    assert len(small.signals) == 15
    assert per_row(held, small, large) <= 2


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


def test_pipeline_never_unpacks_the_mask(tmp_path, monkeypatch):
    """Analysis, every subset strategy, both trainers, prediction,
    evaluation and the CSV writer read the words alone."""

    def unpack(dataset):
        raise AssertionError("the bool availability mask was built")

    monkeypatch.setattr(Dataset, "_mask", property(unpack))
    path = tmp_path / "plant.csv"
    write_csv(plant(2_000), path)
    ds = load_dataset(path, "Y")
    pattern_summary(ds)
    always_available_signals(ds)
    route_frequencies(ds, infer_signal_groups(ds))
    layout = default_layout()
    units = {u.name: [s.name for s in u.signals] for u in layout.units}
    wide = next(r for r in layout.routes if r.name == "wide")
    routes = StrategyOptions(
        strategy="routes", groups=units, segments={"wide": list(wide.units)},
        uncommon_policy="merge_common",
    )
    specs = {}
    for name, options in [
        ("grouped", StrategyOptions()), ("auto", StrategyOptions(strategy="auto")),
        ("routes", routes),
    ]:
        specs[name], _ = build_subset_specs(ds, options)
    # The narrow and balanced rows share the narrow route's signals.
    assert [s.name for s in specs["routes"]] == ["wide", "uncommon"]
    assert specs["routes"][1].features == ("PLTCM_1", "PLTCM_2", "CAL_1", "CAL_2")
    for kind in ("ridge", "tree"):
        config = LearnerConfig(kind=kind)
        for mode in ("boosting", "bagging"):
            model = train_proposed(ds, specs["grouped"], config, mode)
            model.predict_dataset(ds)
            evaluate(model, ds, specs["grouped"])
        conventional = train_conventional(ds, config)
        evaluate(conventional, ds, specs["auto"])
    write_csv(ds, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
