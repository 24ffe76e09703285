"""The library's own argument checks: each raises its type and message.

These guard the public functions against calls the CLI never makes, so
no command reaches them: a table of the wrong shape, a row out of range
or not an integer, an empty list of subsets, a dataset without a target, a fraction out of
range. A case that needs a table reads the six-row ``toy6`` one.
"""

import numpy as np
import pytest

from routeboost.analysis import SignalGroup
from routeboost.benchmark import run_benchmark
from routeboost.data import Dataset, coalesce_signals, dataset_from_columns
from routeboost.ensemble import (
    evaluate,
    train_bagging,
    train_boosting_branched,
    train_conventional,
    train_test_split_rows,
)
from routeboost.errors import (
    DuplicateSignal,
    EmptySegment,
    RowOutOfRange,
    UnknownTarget,
)
from routeboost.learners import LearnerConfig, fit, learner_to_dict
from routeboost.subsetting import (
    StrategyOptions,
    SubsetSpec,
    subset_rows,
    subsets_by_common_routes,
    validate_nested_chain,
)
from routeboost.synthgen import default_layout, route_of_row

RIDGE, MEAN = LearnerConfig(), LearnerConfig(kind="mean")
SPEC = SubsetSpec("s", ("A",))


def features_only(toy: Dataset) -> Dataset:
    return toy.project(("A", "C"))


def mean_model(toy: Dataset):
    return train_conventional(toy.project(("A", "Y")), MEAN)


# Each case: (call on the toy6 table, exception type, str() of the exception).
GUARDS = {
    "values-not-2d": (
        lambda toy: Dataset(("a",), np.ones(3)), ValueError,
        "values must be a 2-D array with one column per signal",
    ),
    "values-width": (
        lambda toy: Dataset(("a", "b"), np.ones((2, 1))), ValueError,
        "values must be a 2-D array with one column per signal",
    ),
    "zero-signal-name": (
        lambda toy: Dataset((0,), np.ones((1, 1))), TypeError,
        "signal name 0 is not a string",
    ),
    "one-signal-name": (
        lambda toy: Dataset((1,), np.ones((1, 1))), TypeError,
        "signal name 1 is not a string",
    ),
    "none-signal-name": (
        lambda toy: Dataset(("a", None), np.ones((1, 2))), TypeError,
        "signal name None is not a string",
    ),
    "non-string-column-name": (
        lambda toy: dataset_from_columns({0: [1.0]}), TypeError,
        "signal name 0 is not a string",
    ),
    "repeated-signal": (
        lambda toy: Dataset(("a", "a"), np.ones((1, 2))), DuplicateSignal,
        "duplicated signals ['a']",
    ),
    "target-not-a-signal": (
        lambda toy: Dataset(("a",), np.ones((1, 1)), "Z"), UnknownTarget,
        "target 'Z' is not a signal",
    ),
    "row-values-past-the-end": (
        lambda toy: toy.row_values(6), RowOutOfRange, "row index 6 outside [0, 6)",
    ),
    "present-signals-negative-row": (
        lambda toy: toy.present_signals(-1), RowOutOfRange, "row index -1 outside [0, 6)",
    ),
    "row-values-bool-row": (
        lambda toy: toy.row_values(True), TypeError, "row index True is not an integer",
    ),
    "row-values-numpy-bool-row": (
        lambda toy: toy.row_values(np.True_), TypeError,
        f"row index {np.True_!r} is not an integer",
    ),
    "row-values-float-row": (
        lambda toy: toy.row_values(1.0), TypeError, "row index 1.0 is not an integer",
    ),
    "present-signals-bool-row": (
        lambda toy: toy.present_signals(True), TypeError,
        "row index True is not an integer",
    ),
    "present-signals-numpy-bool-row": (
        lambda toy: toy.present_signals(np.False_), TypeError,
        f"row index {np.False_!r} is not an integer",
    ),
    "present-signals-string-row": (
        lambda toy: toy.present_signals("1"), TypeError, "row index '1' is not an integer",
    ),
    "project-bool-array-rows": (
        lambda toy: toy.project(toy.signals, np.array([False, False, True, True])),
        TypeError, "row indices must be integers, got bool",
    ),
    "project-bool-list-rows": (
        lambda toy: toy.project(toy.signals, [True, False]), TypeError,
        "row indices must be integers, got bool",
    ),
    "project-float-list-rows": (
        lambda toy: toy.project(toy.signals, [1.7, 2.2]), TypeError,
        "row indices must be integers, got float64",
    ),
    "project-float-array-rows": (
        lambda toy: toy.project(toy.signals, np.array([1.0])), TypeError,
        "row indices must be integers, got float64",
    ),
    "columns-of-unequal-length": (
        lambda toy: dataset_from_columns({"a": [1.0], "b": [1.0, 2.0]}), ValueError,
        "all columns must have the same length",
    ),
    "coalesce-no-sources": (
        lambda toy: coalesce_signals(toy, "M", []), ValueError,
        "coalesce needs at least one source signal",
    ),
    "branched-boosting-no-specs": (
        lambda toy: train_boosting_branched(toy, [], RIDGE), ValueError,
        "branched boosting needs at least one subset",
    ),
    "bagging-no-specs": (
        lambda toy: train_bagging(toy, [], RIDGE), ValueError,
        "bagging needs at least one subset",
    ),
    "conventional-no-target": (
        lambda toy: train_conventional(features_only(toy), RIDGE), ValueError,
        "train_conventional requires a dataset with a target",
    ),
    "evaluate-no-target": (
        lambda toy: evaluate(mean_model(toy), features_only(toy), [SPEC]),
        ValueError, "evaluate requires a dataset with a target",
    ),
    "benchmark-no-target": (
        lambda toy: run_benchmark(features_only(toy), StrategyOptions(), RIDGE),
        ValueError, "benchmark requires a dataset with a target",
    ),
    "unknown-stratum": (
        lambda toy: evaluate(mean_model(toy), toy, [SPEC]).stratum("r9"),
        KeyError, "'r9'",
    ),
    "test-fraction-above-one": (
        lambda toy: train_test_split_rows(10, 1.5, 0), ValueError,
        "test_fraction must be within [0, 1]",
    ),
    "test-fraction-below-zero": (
        lambda toy: train_test_split_rows(10, -0.1, 0), ValueError,
        "test_fraction must be within [0, 1]",
    ),
    "fit-vector-X": (
        lambda toy: fit(RIDGE, [1.0, 2.0], [1.0, 2.0]), ValueError,
        "X must be a 2-D matrix",
    ),
    "fit-features-miss-a-column": (
        lambda toy: fit(RIDGE, [[1.0, 2.0]], [1.0], ["a"]), ValueError,
        "features must name every column of X",
    ),
    "fit-ridge-no-features": (
        lambda toy: fit(RIDGE, np.empty((2, 0)), [1.0, 2.0]), ValueError,
        "ridge learner needs at least one feature",
    ),
    "fit-tree-no-features": (
        lambda toy: fit(LearnerConfig(kind="tree"), np.empty((2, 0)), [1.0, 2.0]),
        ValueError, "tree learner needs at least one feature",
    ),
    "learner-to-dict-not-a-learner": (
        lambda toy: learner_to_dict("ridge"), TypeError, "not a fitted learner: 'ridge'",
    ),
    "no-route-segments": (
        lambda toy: subsets_by_common_routes(toy, [SignalGroup("GA", ("A",))], []),
        EmptySegment, "no route segments given",
    ),
    "subset-rows-no-target": (
        lambda toy: subset_rows(features_only(toy), SPEC), UnknownTarget,
        "subset 's' needs a dataset with a target",
    ),
    "nested-chain-no-specs": (
        lambda toy: validate_nested_chain([]), ValueError,
        "a chain needs at least one subset",
    ),
}


@pytest.mark.parametrize("call,error,message", GUARDS.values(), ids=GUARDS)
def test_guard_raises_its_type_and_message(toy6, call, error, message):
    with pytest.raises(error) as raised:
        call(toy6)
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_row_of_no_route_has_no_route():
    """A row whose signals match no route of the layout belongs to none:
    here only CAL reported, where the shortest route also passes PLTCM."""
    layout = default_layout()
    signals = tuple(layout.signal_names()) + (layout.target_rule.target,)
    row = [1.0 if s in ("CAL_1", "CAL_2", "Y") else np.nan for s in signals]
    table = Dataset(signals, [row], layout.target_rule.target)
    assert route_of_row(layout, table, 0) is None
