"""The batch stages do no per-row Python work, counted rather than timed.

``sys.setprofile`` counts the Python and C function calls of each stage
on the default plant (seed 5) at 2,000 and at 8,000 rows. A stage that
works column by column makes the same number of calls at both sizes.
Tree training varies only with the shape of the fitted trees. The three
stages that still loop over rows, or over batches of rows, are pinned at
their calls per row, so that number can only fall.
"""

import gc
import sys

import pytest

from routeboost.analysis import infer_signal_groups, pattern_summary, route_frequencies
from routeboost.benchmark import train_proposed
from routeboost.data import load_dataset, write_csv
from routeboost.ensemble import evaluate
from routeboost.learners import LearnerConfig, Split
from routeboost.subsetting import StrategyOptions, SubsetSpec, build_subset_specs
from routeboost.synthgen import GenSpec, default_layout, generate

SMALL, LARGE = 2_000, 8_000

CONSTANT = [
    "pattern_summary", "route_frequencies", "build_subset_specs", "mean_train",
    "ridge_train", "predict_dataset", "evaluate",
]

# Calls per row, (calls at LARGE - calls at SMALL) / (LARGE - SMALL), as
# measured with Python 3.11 and NumPy 2.4 (300, 12005 and 12374 calls
# over the 6,000 rows). generate makes 50 calls per batch of 1,024 rows
# and none per row: the rows it redraws one at a time call only methods
# of NumPy's Generator, which the profiler does not report. The CSV
# stages make about two calls per line written or read, plus a few per
# block.
PER_ROW = {"generate": 0.05, "write_csv": 2.001, "load_dataset": 2.063}

# One scan_split per internal node and feature makes 6 calls: itself,
# len, two cumsums, arange and argmin. With each node's own work, a fit
# of the default plant makes 6.48 calls per node and feature (Python 3.11,
# NumPy 2.4): 10 leave room for NumPy versions, but not for one call per
# training row.
TREE_CALLS_PER_NODE_FEATURE = 10


def calls(fn, *args):
    """``(number of call and c_call events, result)`` of ``fn(*args)``.

    The garbage collector is off meanwhile: finalizers of objects that
    other tests left behind would otherwise add their calls at random.
    """
    n = 0

    def count(frame, event, arg):
        nonlocal n
        n += event in ("call", "c_call")

    gc.disable()
    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return n - 1, result  # less the c_call of sys.setprofile(None)


def n_nodes(node) -> int:
    if isinstance(node, Split):
        return 1 + n_nodes(node.left) + n_nodes(node.right)
    return 1


def stage_calls(n_rows: int, path) -> dict:
    out = {}
    out["generate"], dataset = calls(generate, GenSpec(default_layout(), n_rows, 5))
    out["write_csv"], _ = calls(write_csv, dataset, path)
    out["load_dataset"], dataset = calls(load_dataset, path, "Y")
    out["pattern_summary"], _ = calls(pattern_summary, dataset)
    groups = infer_signal_groups(dataset)
    out["route_frequencies"], _ = calls(route_frequencies, dataset, groups)
    out["build_subset_specs"], (specs, _) = calls(
        build_subset_specs, dataset, StrategyOptions(strategy="auto")
    )
    mean = LearnerConfig(kind="mean")
    out["mean_train"], _ = calls(train_proposed, dataset, specs, mean, "boosting")
    ridge = LearnerConfig(kind="ridge")
    out["ridge_train"], model = calls(train_proposed, dataset, specs, ridge, "boosting")
    out["predict_dataset"], _ = calls(model.predict_dataset, dataset)
    strata = [SubsetSpec(m.name, m.features) for m in model.members]
    out["evaluate"], _ = calls(evaluate, model, dataset, strata)
    tree = LearnerConfig(kind="tree")
    out["tree_train"], trees = calls(train_proposed, dataset, specs, tree, "boosting")
    out["tree_nodes_x_features"] = sum(
        n_nodes(m.learner.root) * len(m.features) for m in trees.members
    )
    return out


@pytest.fixture(scope="module")
def counts(tmp_path_factory):
    path = tmp_path_factory.mktemp("scaling") / "plant.csv"
    stage_calls(200, path)  # first calls import and cache what later ones reuse
    return stage_calls(SMALL, path), stage_calls(LARGE, path)


@pytest.mark.parametrize("stage", CONSTANT)
def test_calls_do_not_grow_with_rows(counts, stage):
    small, large = counts
    assert small[stage] == large[stage]


@pytest.mark.parametrize("stage", sorted(PER_ROW))
def test_calls_per_row_are_pinned(counts, stage):
    small, large = counts
    assert (large[stage] - small[stage]) / (LARGE - SMALL) <= PER_ROW[stage]


def test_tree_calls_follow_the_tree_shape(counts):
    for sized in counts:
        bound = TREE_CALLS_PER_NODE_FEATURE * sized["tree_nodes_x_features"]
        assert sized["tree_train"] <= bound
