"""The batch stages do no per-row Python work, counted rather than timed.

``sys.setprofile`` counts the Python and C function calls of each stage
on the default plant (seed 5) at 2,000 and at 8,000 rows. A stage that
works column by column makes the same number of calls at both sizes.
Tree training varies only with the shape of the fitted trees. The three
stages that still loop over rows, or over batches of rows, are pinned at
their calls per row, so that number can only fall. So is the one-row
scoring path, ``predict_with_members``, at its calls per scored row.
Training a nested chain of routes may score each member at most once,
whatever the chain's length, and the missingness summaries of one table
sort its rows once.
"""

import gc
import sys

import numpy as np
import pytest

from routeboost.analysis import infer_signal_groups, pattern_summary, route_frequencies
from routeboost.benchmark import train_proposed
from routeboost.data import load_dataset, write_csv
from routeboost.ensemble import evaluate
from routeboost.errors import NoApplicableModel
from routeboost.learners import LearnerConfig, Split
from routeboost.subsetting import StrategyOptions, SubsetSpec, build_subset_specs
from routeboost.synthgen import GenSpec, default_layout, generate
from tests.conftest import nested_chain, route_plant

SMALL, LARGE = 2_000, 8_000

CONSTANT = [
    "pattern_summary", "route_frequencies", "build_subset_specs", "mean_train",
    "ridge_train", "predict_dataset", "evaluate",
]

# Calls per row, (calls at LARGE - calls at SMALL) / (LARGE - SMALL), as
# measured with Python 3.11 and NumPy 2.4 (66, 210 and 789 calls over
# the 6,000 rows). generate makes 11 calls per block of 1,024 rows, each
# drawn by its own Generator, and none per row: 0.011 calls per row, and
# its pin leaves about 4 calls per block for other NumPy versions. The
# CSV stages make a few dozen calls per block of 1,092 lines (16,384
# fields of the plant's 15 columns), load_dataset's text decoder three
# per 8 KiB it decodes, and none per line: 0.035 and 0.1315 calls per
# row (0.0057 and 0.0695 in blocks of 4,096 lines). The profiler sees
# neither the repr of each cell inside the writer's one `%` per block
# nor the float of each field inside the reader's map, so these pins
# guard only against Python work per line; one call per line reads 1.0
# or more.
PER_ROW = {"generate": 0.015, "write_csv": 0.05, "load_dataset": 0.15}

# Calls per scored row of predict_with_members over every row of the
# table, as measured with Python 3.11 at 2,000 and 8,000 rows: 6.40 and
# 6.40 for the ridge chain over auto subsets, 14.89 and 14.91 for the
# branched trees over grouped subsets. A scored row costs the call, the
# set of present signals (a call before Python 3.12, which inlines it)
# and its items(), then per member that fires its row kernel, which reads
# the row by its feature names, the kernel's own builtins (ridge: none,
# its sum is a loop; tree: isinstance per level) and names.append. The
# pins leave less than half a call per row: one more call per row, or per
# member that fires, fails.
SCORE_CALLS_PER_ROW = {"ridge_chain": 6.9, "grouped_trees": 15.5}

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


def predict_matrix_calls(fn, *args):
    """``(number of calls of a function named predict_matrix, result)``."""
    n = 0

    def count(frame, event, arg):
        nonlocal n
        n += event == "call" and frame.f_code.co_name == "predict_matrix"

    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return n, result


def table_sorts(n_rows: int, fn, *args) -> int:
    """Calls of ndarray.sort or ndarray.argsort on an ``n_rows``-long array
    made by ``fn(*args)``. ``np.sort``, ``np.argsort`` and ``np.unique``
    all end in one of these methods."""
    n = 0

    def count(frame, event, arg):
        nonlocal n
        if event == "c_call" and getattr(arg, "__name__", None) in ("sort", "argsort"):
            array = getattr(arg, "__self__", None)
            n += isinstance(array, np.ndarray) and len(array) == n_rows

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return n


def score_rows(model, rows) -> int:
    """Score each row with ``predict_with_members``; the rows scored."""
    scored = 0
    for row in rows:
        try:
            model.predict_with_members(row)
        except NoApplicableModel:
            continue
        scored += 1
    return scored


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
    rows = [dataset.row_values(i) for i in range(dataset.n_rows)]
    for row in rows:
        row.pop(dataset.target)
    out["ridge_chain_score"], out["ridge_chain_scored"] = calls(score_rows, model, rows)
    grouped, _ = build_subset_specs(dataset, StrategyOptions(strategy="grouped"))
    grouped_trees = train_proposed(dataset, grouped, tree, "boosting")
    out["grouped_trees_score"], out["grouped_trees_scored"] = calls(
        score_rows, grouped_trees, rows
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


@pytest.mark.parametrize("model", sorted(SCORE_CALLS_PER_ROW))
def test_one_row_scoring_calls_are_pinned(counts, model):
    for sized in counts:
        per_row = sized[f"{model}_score"] / sized[f"{model}_scored"]
        assert per_row <= SCORE_CALLS_PER_ROW[model]


@pytest.mark.parametrize("kind", ["ridge", "tree"])
def test_training_scores_each_member_at_most_once(kind):
    """A member is scored once, after its fit, for the members fit against
    it; scoring every parent again for each member of a 6-route chain
    made 15 calls."""
    dataset, specs = route_plant(nested_chain(6), SMALL, 5)
    config = LearnerConfig(kind=kind)
    n, model = predict_matrix_calls(train_proposed, dataset, specs, config, "boosting")
    assert len(model.members) == 6
    assert n <= len(model.members)


def test_analysis_sorts_the_mask_once():
    """The summaries read the table's distinct availability patterns,
    found by one sort of its row words per dataset; sorting the mask in
    each summary made 3. The count is exact, so it also fails should the
    patterns be found without the sort that this counter sees."""
    dataset = generate(GenSpec(default_layout(), SMALL, 5))

    def analyse():
        pattern_summary(dataset)
        route_frequencies(dataset, infer_signal_groups(dataset))
        build_subset_specs(dataset, StrategyOptions(strategy="auto"))

    assert table_sorts(dataset.n_rows, analyse) == 1
