"""The presorted tree fit against the per-node argsort fit it replaced.

``learners.fit`` sorts each feature once per tree and hands every child
its share of the parent's orders; ``tests/tree_oracle.py`` sorts every
node's rows afresh. Both must build the same tree, bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from routeboost.learners import LearnerConfig, fit, learner_to_dict
from tests import tree_oracle


@st.composite
def tree_problems(draw):
    """Training data rich in ties, with the tree's size limits."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 90))
    p = draw(st.integers(1, 5))
    values = draw(st.sampled_from(["grid", "adjacent", "normal"]))
    if values == "grid":
        # A coarse grid: few distinct values per column, many ties.
        X = 0.5 * rng.integers(-3, 4, size=(n, p))
    elif values == "adjacent":
        # Neighbouring floats: the split threshold is the lower value itself.
        X = 1.0 + np.spacing(1.0) * rng.integers(0, 3, size=(n, p))
    else:
        X = rng.normal(size=(n, p)) * 10.0 ** draw(st.integers(-3, 3))
    for j in draw(st.sets(st.integers(0, p - 1), max_size=p)):
        X[:, j] = X[0, j]  # a constant column
    if draw(st.booleans()):
        X = X[rng.integers(0, n, size=n)]  # duplicated rows
    if draw(st.booleans()):
        y = 1.0 * rng.integers(-2, 3, size=n)
    else:
        y = X.sum(axis=1) + rng.normal(size=n)
    config = LearnerConfig(
        kind="tree",
        tree_min_leaf=draw(st.integers(1, 8)),
        tree_max_depth=draw(st.integers(1, 6)),
    )
    return config, X, y


@settings(max_examples=300, deadline=None)
@given(tree_problems())
def test_presorted_fit_matches_oracle(problem):
    config, X, y = problem
    expected = learner_to_dict(tree_oracle.fit_tree(config, X, y))
    assert learner_to_dict(fit(config, X, y)) == expected


def test_plant_sized_fit_matches_oracle():
    rng = np.random.default_rng(5)
    X = np.round(rng.normal(size=(3000, 6)), 2)
    y = X @ rng.normal(size=6) + rng.normal(size=3000)
    config = LearnerConfig(kind="tree", tree_max_depth=6, tree_min_leaf=5)
    expected = learner_to_dict(tree_oracle.fit_tree(config, X, y))
    assert learner_to_dict(fit(config, X, y)) == expected
