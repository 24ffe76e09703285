"""The tree fit's presorting: the root sort and the per-node partition.

``learners._stable_order`` must give what ``np.argsort(kind="stable")``
gives on every column, and a deep tree, whose many nodes restamp the
fit's row mask, must still be the tree ``tests/tree_oracle.py`` builds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeboost.learners import LearnerConfig, _stable_order, fit, learner_to_dict
from tests import tree_oracle

KINDS = ["normal", "grid", "adjacent", "signed_zero", "constant"]


def column(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "grid":
        return 0.5 * rng.integers(-3, 4, size=n)
    if kind == "adjacent":
        return 1.0 + np.spacing(1.0) * rng.integers(0, 4, size=n)
    if kind == "signed_zero":
        return rng.choice([-0.0, 0.0], size=n)
    return np.full(n, 2.5)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 500)),
    st.integers(0, 2**32 - 1),
)
def test_stable_order_is_the_stable_argsort(kind, n, seed):
    c = column(kind, n, np.random.default_rng(seed))
    order = _stable_order(c)
    assert order.dtype == np.intp
    assert np.array_equal(order, np.argsort(c, kind="stable"))


@pytest.mark.parametrize("kind, stable_sorts", [("normal", 0), ("signed_zero", 1)])
def test_stable_sort_only_on_ties(monkeypatch, kind, stable_sorts):
    """A tie-free column keeps the unstable sort; a tie sorts again stably."""
    argsort = np.argsort
    kinds = []

    def counted(a, *args, **kwargs):
        kinds.append(kwargs.get("kind"))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    _stable_order(column(kind, 1000, np.random.default_rng(3)))
    assert kinds.count("stable") == stable_sorts


def test_deep_plant_sized_fit_matches_oracle():
    rng = np.random.default_rng(13)
    X = np.round(rng.normal(size=(3000, 6)), 1)
    y = X @ rng.normal(size=6) + rng.normal(size=3000)
    plant_sized = LearnerConfig(kind="tree", tree_max_depth=12, tree_min_leaf=1)
    # A lopsided target: one long spine of splits, 29 levels deep.
    Xl = np.random.default_rng(0).normal(size=(2000, 8))
    lopsided = LearnerConfig(kind="tree", tree_max_depth=64, tree_min_leaf=20)
    for config, X, y, depth in [
        (plant_sized, X, y, 12),
        (lopsided, Xl, np.exp(8 * Xl[:, 0]), 29),
    ]:
        fitted = fit(config, X, y)
        assert fitted.depth() == depth
        assert learner_to_dict(fitted) == learner_to_dict(tree_oracle.fit_tree(config, X, y))
