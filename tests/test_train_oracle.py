"""The shared member loop against the per-trainer reference loops.

Every trainer must build exactly the model its hand-written loop in
``tests/train_oracle.py`` builds (``model_to_dict`` compared with ``==``,
so every float is bit-identical) and raise the same exception type on
the same bad input.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeboost import ensemble
from routeboost.data import Dataset
from routeboost.ensemble import model_to_dict
from routeboost.errors import (
    DuplicateFeatureSet,
    EmptySubset,
    EmptyTrainingSet,
    NotNested,
)
from routeboost.learners import LearnerConfig
from routeboost.subsetting import (
    StrategyOptions,
    SubsetSpec,
    build_subset_specs,
)
from routeboost.synthgen import GenSpec, default_layout, generate
from tests import train_oracle
from tests.conftest import nested_chain, route_plant

SPEC_TRAINERS = ("train_boosting", "train_boosting_branched", "train_bagging")
LEARNERS = (
    LearnerConfig(kind="mean"),
    LearnerConfig(kind="ridge"),
    LearnerConfig(kind="ridge", ridge_lambda=1200.0, standardize=True),
    LearnerConfig(kind="tree", tree_max_depth=3, tree_min_leaf=2),
)
LEARNER_IDS = ("mean", "ridge", "ridge-std", "tree")


def outcome(train, *args):
    """The model as a dict, or the type of the exception training raised."""
    try:
        return model_to_dict(train(*args))
    except Exception as exc:  # compared by type against the oracle
        return type(exc)


def assert_same(name, *args):
    new = outcome(getattr(ensemble, name), *args)
    old = outcome(getattr(train_oracle, name), *args)
    assert new == old


@lru_cache(maxsize=None)
def plant(n_rows, seed):
    layout = default_layout()
    ds = generate(GenSpec(layout, n_rows, seed))
    spec_sets = {
        "grouped": build_subset_specs(ds, StrategyOptions())[0],
        "routes": build_subset_specs(
            ds, StrategyOptions("routes", *layout.route_strategy())
        )[0],
    }
    return ds, spec_sets


PLANTS = [(400, 1), (1500, 42), (3000, 7)]


@pytest.mark.parametrize("learner", LEARNERS, ids=LEARNER_IDS)
@pytest.mark.parametrize("name", SPEC_TRAINERS)
@pytest.mark.parametrize("strategy", ["grouped", "routes"])
@pytest.mark.parametrize("n_rows,seed", PLANTS)
def test_plant_models_match_oracle(n_rows, seed, strategy, name, learner):
    ds, spec_sets = plant(n_rows, seed)
    assert_same(name, ds, spec_sets[strategy], learner)


@pytest.mark.parametrize("learner", LEARNERS, ids=LEARNER_IDS)
@pytest.mark.parametrize("n_rows,seed", PLANTS)
def test_plant_conventional_matches_oracle(n_rows, seed, learner):
    ds, _ = plant(n_rows, seed)
    assert_same("train_conventional", ds, learner)


# Longer chains than the default plant's three routes, and branches that
# do not contain each other: b1 and b2 each carry a chain of their own,
# and b12 lies above both, so it is fit against members of each branch.
LAYOUTS = {
    "chain6": nested_chain(6),
    "branched": {
        "base": (0,),
        "b1": (0, 1),
        "b2": (0, 2),
        "b1x": (0, 1, 3),
        "b2x": (0, 2, 4),
        "b12": (0, 1, 2),
    },
}


@pytest.mark.parametrize("learner", [LEARNERS[1], LEARNERS[3]], ids=["ridge", "tree"])
@pytest.mark.parametrize("name", SPEC_TRAINERS)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_route_layouts_match_oracle(layout, name, learner):
    ds, specs = route_plant(LAYOUTS[layout], 1200, 3)
    assert len(specs) == 6
    assert_same(name, ds, specs, learner)


@pytest.mark.parametrize("learner", LEARNERS, ids=LEARNER_IDS)
@pytest.mark.parametrize("name", SPEC_TRAINERS)
def test_toy6_models_match_oracle(toy6, name, learner):
    branches = [
        SubsetSpec("base", ("A",)),
        SubsetSpec("r1", ("A", "C")),
        SubsetSpec("r2", ("A", "D")),
    ]
    assert_same(name, toy6, branches, learner)
    assert_same(name, toy6, branches[:2], learner)


@pytest.mark.parametrize("learner", LEARNERS, ids=LEARNER_IDS)
@pytest.mark.parametrize("name", SPEC_TRAINERS)
def test_dense_models_match_oracle(name, learner):
    # Ridge's BLAS products can round differently on a strided target
    # column than on a contiguous one; complete data at this size shows it.
    values = np.random.default_rng(5).normal(size=(50, 4))
    ds = Dataset(("a", "b", "c", "Y"), values, "Y")
    specs = [SubsetSpec("ab", ("a", "b")), SubsetSpec("abc", ("a", "b", "c"))]
    assert_same(name, ds, specs, learner)
    nested = [SubsetSpec(f, tuple(f)) for f in ("a", "ab", "ac", "abc")]
    assert_same(name, ds, nested, learner)


@pytest.mark.parametrize(
    "name,specs,error",
    [
        ("train_boosting", [("a", ("A", "C")), ("b", ("A", "D"))], NotNested),
        ("train_boosting_branched", [("a", ("A",)), ("b", ("C",))], NotNested),
        ("train_boosting", [("a", ("A",)), ("b", ("A",))], DuplicateFeatureSet),
        ("train_bagging", [("both", ("C", "D"))], EmptySubset),
        ("train_boosting", [("a", ("A",)), ("both", ("A", "C", "D"))], EmptySubset),
    ],
)
def test_same_error_as_oracle(toy6, name, specs, error):
    specs = [SubsetSpec(n, f) for n, f in specs]
    for module in (ensemble, train_oracle):
        with pytest.raises(error):
            getattr(module, name)(toy6, specs, LEARNERS[1])


def test_conventional_same_error_as_oracle(toy6):
    for module in (ensemble, train_oracle):
        with pytest.raises(EmptyTrainingSet):
            module.train_conventional(toy6, LEARNERS[1])


@st.composite
def masked_problems(draw):
    """A random holey dataset plus nested, branched or arbitrary specs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 120))
    p = draw(st.integers(1, 6))
    values = rng.normal(size=(n, p + 1)) * 10.0 ** draw(st.integers(-2, 3))
    values[rng.random(size=(n, p + 1)) < draw(st.floats(0.0, 0.5))] = np.nan
    signals = tuple(f"s{j}" for j in range(p)) + ("Y",)
    ds = Dataset(signals, values, "Y")

    order = [signals[j] for j in rng.permutation(p)]
    shape = draw(st.sampled_from(["nested", "branched", "any"]))
    if shape == "nested":
        sizes = sorted(set(rng.integers(1, p + 1, size=draw(st.integers(1, 4)))))
        feature_sets = [order[:k] for k in sizes]
    elif shape == "branched":
        b = int(rng.integers(1, p + 1))
        feature_sets = [order[:b]] + [
            order[:b] + [s for s in order[b:] if rng.random() < 0.5]
            for _ in range(draw(st.integers(0, 3)))
        ]
    else:
        feature_sets = [
            [s for s in order if rng.random() < 0.5] or order[:1]
            for _ in range(draw(st.integers(1, 4)))
        ]
    specs = [SubsetSpec(f"m{k}", tuple(f)) for k, f in enumerate(feature_sets)]
    return ds, specs


@settings(max_examples=150, deadline=None)
@given(masked_problems(), st.sampled_from(LEARNERS))
def test_random_problems_match_oracle(problem, learner):
    ds, specs = problem
    for name in SPEC_TRAINERS:
        assert_same(name, ds, specs, learner)
    assert_same("train_conventional", ds, learner)
