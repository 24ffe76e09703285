import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import routeboost.learners as learners
from routeboost.errors import ArityMismatch, EmptyTrainingSet, SingularSystem
from routeboost.learners import (
    LearnerConfig,
    Leaf,
    MeanLearner,
    RidgeLearner,
    Split,
    TreeLearner,
    fit,
    learner_from_json,
    learner_to_json,
    scan_split,
)
from tests import scan_oracle

# --- independent oracles -----------------------------------------------------


def ridge_oracle(X, y, lam):
    """Brute-force normal equations on the raw design matrix.

    Solves the penalized system directly (intercept column unpenalized),
    independent of the centered-solve path under test.
    """
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    design = np.c_[np.ones(len(X)), X]
    penalty = np.eye(design.shape[1]) * lam
    penalty[0, 0] = 0.0
    beta = np.linalg.solve(design.T @ design + penalty, design.T @ y)
    return float(beta[0]), beta[1:]


def brute_force_split(X, y, min_leaf):
    """Enumerate every (feature, midpoint) candidate and score it directly."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    best = None
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        for a, b in zip(values, values[1:]):
            thr = (a + b) / 2.0
            left = X[:, j] <= thr
            nl, nr = int(left.sum()), int((~left).sum())
            if nl < min_leaf or nr < min_leaf:
                continue
            sse = float(np.var(y[left]) * nl + np.var(y[~left]) * nr)
            if best is None or sse < best[0] - 1e-12:
                best = (sse, j, thr)
    return best


class TestMeanLearner:
    def test_constant_is_arithmetic_mean(self):
        model = fit(LearnerConfig(kind="mean"), [[0.0], [0.0], [0.0]], [2, 4, 6])
        assert model.value == 4.0

    def test_any_input_returns_constant(self):
        model = MeanLearner(("a",), 4.0)
        assert model.predict_one([123.0]) == 4.0

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            fit(LearnerConfig(kind="mean"), np.empty((0, 1)), np.empty(0))


@pytest.mark.parametrize("kind", ["mean", "ridge", "tree"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_values(kind, bad):
    X = np.arange(12.0).reshape(6, 2)
    y = np.arange(6.0)
    bad_X = X.copy()
    bad_X[2, 1] = bad
    bad_y = y.copy()
    bad_y[4] = bad
    for Xi, yi in ((bad_X, y), (X, bad_y)):
        with pytest.raises(ValueError, match="missing or infinite"):
            fit(LearnerConfig(kind=kind), Xi, yi)


class TestRidge:
    def test_exact_linear_relation(self):
        model = fit(LearnerConfig(kind="ridge"), [[1.0], [2.0], [3.0]], [2, 4, 6])
        b, w = ridge_oracle([[1.0], [2.0], [3.0]], [2, 4, 6], 1e-8)
        assert abs(model.intercept) <= 1e-6
        assert abs(model.weights[0] - 2.0) <= 1e-6
        assert abs(model.intercept - b) <= 1e-8
        assert abs(model.weights[0] - w[0]) <= 1e-8

    def test_oracle_equivalence_on_random_systems(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            X = rng.normal(size=(5, 2))
            y = rng.normal(size=5)
            model = fit(LearnerConfig(kind="ridge", ridge_lambda=1e-8), X, y)
            b, w = ridge_oracle(X, y, 1e-8)
            assert abs(model.intercept - b) <= 1e-8
            assert np.max(np.abs(model.weights - w)) <= 1e-8

    def test_lambda_zero_matches_exact_least_squares(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        model = fit(LearnerConfig(kind="ridge", ridge_lambda=0.0), X, y)
        beta, *_ = np.linalg.lstsq(np.c_[np.ones(30), X], y, rcond=None)
        assert abs(model.intercept - beta[0]) <= 1e-8
        assert np.max(np.abs(model.weights - beta[1:])) <= 1e-8

    def test_translation_consistency(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        a = fit(LearnerConfig(kind="ridge", ridge_lambda=0.5), X, y)
        b = fit(LearnerConfig(kind="ridge", ridge_lambda=0.5), X, y + 100.0)
        assert abs((b.intercept - a.intercept) - 100.0) <= 1e-9
        assert np.max(np.abs(b.weights - a.weights)) <= 1e-9

    def test_constant_column_gets_zero_weight(self):
        rng = np.random.default_rng(2)
        X = np.c_[rng.normal(size=20), np.full(20, 7.0)]
        y = rng.normal(size=20)
        model = fit(LearnerConfig(kind="ridge", ridge_lambda=1e-6), X, y)
        assert abs(model.weights[1]) <= 1e-9

    def test_singular_only_without_penalty(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([1.0, 2.0, 3.0])
        with pytest.raises(SingularSystem):
            fit(LearnerConfig(kind="ridge", ridge_lambda=0.0), X, y)
        fit(LearnerConfig(kind="ridge", ridge_lambda=1e-8), X, y)  # solvable

    def test_standardize_flag_keeps_prediction_semantics(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 2)) * [1.0, 1000.0]
        y = X @ [1.0, 0.002] + rng.normal(size=50)
        plain = fit(LearnerConfig(kind="ridge", ridge_lambda=1e-8), X, y)
        scaled = fit(
            LearnerConfig(kind="ridge", ridge_lambda=1e-8, standardize=True), X, y
        )
        x = [0.3, 42.0]
        assert abs(plain.predict_one(x) - scaled.predict_one(x)) <= 1e-6

    def test_predict_linear_evaluation(self):
        model = RidgeLearner(("a",), 0.0, np.array([2.0]))
        assert model.predict_one([7.0]) == 14.0

    def test_arity_mismatch(self):
        model = RidgeLearner(("a", "b"), 0.0, np.array([1.0, 1.0]))
        with pytest.raises(ArityMismatch):
            model.predict_one([1.0])


class TestTree:
    def test_depth_one_split(self):
        X = [[0.0], [1.0], [2.0], [3.0]]
        y = [0.0, 0.0, 10.0, 10.0]
        oracle = brute_force_split(X, y, 1)
        assert oracle[1] == 0 and oracle[2] == 1.5
        config = LearnerConfig(kind="tree", tree_max_depth=1, tree_min_leaf=1)
        model = fit(config, X, y)
        assert isinstance(model.root, Split)
        assert model.root.threshold == 1.5
        assert model.root.left.value == 0.0
        assert model.root.right.value == 10.0
        assert model.predict_one([2.0]) == 10.0

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            X = rng.normal(size=(40, 3))
            y = rng.normal(size=40)
            config = LearnerConfig(kind="tree", tree_max_depth=1, tree_min_leaf=2)
            model = fit(config, X, y)
            sse, feature, thr = brute_force_split(X, y, 2)
            assert isinstance(model.root, Split)
            assert model.root.feature == feature
            assert model.root.threshold == pytest.approx(thr, abs=1e-12)

    def test_training_sse_never_worse_than_mean(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            X = rng.normal(size=(60, 2))
            y = rng.normal(size=60)
            tree = fit(LearnerConfig(kind="tree"), X, y)
            mean = fit(LearnerConfig(kind="mean"), X, y)
            sse_tree = sum(
                (yi - tree.predict_one(xi)) ** 2 for xi, yi in zip(X, y)
            )
            sse_mean = sum(
                (yi - mean.predict_one(xi)) ** 2 for xi, yi in zip(X, y)
            )
            assert sse_tree <= sse_mean + 1e-9

    def test_depth_and_leaf_constraints(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100)
        config = LearnerConfig(kind="tree", tree_max_depth=3, tree_min_leaf=7)
        model = fit(config, X, y)
        assert model.depth() <= 3
        assert all(leaf.n_rows >= 7 for leaf in model.leaves())

    def test_constant_target_stays_a_leaf(self):
        X = [[float(i)] for i in range(10)]
        model = fit(LearnerConfig(kind="tree", tree_min_leaf=1), X, [5.0] * 10)
        assert isinstance(model.root, Leaf)

    def test_tie_breaks_lowest_feature_then_threshold(self):
        # Identical columns: both features give identical scores everywhere.
        col = [0.0, 1.0, 2.0, 3.0]
        X = np.c_[col, col]
        y = [0.0, 0.0, 10.0, 10.0]
        model = fit(LearnerConfig(kind="tree", tree_max_depth=1, tree_min_leaf=1), X, y)
        assert model.root.feature == 0

    def test_deterministic_fit(self):
        rng = np.random.default_rng(77)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        config = LearnerConfig(kind="tree")
        a = fit(config, X, y)
        b = fit(config, X, y)
        assert learner_to_json(a) == learner_to_json(b)


@st.composite
def scan_inputs(draw):
    """Sorted feature values with heavy ties, centered targets, a min_leaf.

    Values come rounded to few decimals (many duplicates) or as runs of
    adjacent floats, whose midpoints round onto the upper neighbour and
    exercise the threshold pin.
    """
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        xs = np.round(rng.normal(size=n), draw(st.integers(0, 2)))
    else:
        values = [draw(st.floats(-1e6, 1e6))]
        for step in rng.integers(0, 2, size=n - 1):
            values.append(np.nextafter(values[-1], np.inf) if step else values[-1])
        xs = np.array(values)
    xs = np.sort(xs)
    scale = 10.0 ** draw(st.integers(-3, 6))
    ys = rng.normal(size=n) * scale
    ys -= ys.mean()
    return xs, ys, draw(st.integers(1, 9))


class TestKernelParity:
    """The NumPy scan must equal the sequential oracle loop bit-for-bit."""

    def test_scan_results_identical(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            xs = np.sort(rng.normal(size=n))
            ys = rng.normal(size=n)
            ys -= ys.mean()
            assert scan_split(xs, ys, 1) == scan_oracle.scan_split(xs, ys, 1)

    def test_scan_handles_ties_identically(self):
        xs = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        ys = np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
        assert scan_split(xs, ys, 1) == scan_oracle.scan_split(xs, ys, 1)

    def test_no_valid_boundary(self):
        xs = np.array([1.0, 1.0, 1.0])
        ys = np.array([0.0, 1.0, -1.0])
        assert scan_split(xs, ys, 1) is None
        assert scan_oracle.scan_split(xs, ys, 1) is None

    @settings(max_examples=300, deadline=None)
    @given(scan_inputs())
    def test_scan_matches_oracle_property(self, case):
        xs, ys, min_leaf = case
        assert scan_split(xs, ys, min_leaf) == scan_oracle.scan_split(xs, ys, min_leaf)

    def test_tree_fit_identical_with_oracle_scan(self, monkeypatch):
        rng = np.random.default_rng(99)
        X = np.round(rng.normal(size=(120, 4)), 1)
        y = rng.normal(size=120)
        config = LearnerConfig(kind="tree", tree_max_depth=4, tree_min_leaf=3)
        fast = fit(config, X, y)
        monkeypatch.setattr(learners, "scan_split", scan_oracle.scan_split)
        reference = fit(config, X, y)
        assert learner_to_json(fast) == learner_to_json(reference)


class TestSerialization:
    def test_round_trips_are_lossless(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        for kind in ("mean", "ridge", "tree"):
            model = fit(LearnerConfig(kind=kind, tree_min_leaf=2), X, y)
            back = learner_from_json(learner_to_json(model))
            assert learner_to_json(back) == learner_to_json(model)
            for xi in X[:5]:
                assert back.predict_one(xi) == model.predict_one(xi)

    def test_schema_shape(self):
        model = fit(LearnerConfig(kind="ridge"), [[1.0], [2.0]], [1.0, 2.0], ["a"])
        doc = json.loads(learner_to_json(model))
        assert set(doc) == {"kind", "features", "parameters"}
        assert doc["features"] == ["a"]
