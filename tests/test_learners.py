import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import routeboost.learners as learners
from routeboost.errors import ArityMismatch, DomainError, EmptyTrainingSet, SingularSystem
from routeboost.learners import (
    MAX_TREE_DEPTH,
    LearnerConfig,
    Leaf,
    MeanLearner,
    RidgeLearner,
    Split,
    TreeLearner,
    fit,
    learner_from_dict,
    learner_to_dict,
    scan_split,
)
from routeboost.subsetting import SubsetSpec, materialize
from routeboost.synthgen import GenSpec, default_layout, generate
from tests import scan_oracle


def as_json(learner) -> str:
    """A learner's saved text: equal text means bit-equal parameters."""
    return json.dumps(learner_to_dict(learner))


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


class TestMemoryLayout:
    """Parameters depend on the training values, never on their layout."""

    CONFIGS = [
        LearnerConfig(kind="mean"),
        LearnerConfig(kind="ridge"),
        LearnerConfig(kind="ridge", standardize=True),
        LearnerConfig(kind="tree"),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=["mean", "ridge", "std", "tree"])
    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_strided_inputs_fit_like_contiguous_copies(self, config, layout):
        rng = np.random.default_rng(5)
        block = rng.normal(size=(1600, 10)) * np.geomspace(1.0, 1e4, 10)
        block[:, 9] += block[:, :4] @ [1.0, -2.0, 0.5, 3.0]
        y = block[::2, 9]
        X = np.asfortranarray(block[::2, :6]) if layout == "fortran" else block[::2, 1:8:2]
        assert not (X.flags.c_contiguous or y.flags.c_contiguous)
        assert as_json(fit(config, X, y)) == as_json(
            fit(config, np.ascontiguousarray(X), np.ascontiguousarray(y))
        )

    def test_plant_subset_target_column(self):
        # A column of the materialized table is strided; before fit took a
        # contiguous copy, ridge rounded this case differently.
        features = ("HSM1_1", "HSM1_2", "PLTCM_1", "PLTCM_2", "CAL_1", "CAL_2")
        dataset = generate(GenSpec(default_layout(), 10_000, 0))
        sub = materialize(dataset, SubsetSpec("b", features))
        assert sub.n_rows == 5018
        X = np.column_stack([sub.column(f) for f in features])
        y = sub.column("Y")
        assert not y.flags.c_contiguous
        config = LearnerConfig(kind="ridge", ridge_lambda=1e-8)
        assert as_json(fit(config, X, y)) == as_json(
            fit(config, X, np.ascontiguousarray(y))
        )

    def test_scalar_target_rejected(self):
        with pytest.raises(ValueError, match="y must be a vector"):
            fit(LearnerConfig(), np.ones((3, 2)), 1.0)


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

    def test_failed_factorization_with_penalty_is_singular(self):
        # The penalty is far below the roundoff of Gram entries near 5e17,
        # so the factorization itself fails.
        x = np.random.default_rng(0).normal(size=50) * 1e8
        X = np.c_[x, x, x + 0.1]
        with pytest.raises(SingularSystem):
            fit(LearnerConfig(kind="ridge", ridge_lambda=1e-8), X, np.ones(50))

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
        assert as_json(a) == as_json(b)


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
        assert as_json(fast) == as_json(reference)


class TestSerialization:
    def test_round_trips_are_lossless(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        for kind in ("mean", "ridge", "tree"):
            model = fit(LearnerConfig(kind=kind, tree_min_leaf=2), X, y)
            back = learner_from_dict(json.loads(as_json(model)))
            assert as_json(back) == as_json(model)
            for xi in X[:5]:
                assert back.predict_one(xi) == model.predict_one(xi)

    def test_schema_shape(self):
        model = fit(LearnerConfig(kind="ridge"), [[1.0], [2.0]], [1.0, 2.0], ["a"])
        doc = json.loads(as_json(model))
        assert set(doc) == {"kind", "features", "parameters"}
        assert doc["features"] == ["a"]


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestRowIndependence:
    """A row's prediction has the same bits alone and inside any batch."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["mean", "ridge", "tree"]),
        st.integers(1, 33),
        st.integers(1, 60),
        st.integers(-3, 4),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_predict_one_matches_every_batch(self, kind, p, n, scale, grid, seed):
        rng = np.random.default_rng(seed)
        if grid:
            # Split thresholds fall on odd integers, which the batch holds.
            X = 2.0 * rng.integers(-4, 5, size=(2 * p + 10, p))
            wide = 1.0 * rng.integers(-8, 9, size=(n, 2 * p))
        else:
            X = rng.normal(size=(2 * p + 10, p)) * 10.0**scale
            wide = rng.normal(size=(n, 2 * p)) * 10.0**scale
        y = X @ rng.normal(size=p) + rng.normal(size=2 * p + 10)
        model = fit(LearnerConfig(kind=kind, ridge_lambda=1.0, tree_min_leaf=2), X, y)
        Xs = wide[:, ::2]  # strided columns
        full = model.predict_matrix(Xs)
        one = [model.predict_one(x) for x in Xs]
        assert all(isinstance(v, float) for v in one)
        assert np.array_equal(bits(one), bits(full))
        perm = rng.permutation(n)
        assert np.array_equal(bits(model.predict_matrix(Xs[perm])), bits(full[perm]))
        assert np.array_equal(bits(model.predict_matrix(Xs[::3])), bits(full[::3]))
        fortran = np.asfortranarray(Xs)
        assert np.array_equal(bits(model.predict_matrix(fortran)), bits(full))
        for i in range(min(n, 5)):
            assert bits(model.predict_matrix(Xs[i : i + 1]))[0] == bits(full)[i]

    def test_arity_checked(self):
        model = fit(LearnerConfig(kind="ridge"), [[1.0], [2.0]], [1.0, 2.0])
        with pytest.raises(ArityMismatch):
            model.predict_matrix(np.zeros((3, 2)))
        assert model.predict_matrix(np.zeros((0, 1))).shape == (0,)

    @pytest.mark.parametrize("kind", ["mean", "ridge", "tree"])
    def test_predict_one_input_forms(self, kind):
        rng = np.random.default_rng(31)
        p = 4
        X = 1.0 * rng.integers(-3, 4, size=(60, p))
        y = X @ rng.normal(size=p) + rng.normal(size=60)
        model = fit(LearnerConfig(kind=kind, tree_min_leaf=2), X, y)
        grid = rng.integers(-4, 5, size=(20, p))
        flags = rng.integers(0, 2, size=(10, p))
        reals = rng.normal(size=(20, p)) * 3.0
        cases = (
            [(r, [int(v) for v in r]) for r in grid]
            + [(r, [bool(v) for v in r]) for r in flags]
            + [(r, [float(v) for v in r]) for r in reals]
            + [(r, [np.float64(v) for v in r]) for r in reals]
            + [(r, tuple(float(v) for v in r)) for r in reals]
            + [(r, r) for r in grid]
            + [(r, r.astype(np.float64)) for r in reals]
        )
        for r, x in cases:
            expected = model.predict_matrix(np.array([r], dtype=np.float64))
            got = model.predict_one(x)
            assert isinstance(got, float)
            assert np.array_equal(bits([got]), bits(expected))

    @pytest.mark.parametrize("kind", ["mean", "ridge", "tree"])
    def test_predict_one_arity_checked(self, kind):
        X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
        model = fit(LearnerConfig(kind=kind, tree_min_leaf=1), X, [1.0, 2.0, 3.0, 5.0])
        for x in ([1.0], [1.0, 2.0, 3.0], np.zeros((1, 2)), [[1.0, 2.0]], np.zeros(3)):
            with pytest.raises(ArityMismatch):
                model.predict_one(x)


@pytest.mark.parametrize(
    "config,X,y",
    [
        (
            LearnerConfig(kind="ridge"),
            [[1, 2], [2, 1], [3, 5], [1e308, -1e308], [4, 4], [5, 2]],
            [3, 4, 6, 7, 8, 9],
        ),
        (LearnerConfig(kind="mean"), [[0.0]] * 4, [1.7e308] * 4),
        (
            # The split midpoint overflows to an infinite threshold.
            LearnerConfig(kind="tree", tree_max_depth=1, tree_min_leaf=1),
            [[1.5e308], [1.5e308], [1.7e308], [1.7e308]],
            [0, 0, 10, 10],
        ),
    ],
    ids=["ridge", "mean", "tree"],
)
def test_fit_rejects_overflowing_parameters(config, X, y):
    with np.errstate(all="ignore"), pytest.raises(DomainError, match=f"{config.kind} fit"):
        fit(config, X, y)


def chain_tree(depth: int, shared: bool = False):
    """A tree whose left spine is ``depth`` splits deep; with ``shared``
    both children of a split are one object, as only a hand-built tree can be."""
    node = Leaf(0.0, 1)
    for _ in range(depth):
        node = Split(0, 0.5, node, node if shared else Leaf(1.0, 1))
    return node


class TestDepthCap:
    def test_config(self):
        assert LearnerConfig(kind="tree", tree_max_depth=MAX_TREE_DEPTH)
        with pytest.raises(ValueError, match="at most 64"):
            LearnerConfig(kind="tree", tree_max_depth=MAX_TREE_DEPTH + 1)

    def test_hand_built_tree(self):
        tree = TreeLearner(("a",), chain_tree(MAX_TREE_DEPTH))
        assert tree.depth() == MAX_TREE_DEPTH
        assert tree.predict_one([0.0]) == 0.0
        for depth, shared in [(MAX_TREE_DEPTH + 1, False), (3000, True)]:
            with pytest.raises(ValueError, match="deeper than 64 levels"):
                TreeLearner(("a",), chain_tree(depth, shared))

    def test_reading(self):
        doc = learner_to_dict(TreeLearner(("a",), chain_tree(MAX_TREE_DEPTH)))
        assert learner_from_dict(doc).depth() == MAX_TREE_DEPTH
        root = doc["parameters"]["root"]
        doc["parameters"]["root"] = {"feature": 0, "threshold": 0.5, "left": root, "right": root}
        with pytest.raises(ValueError, match="deeper than 64 levels"):
            learner_from_dict(doc)
