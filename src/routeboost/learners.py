"""Pluggable regression learners used as ensemble members.

Three kinds: a mean predictor, ridge-regularized least squares solved
via the normal equations on centered data (intercept unpenalized), and
a depth-limited regression tree with greedy variance-reduction splits.
Fitting is deterministic: identical values, whatever their memory
layout, produce bit-identical parameters.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Sequence, Union

import numpy as np

from .data import integer, number, signal_names
from .errors import ArityMismatch, EmptyTrainingSet, NonFinite, SingularSystem

LEARNER_KINDS = ("mean", "ridge", "tree")
# Bounds every recursive walk of a tree: fitting, reading, scoring.
MAX_TREE_DEPTH = 64


@dataclass(frozen=True)
class LearnerConfig:
    kind: str = "ridge"
    ridge_lambda: float = 1e-8
    tree_max_depth: int = 4
    tree_min_leaf: int = 5
    standardize: bool = False

    def __post_init__(self) -> None:
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if not 0.0 <= self.ridge_lambda < np.inf:
            raise ValueError("ridge_lambda must be non-negative and finite")
        if self.tree_max_depth < 1 or self.tree_min_leaf < 1:
            raise ValueError("tree_max_depth and tree_min_leaf must be >= 1")
        if self.tree_max_depth > MAX_TREE_DEPTH:
            raise ValueError(f"tree_max_depth must be at most {MAX_TREE_DEPTH}")


@dataclass(frozen=True)
class Leaf:
    value: float
    n_rows: int


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Split]


def _deeper_than(node: TreeNode, levels: int) -> bool:
    """Whether the tree under ``node`` has more than ``levels`` splits on
    some path; the walk goes at most ``levels + 1`` splits deep."""
    if isinstance(node, Leaf):
        return False
    if levels == 0:
        return True
    return _deeper_than(node.left, levels - 1) or _deeper_than(node.right, levels - 1)


@dataclass(frozen=True)
class MeanLearner:
    features: tuple[str, ...]
    value: float
    kind = "mean"

    def predict_one(self, x: Sequence[float]) -> float:
        """The fitted mean; ``x`` takes the forms ``_row`` describes."""
        _row(x, self.features)
        return self.value

    def predict_matrix(self, X) -> np.ndarray:
        return np.full(_check_arity(X, self.features, 2).shape[0], self.value)


@dataclass(frozen=True)
class RidgeLearner:
    features: tuple[str, ...]
    intercept: float
    weights: np.ndarray
    kind = "ridge"

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        w = w.copy() if w.flags.writeable else w
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_weight_list", w.tolist())

    def predict_one(self, x: Sequence[float]) -> float:
        """``intercept + sum_j x[j] * w[j]``, summed in feature order.

        ``predict_matrix`` adds the same terms in the same order, so a
        row scored alone and inside any batch gives the same bits; a BLAS
        dot product or ``X @ w`` would not, and neither would ``sum``,
        which compensates its rounding from Python 3.12 on. ``x`` takes
        the forms ``_row`` describes: a plain list must hold floats.
        """
        terms = map(operator.mul, _row(x, self.features), self._weight_list)
        return float(self.intercept + reduce(operator.add, terms, 0.0))

    def predict_matrix(self, X) -> np.ndarray:
        X = _check_arity(X, self.features, 2)
        acc = np.zeros(X.shape[0])
        for j, wj in enumerate(self.weights):
            acc += X[:, j] * wj
        return self.intercept + acc


@dataclass(frozen=True)
class TreeLearner:
    features: tuple[str, ...]
    root: TreeNode
    kind = "tree"

    def __post_init__(self) -> None:
        if _deeper_than(self.root, MAX_TREE_DEPTH):
            raise ValueError(f"tree is deeper than {MAX_TREE_DEPTH} levels")

    def predict_one(self, x: Sequence[float]) -> float:
        """The leaf ``x`` reaches; ``x`` takes the forms ``_row`` describes."""
        xv = _row(x, self.features)
        node = self.root
        while isinstance(node, Split):
            # float() compares as predict_matrix's float64 column does.
            left = float(xv[node.feature]) <= node.threshold
            node = node.left if left else node.right
        return node.value

    def predict_matrix(self, X) -> np.ndarray:
        """Rows partitioned down the tree with ``predict_one``'s test."""
        X = _check_arity(X, self.features, 2)
        out = np.empty(X.shape[0])

        def descend(node: TreeNode, rows: np.ndarray) -> None:
            if isinstance(node, Leaf):
                out[rows] = node.value
                return
            left = X[rows, node.feature] <= node.threshold
            descend(node.left, rows[left])
            descend(node.right, rows[~left])

        descend(self.root, np.arange(X.shape[0]))
        return out

    def depth(self) -> int:
        def walk(node: TreeNode) -> int:
            if isinstance(node, Leaf):
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def leaves(self) -> list[Leaf]:
        out: list[Leaf] = []

        def walk(node: TreeNode) -> None:
            if isinstance(node, Leaf):
                out.append(node)
            else:
                walk(node.left)
                walk(node.right)

        walk(self.root)
        return out


FittedLearner = Union[MeanLearner, RidgeLearner, TreeLearner]


def _check_arity(x, features: tuple[str, ...], ndim: int = 1) -> np.ndarray:
    """``x`` as float64: a row (ndim 1) or a matrix (ndim 2) of the features."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim != ndim or xv.shape[-1] != len(features):
        raise ArityMismatch(
            f"expected {len(features)} feature values, got shape {xv.shape}"
        )
    return xv


def _row(x, features: tuple[str, ...]) -> list:
    """One row of the features as a list, for ``predict_one``.

    A plain ``list`` of the right length is taken as it is and must hold
    floats: its elements are not checked, so the per-row path pays for
    no check. ``predict_with_members`` builds such a list from its row
    mapping, whose values are floats when the row comes from
    ``Dataset.row_values``. Any other input (a tuple, an array, a list
    of the wrong length) goes through ``_check_arity``, which converts
    it or raises ArityMismatch.
    """
    if type(x) is list and len(x) == len(features):
        return x
    return _check_arity(x, features).tolist()


def _as_training_arrays(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix")
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError("y must be a vector with one entry per row of X")
    if X.shape[0] == 0:
        raise EmptyTrainingSet("no training rows")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("training data must not contain missing or infinite values")
    # BLAS products can round differently on strided operands; one layout
    # makes the fitted parameters a function of the values alone.
    return np.ascontiguousarray(X), np.ascontiguousarray(y)


def fit(
    config: LearnerConfig,
    X,
    y,
    features: Sequence[str] | None = None,
) -> FittedLearner:
    """Fit one learner on a complete matrix.

    ``features`` names the columns of X in order; auto-named x0, x1, ...
    when omitted. Values so large that a parameter overflows float64
    raise NonFinite.
    """
    X, y = _as_training_arrays(X, y)
    names = tuple(features) if features is not None else tuple(
        f"x{j}" for j in range(X.shape[1])
    )
    if len(names) != X.shape[1]:
        raise ValueError("features must name every column of X")
    if config.kind == "mean":
        learner = MeanLearner(names, float(np.mean(y)))
    elif X.shape[1] == 0:
        raise ValueError(f"{config.kind} learner needs at least one feature")
    elif config.kind == "ridge":
        learner = _fit_ridge(config, X, y, names)
    else:
        learner = _fit_tree(config, X, y, names)
    if not np.isfinite(_parameters(learner)).all():
        raise NonFinite(
            f"{config.kind} fit gave a non-finite parameter: the training "
            "values are too large for float64"
        )
    return learner


def _parameters(learner: FittedLearner) -> list[float]:
    """Every number a fitted learner holds."""
    if isinstance(learner, MeanLearner):
        return [learner.value]
    if isinstance(learner, RidgeLearner):
        return [learner.intercept, *learner.weights.tolist()]

    def walk(node: TreeNode) -> list[float]:
        if isinstance(node, Leaf):
            return [node.value]
        return [node.threshold, *walk(node.left), *walk(node.right)]

    return walk(learner.root)


def _fit_ridge(
    config: LearnerConfig, X: np.ndarray, y: np.ndarray, names: tuple[str, ...]
) -> RidgeLearner:
    """Normal equations on centered data; the intercept is unpenalized.

    With ridge_lambda = 0 a rank-deficient Gram matrix raises
    SingularSystem, as does a Cholesky factorization that fails in
    floating point, which a tiny positive ridge_lambda does not prevent.
    """
    mu = X.mean(axis=0)
    Xc = X - mu
    scale = None
    if config.standardize:
        scale = Xc.std(axis=0)
        scale[scale == 0.0] = 1.0
        Xc = Xc / scale
    gram = Xc.T @ Xc + config.ridge_lambda * np.eye(X.shape[1])
    rhs = Xc.T @ y
    if config.ridge_lambda == 0.0 and np.linalg.matrix_rank(gram) < gram.shape[0]:
        # Cholesky can slip past an exactly singular Gram matrix on a
        # rounded tiny pivot; any positive penalty makes this impossible.
        raise SingularSystem("normal equations are singular (needs ridge_lambda > 0)")
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"normal equations are singular: {exc}") from None
    w = np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))
    if scale is not None:
        w = w / scale
    intercept = float(np.mean(y) - mu @ w)
    return RidgeLearner(names, intercept, w)


def scan_split(xs: np.ndarray, ys: np.ndarray, min_leaf: int):
    """Best boundary of one feature for a variance-reduction split.

    ``xs`` must be sorted ascending and ``ys`` holds the node-centered
    target values in the same order; ``min_leaf`` is at least 1. Returns
    ``(left_count, threshold, score)`` where ``score`` is the summed
    left+right SSE, or ``None`` when no boundary satisfies ``min_leaf`` on
    both sides. Thresholds are midpoints of consecutive distinct values;
    equal scores keep the lowest threshold.

    The prefix sums are sequential (``np.cumsum``) and each boundary's
    score is the same expression a left-to-right loop would evaluate, so
    the result is bit-identical to that loop; ``tests/scan_oracle.py``
    holds it as the reference.
    """
    n = len(xs)
    # Boundary i (rows [0, i) go left) is candidate k = i - 1.
    lo, hi = min_leaf - 1, n - min_leaf
    if lo >= hi:
        return None
    sums = np.cumsum(ys)
    sqs = np.cumsum(ys * ys)
    left_sum = sums[lo:hi]
    left_sq = sqs[lo:hi]
    right_sum = sums[-1] - left_sum
    right_sq = sqs[-1] - left_sq
    i = np.arange(lo + 1, hi + 1, dtype=np.float64)
    score = (left_sq - left_sum * left_sum / i) + (
        right_sq - right_sum * right_sum / (n - i)
    )
    score[(xs[lo:hi] == xs[lo + 1 : hi + 1]) | np.isnan(score)] = np.inf
    k = int(np.argmin(score))
    best_score = float(score[k])
    if best_score == np.inf:
        return None
    pos = lo + k + 1
    a = float(xs[pos - 1])
    b = float(xs[pos])
    thr = (a + b) / 2.0
    if thr == b:
        # Adjacent floats can round the midpoint up; pin the threshold so
        # the partition matches the scanned boundary.
        thr = a
    return pos, thr, best_score


def _fit_tree(
    config: LearnerConfig, X: np.ndarray, y: np.ndarray, names: tuple[str, ...]
) -> TreeLearner:
    """Greedy variance-reduction tree.

    Split thresholds sit at midpoints of consecutive distinct sorted
    values; both children must keep at least tree_min_leaf rows. Ties on
    the split score keep the lowest feature index, then the lowest
    threshold. A node becomes a leaf when the depth limit is reached, too
    few rows remain, the node is pure, or no split strictly reduces the
    summed SSE. A root leaf may hold fewer than tree_min_leaf rows when
    the training set itself is smaller.

    Each feature is sorted once per fit (SLIQ's presorting, Mehta et al.,
    EDBT 1996). A node's orders list its rows by (value, row index) per
    feature; a child keeps its share of each, which is exactly the stable
    sort of its own values, so every node scans what a per-node stable
    argsort would give. A child's orders are formed only when it scans,
    and the right child's only after the left subtree is built.
    """
    min_leaf = config.tree_min_leaf
    columns = range(X.shape[1])

    def build(rows: np.ndarray, depth: int, sorted_orders) -> TreeNode:
        ysub = y[rows]
        n = rows.shape[0]
        # The bits of np.mean(ysub), which would warn through the warnings
        # module, past np.errstate, on the empty child that an overflowed
        # threshold leaves; fit rejects that tree.
        mean = float(ysub.sum() / n)
        node_sse = float(np.sum((ysub - mean) ** 2))
        if depth >= config.tree_max_depth or n < 2 * min_leaf or node_sse <= 0.0:
            return Leaf(mean, n)
        orders = sorted_orders()
        best = None  # (score, feature, threshold)
        for j, order in zip(columns, orders):
            found = scan_split(X[order, j], y[order] - mean, min_leaf)
            if found is None:
                continue
            _, threshold, score = found
            if best is None or score < best[0]:
                best = (score, j, threshold)
        if best is None or best[0] >= node_sse:
            return Leaf(mean, n)
        _, feature, threshold = best
        go_left = X[rows, feature] <= threshold
        left = build(
            rows[go_left],
            depth + 1,
            lambda: [o[X[o, feature] <= threshold] for o in orders],
        )
        right = build(
            rows[~go_left],
            depth + 1,
            lambda: [o[X[o, feature] > threshold] for o in orders],
        )
        return Split(feature, threshold, left, right)

    root = build(
        np.arange(X.shape[0]),
        0,
        lambda: [np.argsort(X[:, j], kind="stable") for j in columns],
    )
    return TreeLearner(names, root)


# --- JSON serialization ------------------------------------------------------
# Floats are emitted via repr (shortest round-trip form), so save/load is
# lossless for 64-bit values.

def _node_to_dict(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
        return {"value": node.value, "n_rows": node.n_rows}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(d: dict, n_features: int, depth: int = 0) -> TreeNode:
    """The node ``d`` at ``depth`` splits below the root; reading stops
    at a split below ``MAX_TREE_DEPTH``."""
    if "value" in d:
        n_rows = integer(d["n_rows"], "n_rows")
        if n_rows < 1:
            raise ValueError(f"n_rows must be at least 1, got {n_rows}")
        return Leaf(number(d["value"], "leaf value"), n_rows)
    if depth == MAX_TREE_DEPTH:
        raise ValueError(f"tree is deeper than {MAX_TREE_DEPTH} levels")
    feature = integer(d["feature"], "feature")
    if feature not in range(n_features):
        raise ValueError(f"tree splits on feature {feature} of {n_features}")
    return Split(
        feature,
        number(d["threshold"], "threshold"),
        _node_from_dict(d["left"], n_features, depth + 1),
        _node_from_dict(d["right"], n_features, depth + 1),
    )


def learner_to_dict(learner: FittedLearner) -> dict:
    if isinstance(learner, MeanLearner):
        params = {"value": learner.value}
    elif isinstance(learner, RidgeLearner):
        params = {
            "intercept": learner.intercept,
            "weights": [float(w) for w in learner.weights],
        }
    elif isinstance(learner, TreeLearner):
        params = {"root": _node_to_dict(learner.root)}
    else:
        raise TypeError(f"not a fitted learner: {learner!r}")
    return {"kind": learner.kind, "features": list(learner.features), "parameters": params}


def learner_from_dict(d: dict) -> FittedLearner:
    """Inverse of ``learner_to_dict``.

    A document off that schema raises KeyError, TypeError or ValueError.
    """
    kind = d["kind"]
    features = signal_names(d["features"])
    params = d["parameters"]
    if kind == "mean":
        return MeanLearner(features, number(params["value"], "mean value"))
    if kind == "ridge":
        if not isinstance(params["weights"], list):
            raise TypeError(f"weights must be a list, got {params['weights']!r}")
        weights = [number(w, "weight") for w in params["weights"]]
        if len(weights) != len(features):
            raise ValueError(f"{len(weights)} weights for {len(features)} features")
        return RidgeLearner(features, number(params["intercept"], "intercept"), weights)
    if kind == "tree":
        root = _node_from_dict(params["root"], len(features))
        return TreeLearner(features, root)
    raise ValueError(f"unknown learner kind {kind!r}")

