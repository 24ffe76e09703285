"""Pluggable regression learners used as ensemble members.

Three kinds: a mean predictor, ridge-regularized least squares solved
via the normal equations on centered data (intercept unpenalized), and
a depth-limited regression tree with greedy variance-reduction splits.
Fitting is deterministic: identical inputs produce bit-identical
parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
import scipy.linalg

from .errors import ArityMismatch, EmptyTrainingSet, SingularSystem

LEARNER_KINDS = ("mean", "ridge", "tree")


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
        if self.ridge_lambda < 0:
            raise ValueError("ridge_lambda must be non-negative")
        if self.tree_max_depth < 1 or self.tree_min_leaf < 1:
            raise ValueError("tree_max_depth and tree_min_leaf must be >= 1")


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


@dataclass(frozen=True)
class MeanLearner:
    features: tuple[str, ...]
    value: float
    kind = "mean"

    def predict_one(self, x: Sequence[float]) -> float:
        _check_arity(x, self.features)
        return self.value


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

    def predict_one(self, x: Sequence[float]) -> float:
        xv = _check_arity(x, self.features)
        return float(self.intercept + np.dot(xv, self.weights))


@dataclass(frozen=True)
class TreeLearner:
    features: tuple[str, ...]
    root: TreeNode
    kind = "tree"

    def predict_one(self, x: Sequence[float]) -> float:
        xv = _check_arity(x, self.features)
        node = self.root
        while isinstance(node, Split):
            node = node.left if xv[node.feature] <= node.threshold else node.right
        return node.value

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


def _check_arity(x: Sequence[float], features: tuple[str, ...]) -> np.ndarray:
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim != 1 or xv.shape[0] != len(features):
        raise ArityMismatch(
            f"expected {len(features)} feature values, got shape {xv.shape}"
        )
    return xv


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
    return X, y


def fit(
    config: LearnerConfig,
    X,
    y,
    features: Sequence[str] | None = None,
) -> FittedLearner:
    """Fit one learner on a complete matrix.

    ``features`` names the columns of X in order; auto-named x0, x1, ...
    when omitted.
    """
    X, y = _as_training_arrays(X, y)
    names = tuple(features) if features is not None else tuple(
        f"x{j}" for j in range(X.shape[1])
    )
    if len(names) != X.shape[1]:
        raise ValueError("features must name every column of X")
    if config.kind == "mean":
        return MeanLearner(names, float(np.mean(y)))
    if X.shape[1] == 0:
        raise ValueError(f"{config.kind} learner needs at least one feature")
    if config.kind == "ridge":
        return _fit_ridge(config, X, y, names)
    return _fit_tree(config, X, y, names)


def _fit_ridge(
    config: LearnerConfig, X: np.ndarray, y: np.ndarray, names: tuple[str, ...]
) -> RidgeLearner:
    """Normal equations on centered data; the intercept is unpenalized.

    With ridge_lambda > 0 the system is positive definite and always
    solvable; with ridge_lambda = 0 a rank-deficient Gram matrix raises
    SingularSystem.
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
        factor = scipy.linalg.cho_factor(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"normal equations are singular: {exc}") from None
    w = scipy.linalg.cho_solve(factor, rhs)
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
    """
    min_leaf = config.tree_min_leaf

    def build(rows: np.ndarray, depth: int) -> TreeNode:
        ysub = y[rows]
        n = rows.shape[0]
        mean = float(np.mean(ysub))
        node_sse = float(np.sum((ysub - mean) ** 2))
        if depth >= config.tree_max_depth or n < 2 * min_leaf or node_sse <= 0.0:
            return Leaf(mean, n)
        yc = ysub - mean
        best = None  # (score, feature, threshold)
        for j in range(X.shape[1]):
            xcol = X[rows, j]
            order = np.argsort(xcol, kind="stable")
            found = scan_split(xcol[order], yc[order], min_leaf)
            if found is None:
                continue
            _, threshold, score = found
            if best is None or score < best[0]:
                best = (score, j, threshold)
        if best is None or best[0] >= node_sse:
            return Leaf(mean, n)
        _, feature, threshold = best
        go_left = X[rows, feature] <= threshold
        return Split(
            feature,
            threshold,
            build(rows[go_left], depth + 1),
            build(rows[~go_left], depth + 1),
        )

    root = build(np.arange(X.shape[0]), 0)
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


def _node_from_dict(d: dict) -> TreeNode:
    if "value" in d:
        return Leaf(float(d["value"]), int(d["n_rows"]))
    return Split(
        int(d["feature"]),
        float(d["threshold"]),
        _node_from_dict(d["left"]),
        _node_from_dict(d["right"]),
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
    kind = d["kind"]
    features = tuple(d["features"])
    params = d["parameters"]
    if kind == "mean":
        return MeanLearner(features, float(params["value"]))
    if kind == "ridge":
        return RidgeLearner(
            features,
            float(params["intercept"]),
            np.array(params["weights"], dtype=np.float64),
        )
    if kind == "tree":
        return TreeLearner(features, _node_from_dict(params["root"]))
    raise ValueError(f"unknown learner kind {kind!r}")


def learner_to_json(learner: FittedLearner) -> str:
    return json.dumps(learner_to_dict(learner), indent=2, sort_keys=True)


def learner_from_json(text: str) -> FittedLearner:
    return learner_from_dict(json.loads(text))
