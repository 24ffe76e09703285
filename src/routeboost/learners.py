"""Pluggable regression learners used as ensemble members.

Three kinds: a mean predictor, ridge-regularized least squares solved
via the normal equations on centered data (intercept unpenalized), and
a depth-limited regression tree with greedy variance-reduction splits.
Fitting is deterministic: identical values, whatever their memory
layout, produce bit-identical parameters. ``TreeLearner`` refuses a node
reached on two paths, so every walk of a tree meets each node once, and
one preorder builder (``_from_preorder``) serves fitting, reading and
writing.

Each learner's ``_score_row(xs, keys)`` is its one per-row kernel: it
reads feature j as ``xs[keys[j]]``, each value it uses through
``float()``, as ``predict_matrix`` reads float64 columns, and checks
nothing else. ``predict_one(x)`` runs it on ``x`` as ``_check_arity``
converts it, keyed by position; ``predict_with_members`` on a row
mapping, keyed by the member's feature names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .data import integer, number, read_only_array, signal_names
from .errors import ArityMismatch, EmptyTrainingSet, NonFinite, SingularSystem

LEARNER_KINDS = ("mean", "ridge", "tree")
# The most splits on any path of a tree. No tree walk recurses; the cap
# bounds what a model document can ask for, since ``Split`` refuses a
# taller tree and the reader stops there.
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
    height = 0


@dataclass(frozen=True)
class Split:
    """A split over two subtrees. ``height``, the most splits on a path
    down from here, is not a field: it is set from the children's, and a
    split more than ``MAX_TREE_DEPTH`` high raises ValueError."""

    feature: int
    threshold: float
    left: "TreeNode"
    right: "TreeNode"

    def __post_init__(self) -> None:
        height = 1 + max(self.left.height, self.right.height)
        if height > MAX_TREE_DEPTH:
            raise ValueError(f"tree is deeper than {MAX_TREE_DEPTH} levels")
        object.__setattr__(self, "height", height)


TreeNode = Union[Leaf, Split]


def _nodes(root: TreeNode) -> Iterator[TreeNode]:
    """The nodes under ``root`` in preorder, each split before its left
    subtree."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Split):
            stack += [node.right, node.left]


class _RowScorer:
    def predict_one(self, x: Sequence[float]) -> float:
        """``_score_row`` of the row ``x``. Each ``predict_matrix`` scores
        every row in the same order, so a row scored alone and inside any
        batch gives the same bits. Ridge adds ``x[j] * w[j]`` in feature
        order from 0.0, then the intercept; a BLAS dot product or ``X @ w``
        would not, and neither would ``sum``, which compensates its
        rounding from Python 3.12 on."""
        xs = _check_arity(x, self.features).tolist()
        return self._score_row(xs, range(len(xs)))


@dataclass(frozen=True)
class MeanLearner(_RowScorer):
    features: tuple[str, ...]
    value: float
    kind = "mean"

    def _score_row(self, xs: Mapping | Sequence, keys: Sequence) -> float:
        return self.value

    def predict_matrix(self, X) -> np.ndarray:
        return np.full(_check_arity(X, self.features, 2).shape[0], self.value)


@dataclass(frozen=True)
class RidgeLearner(_RowScorer):
    features: tuple[str, ...]
    intercept: float
    weights: np.ndarray
    kind = "ridge"

    def __post_init__(self) -> None:
        w = read_only_array(self.weights)
        if w.shape != (len(self.features),):
            raise ValueError(f"{w.size} weights for {len(self.features)} features")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_weight_list", w.tolist())

    def _score_row(self, xs: Mapping | Sequence, keys: Sequence) -> float:
        acc = 0.0
        for k, w in zip(keys, self._weight_list):
            acc += float(xs[k]) * w
        return float(self.intercept + acc)

    def predict_matrix(self, X) -> np.ndarray:
        X = _check_arity(X, self.features, 2)
        acc = np.zeros(X.shape[0])
        for j, wj in enumerate(self.weights):
            acc += X[:, j] * wj
        return self.intercept + acc


@dataclass(frozen=True)
class TreeLearner(_RowScorer):
    features: tuple[str, ...]
    root: TreeNode
    kind = "tree"

    def __post_init__(self) -> None:
        # A node reached on two paths is refused, as the writer and the
        # reader refuse one; the walk stops there, so it visits each once.
        n = len(self.features)
        walked: set[int] = set()  # ids of the nodes walked so far
        for node in _nodes(self.root):
            if id(node) in walked:
                raise ValueError("tree shares a node between two paths")
            walked.add(id(node))
            if isinstance(node, Split) and node.feature not in range(n):
                raise ValueError(f"tree splits on feature {node.feature} of {n}")

    def _score_row(self, xs: Mapping | Sequence, keys: Sequence) -> float:
        node = self.root
        while isinstance(node, Split):
            left = float(xs[keys[node.feature]]) <= node.threshold
            node = node.left if left else node.right
        return node.value

    def predict_matrix(self, X) -> np.ndarray:
        """Rows partitioned down the tree with ``predict_one``'s test."""
        X = _check_arity(X, self.features, 2)
        out = np.empty(X.shape[0])
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if not rows.size:  # no row reaches it
                continue
            if isinstance(node, Leaf):
                out[rows] = node.value
                continue
            left = X[rows, node.feature] <= node.threshold
            # compress, not a boolean index: on a mask with no pattern it
            # costs about a third as much, and picks the same rows.
            stack += [
                (node.right, rows.compress(~left)),
                (node.left, rows.compress(left)),
            ]
        return out

    def depth(self) -> int:
        return self.root.height

    def leaves(self) -> list[Leaf]:
        return [node for node in _nodes(self.root) if isinstance(node, Leaf)]


FittedLearner = Union[MeanLearner, RidgeLearner, TreeLearner]


def _check_arity(x, features: tuple[str, ...], ndim: int = 1) -> np.ndarray:
    """``x`` as float64: a row (ndim 1) or a matrix (ndim 2) of the features."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim != ndim or xv.shape[-1] != len(features):
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
        raise _overflow(config.kind)
    return learner


def _overflow(kind: str) -> NonFinite:
    return NonFinite(
        f"{kind} fit gave a non-finite parameter: the training values are "
        "too large for float64"
    )


def _parameters(learner: FittedLearner) -> list[float]:
    """Every number a fitted learner holds."""
    if isinstance(learner, MeanLearner):
        return [learner.value]
    if isinstance(learner, RidgeLearner):
        return [learner.intercept, *learner.weights.tolist()]
    return [
        node.value if isinstance(node, Leaf) else node.threshold
        for node in _nodes(learner.root)
    ]


def _fit_ridge(
    config: LearnerConfig, X: np.ndarray, y: np.ndarray, names: tuple[str, ...]
) -> RidgeLearner:
    """Normal equations on centered data; the intercept is unpenalized.

    With ridge_lambda = 0 a rank-deficient Gram matrix raises
    SingularSystem, as does a Cholesky factorization that fails in
    floating point, which a tiny positive ridge_lambda does not prevent.
    A Gram matrix or right-hand side that overflows raises NonFinite.
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
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        # An overflowed Gram matrix would read as singular or solve to inf.
        raise _overflow(config.kind)
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
    sums = ys.cumsum()
    sqs = ys * ys
    sqs.cumsum(out=sqs)
    left_sum = sums[lo:hi]
    left_sq = sqs[lo:hi]
    right_sum = sums[-1] - left_sum
    right_sq = sqs[-1] - left_sq
    i = np.arange(lo + 1, hi + 1, dtype=np.float64)
    # (left_sq - left_sum * left_sum / i)
    #     + (right_sq - right_sum * right_sum / (n - i)),
    # one operation at a time in that order, in place where a buffer is free.
    score = left_sum * left_sum
    score /= i
    np.subtract(left_sq, score, out=score)
    right_sum *= right_sum
    np.subtract(n, i, out=i)
    right_sum /= i
    np.subtract(right_sq, right_sum, out=right_sq)
    score += right_sq
    skip = xs[lo:hi] == xs[lo + 1 : hi + 1]
    skip |= np.isnan(score)
    score[skip] = np.inf
    k = int(score.argmin())
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


def _stable_order(column: np.ndarray) -> np.ndarray:
    """``np.argsort(column, kind="stable")``, by a cheaper sort when it can.

    Distinct values have one ascending order, which any sort finds, so
    the unstable argsort is kept when no two sorted neighbours are equal
    (``==``, so -0.0 ties 0.0). A column with a tie is sorted again
    stably, which orders each tie by row index.
    """
    order = np.argsort(column)
    values = column[order]
    if (values[1:] == values[:-1]).any():
        return np.argsort(column, kind="stable")
    return order


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
    EDBT 1996), by ``_stable_order``. A node's orders list its rows by
    (value, row index) per feature; a child keeps its share of each,
    which is exactly the stable sort of its own values, so every node
    scans what a per-node stable argsort would give. A node's orders are
    one features × rows array, and the share is read through one row
    mask per fit, stamped once per split over the node's rows and read
    once per feature through its orders, so a node's work is
    proportional to its own rows. Pending nodes wait on a stack, the
    right child under the left so that nodes are fit in preorder, each
    with its own rows and, if it will scan, its own orders. Their rows
    are disjoint, so at any depth their orders hold at most one index
    per row and feature.
    """
    min_leaf = config.tree_min_leaf
    columns = [X[:, j] for j in range(X.shape[1])]
    side = np.empty(X.shape[0], dtype=bool)
    preorder: list = []
    # Only the root's orders are made when it is popped; a child that
    # gets none becomes a leaf before it would read them.
    stack = [(np.arange(X.shape[0]), 0, None)]
    while stack:
        rows, depth, orders = stack.pop()
        ysub = y[rows]
        n = rows.shape[0]
        # The bits of np.mean(ysub), which would warn through the warnings
        # module, past np.errstate, on the empty child that an overflowed
        # threshold leaves; fit rejects that tree.
        mean = float(ysub.sum() / n)
        node_sse = float(np.sum((ysub - mean) ** 2))
        if depth >= config.tree_max_depth or n < 2 * min_leaf or node_sse <= 0.0:
            preorder.append(Leaf(mean, n))
            continue
        if orders is None:
            orders = np.array([_stable_order(column) for column in columns])
        best = None  # (score, feature, threshold)
        for j, (column, order) in enumerate(zip(columns, orders)):
            found = scan_split(column[order], y[order] - mean, min_leaf)
            if found is None:
                continue
            _, threshold, score = found
            if best is None or score < best[0]:
                best = (score, j, threshold)
        if best is None or best[0] >= node_sse:
            preorder.append(Leaf(mean, n))
            continue
        _, feature, threshold = best
        preorder.append((feature, threshold))
        go_left = columns[feature][rows] <= threshold
        side[rows] = go_left
        # compress, as in predict_matrix, for the rows and orders of each side.
        children = [rows.compress(~go_left), rows.compress(go_left)]
        cuts = [
            np.empty((len(columns), child.shape[0]), dtype=np.intp)
            if depth + 1 < config.tree_max_depth and child.shape[0] >= 2 * min_leaf
            else None
            for child in children
        ]
        if any(cut is not None for cut in cuts):
            # One gather of the side per feature; compress's index array
            # is then one feature's share of a child.
            for j, order in enumerate(orders):
                went = side[order]
                for keep, cut in enumerate(cuts):
                    if cut is not None:
                        order.compress(went if keep else ~went, out=cut[j])
        stack += [(child, depth + 1, cut) for child, cut in zip(children, cuts)]
    return TreeLearner(names, _from_preorder(preorder))


def _from_preorder(preorder: list, split=Split):
    """The tree whose nodes in preorder are ``preorder``, each a leaf or a
    split's ``(feature, threshold)`` tuple, built from the end back by
    ``split(feature, threshold, left, right)``."""
    built: list = []
    for node in reversed(preorder):
        if isinstance(node, tuple):
            node = split(*node, built.pop(), built.pop())
        built.append(node)
    return built.pop()


# --- JSON serialization ------------------------------------------------------
# Floats are emitted via repr (shortest round-trip form), so save/load is
# lossless for 64-bit values.

def _tree_from_dict(params: dict) -> TreeNode:
    """The tree of ``params["root"]``, read in preorder from an explicit
    stack; reading stops at a split below ``MAX_TREE_DEPTH`` and at a
    node document met a second time, which would be read once per path.
    ``TreeLearner`` checks that each split's feature exists."""
    preorder: list = []
    read: set[int] = set()  # ids of the node documents read so far
    # (parent document, key, splits above); a node is looked up when it
    # is popped, so a document fails at its first bad node in preorder.
    stack = [(params, "root", 0)]
    while stack:
        parent, key, depth = stack.pop()
        d = parent[key]
        if id(d) in read:
            raise ValueError("tree shares a node document between two paths")
        read.add(id(d))
        if "value" in d:
            n_rows = integer(d["n_rows"], "n_rows")
            if n_rows < 1:
                raise ValueError(f"n_rows must be at least 1, got {n_rows}")
            preorder.append(Leaf(number(d["value"], "leaf value"), n_rows))
            continue
        if depth == MAX_TREE_DEPTH:
            raise ValueError(f"tree is deeper than {MAX_TREE_DEPTH} levels")
        preorder.append(
            (integer(d["feature"], "feature"), number(d["threshold"], "threshold"))
        )
        stack += [(d, "right", depth + 1), (d, "left", depth + 1)]
    return _from_preorder(preorder)


def _tree_to_dict(root: TreeNode) -> dict:
    """``dataclasses.asdict(root)``, the same nested dicts with the same
    key order, built as ``_from_preorder`` builds a tree."""
    preorder = [
        (node.feature, node.threshold)
        if isinstance(node, Split)
        else {"value": node.value, "n_rows": node.n_rows}
        for node in _nodes(root)
    ]
    return _from_preorder(
        preorder,
        lambda f, t, left, right: dict(feature=f, threshold=t, left=left, right=right),
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
        params = {"root": _tree_to_dict(learner.root)}
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
        return RidgeLearner(features, number(params["intercept"], "intercept"), weights)
    if kind == "tree":
        return TreeLearner(features, _tree_from_dict(params))
    raise ValueError(f"unknown learner kind {kind!r}")

