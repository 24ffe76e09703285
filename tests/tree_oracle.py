"""Reference tree fit: one stable argsort per node per feature.

``routeboost.learners.fit`` with ``kind="tree"`` must build exactly the
tree this fit builds (``learner_to_dict`` compared with ``==``), and call
``learners.scan_split`` as often, with as many elements in total. The
split scan is looked up on the module at each call, so a test that wraps
``learners.scan_split`` sees this fit's calls too.
"""

from __future__ import annotations

import numpy as np

from routeboost import learners
from routeboost.learners import Leaf, LearnerConfig, Split, TreeLearner, TreeNode


def fit_tree(config: LearnerConfig, X, y, features=None) -> TreeLearner:
    """Greedy variance-reduction tree; see ``learners._fit_tree``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    names = tuple(features) if features is not None else tuple(
        f"x{j}" for j in range(X.shape[1])
    )
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
            found = learners.scan_split(xcol[order], yc[order], min_leaf)
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

    return TreeLearner(names, build(np.arange(X.shape[0]), 0))
