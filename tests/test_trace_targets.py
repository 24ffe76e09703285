"""Every callable the pipeline benchmark traces must still exist.

``perfbench/run.py --trace 1`` swaps each ``(module, attribute)`` in
``perfbench.tracing.TARGETS`` for a timing wrapper; a renamed or deleted
function would make the traced run fail instead of this test. The split
scan must also keep the call signature the tracer's counters read.
"""

import numpy as np
import pytest

from perfbench import tracing
from routeboost import learners
from routeboost.learners import LearnerConfig, fit
from tests import tree_oracle


@pytest.mark.parametrize(
    "module_name,attr", [target[:2] for target in tracing.TARGETS]
)
def test_trace_target_resolves(module_name, attr):
    owner, leaf = tracing._resolve(module_name, attr)
    assert callable(getattr(owner, leaf))


def test_scan_split_calls_are_what_the_tracer_counts(monkeypatch):
    """``kernels.scan_calls`` and ``kernels.scan_elems`` count the calls of
    ``learners.scan_split`` and their ``len(xs)``; the tracer reads
    ``args[0]`` and ``args[1]`` as the 1-D sorted values and targets.
    The presorted fit must make the calls the per-node scan makes."""
    rng = np.random.default_rng(8)
    X = np.round(rng.normal(size=(400, 5)), 1)
    y = X @ rng.normal(size=5) + rng.normal(size=400)
    config = LearnerConfig(kind="tree", tree_max_depth=4, tree_min_leaf=5)
    kernel = learners.scan_split
    calls = []

    def recorded(xs, ys, min_leaf):
        calls.append((xs, ys))
        return kernel(xs, ys, min_leaf)

    monkeypatch.setattr(learners, "scan_split", recorded)
    fit(config, X, y)
    fitted = calls[:]
    calls.clear()
    tree_oracle.fit_tree(config, X, y)

    assert fitted
    for xs, ys in fitted:
        assert xs.ndim == ys.ndim == 1
        assert xs.dtype == ys.dtype == np.float64
        assert len(xs) == len(ys)
    assert len(fitted) == len(calls)
    assert sum(len(xs) for xs, _ in fitted) == sum(len(xs) for xs, _ in calls)
