"""Every callable the pipeline benchmark traces must still exist.

``perfbench/run.py --trace 1`` swaps each ``(module, attribute)`` in
``perfbench.tracing.TARGETS`` for a timing wrapper; a renamed or deleted
function would make the traced run fail instead of this test.
"""

import pytest

from perfbench import tracing


@pytest.mark.parametrize(
    "module_name,attr", [target[:2] for target in tracing.TARGETS]
)
def test_trace_target_resolves(module_name, attr):
    owner, leaf = tracing._resolve(module_name, attr)
    assert callable(getattr(owner, leaf))
