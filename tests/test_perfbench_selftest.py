"""The pipeline benchmark's own self-test, run as part of the suite.

``perfbench/selftest.py`` drives every workload at tiny sizes through the
package's public API and checks each pass with the benchmark's score,
round-trip and plant oracles, so a package change that breaks what the
benchmark relies on fails here rather than only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: 0 failures" in done.stdout
