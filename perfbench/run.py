"""Pipeline benchmark of routeboost: one workload per run, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ridge_routes --seed 1 --seconds 30 --trace 0

Workloads: ridge_routes, tree_grouped, plant_io (see workloads.py). With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
wraps every layer's functions and reports per-layer numbers plus the
tracing overhead. Every metric is printed by name with its unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Full results (quartiles, sample
counts, the environment record and, when traced, the spans) are written
to ``perfbench/out/``. The metric definitions, and which end-to-end metric
each per-layer metric should move, are in ``perfbench/metrics.json``.

routeboost is imported from this checkout's ``src`` directory, never from
an installed copy; without it the run fails.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS to one thread and make this checkout's routeboost importable."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "routeboost"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no routeboost sources in {package}")
    sys.path.insert(0, str(SRC))
    import routeboost

    if Path(routeboost.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported routeboost from {routeboost.__file__}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
