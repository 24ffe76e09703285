"""Measurement loop, set-up timing, environment record and report.

A run is one process with one thread and a closed loop: the next pass
starts when the previous one has been checked (and, every few passes, a
fresh interpreter has timed importing routeboost). Every pass is checked;
a pass whose outputs are wrong, or that raises, counts as failed and its
times are left out of the medians. Timings are reported at a fixed machine
speed, measured by reference work timed after each stage of a pass and
each set-up (see speed.py); the wall times are reported beside them.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import routeboost
import speed
import tracing
import workloads
from run import BLAS_THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3  # input builds per run
IMPORT_PROBES = 7  # fresh interpreters importing routeboost per run
MIN_PASSES = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import routeboost; print(time.perf_counter() - t)"
)


def load_definitions() -> dict:
    with open(HERE / "metrics.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed: int, seconds: float, trace: bool, rows: dict) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        **rows,
        "kernel_backend": routeboost.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def time_import() -> tuple[float, float]:
    """A fresh interpreter importing routeboost: (wall to exit, import time)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return time.perf_counter() - start, float(done.stdout.split()[-1])


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(workload, inputs, reference, seconds: float, pace: speed.Speed,
            tracer=None, probes: list | None = None) -> list[dict]:
    """Closed loop of passes for ``seconds``; each record says if it failed.

    When ``probes`` is given, ``IMPORT_PROBES`` fresh-interpreter imports are
    appended to it, spread evenly over the loop between passes, so that they
    meet the same machine conditions as the passes.
    """
    records = []
    start = time.perf_counter()
    while len(records) < MIN_PASSES or time.perf_counter() - start < seconds:
        record = {"problems": []}
        try:
            if tracer is None:
                done = workload.run_pass(inputs, pace.after)
            else:
                with tracer.pass_span(len(records)):
                    done = workload.run_pass(inputs, pace.after)
                record["layers"] = tracing.layer_metrics(tracer.take_pass())
            record["problems"] = workload.check(inputs, done, reference)
            record["pass_s"] = done.pass_s
            record["metrics"] = done.metrics
        except Exception:  # a crashing pass is a failed pass, never a dropped one
            record["problems"] = [traceback.format_exc()]
        for problem in record["problems"]:
            print(f"pass {len(records)} failed: {problem}", file=sys.stderr)
        records.append(record)
        while (probes is not None and len(probes) < IMPORT_PROBES
               and time.perf_counter() - start >= len(probes) * seconds / IMPORT_PROBES):
            probes.append(time_import())
    while probes is not None and len(probes) < IMPORT_PROBES:
        probes.append(time_import())
    return records


def build_inputs(workload, seed: int, workdir: Path, pace: speed.Speed):
    """Build the workload's inputs ``SETUPS`` times; return the last and the times."""
    builds = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        builds.append(time.perf_counter() - start)
        pace.after(builds[-1])
    return inputs, builds


def setup_metrics(probes: list[tuple[float, float]], builds: list[float]) -> dict:
    """Set-up is a fresh interpreter importing routeboost, timed from process
    start, then building the inputs: the median probe plus each build."""
    wall = statistics.median(w for w, _ in probes)
    return {"setup_s": summary([wall + b for b in builds]),
            "import_s": summary([i for _, i in probes])}


def at_reference_speed(results: dict, factor: float) -> dict:
    """Scale every timing (``s``) and throughput (``rows/s``) by ``factor``."""
    scaled = {}
    for name, entry in results.items():
        scale = {"s": factor, "rows/s": 1 / factor}.get(entry["unit"], 1.0)
        scaled[name] = {k: v * scale if k in ("value", "q1", "q3") else v
                        for k, v in entry.items()}
    return scaled


def with_units(results: dict, definitions: list[dict]) -> dict:
    units = {m["name"]: m for m in definitions}
    for name, entry in results.items():
        entry.update(unit=units[name]["unit"], better=units[name]["better"])
    return results


def end_to_end(records: list[dict], setup: dict, pace: speed.Speed,
               definitions: dict) -> dict:
    good = [r for r in records if not r["problems"]]
    wall = dict(setup)
    if good:
        wall["pass_s"] = summary([r["pass_s"] for r in good])
        for name in good[0]["metrics"]:
            wall[name] = summary([r["metrics"][name] for r in good])
    wall = with_units(wall, definitions["end_to_end"])
    results = at_reference_speed(wall, pace.factor())
    for name in ("setup_s", "pass_s"):
        if name in wall:
            results[name[:-2] + "_wall_s"] = dict(wall[name])
    results["reference_s"] = {"value": pace.mean_s(), "n": len(pace.samples)}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results["peak_rss_mb"] = {"value": peak, "n": 1}
    results["failed_frac"] = {"value": (len(records) - len(good)) / len(records),
                              "n": len(records)}
    return with_units(results, definitions["end_to_end"])


def per_layer(plain: list[dict], traced: list[dict], pace: speed.Speed,
              definitions: dict) -> dict:
    good = [r for r in traced if not r["problems"]]
    untraced = [r["pass_s"] for r in plain if not r["problems"]]
    results = {}
    if good:
        for name in good[0]["layers"]:
            results[name] = summary([r["layers"][name] for r in good])
        results["trace.pass_s"] = summary([r["pass_s"] for r in good])
        if untraced:
            results["trace.overhead_s"] = {
                "value": results["trace.pass_s"]["value"] - statistics.median(untraced),
                "n": len(good),
            }
    results = with_units(results, definitions["per_layer"])
    return at_reference_speed(results, pace.factor())


def report_lines(env: dict, results: dict) -> list[str]:
    lines = ["environment " + json.dumps(env, sort_keys=True)]
    for name, m in results.items():
        spread = f" q1={m['q1']:.6g} q3={m['q3']:.6g}" if "q1" in m else ""
        lines.append(f"{name:<32} {m['value']:>14.6g} {m['unit']:<8} "
                     f"({m['better']} is better;{spread} n={m['n']})")
    return lines


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result line plus the full report."""
    definitions = load_definitions()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    pace = speed.Speed()
    try:
        if trace:
            inputs = workload.setup(seed, workdir)
            reference = workload.reference(inputs)
            plain = measure(workload, inputs, reference, seconds / 2, pace)
            tracer = tracing.Tracer()
            with tracing.instrumented(tracer, [workloads]):
                traced = measure(workload, inputs, reference, seconds / 2, pace, tracer)
            records = plain + traced
            results = per_layer(plain, traced, pace, definitions)
            gated = [m["name"] for m in definitions["per_layer"]]
        else:
            inputs, builds = build_inputs(workload, seed, workdir, pace)
            reference = workload.reference(inputs)
            probes = []
            records = measure(workload, inputs, reference, seconds, pace, probes=probes)
            results = end_to_end(records, setup_metrics(probes, builds), pace,
                                 definitions)
            gated = [m["name"] for m in definitions["end_to_end"] if m.get("gated")]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(workload, seed, seconds, trace, workload.row_counts(inputs))
    env.update(reference_mean_s=pace.mean_s(), reference_samples=len(pace.samples),
               speed_factor=pace.factor())
    failed = sum(1 for r in records if r["problems"])
    line = {
        "correct": failed == 0 and all(name in results for name in gated),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": results[name]["value"], "unit": results[name]["unit"]}
                    for name in gated if name in results},
    }
    return {"line": line, "environment": env, "results": results,
            "spans": tracer.span_records() if tracer else None}


def main(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    table = workloads.make_workloads()
    if workload_name not in table:
        print(f"unknown workload {workload_name!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    outcome = run(table[workload_name], seed, seconds, trace)
    stem = OUT / f"{workload_name}-seed{seed}-trace{int(trace)}"
    OUT.mkdir(exist_ok=True)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({k: outcome[k] for k in ("environment", "results", "line")}, fh, indent=1)
    if outcome["spans"] is not None:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(outcome["spans"], fh)
    for line in report_lines(outcome["environment"], outcome["results"]):
        print(line)
    print(json.dumps(outcome["line"]))
    return 0
