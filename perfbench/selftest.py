"""Self-test of the pipeline benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every workload runs clean with and without tracing and
emits every named metric with its unit and direction; that the oracle
flags a saved model whose intercept was nudged and counts the pass as
failed; that the split-kernel counters stay zero where no tree is fit;
and that BENCHMARK.json agrees with perfbench/metrics.json. Exits 1 and
lists the failures when any check fails.
"""

from __future__ import annotations

import json
import re
import sys

import run

run.bootstrap()

import numpy as np  # noqa: E402

import bench  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

ROWS = 1200
SECONDS = 0.2
SEED = 3
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def expected_names(definitions: dict, workload: str, trace: bool) -> list[dict]:
    if trace:
        return definitions["per_layer"]
    return [m for m in definitions["end_to_end"] if workload in m["workloads"]]


def check_run(workload, trace: bool, definitions: dict) -> dict:
    label = f"{workload.name} trace={int(trace)}"
    outcome = bench.run(workload, SEED, SECONDS, trace)
    line, results = outcome["line"], outcome["results"]
    expect(line["correct"] and line["failed"] == 0, f"{label}: failed passes {line}")
    expect(line["attempted"] >= bench.MIN_PASSES, f"{label}: too few passes")
    text = "\n".join(bench.report_lines(outcome["environment"], results))
    for m in expected_names(definitions, workload.name, trace):
        name = m["name"]
        got = results.get(name)
        expect(got is not None, f"{label}: {name} not reported")
        if got is None:
            continue
        expect(got["unit"] == m["unit"] and got["better"] == m["better"],
               f"{label}: {name} has unit/direction {got['unit']}/{got['better']}")
        expect(re.search(rf"^{re.escape(name)} .* {re.escape(m['unit'])} +"
                         rf"\({m['better']} is better", text, re.M) is not None,
               f"{label}: {name} not printed with its unit and direction")
        if trace or m.get("gated"):
            expect(line["metrics"].get(name, {}).get("unit") == m["unit"],
                   f"{label}: {name} missing from the result line")
    env = outcome["environment"]
    for key in ("kernel_backend", "python", "numpy", "scipy", "nproc", "blas_threads",
                "git_commit", "seed", "rows"):
        expect(key in env, f"{label}: environment lacks {key}")
    return outcome


def check_spans(outcome: dict, label: str) -> None:
    spans = outcome["spans"]
    ids = {s["id"] for s in spans}
    expect(all(s["parent"] is None or s["parent"] in ids for s in spans),
           f"{label}: a span points at an unknown parent")
    expect(all(s["pass"] is not None and s["end"] >= s["start"] for s in spans),
           f"{label}: a span lacks its pass id or ends before it starts")


def check_nudged_intercept(workload) -> None:
    """A saved model that differs from the scoring one must fail every pass."""
    original = workloads.model_to_dict

    def nudged(model):
        doc = original(model)
        params = doc["members"][0]["learner"]["parameters"]
        params["intercept"] += 1e-9 * max(1.0, abs(params["intercept"]))
        return doc

    workloads.model_to_dict = nudged
    try:
        line = bench.run(workload, SEED, SECONDS, False)["line"]
    finally:
        workloads.model_to_dict = original
    expect(not line["correct"] and line["failed"] == line["attempted"] > 0,
           f"nudged intercept not counted as failed: {line}")


def check_oracle_tolerance() -> None:
    """Rounding differences pass; a one-part-in-1e9 change does not."""
    doc = {"mode": "boosting", "members": [{
        "name": "base", "features": ["a", "b"],
        "learner": {"kind": "ridge", "features": ["a", "b"],
                    "parameters": {"intercept": 5.0, "weights": [0.1, 0.7]}}}]}
    values = np.array([[1.0, 2.0], [3.0, np.nan], [-0.3, 0.2]])
    exact = np.array([5.0 + 0.1 + 1.4, np.nan, 5.0 - 0.03 + 0.14])
    names = [["base"], [], ["base"]]
    expect(oracle.check_scores(doc, ["a", "b"], values, exact, names) == [],
           "oracle rejects correctly rounded scores")
    off = exact.copy()
    off[0] *= 1 + 1e-9
    expect(oracle.check_scores(doc, ["a", "b"], values, off, names) != [],
           "oracle accepts a score off by one part in 1e9")
    expect(oracle.check_scores(doc, ["a", "b"], values, exact, [["base"], ["base"], []]) != [],
           "oracle accepts wrong member names")


def check_contract(definitions: dict, names: list[str]) -> None:
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json has other keys than the contract")
    expect([w["name"] for w in spec["workloads"]] == names,
           "BENCHMARK.json workloads differ from workloads.py")
    gated = [(m["name"], m["unit"], m["better"])
             for m in definitions["end_to_end"] if m.get("gated")]
    expect([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == gated,
           "BENCHMARK.json end_to_end differs from the gated metrics")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [(m["name"], m["unit"], m["better"]) for m in definitions["per_layer"]],
           "BENCHMARK.json per_layer differs from metrics.json")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()), "a bound is outside (0, 0.25]")
    expect(bounds.get("setup_s") == max(bounds.values()), "setup_s lacks the largest bound")
    for m in definitions["end_to_end"] + definitions["per_layer"]:
        expect(NAME.match(m["name"]) is not None, f"bad metric name {m['name']}")
        expect(UNIT.match(m["unit"]) is not None, f"bad unit {m['unit']}")
        expect(m["better"] in ("lower", "higher"), f"bad direction for {m['name']}")
    for m in definitions["end_to_end"]:
        expect(set(m["workloads"]) <= set(names), f"{m['name']}: unknown workload")
        if m.get("gated"):
            expect(set(m["workloads"]) == set(names), f"{m['name']}: gated but not everywhere")
    e2e = {m["name"] for m in definitions["end_to_end"]}
    for m in definitions["per_layer"]:
        for ref in m["moves"] + m["no_change"]:
            expect(ref["metric"] in e2e and ref["workload"] in names,
                   f"{m['name']}: metric map names {ref}")


def main() -> int:
    bench.IMPORT_PROBES = 1  # one fresh interpreter per run is enough to exercise it
    definitions = bench.load_definitions()
    table = workloads.make_workloads(rows=ROWS)
    check_contract(definitions, list(table))
    check_oracle_tolerance()
    for workload in table.values():
        check_run(workload, False, definitions)
        traced = check_run(workload, True, definitions)
        check_spans(traced, workload.name)
        layers = traced["results"]
        scans = [layers[n]["value"] for n in layers if n.startswith("kernels.")]
        if workload.name == "ridge_routes":
            expect(not any(scans), "ridge_routes: kernel counters are not zero")
        if workload.name == "tree_grouped":
            expect(all(scans), "tree_grouped: kernel counters are zero")
            for name in ("learners.tree_nodes", "learners.tree_leaves"):
                got = layers[name]
                expect(got["value"] > 0 and got["q1"] == got["q3"] == got["value"],
                       f"tree_grouped: {name} does not repeat exactly across passes")
        if workload.name == "plant_io":
            expect(not any(scans), "plant_io: kernel counters are not zero")
            expect(layers["learners.fit_calls"]["value"] == 0, "plant_io: fits a learner")
    check_nudged_intercept(table["ridge_routes"])
    for failure in failures:
        print("FAIL", failure)
    print(f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
