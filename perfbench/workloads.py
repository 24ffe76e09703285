"""The benchmark's workloads: inputs made from a seed, one pass, its checks.

All three use the default plant layout: 7 units, routes narrow, balanced
and wide at 0.5/0.3/0.2. They are chosen to load different layers:

- ``ridge_routes`` is the ``routeboost benchmark --synthetic`` flow: ridge
  members over the nested route chain narrow < balanced < wide. Most of a
  pass is the per-row prediction path (ensemble, learner ``predict_one``,
  ``Dataset.row_values``); it does no split-kernel work.
- ``tree_grouped`` is the CLI ``train`` default: depth-4 trees over the
  inferred signal groups, which are not nested, so training falls back to
  branched boosting. Most of a pass is tree fitting, mostly the split scan.
- ``plant_io`` is the data plane: generate, CSV write and read, the
  missingness analysis and auto subsetting. No learner or ensemble work.

The library sees only the generated inputs; the seed drives the generator
and the train/test split.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from routeboost import (
    GenSpec,
    StrategyOptions,
    build_subset_specs,
    default_layout,
    evaluate,
    generate,
    infer_signal_groups,
    load_dataset,
    pattern_summary,
    route_frequencies,
    train_conventional,
    train_test_split_rows,
    write_csv,
)
from routeboost.benchmark import benchmark_learner_config, run_benchmark, train_proposed
from routeboost.ensemble import model_to_dict
from routeboost.errors import NoApplicableModel

TEST_FRACTION = 0.3
MODE = "boosting"


class Stages:
    """Times the stages of one pass; ``between`` runs after each, untimed."""

    def __init__(self, between) -> None:
        self.between = between
        self.seconds: dict[str, float] = {}
        self._start = time.perf_counter()

    def done(self, name: str) -> None:
        self.seconds[name] = time.perf_counter() - self._start
        self.between(self.seconds[name])
        self._start = time.perf_counter()

    def total(self) -> float:
        return sum(self.seconds.values())


@dataclass
class Pass:
    """What one pass produced: its duration, its stage metrics, its outputs."""

    pass_s: float
    metrics: dict
    outputs: dict


class TrainWorkload:
    """Split 70/30, train both arms, evaluate both, score every test row."""

    def __init__(self, name: str, rows: int, learner, options: StrategyOptions):
        self.name = name
        self.rows = rows
        self.learner = learner
        self.options = options

    def setup(self, seed: int, workdir: Path) -> dict:
        data = generate(GenSpec(default_layout(), self.rows, seed))
        train_idx, test_idx = train_test_split_rows(data.n_rows, TEST_FRACTION, seed)
        return {
            "seed": seed,
            "data": data,
            "train": data.project(data.signals, train_idx),
            "test": data.project(data.signals, test_idx),
        }

    def row_counts(self, inputs: dict) -> dict:
        return {"rows": self.rows, "train_rows": inputs["train"].n_rows,
                "test_rows": inputs["test"].n_rows}

    def reference(self, inputs: dict) -> dict:
        """``run_benchmark``'s report for the same data, seed and settings."""
        report = run_benchmark(inputs["data"], self.options, self.learner, MODE,
                               inputs["seed"], TEST_FRACTION)
        return {"proposed": report.proposed.metrics.to_dict(),
                "conventional": report.conventional.metrics.to_dict()}

    def run_pass(self, inputs: dict, between) -> Pass:
        train, test = inputs["train"], inputs["test"]
        stages = Stages(between)
        specs, _ = build_subset_specs(train, self.options)
        proposed = train_proposed(train, specs, self.learner, MODE)
        conventional = train_conventional(train, self.learner)
        stages.done("train")
        evaluated = {"proposed": evaluate(proposed, test, specs),
                     "conventional": evaluate(conventional, test, specs)}
        stages.done("evaluate")
        # Score every test row as ``routeboost predict`` does.
        scores = np.empty(test.n_rows)
        names = []
        for i in range(test.n_rows):
            row = test.row_values(i)
            row.pop(test.target, None)
            try:
                scores[i], fired = proposed.predict_with_members(row)
            except NoApplicableModel:
                scores[i], fired = np.nan, []
            names.append(fired)
        stages.done("score")
        t = stages.seconds
        metrics = {
            "train_rows_per_s": train.n_rows / t["train"],
            "evaluate_rows_per_s": test.n_rows / t["evaluate"],
            "score_rows_per_s": test.n_rows / t["score"],
            "mae_proposed": evaluated["proposed"].overall.mae,
            "mae_conventional": evaluated["conventional"].overall.mae,
        }
        outputs = {"model": proposed, "evaluated": evaluated, "scores": scores,
                   "names": names}
        return Pass(stages.total(), metrics, outputs)

    def check(self, inputs: dict, done: Pass, reference: dict) -> list[str]:
        problems = [
            f"{arm} metrics differ from run_benchmark's report"
            for arm, metrics in done.outputs["evaluated"].items()
            if metrics.to_dict() != reference[arm]
        ]
        saved = json.loads(json.dumps(model_to_dict(done.outputs["model"])))
        test = inputs["test"]
        return problems + oracle.check_scores(
            saved, list(test.signals), test.values,
            done.outputs["scores"], done.outputs["names"],
        )


class PlantWorkload:
    """Generate, write and read the CSV, analyse it and build auto subsets."""

    options = StrategyOptions(strategy="auto")

    def __init__(self, name: str, rows: int):
        self.name = name
        self.rows = rows

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, "layout": default_layout(),
                "csv": workdir / f"{self.name}-{seed}.csv"}

    def row_counts(self, inputs: dict) -> dict:
        return {"rows": self.rows}

    def reference(self, inputs: dict) -> dict:
        # Filled by the first pass: later passes must generate the same data.
        return {}

    def run_pass(self, inputs: dict, between) -> Pass:
        layout, path = inputs["layout"], inputs["csv"]
        stages = Stages(between)
        data = generate(GenSpec(layout, self.rows, inputs["seed"]))
        stages.done("generate")
        write_csv(data, path)
        stages.done("write")
        loaded = load_dataset(path, layout.target_rule.target)
        stages.done("read")
        patterns = pattern_summary(loaded)
        groups = infer_signal_groups(loaded)
        routes = route_frequencies(loaded, groups)
        specs, _ = build_subset_specs(loaded, self.options)
        stages.done("analyze")
        t, n = stages.seconds, self.rows
        metrics = {
            "generate_rows_per_s": n / t["generate"],
            "csv_write_rows_per_s": n / t["write"],
            "csv_read_rows_per_s": n / t["read"],
            "analyze_rows_per_s": n / t["analyze"],
        }
        outputs = {"data": data, "loaded": loaded, "patterns": patterns,
                   "groups": groups, "routes": routes, "specs": specs}
        return Pass(stages.total(), metrics, outputs)

    def check(self, inputs: dict, done: Pass, reference: dict) -> list[str]:
        out = done.outputs
        digest = hashlib.sha256(out["data"].values.tobytes()).hexdigest()
        problems = []
        if reference.setdefault("digest", digest) != digest:
            problems.append("generate gave other data for the same seed")
        problems += oracle.check_round_trip(out["data"], out["loaded"])
        problems += oracle.check_plant(
            inputs["layout"], out["loaded"], out["patterns"], out["groups"],
            out["routes"], out["specs"], self.options.min_support,
        )
        return problems


def make_workloads(rows: int | None = None) -> dict:
    """The named workloads; ``rows`` shrinks all of them (self-test only)."""
    layout = default_layout()
    route_options = StrategyOptions(
        strategy="routes",
        groups={u.name: [s.name for s in u.signals] for u in layout.units},
        segments={r.name: list(r.units) for r in layout.routes},
    )
    tree = benchmark_learner_config("tree", tree_max_depth=4, tree_min_leaf=5)
    return {
        "ridge_routes": TrainWorkload(
            "ridge_routes", rows or 50_000, benchmark_learner_config("ridge"), route_options
        ),
        "tree_grouped": TrainWorkload(
            "tree_grouped", rows or 20_000, tree, StrategyOptions(strategy="grouped")
        ),
        "plant_io": PlantWorkload("plant_io", rows or 50_000),
    }
