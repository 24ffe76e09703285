"""Per-layer tracing for the pipeline benchmark, done from outside the package.

For the length of a traced run, every public layer function the pipeline
calls is swapped for a timing wrapper. A function is replaced under every
name it is bound to, so names imported into other modules (such as
``routeboost.ensemble.fit`` or ``routeboost.learners.scan_split``) are
traced too; methods are replaced on their class.

Stage-level calls become spans: name, start, end, parent span and pass id.
Per-row calls (``predict_one``, ``row_values``, ``scan_split``, ...) only
update counters with summed time, so memory stays bounded however many
rows a pass touches. A call's self time is its duration minus the time of
the traced calls nested in it. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import os
import sys
import time
from collections import Counter, defaultdict

SPAN = "span"
COUNTER = "counter"


def _csv_bytes(counts, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    counts["data.csv_bytes"] += os.path.getsize(path)


def _patterns(counts, args, kwargs, result):
    counts["analysis.patterns"] += len(result)


def _rows_materialized(counts, args, kwargs, result):
    counts["subsetting.rows_materialized"] += result.n_rows


def _fitted(counts, args, kwargs, result):
    counts["learners.fit_rows"] += len(args[1] if len(args) > 1 else kwargs["X"])
    root = getattr(result, "root", None)
    if root is None:
        return
    stack = [root]
    while stack:
        node = stack.pop()
        counts["learners.tree_nodes"] += 1
        if hasattr(node, "left"):
            stack += [node.left, node.right]
        else:
            counts["learners.tree_leaves"] += 1


def _scanned(counts, args, kwargs, result):
    n = len(args[0])
    counts["kernels.scan_elems"] += n
    # The scan reads one sorted feature value and one centred target per row.
    counts["kernels.scan_bytes_computed"] += n * (args[0].itemsize + args[1].itemsize)
    if result is not None:
        counts["kernels.scan_found"] += 1


def _scored(counts, args, kwargs, result):
    counts["ensemble.rows_scored"] += 1
    counts["ensemble.members_fired"] += len(result[1])


# (module, attribute or Class.method, traced name, kind, hook on success)
TARGETS = (
    ("routeboost.synthgen", "generate", "synthgen.generate", SPAN, None),
    ("routeboost.data", "write_csv", "data.write_csv", SPAN, _csv_bytes),
    ("routeboost.data", "load_dataset", "data.load_dataset", SPAN, None),
    ("routeboost.data", "Dataset.row_values", "data.row_values", COUNTER, None),
    ("routeboost.data", "Dataset.project", "data.project", COUNTER, None),
    ("routeboost.analysis", "pattern_summary", "analysis.pattern_summary", SPAN, _patterns),
    ("routeboost.analysis", "infer_signal_groups", "analysis.infer_signal_groups", SPAN, None),
    ("routeboost.analysis", "route_frequencies", "analysis.route_frequencies", SPAN, None),
    ("routeboost.subsetting", "build_subset_specs", "subsetting.build_subset_specs", SPAN, None),
    ("routeboost.subsetting", "materialize", "subsetting.materialize", SPAN, _rows_materialized),
    ("routeboost.learners", "fit", "learners.fit", SPAN, _fitted),
    ("routeboost.learners", "MeanLearner.predict_one", "learners.predict_one", COUNTER, None),
    ("routeboost.learners", "RidgeLearner.predict_one", "learners.predict_one", COUNTER, None),
    ("routeboost.learners", "TreeLearner.predict_one", "learners.predict_one", COUNTER, None),
    ("routeboost.learners", "scan_split", "kernels.scan_split", COUNTER, _scanned),
    ("routeboost.ensemble", "train_boosting", "ensemble.train_boosting", SPAN, None),
    ("routeboost.ensemble", "train_boosting_branched",
     "ensemble.train_boosting_branched", SPAN, None),
    ("routeboost.ensemble", "train_bagging", "ensemble.train_bagging", SPAN, None),
    ("routeboost.ensemble", "train_conventional", "ensemble.train_conventional", SPAN, None),
    ("routeboost.ensemble", "evaluate", "ensemble.evaluate", SPAN, None),
    ("routeboost.ensemble", "EnsembleModel.predict_with_members",
     "ensemble.predict_with_members", COUNTER, _scored),
    ("routeboost.benchmark", "train_proposed", "benchmark.train_proposed", SPAN, None),
)

TRAIN_SPANS = (
    "ensemble.train_boosting",
    "ensemble.train_boosting_branched",
    "ensemble.train_bagging",
    "ensemble.train_conventional",
)


class Tracer:
    """Spans and per-pass counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.pass_id: int | None = None
        self._ids = itertools.count()
        self._frames: list[list] = []  # [nested time, span id or None]
        self._reset()

    def _reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def wrap(self, fn, name: str, kind: str, hook=None):
        perf = time.perf_counter
        frames = self._frames

        def traced(*args, **kwargs):
            span_id = parent = None
            if kind == SPAN:
                span_id = next(self._ids)
                parent = next((f[1] for f in reversed(frames) if f[1] is not None), None)
            frame = [0.0, span_id]
            frames.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                frames.pop()
                if frames:
                    frames[-1][0] += end - start
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[0]
                if span_id is not None:
                    self.spans.append((span_id, name, start, end, parent, self.pass_id))
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def pass_span(self, pass_id: int):
        """Root span of one pass; collect its numbers with ``take_pass``."""
        self.pass_id = pass_id
        self._reset()
        span_id = next(self._ids)
        depth = len(self._frames)
        self._frames.append([0.0, span_id])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            del self._frames[depth:]
            self.spans.append((span_id, "pass", start, end, None, pass_id))

    def take_pass(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def span_records(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "pass")
        return [dict(zip(keys, s)) for s in sorted(self.spans)]


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextlib.contextmanager
def instrumented(tracer: Tracer, extra_modules=()):
    """Swap every traced callable for its wrapper; restore on exit.

    Module-level functions are replaced in every ``routeboost`` module and
    in ``extra_modules`` wherever they are bound under any name.
    """
    modules = [m for n, m in sys.modules.items()
               if n == "routeboost" or n.startswith("routeboost.")]
    modules += list(extra_modules)
    patches = []
    try:
        for module_name, attr, name, kind, hook in TARGETS:
            owner, leaf = _resolve(module_name, attr)
            original = getattr(owner, leaf)
            wrapper = tracer.wrap(original, name, kind, hook)
            if isinstance(owner, type):
                patches.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer numbers of one traced pass (times are self times)."""
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]
    c = lambda name: calls.get(name, 0)  # noqa: E731
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    k = lambda name: counts.get(name, 0)  # noqa: E731
    scans = c("kernels.scan_split")
    return {
        "synthgen.generate_s": s("synthgen.generate"),
        "data.write_csv_s": s("data.write_csv"),
        "data.csv_bytes": k("data.csv_bytes"),
        "data.load_dataset_s": s("data.load_dataset"),
        "data.row_values_calls": c("data.row_values"),
        "data.row_values_s": s("data.row_values"),
        "data.project_calls": c("data.project"),
        "data.project_s": s("data.project"),
        "analysis.pattern_summary_s": s("analysis.pattern_summary"),
        "analysis.infer_signal_groups_s": s("analysis.infer_signal_groups"),
        "analysis.route_frequencies_s": s("analysis.route_frequencies"),
        "analysis.patterns": k("analysis.patterns"),
        "subsetting.build_subset_specs_s": s("subsetting.build_subset_specs"),
        "subsetting.materialize_calls": c("subsetting.materialize"),
        "subsetting.materialize_s": s("subsetting.materialize"),
        "subsetting.rows_materialized": k("subsetting.rows_materialized"),
        "learners.fit_calls": c("learners.fit"),
        "learners.fit_rows": k("learners.fit_rows"),
        "learners.fit_s": s("learners.fit"),
        "learners.tree_nodes": k("learners.tree_nodes"),
        "learners.tree_leaves": k("learners.tree_leaves"),
        "learners.predict_calls": c("learners.predict_one"),
        # predict_one scores one row per call; a batch path would raise this.
        "learners.predict_rows": c("learners.predict_one"),
        "learners.predict_s": s("learners.predict_one"),
        "kernels.scan_calls": scans,
        "kernels.scan_elems": k("kernels.scan_elems"),
        "kernels.scan_bytes_computed": k("kernels.scan_bytes_computed"),
        "kernels.scan_found_frac": k("kernels.scan_found") / scans if scans else 0.0,
        "kernels.scan_s": s("kernels.scan_split"),
        "ensemble.train_s": sum(s(n) for n in TRAIN_SPANS),
        "ensemble.evaluate_s": s("ensemble.evaluate"),
        "ensemble.predict_s": s("ensemble.predict_with_members"),
        "ensemble.rows_scored": k("ensemble.rows_scored"),
        "ensemble.members_fired": k("ensemble.members_fired"),
        "ensemble.no_model_rows": c("ensemble.predict_with_members") - k("ensemble.rows_scored"),
    }
