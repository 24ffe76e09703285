"""Independent checks of the pipeline's outputs, in plain NumPy.

Nothing here calls into routeboost: scores are recomputed from the saved
model document (ridge as ``b + x.w``, trees by walking their node dicts),
and the data-plane outputs are recomputed from the plant layout that the
inputs were generated from. Every check returns a list of problems; an
empty list means the outputs are correct.
"""

from __future__ import annotations

import numpy as np

# Scores may differ from the reference by rounding only: the sum of the
# member terms is allowed this many units of roundoff of its magnitude.
ROUNDOFF_UNITS = 16
EPS = np.finfo(np.float64).eps


def _tree_values(node: dict, X: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    if "value" in node:
        out[rows] = node["value"]
        return
    left = X[rows, node["feature"]] <= node["threshold"]
    _tree_values(node["left"], X, rows[left], out)
    _tree_values(node["right"], X, rows[~left], out)


def member_terms(member: dict, signals, values: np.ndarray):
    """Applicability, value and magnitude of one member on every row."""
    cols = [signals.index(s) for s in member["features"]]
    X = values[:, cols]
    present = ~np.isnan(X).any(axis=1)
    learner = member["learner"]
    params = learner["parameters"]
    out = np.zeros(len(values))
    size = np.zeros(len(values))
    rows = np.flatnonzero(present)
    Xp = X[rows]
    if learner["kind"] == "ridge":
        w = np.array(params["weights"], dtype=np.float64)
        b = params["intercept"]
        out[rows] = b + Xp @ w
        size[rows] = abs(b) + np.abs(Xp) @ np.abs(w)
    elif learner["kind"] == "tree":
        leaf = np.zeros(len(rows))
        _tree_values(params["root"], Xp, np.arange(len(rows)), leaf)
        out[rows] = leaf
        size[rows] = np.abs(leaf)
    else:
        out[rows] = params["value"]
        size[rows] = abs(params["value"])
    return present, out, size


def expected_scores(model_doc: dict, signals, values: np.ndarray):
    """Per row: prediction (NaN when no model applies) and member names."""
    members = model_doc["members"]
    terms = [member_terms(m, signals, values) for m in members]
    applicable = np.column_stack([t[0] for t in terms])
    total = np.zeros(len(values))
    size = np.zeros(len(values))
    for present, out, mag in terms:
        total += np.where(present, out, 0.0)
        size += np.where(present, mag, 0.0)
    fired = applicable.sum(axis=1)
    if model_doc["mode"] == "bagging":
        total = total / np.maximum(fired, 1)
        size = size / np.maximum(fired, 1)
        scored = fired > 0
    else:
        scored = applicable[:, 0]
    total[~scored] = np.nan
    names = [m["name"] for m in members]
    fired_names = [[names[j] for j in np.flatnonzero(row)] if ok else []
                   for row, ok in zip(applicable, scored)]
    return total, size, fired_names


def check_scores(model_doc: dict, signals, values: np.ndarray,
                 scores: np.ndarray, names: list) -> list[str]:
    """Compare scored rows (NaN = no applicable model) with the model document."""
    expect, size, expect_names = expected_scores(model_doc, signals, values)
    problems = []
    if not np.array_equal(np.isnan(scores), np.isnan(expect)):
        problems.append("rows without an applicable model differ from the mask")
    ok = ~np.isnan(expect) & ~np.isnan(scores)
    err = np.abs(scores[ok] - expect[ok])
    bad = err > ROUNDOFF_UNITS * EPS * size[ok]
    if bad.any():
        worst = int(np.argmax(err))
        problems.append(
            f"{int(bad.sum())} scores differ from the saved model beyond rounding "
            f"(largest error {err[worst]:.3g})"
        )
    wrong = sum(1 for got, want in zip(names, expect_names) if list(got) != want)
    if wrong:
        problems.append(f"{wrong} rows list other members than the availability mask")
    return problems


def check_round_trip(written, loaded) -> list[str]:
    """The CSV reload must reproduce every cell bit for bit."""
    if tuple(loaded.signals) != tuple(written.signals) or loaded.target != written.target:
        return ["CSV reload changed the header or target"]
    a, b = written.values, loaded.values
    if a.shape != b.shape:
        return [f"CSV reload changed the shape {a.shape} -> {b.shape}"]
    present = ~np.isnan(a)
    if not np.array_equal(present, ~np.isnan(b)):
        return ["CSV reload moved missing cells"]
    if not np.array_equal(a[present].view(np.uint64), b[present].view(np.uint64)):
        return ["CSV reload changed values"]
    return []


def route_signal_sets(layout) -> list[frozenset]:
    """Signals (target included) that each route of the layout produces."""
    target = layout.target_rule.target
    return [
        frozenset({s.name for u in layout.units if u.name in route.units
                   for s in u.signals} | {target})
        for route in layout.routes
    ]


def check_plant(layout, dataset, patterns, groups, routes, specs,
                min_support: float) -> list[str]:
    """Analysis and auto subsetting against the generating layout."""
    signals = list(dataset.signals)
    mask = ~np.isnan(dataset.values)
    route_sets = route_signal_sets(layout)
    route_masks = [np.array([s in rs for s in signals]) for rs in route_sets]
    matches = np.column_stack([(mask == m).all(axis=1) for m in route_masks])
    problems = []
    if not (matches.sum(axis=1) == 1).all():
        problems.append("some rows match no route of the layout")
    counts = matches.sum(axis=0)
    seen = [(rs, int(n)) for rs, n in zip(route_sets, counts) if n]

    got = [(frozenset(p.present), p.count) for p in patterns]
    if len(got) != len(seen) or set(got) != set(seen):
        problems.append("pattern_summary disagrees with the route counts")
    if [n for _, n in got] != sorted((n for _, n in got), reverse=True):
        problems.append("pattern_summary is not ordered by count")

    # Signals produced by the same observed routes form one group, named
    # in the order of each group's first column.
    observed = [m for m, n in zip(route_masks, counts) if n]
    keys: dict[tuple, list[str]] = {}
    for j, s in enumerate(signals):
        keys.setdefault(tuple(bool(m[j]) for m in observed), []).append(s)
    want_groups = [(f"G{i + 1}", tuple(ms)) for i, ms in enumerate(keys.values())]
    got_groups = [(g.name, tuple(g.members)) for g in groups]
    if got_groups != want_groups:
        problems.append(f"inferred groups {got_groups} differ from {want_groups}")

    members = dict(want_groups)
    want_routes = {
        (frozenset(name for name, ms in members.items() if set(ms) <= rs), n)
        for rs, n in seen
    }
    got_routes = [(frozenset(r.groups_present), r.count) for r in routes]
    if len(got_routes) != len(want_routes) or set(got_routes) != want_routes:
        problems.append("route_frequencies disagrees with the route counts")

    target = dataset.target
    want_specs = sorted(
        sorted(rs - {target}) for rs, n in seen if n >= min_support * dataset.n_rows
    )
    if sorted(sorted(s.features) for s in specs) != want_specs:
        problems.append("auto subsets differ from the common routes")
    return problems
