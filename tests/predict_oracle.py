"""Reference scorers: the per-row loops the columnar scoring path replaced.

``routeboost.ensemble.evaluate`` and ``routeboost predict`` score a whole
table through ``EnsembleModel.predict_dataset``. These loops score one
row at a time through the scalar ``EnsembleModel.predict`` and
``predict_with_members``; the columnar path must give exactly their
results (``StratifiedMetrics.to_dict()`` and the predictions CSV compared
with ``==``).

``write_predictions_per_row`` is the per-row writer ``routeboost predict``
used before it wrote one line shape per fired pattern; the command must
write its bytes.
"""

from __future__ import annotations

import csv
from typing import Sequence

import numpy as np

from routeboost.data import Dataset
from routeboost.ensemble import EnsembleModel, MetricRow, StratifiedMetrics
from routeboost.errors import NoApplicableModel
from routeboost.subsetting import SubsetSpec


def _metric_row(y: list[float], pred: list[float], n_no_model: int) -> MetricRow:
    if not y:
        return MetricRow(0, None, None, n_no_model)
    ya = np.array(y)
    pa = np.array(pred)
    mae = float(np.mean(np.abs(ya - pa)))
    sst = float(np.sum((ya - ya.mean()) ** 2))
    if sst == 0.0:
        return MetricRow(len(y), mae, None, n_no_model)
    sse = float(np.sum((ya - pa) ** 2))
    return MetricRow(len(y), mae, 1.0 - sse / sst, n_no_model)


def evaluate(
    model: EnsembleModel, dataset: Dataset, strata: Sequence[SubsetSpec]
) -> StratifiedMetrics:
    """MAE and R-squared per availability stratum plus an overall row.

    R-squared uses each stratum's own target mean; a constant-target
    stratum reports it as undefined (None) while the MAE is still
    computed.
    """
    if dataset.target is None:
        raise ValueError("evaluate requires a dataset with a target")
    order = sorted(strata, key=lambda s: (-len(s.features), s.name))
    collected: dict[str, tuple[list[float], list[float]]] = {
        s.name: ([], []) for s in order
    }
    no_model: dict[str, int] = {s.name: 0 for s in order}
    skipped_missing_target = 0
    skipped_no_stratum = 0
    mask = ~np.isnan(dataset.values)
    target_col = dataset.index(dataset.target)
    for i in range(dataset.n_rows):
        if not mask[i, target_col]:
            skipped_missing_target += 1
            continue
        row = dataset.row_values(i)
        present = set(row)
        stratum = next(
            (s for s in order if s.feature_set <= present), None
        )
        if stratum is None:
            skipped_no_stratum += 1
            continue
        y = row.pop(dataset.target)
        try:
            pred = model.predict(row)
        except NoApplicableModel:
            no_model[stratum.name] += 1
            continue
        ys, preds = collected[stratum.name]
        ys.append(y)
        preds.append(pred)

    rows = []
    all_y: list[float] = []
    all_pred: list[float] = []
    for spec in strata:  # report in the caller's stratum order
        ys, preds = collected[spec.name]
        rows.append((spec.name, _metric_row(ys, preds, no_model[spec.name])))
        all_y.extend(ys)
        all_pred.extend(preds)
    overall = _metric_row(all_y, all_pred, sum(no_model.values()))
    return StratifiedMetrics(
        tuple(rows), overall, skipped_missing_target, skipped_no_stratum
    )


def write_predictions_per_row(model: EnsembleModel, table: Dataset, out) -> None:
    """``routeboost predict``'s output written from ``predict_dataset`` one
    row at a time: per row an ``any`` of its fired members, a join of their
    names and one ``writerow``."""
    values, fired = model.predict_dataset(table)
    names = [m.name for m in model.members]
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["prediction", "members", "reason"])
        for value, row_fired in zip(values.tolist(), fired.tolist()):
            if any(row_fired):
                members = ",".join(n for n, f in zip(names, row_fired) if f)
                writer.writerow([repr(value), members, ""])
            else:
                writer.writerow(["", "", "no-applicable-model"])


def write_predictions(model: EnsembleModel, table: Dataset, out) -> int:
    """``routeboost predict``'s output for ``table``; returns the rows scored."""
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["prediction", "members", "reason"])
        n_ok = 0
        for i in range(table.n_rows):
            row = table.row_values(i)
            row.pop(model.target, None)
            try:
                value, names = model.predict_with_members(row)
            except NoApplicableModel:
                writer.writerow(["", "", "no-applicable-model"])
                continue
            writer.writerow([repr(value), ",".join(names), ""])
            n_ok += 1
    return n_ok
