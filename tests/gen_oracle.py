"""Reference generator: one Philox bit generator built per row.

``routeboost.synthgen.generate`` reuses one bit generator, issues each
run of same-kind draws as one call and forms values and the target by
columns afterwards. It must give exactly the values this row-at-a-time
loop gives (compared as bytes).
"""

from __future__ import annotations

import numpy as np

from routeboost.data import Dataset
from routeboost.synthgen import GenSpec, SignalSpec


def _row_rng(seed: int, row: int) -> np.random.Generator:
    # 128-bit Philox key: high word = dataset seed, low word = row index.
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(row)))


def _sample(sig: SignalSpec, rng: np.random.Generator) -> float:
    kind = sig.dist[0]
    if kind == "normal":
        _, mean, sd = sig.dist
        return float(mean + sd * rng.standard_normal())
    _, lo, hi = sig.dist
    return float(lo + (hi - lo) * rng.random())


def generate(spec: GenSpec) -> Dataset:
    """Sample a dataset; fully determined by the layout, n_rows, and seed."""
    layout = spec.layout
    layout.validate()
    signals = layout.signal_names()
    target = layout.target_rule.target
    columns = tuple(signals) + (target,)
    col_index = {name: j for j, name in enumerate(columns)}
    cum = np.cumsum([r.probability for r in layout.routes])
    values = np.full((spec.n_rows, len(columns)), np.nan)
    coeffs = layout.target_rule.coefficients
    for i in range(spec.n_rows):
        rng = _row_rng(spec.seed, i)
        pick = rng.random()
        route_idx = int(np.searchsorted(cum, pick, side="right"))
        route_idx = min(route_idx, len(layout.routes) - 1)
        route = layout.routes[route_idx]
        traversed = set(route.units)
        total = layout.target_rule.intercept
        for unit in layout.units:
            if unit.name not in traversed:
                continue
            for sig in unit.signals:
                value = _sample(sig, rng)
                values[i, col_index[sig.name]] = value
                total += coeffs.get(sig.name, 0.0) * value
        noise = float(rng.standard_normal())
        values[i, col_index[target]] = total + layout.target_rule.noise_sigma * noise
    return Dataset(columns, values, target)
