"""Reference generator: rows one at a time, in Python floats.

Block b of ``_BLOCK_ROWS`` rows draws from one
``Generator(Philox(key=(seed << 64) | b))``: ``random(B)`` for the route
picks, ``standard_normal((B, n_normal))`` for the normal columns in
column order with the target's noise last, then ``random((B,
n_uniform))`` for the uniform columns. Each row then scales and sums
its route's signals one at a time. ``routeboost.synthgen.generate``
masks and scales whole columns instead; it must give exactly these
values (compared as bytes).
"""

from __future__ import annotations

import numpy as np

from routeboost.data import Dataset
from routeboost.synthgen import _BLOCK_ROWS, GenSpec


def generate(spec: GenSpec) -> Dataset:
    """Sample a dataset; fully determined by the layout, n_rows, and seed."""
    layout = spec.layout
    signals = [sig for unit in layout.units for sig in unit.signals]
    target = layout.target_rule.target
    columns = tuple(sig.name for sig in signals) + (target,)
    normal = [sig.name for sig in signals if sig.dist[0] == "normal"] + [target]
    uniform = [sig.name for sig in signals if sig.dist[0] == "uniform"]
    cum = np.cumsum([r.probability for r in layout.routes])
    coeffs = layout.target_rule.coefficients
    values = np.full((spec.n_rows, len(columns)), np.nan)
    for i in range(spec.n_rows):
        if i % _BLOCK_ROWS == 0:
            key = (spec.seed << 64) | (i // _BLOCK_ROWS)
            rng = np.random.Generator(np.random.Philox(key=key))
            picks = rng.random(_BLOCK_ROWS)
            normals = rng.standard_normal((_BLOCK_ROWS, len(normal)))
            uniforms = rng.random((_BLOCK_ROWS, len(uniform)))
        k = i % _BLOCK_ROWS
        draw = dict(zip(normal, normals[k].tolist()))
        draw.update(zip(uniform, uniforms[k].tolist()))
        route_idx = int(np.searchsorted(cum, picks[k], side="right"))
        route = layout.routes[min(route_idx, len(layout.routes) - 1)]
        traversed = set(route.units)
        total = layout.target_rule.intercept
        for unit in layout.units:
            if unit.name not in traversed:
                continue
            for sig in unit.signals:
                kind, first, second = sig.dist
                if kind == "normal":
                    value = first + second * draw[sig.name]
                else:
                    value = first + (second - first) * draw[sig.name]
                values[i, columns.index(sig.name)] = value
                total += coeffs.get(sig.name, 0.0) * value
        values[i, -1] = total + layout.target_rule.noise_sigma * draw[target]
    return Dataset(columns, values, target)
