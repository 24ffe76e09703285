"""Deterministic generator of production-line datasets.

Each generated item follows one production route sampled by probability;
only signals of traversed units get values, everything else stays
missing, and the target is a linear function of the traversed signals
plus Gaussian noise. Missingness is therefore exactly route-determined,
the structure that route-aware ensembles exploit.

Randomness is counter-based (Philox; Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011): row i of a dataset with seed s
reads its own stream, that of ``Generator(Philox(key=(s << 64) | i))``.
The key words are ``(i, s)``, and since NumPy steps the counter before it
computes a block, word k of the stream is word k % 4 of the
Philox4x64-10 block at counter ``(k // 4 + 1, 0, 0, 0)``. A row draws the
route pick (word 0), then one value per traversed signal in unit order,
then the target noise; each draw takes one word unless a normal draw
leaves the ziggurat's fast path.

``generate`` computes these blocks for all rows at once in NumPy uint64
arithmetic and turns words into draws with NumPy's own formulas: a
uniform is the word's top 53 bits over 2**53, and a normal is the fast
path of NumPy's 256-layer ziggurat (Marsaglia and Tsang, J. Stat. Softw.
2000), whose tables are derived from the installed NumPy at the first
call. A row with a normal draw off that path (about one in ten rows of
the default plant) is redrawn by NumPy's own generator, reset to the
row's stream. The values are therefore exactly those of one generator
per row, reproducible across platforms, and generating more rows never
reshuffles earlier ones.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .data import Dataset, SignalId, is_name_list, is_number, number, signal_names
from .errors import InvalidLayout, NonFinite

PROBABILITY_TOL = 1e-9


@dataclass(frozen=True)
class SignalSpec:
    """One sensor channel: name plus value distribution.

    ``dist`` is ("normal", mean, sd) or ("uniform", low, high).
    """

    name: SignalId
    dist: tuple

    def validate(self) -> None:
        kind, *params = self.dist or (None,)
        if kind not in ("normal", "uniform"):
            raise InvalidLayout(f"signal {self.name!r}: unknown distribution {kind!r}")
        if len(params) != 2 or not all(is_number(p) for p in params):
            raise InvalidLayout(
                f"signal {self.name!r}: {kind} needs two numbers, got {params!r}"
            )
        if kind == "normal" and params[1] < 0:
            raise InvalidLayout(f"signal {self.name!r}: negative sd")
        if kind == "uniform" and params[1] < params[0]:
            raise InvalidLayout(f"signal {self.name!r}: empty uniform range")


@dataclass(frozen=True)
class Unit:
    name: str
    signals: tuple[SignalSpec, ...]


@dataclass(frozen=True)
class Route:
    name: str
    units: tuple[str, ...]
    probability: float


@dataclass(frozen=True)
class TargetRule:
    """Linear target: intercept + sum of coeff * value over traversed signals.

    Signals of units an item did not visit contribute nothing; their
    causal effect exists only when the unit is visited.
    """

    target: SignalId
    intercept: float
    coefficients: Mapping[SignalId, float]
    noise_sigma: float


@dataclass(frozen=True)
class PlantLayout:
    units: tuple[Unit, ...]
    routes: tuple[Route, ...]
    target_rule: TargetRule

    def validate(self) -> None:
        unit_names = [u.name for u in self.units]
        signals = self.signal_names()
        names = unit_names + signals + [r.name for r in self.routes]
        if not is_name_list(names + [self.target_rule.target]):
            raise InvalidLayout("unit, route, signal and target names must be strings")
        if len(set(unit_names)) != len(unit_names):
            raise InvalidLayout("unit names must be unique")
        if len(set(signals)) != len(signals):
            raise InvalidLayout("signal names must be globally unique")
        if self.target_rule.target in signals:
            raise InvalidLayout("target name collides with a unit signal")
        for unit in self.units:
            for sig in unit.signals:
                sig.validate()
        if not self.routes:
            raise InvalidLayout("layout declares no routes")
        rule = self.target_rule
        numbers = [(f"route {r.name!r}: probability", r.probability) for r in self.routes]
        numbers += [(f"coefficient of {s!r}", c) for s, c in rule.coefficients.items()]
        numbers += [("intercept", rule.intercept), ("noise_sigma", rule.noise_sigma)]
        try:
            for field, value in numbers:
                number(value, field)
        except ValueError as exc:
            raise InvalidLayout(str(exc)) from None
        total = 0.0
        for route in self.routes:
            if route.probability <= 0:
                raise InvalidLayout(f"route {route.name!r}: non-positive probability")
            total += route.probability
            for name in route.units:
                if name not in unit_names:
                    raise InvalidLayout(f"route {route.name!r}: unknown unit {name!r}")
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise InvalidLayout(f"route probabilities sum to {total!r}, expected 1")
        for name in rule.coefficients:
            if name not in signals:
                raise InvalidLayout(f"coefficient references unknown signal {name!r}")
        if rule.noise_sigma < 0:
            raise InvalidLayout("noise_sigma must be non-negative")

    def signal_names(self) -> list[SignalId]:
        return [sig.name for unit in self.units for sig in unit.signals]

    def unit(self, name: str) -> Unit:
        for unit in self.units:
            if unit.name == name:
                return unit
        raise InvalidLayout(f"unknown unit {name!r}")

    def route_signals(self, route: Route) -> set[SignalId]:
        out: set[SignalId] = set()
        for name in route.units:
            out.update(sig.name for sig in self.unit(name).signals)
        return out


@dataclass(frozen=True)
class GenSpec:
    layout: PlantLayout
    n_rows: int
    seed: int

    def __post_init__(self) -> None:
        # NumPy integers are taken as the int they hold; bools and floats,
        # which would be read as another count or seed, are refused.
        for field in ("n_rows", "seed"):
            value = getattr(self, field)
            try:
                if isinstance(value, (bool, np.bool_)):
                    raise TypeError
                object.__setattr__(self, field, operator.index(value))
            except TypeError:
                raise InvalidLayout(f"{field} must be an integer, got {value!r}") from None
        if self.n_rows < 1:
            raise InvalidLayout("n_rows must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise InvalidLayout("seed must be an unsigned 64-bit integer")


# Calibrated so that, with the benchmark's default ridge penalty, the wide
# stratum is the most predictable, the narrow stratum lands near R2 0.55,
# and the route-aware chain clearly outperforms the complete-case baseline.
DEFAULT_NOISE_SIGMA = 1.55

_UNIT3 = math.sqrt(3.0)  # half-width of a variance-1 uniform


def default_layout(noise_sigma: float | None = None) -> PlantLayout:
    """Steel-line style layout: 7 units, 2 signals each, 3 routes.

    Routes: narrow (PLTCM, CAL) probability 0.5, balanced (HSM1, PLTCM,
    CAL) probability 0.3, wide (all units) probability 0.2; the route
    signal sets are strictly nested. Every signal carries a nonzero
    target coefficient, with enough weight upstream that items on the
    wide route are strictly more predictable.
    """
    if noise_sigma is None:
        noise_sigma = DEFAULT_NOISE_SIGMA

    def normal(name: str) -> SignalSpec:
        return SignalSpec(name, ("normal", 0.0, 1.0))

    units = (
        Unit("DES", (normal("DES_1"), SignalSpec("DES_2", ("uniform", -_UNIT3, _UNIT3)))),
        Unit("BOF", (normal("BOF_1"), normal("BOF_2"))),
        Unit("CCM", (normal("CCM_1"), normal("CCM_2"))),
        Unit("RHLF", (normal("RHLF_1"), normal("RHLF_2"))),
        Unit("HSM1", (normal("HSM1_1"), normal("HSM1_2"))),
        Unit("PLTCM", (normal("PLTCM_1"), normal("PLTCM_2"))),
        Unit("CAL", (normal("CAL_1"), normal("CAL_2"))),
    )
    routes = (
        Route("narrow", ("PLTCM", "CAL"), 0.5),
        Route("balanced", ("HSM1", "PLTCM", "CAL"), 0.3),
        Route("wide", ("DES", "BOF", "CCM", "RHLF", "HSM1", "PLTCM", "CAL"), 0.2),
    )
    coefficients = {
        "DES_1": 0.81,
        "DES_2": 0.69,
        "BOF_1": 0.75,
        "BOF_2": 0.75,
        "CCM_1": 0.78,
        "CCM_2": 0.72,
        "RHLF_1": 0.75,
        "RHLF_2": 0.83,
        "HSM1_1": 0.9,
        "HSM1_2": 0.8,
        "PLTCM_1": 1.0,
        "PLTCM_2": 0.8,
        "CAL_1": 0.9,
        "CAL_2": 0.7,
    }
    rule = TargetRule("Y", 5.0, coefficients, noise_sigma)
    layout = PlantLayout(units, routes, rule)
    layout.validate()
    return layout


def _route_draws(layout: PlantLayout, route: Route) -> list[SignalSpec]:
    """The signals a route's rows draw, in stream order."""
    traversed = set(route.units)
    return [sig for unit in layout.units if unit.name in traversed for sig in unit.signals]


def _stream_draws(layout: PlantLayout, route: Route, col_index: Mapping[SignalId, int]):
    """The route's draws after the route pick, as ``(is_normal, column)`` in
    stream order: one per traversed signal, then the noise in the target's
    column."""
    draws = [
        (sig.dist[0] == "normal", col_index[sig.name]) for sig in _route_draws(layout, route)
    ]
    draws.append((True, col_index[layout.target_rule.target]))
    return draws


def _draw_runs(draws) -> list[list]:
    """``draws`` as runs ``(is_normal, start, stop)``: a run is a block of
    adjacent columns whose signals share a kind, so one ``standard_normal``
    or ``random`` call fills it in place."""
    runs: list[list] = []
    for is_normal, col in draws:
        if runs and runs[-1][0] == is_normal and runs[-1][2] == col:
            runs[-1][2] = col + 1
        else:
            runs.append([is_normal, col, col + 1])
    return runs


# --- Philox4x64-10 and NumPy's ziggurat, across rows ---------------------------
#
# Every constant is an np.uint64: NumPy 1.x turns uint64 mixed with a Python
# int into float64. A Philox round multiplies counter words 0 and 2, so
# those two are kept as one (2, n) pair, and the multipliers and key
# increments as (2, 1) columns.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _32
_11, _9, _LAYER, _SIGN = np.uint64(11), np.uint64(9), np.uint64(0xFF), np.uint64(0x100)
_MANTISSA, _ONE = np.uint64(2**52 - 1), np.uint64(1)
# Philox blocks per batch of rows, at least (``_BATCH_BLOCKS // width``
# rows): a small table's batches stay large enough that the per-batch
# NumPy calls do not dominate, whatever the route length.
_BATCH_BLOCKS = 4096
# Batches per table, at most: each batch's temporaries are about this
# fraction of the table's rows, so they stay a fixed share of its values.
_BATCHES = 10


def _philox(keys: np.ndarray, counters, seed: int) -> np.ndarray:
    """Philox4x64-10 blocks, one per key: ``(4, n)`` uint64 words.

    Element j is the block of key ``(seed << 64) | keys[j]`` (key words
    ``(keys[j], seed)``) at counter ``(counters[j], 0, 0, 0)``; ``keys``
    is a uint64 array and ``counters`` uint64 values broadcast to it.
    ``mulhi`` is summed from 32-bit halves, none of whose partial sums
    can wrap.
    """
    mul, xor, key = np.zeros((3, 2, keys.size), dtype=np.uint64)
    mul[0] = counters  # counter words 0 and 2; xor holds words 1 and 3
    key[0], key[1] = keys, seed
    low, hi, t, u = np.empty((4, 2, keys.size), dtype=np.uint64)
    for _ in range(_PHILOX_ROUNDS):
        np.bitwise_and(mul, _LOW32, out=low)
        np.right_shift(mul, _32, out=hi)
        np.multiply(low, _M_LO, out=t)
        t >>= _32
        np.multiply(hi, _M_LO, out=u)
        u += t  # a_hi * m_lo + (a_lo * m_lo >> 32)
        low *= _M_HI
        low += np.bitwise_and(u, _LOW32, out=t)  # a_lo * m_hi + (u & LOW32)
        u >>= _32
        low >>= _32
        hi *= _M_HI
        hi += u
        hi += low  # the high words
        mul *= _PHILOX_M  # the low words
        # Words 0..3 become (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0).
        xor ^= hi[::-1]
        xor ^= key
        mul, xor = xor, mul[::-1]
        key += _PHILOX_W
    del low, hi, t, u
    out = np.empty((4, keys.size), dtype=np.uint64)
    out[0::2], out[1::2] = mul, xor
    return out


def _uniform(words: np.ndarray) -> np.ndarray:
    """``Generator.random`` of each word: its top 53 bits over 2**53."""
    return (words >> _11).astype(np.float64) * 2.0**-53


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """NumPy's 256-layer ziggurat tables ``(wi, ki)`` for ``standard_normal``.

    A word ``w`` picks layer ``idx = w & 0xff``, the sign ``(w >> 8) & 1``
    and ``rabs = w >> 9`` (52 bits); the draw is ``±rabs * wi[idx]`` and
    takes the fast path iff ``rabs < ki[idx]`` (Marsaglia and Tsang,
    J. Stat. Softw. 2000). NumPy does not export its tables, so they are
    read off the installed ``Generator``: it is fed one word through the
    Philox buffer, and the draw was fast iff it consumed that word alone.
    ``wi[idx]`` is the draw for ``rabs`` 1. ``ki[idx]`` is the boundary
    inside ``{f, f + 1}``, ``f = floor(2**52 * wi[idx - 1] / wi[idx])``
    (layer 0 reads layer 255); a layer whose boundary is elsewhere, or
    whose ``rabs`` 1 is not fast, gets ``ki`` 0, so every one of its
    draws is left to the generator itself.
    """
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state

    def draw(idx: int, rabs: int) -> tuple[float, bool]:
        state["buffer"] = np.array([rabs << 9 | idx, 0, 0, 0], dtype=np.uint64)
        state["buffer_pos"] = 0
        bitgen.state = state
        x = rng.standard_normal()
        after = bitgen.state
        return x, after["buffer_pos"] == 1 and after["state"]["counter"][0] == 0

    def fast(idx: int, rabs: int) -> bool:
        # False beyond 52 bits: a layer fast up to 2**52 - 1 gets ki 2**52.
        return 0 <= rabs < 2**52 and draw(idx, rabs)[1]

    unit = [draw(idx, 1) for idx in range(256)]
    wi = np.array([x for x, _ in unit])
    ki = np.zeros(256, dtype=np.uint64)
    for idx, (_, one_is_fast) in enumerate(unit):
        if not one_is_fast:
            continue  # wi[idx] need not be the bare product
        f = math.floor(2.0**52 * wi[idx - 1] / wi[idx])
        if fast(idx, f):
            if not fast(idx, f + 1):
                ki[idx] = f + 1
        elif fast(idx, f - 1):
            ki[idx] = f
    wi.flags.writeable = ki.flags.writeable = False  # shared by every caller
    return wi, ki


def _normal(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``standard_normal`` of each word where it takes the ziggurat's fast
    path: ``(draws, fast)``; a draw is valid only where ``fast`` holds."""
    wi, ki = _ziggurat()
    idx = (words & _LAYER).astype(np.intp)
    rabs = words >> _9
    rabs &= _MANTISSA
    x = rabs.astype(np.float64)
    x *= wi[idx]
    np.negative(x, out=x, where=(words & _SIGN).astype(bool))
    return x, rabs < ki[idx]


def _draw_fast_rows(seed: int, draws, cum: np.ndarray, values, route_of) -> np.ndarray:
    """Draw every row's route and raw draws in bulk, and return the rows to
    redraw: those with a normal draw off the ziggurat's fast path.

    Word k of a row's stream is word k % 4 of its Philox block k // 4 + 1
    (NumPy steps the counter before it computes a block); the route pick
    is word 0 and the route's draws are words 1, 2, ...

    The rows are drawn in batches of a tenth of the table, rounded up,
    and never fewer than ``_BATCH_BLOCKS // width`` rows, where ``width``
    is the most blocks a row needs. Every block is a function of its row
    and counter alone, so how the rows are cut changes no bit; the cut
    follows ``n_rows`` only, and keeps the temporaries a fixed share of
    the values.
    """
    n_rows = route_of.size
    blocks = np.array([(len(d) + 4) // 4 for d in draws])  # ceil((1 + len(d)) / 4)
    width = int(blocks.max())
    # Per route: the word positions and columns of its uniform draws and of
    # its normal draws.
    plans = []
    for d in draws:
        normal = np.array([is_normal for is_normal, _ in d])
        pos, cols = np.arange(1, len(d) + 1), np.array([col for _, col in d])
        plans.append((pos[~normal], cols[~normal], pos[normal], cols[normal]))

    def draw_batch(start: int, stop: int) -> np.ndarray:
        """Rows start..stop-1; returns those to redraw."""
        keys = np.arange(start, stop, dtype=np.uint64)
        words = np.empty((keys.size, width, 4), dtype=np.uint64)
        words[:, 0] = _philox(keys, _ONE, seed).T
        route = np.minimum(cum.searchsorted(_uniform(words[:, 0, 0]), "right"), cum.size - 1)
        route_of[start:stop] = route
        # Blocks 2 and later of every row, in one evaluation.
        more = blocks[route] - 1
        owner = np.arange(keys.size).repeat(more)
        block = np.arange(owner.size) - (more.cumsum() - more).repeat(more) + 1
        words[owner, block] = _philox(keys[owner], block.astype(np.uint64) + _ONE, seed).T
        words = words.reshape(keys.size, -1)
        rejected = []
        for r, (uniform_pos, uniform_cols, normal_pos, normal_cols) in enumerate(plans):
            sel = (route == r).nonzero()[0][:, None]
            values[start + sel, uniform_cols] = _uniform(words[sel, uniform_pos])
            x, fast = _normal(words[sel, normal_pos])
            values[start + sel, normal_cols] = x
            rejected.append(start + sel[~np.logical_and.reduce(fast, axis=1), 0])
        return np.concatenate(rejected)

    batch = max(1, _BATCH_BLOCKS // width, -(-n_rows // _BATCHES))
    return np.concatenate([
        draw_batch(start, min(start + batch, n_rows)) for start in range(0, n_rows, batch)
    ])


def generate(spec: GenSpec) -> Dataset:
    """Sample a dataset; fully determined by the layout, n_rows, and seed."""
    layout = spec.layout
    layout.validate()
    signals = layout.signal_names()
    target = layout.target_rule.target
    columns = tuple(signals) + (target,)
    col_index = {name: j for j, name in enumerate(columns)}
    cum = np.cumsum([r.probability for r in layout.routes])
    draws = [_stream_draws(layout, route, col_index) for route in layout.routes]
    values = np.full((spec.n_rows, len(columns)), np.nan)
    route_of = np.empty(spec.n_rows, dtype=np.intp)
    rejected = _draw_fast_rows(spec.seed, draws, cum, values, route_of)

    # The rejected rows, one at a time: one Philox stream per row, keyed
    # (seed << 64) | row with counter 0. Resetting a single bit generator
    # to that state replaces building one.
    bitgen = np.random.Philox(key=0)
    fresh = bitgen.state
    fresh["state"]["key"][1] = spec.seed
    rng = np.random.Generator(bitgen)
    runs = [_draw_runs(d) for d in draws]
    for i in rejected.tolist():
        fresh["state"]["key"][0] = i
        bitgen.state = fresh
        rng.random()  # the route pick, already known
        for is_normal, start, stop in runs[route_of[i]]:
            draw = rng.standard_normal if is_normal else rng.random
            draw(out=values[i, start:stop])

    # Turn the raw draws into values and the target, route by route, with
    # the same operations in the same order as a row-at-a-time sum.
    rule = layout.target_rule
    coeffs = rule.coefficients
    t = col_index[target]
    with np.errstate(over="ignore", invalid="ignore"):
        for r, route in enumerate(layout.routes):
            rows = np.flatnonzero(route_of == r)
            total = np.full(rows.size, rule.intercept, dtype=np.float64)
            for sig in _route_draws(layout, route):
                j = col_index[sig.name]
                kind, first, second = sig.dist
                # mean + sd * z, or lo + (hi - lo) * u
                scale = second if kind == "normal" else second - first
                v = first + scale * values[rows, j]
                values[rows, j] = v
                total = total + coeffs.get(sig.name, 0.0) * v
            values[rows, t] = total + rule.noise_sigma * values[rows, t]
    # A non-finite value makes its row's target sum non-finite, so the
    # target column alone shows whether any row overflowed.
    overflowed = np.flatnonzero(~np.isfinite(values[:, t]))
    if overflowed.size:
        i = int(overflowed[0])
        route = layout.routes[route_of[i]]
        drawn = [col_index[sig.name] for sig in _route_draws(layout, route)] + [t]
        j = min(k for k in drawn if not math.isfinite(values[i, k]))
        raise NonFinite(
            f"row {i}, column {columns[j]!r}: the generated value {values[i, j]} "
            "is not finite; the layout's numbers overflow float64"
        )
    values.flags.writeable = False  # nothing else holds it, so Dataset need not copy
    return Dataset(columns, values, target)


def route_of_row(layout: PlantLayout, dataset: Dataset, row: int) -> Route | None:
    """The unique route whose signal set matches a row's availability."""
    present = dataset.present_signals(row) - {dataset.target}
    for route in layout.routes:
        if layout.route_signals(route) == present:
            return route
    return None


# --- JSON layout configs --------------------------------------------------------

def layout_to_dict(layout: PlantLayout) -> dict:
    return {
        "units": [
            {
                "name": u.name,
                "signals": [{"name": s.name, "dist": list(s.dist)} for s in u.signals],
            }
            for u in layout.units
        ],
        "routes": [
            {"name": r.name, "units": list(r.units), "probability": r.probability}
            for r in layout.routes
        ],
        "target_rule": {
            "target": layout.target_rule.target,
            "intercept": layout.target_rule.intercept,
            "coefficients": dict(layout.target_rule.coefficients),
            "noise_sigma": layout.target_rule.noise_sigma,
        },
    }


def layout_from_dict(d: dict) -> PlantLayout:
    try:
        units = tuple(
            Unit(
                u["name"],
                tuple(SignalSpec(s["name"], tuple(s["dist"])) for s in u["signals"]),
            )
            for u in d["units"]
        )
        routes = tuple(
            Route(r["name"], signal_names(r["units"]), r["probability"])
            for r in d["routes"]
        )
        rule = d["target_rule"]
        layout = PlantLayout(
            units,
            routes,
            TargetRule(
                rule["target"],
                rule["intercept"],
                rule["coefficients"],
                rule["noise_sigma"],
            ),
        )
        layout.validate()
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidLayout(f"malformed layout document: {exc}") from None
    return layout


def with_noise_sigma(layout: PlantLayout, noise_sigma: float) -> PlantLayout:
    return replace(layout, target_rule=replace(layout.target_rule, noise_sigma=noise_sigma))
