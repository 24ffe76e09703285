"""The block generator against the row-at-a-time reference, and the
stream it documents.

``synthgen.generate`` must give exactly the values (compared as bytes)
of ``tests/gen_oracle.py``, which builds one Philox generator per block
of rows and scales and sums each row one signal at a time.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routeboost.synthgen import (
    _BLOCK_ROWS,
    GenSpec,
    PlantLayout,
    Route,
    SignalSpec,
    TargetRule,
    Unit,
    default_layout,
    generate,
    route_of_row,
)
from tests import gen_oracle


def numbers(lo, hi):
    """Ints and floats: a layout built in code may hold either."""
    return st.one_of(st.integers(int(lo), int(hi)), st.floats(lo, hi))


@st.composite
def signal_specs(draw, name):
    if draw(st.booleans()):
        return SignalSpec(name, ("normal", draw(numbers(-1e3, 1e3)), draw(numbers(0, 50))))
    lo = draw(numbers(-1e3, 1e3))
    return SignalSpec(name, ("uniform", lo, lo + draw(numbers(0, 100))))


@st.composite
def layouts(draw):
    units = []
    for u in range(draw(st.integers(1, 5))):
        first = sum(len(unit.signals) for unit in units)
        count = draw(st.integers(0, 4))
        signals = tuple(draw(signal_specs(f"s{first + k}")) for k in range(count))
        units.append(Unit(f"u{u}", signals))
    unit_names = [unit.name for unit in units]
    weights = draw(st.lists(st.integers(1, 20), min_size=1, max_size=5))
    routes = tuple(
        # Route units in any order: the layout's unit order sets the draws.
        Route(f"r{r}", tuple(draw(st.lists(st.sampled_from(unit_names), unique=True))),
              w / sum(weights))
        for r, w in enumerate(weights)
    )
    coefficients = {}
    for unit in units:
        for sig in unit.signals:
            coeff = draw(st.one_of(st.none(), st.sampled_from([0.0, -0.0]), numbers(-5, 5)))
            if coeff is not None:  # None: the signal has no coefficient at all
                coefficients[sig.name] = coeff
    rule = TargetRule("Y", draw(numbers(-100, 100)), coefficients, draw(numbers(0, 10)))
    return PlantLayout(tuple(units), routes, rule)


UNIFORM_FIRST_AND_LAST = PlantLayout(
    (
        Unit("a", (SignalSpec("a1", ("uniform", -1.0, 2.0)), SignalSpec("a2", ("normal", 1, 2)))),
        Unit("b", (SignalSpec("b1", ("normal", 0.5, 0.0)), SignalSpec("b2", ("uniform", 3, 3)))),
    ),
    (Route("both", ("b", "a"), 0.6), Route("first", ("a",), 0.4)),
    TargetRule("Y", 2, {"a1": 0.0, "b2": -1.5}, 0.25),
)

# A zero coefficient still adds its product: -0.0 + 0.0 * v is 0.0, and
# with no noise that sign reaches the target.
ZERO_TERMS = PlantLayout(
    (Unit("a", (SignalSpec("a1", ("normal", 0.0, 1.0)),)),),
    (Route("only", ("a",), 1.0),),
    TargetRule("Y", -0.0, {"a1": 0.0}, 0.0),
)


# One route of 33 draws: 26 normal columns with the noise, 7 uniform.
LONG_ROUTE = PlantLayout(
    (
        Unit("a", tuple(
            SignalSpec(f"a{k}", ("uniform", -1.0, k) if k % 5 == 0 else ("normal", k, 1.5))
            for k in range(31)
        )),
        Unit("b", (SignalSpec("b0", ("normal", 0.0, 2.0)),)),
    ),
    (Route("long", ("a", "b"), 0.7), Route("short", ("b",), 0.3)),
    TargetRule("Y", 1.0, {f"a{k}": 0.1 * k for k in range(31)}, 0.5),
)


@settings(max_examples=120, deadline=None)
@given(
    layout=layouts(),
    n_rows=st.integers(1, 300),
    seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
)
@example(layout=UNIFORM_FIRST_AND_LAST, n_rows=300, seed=2**64 - 1)
@example(layout=ZERO_TERMS, n_rows=50, seed=3)
@example(layout=LONG_ROUTE, n_rows=2 * _BLOCK_ROWS + 1, seed=2**64 - 1)
@example(layout=default_layout(), n_rows=1, seed=0)
@example(layout=default_layout(), n_rows=_BLOCK_ROWS - 1, seed=1)
@example(layout=default_layout(), n_rows=_BLOCK_ROWS, seed=2)
@example(layout=default_layout(), n_rows=_BLOCK_ROWS + 1, seed=3)
@example(layout=default_layout(), n_rows=10_000, seed=42)
@example(layout=default_layout(), n_rows=50_000, seed=0)
def test_generate_matches_reference(layout, n_rows, seed):
    spec = GenSpec(layout, n_rows, seed)
    got, want = generate(spec), gen_oracle.generate(spec)
    assert got.signals == want.signals and got.target == want.target
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_blocks_draw_from_numpys_philox(seed):
    """Row b * _BLOCK_ROWS opens block b, which draws from
    ``Generator(Philox(key=(seed << 64) | b))``: the route pick, then its
    row of standard normals (the default plant's normals are N(0, 1), so
    a value is its draw)."""
    layout = default_layout()
    dataset = generate(GenSpec(layout, 2 * _BLOCK_ROWS, seed))
    cum = np.cumsum([r.probability for r in layout.routes])
    normal = [c for c in dataset.signals if c not in ("DES_2", "Y")]
    for b in (0, 1):
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) | b))
        pick = rng.random()
        rng.random(_BLOCK_ROWS - 1)  # the block's other route picks
        draws = dict(zip(normal, rng.standard_normal(len(normal)).tolist()))
        route = layout.routes[int(np.searchsorted(cum, pick, side="right"))]
        row = dataset.row_values(b * _BLOCK_ROWS)
        assert route_of_row(layout, dataset, b * _BLOCK_ROWS) == route
        assert {c: v for c, v in row.items() if c in normal} == {
            c: draws[c] for c in layout.route_signals(route) if c in normal
        }


def state_reads(source: str) -> list[int]:
    """Line numbers of every ``.state`` attribute in ``source``."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "state"
    ]


def test_generator_state_is_never_touched():
    """The generator uses NumPy's public draws only: no bit generator's
    ``state`` is read or written."""
    assert state_reads("bitgen.state = s\nx = rng.bit_generator.state['state']\n") == [1, 2]
    path = Path(__file__).resolve().parent.parent / "src" / "routeboost" / "synthgen.py"
    assert state_reads(path.read_text(encoding="utf-8")) == []
