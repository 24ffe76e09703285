import numpy as np
import pytest

from routeboost.analysis import SignalGroup, route_frequencies
from routeboost.data import write_csv
from routeboost.errors import InvalidLayout, NonFinite
from routeboost.learners import LearnerConfig, fit
from routeboost.subsetting import StrategyOptions, SubsetSpec, materialize
from routeboost.synthgen import (
    GenSpec,
    PlantLayout,
    Route,
    SignalSpec,
    TargetRule,
    Unit,
    default_layout,
    generate,
    layout_from_dict,
    layout_to_dict,
    route_of_row,
    with_noise_sigma,
)
from tests.conftest import peak_over_values


def unit_groups(layout):
    return [
        SignalGroup(u.name, tuple(s.name for s in u.signals)) for u in layout.units
    ]


class TestDefaultLayout:
    def test_route_probabilities(self):
        layout = default_layout()
        assert [r.probability for r in layout.routes] == [0.5, 0.3, 0.2]
        assert sum(r.probability for r in layout.routes) == pytest.approx(1.0, abs=1e-9)

    def test_route_signal_nesting(self):
        layout = default_layout()
        narrow, balanced, wide = (layout.route_signals(r) for r in layout.routes)
        assert narrow < balanced < wide

    def test_two_signals_per_unit_and_full_coverage(self):
        layout = default_layout()
        assert all(len(u.signals) == 2 for u in layout.units)
        coeffs = layout.target_rule.coefficients
        for name in layout.signal_names():
            assert coeffs[name] != 0.0

    def test_narrow_row_availability(self):
        layout = default_layout()
        ds = generate(GenSpec(layout, 50, 123))
        narrow_signals = layout.route_signals(layout.routes[0])
        for i in range(ds.n_rows):
            route = route_of_row(layout, ds, i)
            if route is not None and route.name == "narrow":
                present = ds.present_signals(i)
                assert present == narrow_signals | {"Y"}
                break
        else:
            pytest.fail("no narrow-route row in 50 samples")


class TestGenerate:
    def test_bit_identical_datasets(self, tmp_path):
        spec = GenSpec(default_layout(), 200, 99)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.values, b.values, equal_nan=True)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, pa)
        write_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_values_are_allocated_once(self):
        for n_rows in (10_000, 60_000):
            spec = GenSpec(default_layout(), n_rows, 0)
            assert peak_over_values(lambda: generate(spec)) <= 1.5

    @pytest.mark.parametrize(
        "edit, cell",
        [
            (lambda d: d["units"][0]["signals"][0].update(dist=["normal", 1e308, 1e308]),
             "row 49, column 'DES_1'"),
            (lambda d: d["units"][0]["signals"][1].update(dist=["uniform", -1e308, 1e308]),
             "row 0, column 'DES_2'"),
            (lambda d: d["target_rule"]["coefficients"].update(PLTCM_1=1e308),
             "row 15, column 'Y'"),
        ],
        ids=["signal", "uniform", "coefficient"],
    )
    def test_overflow_names_the_first_cell(self, edit, cell):
        """Overflow raises, quietly (the suite errors on RuntimeWarning),
        at the first non-finite cell in row order."""
        doc = layout_to_dict(default_layout())
        edit(doc)
        with pytest.raises(NonFinite, match=rf"^{cell}: the generated value -?inf "):
            generate(GenSpec(layout_from_dict(doc), 200, 1))

    def test_row_substreams_stable_under_row_count(self):
        layout = default_layout()
        # Tables that end at, just before and just after the edges of the
        # 1,024-row blocks, and 10,000 rows inside a block that 30,000 fill.
        edges = [1, 1_023, 1_024, 1_025, 2_049, 3_000]
        for n_small, n_large in [(50, 120), (10_000, 30_000)] + [(n, 5_000) for n in edges]:
            small = generate(GenSpec(layout, n_small, 7))
            large = generate(GenSpec(layout, n_large, 7))
            assert small.values.tobytes() == large.values[:n_small].tobytes(), n_small

    def test_availability_equals_route_signals(self):
        layout = default_layout()
        ds = generate(GenSpec(layout, 300, 17))
        for i in range(ds.n_rows):
            route = route_of_row(layout, ds, i)
            assert route is not None, f"row {i} matches no route"

    def test_noiseless_narrow_row_target_is_exact(self):
        layout = with_noise_sigma(default_layout(), 0.0)
        ds = generate(GenSpec(layout, 80, 31))
        coeffs = layout.target_rule.coefficients
        for i in range(ds.n_rows):
            row = ds.row_values(i)
            y = row.pop("Y")
            expected = layout.target_rule.intercept + sum(
                coeffs[s] * v for s, v in row.items()
            )
            assert y == pytest.approx(expected, abs=1e-12)

    def test_route_counts_seed7(self):
        layout = default_layout()
        ds = generate(GenSpec(layout, 1000, 7))
        routes = route_frequencies(ds, unit_groups(layout))
        counts = {tuple(sorted(r.groups_present)): r.count for r in routes}
        assert abs(counts[("CAL", "PLTCM")] - 500) <= 60
        assert abs(counts[("CAL", "HSM1", "PLTCM")] - 300) <= 60
        wide_key = tuple(sorted(u.name for u in layout.units))
        assert abs(counts[wide_key] - 200) <= 60
        # The narrow pattern is the most frequent one.
        assert routes[0].groups_present == frozenset({"CAL", "PLTCM"})

    def test_empirical_frequencies_converge(self):
        layout = default_layout()
        ds = generate(GenSpec(layout, 100_000, 1))
        routes = route_frequencies(ds, unit_groups(layout))
        shares = {frozenset(r.groups_present): r.count / ds.n_rows for r in routes}
        for route in layout.routes:
            key = frozenset(route.units)
            assert abs(shares[key] - route.probability) < 0.01

    def test_planted_coefficients_recovered(self):
        layout = with_noise_sigma(default_layout(), 0.0)
        ds = generate(GenSpec(layout, 2000, 8))
        wide_features = tuple(layout.signal_names())
        sub = materialize(ds, SubsetSpec("wide", wide_features))
        X = np.column_stack([sub.column(f) for f in wide_features])
        model = fit(LearnerConfig(kind="ridge", ridge_lambda=1e-8), X, sub.column("Y"))
        coeffs = layout.target_rule.coefficients
        for name, w in zip(wide_features, model.weights):
            assert abs(w - coeffs[name]) <= 1e-6
        assert abs(model.intercept - layout.target_rule.intercept) <= 1e-6


class TestLayoutValidation:
    def base_layout(self, **route_overrides):
        units = (Unit("U", (SignalSpec("u1", ("normal", 0.0, 1.0)),)),)
        routes = (Route("r", ("U",), route_overrides.get("probability", 1.0)),)
        rule = TargetRule("Y", 0.0, {"u1": 1.0}, 0.1)
        return PlantLayout(units, routes, rule)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidLayout, match="^route probabilities sum to 0.5, "):
            self.base_layout(probability=0.5)

    def test_unknown_unit_in_route(self):
        layout = self.base_layout()
        with pytest.raises(InvalidLayout, match="^route 'r': unknown unit 'NOPE'$"):
            PlantLayout(layout.units, (Route("r", ("NOPE",), 1.0),), layout.target_rule)

    def test_duplicate_signal_names(self):
        units = (
            Unit("U", (SignalSpec("s", ("normal", 0.0, 1.0)),)),
            Unit("V", (SignalSpec("s", ("normal", 0.0, 1.0)),)),
        )
        routes = (Route("r", ("U", "V"), 1.0),)
        with pytest.raises(InvalidLayout, match="^signal names must be globally unique$"):
            PlantLayout(units, routes, TargetRule("Y", 0.0, {}, 0.0))

    def test_coefficient_for_unknown_signal(self):
        layout = self.base_layout()
        rule = TargetRule("Y", 0.0, {"ghost": 1.0}, 0.0)
        with pytest.raises(InvalidLayout, match="unknown signal 'ghost'$"):
            PlantLayout(layout.units, layout.routes, rule)

    def test_checked_however_built(self):
        """A signal is checked without a layout, and a replaced field is checked."""
        with pytest.raises(InvalidLayout, match="^signal 's': negative sd$"):
            SignalSpec("s", ("normal", 0.0, -1.0))
        with pytest.raises(InvalidLayout, match="^noise_sigma must be non-negative$"):
            with_noise_sigma(self.base_layout(), -1.0)

    def test_seed_must_be_unsigned_64bit(self):
        with pytest.raises(InvalidLayout):
            GenSpec(self.base_layout(), 10, -1)
        with pytest.raises(InvalidLayout):
            GenSpec(self.base_layout(), 10, 2**64)

    @pytest.mark.parametrize(
        "n_rows, seed, field",
        [(10, 1.5, "seed"), (10, 1.0, "seed"), (10, True, "seed"), (10, np.True_, "seed"),
         (10, "1", "seed"), (10.0, 1, "n_rows"), (True, 1, "n_rows"), (np.float64(10), 1, "n_rows")],
    )
    def test_counts_and_seeds_must_be_integers(self, n_rows, seed, field):
        """A float seed would be truncated to another seed's data."""
        with pytest.raises(InvalidLayout, match=f"^{field} must be an integer, got "):
            GenSpec(self.base_layout(), n_rows, seed)

    def test_numpy_integers_are_taken_as_ints(self):
        spec = GenSpec(self.base_layout(), np.int64(20), np.uint64(2**64 - 1))
        assert type(spec.n_rows) is int and type(spec.seed) is int
        want = generate(GenSpec(self.base_layout(), 20, 2**64 - 1))
        assert generate(spec).values.tobytes() == want.values.tobytes()


def test_route_strategy_leaves_out_units_without_signals():
    normal = ("normal", 0.0, 1.0)
    units = (Unit("a", (SignalSpec("a1", normal),)), Unit("e", ()))
    routes = (Route("r", ("e", "a"), 0.5), Route("s", ("a",), 0.5))
    layout = PlantLayout(units, routes, TargetRule("Y", 0.0, {}, 1.0))
    groups, segments = layout.route_strategy()
    assert (groups, segments) == ({"a": ["a1"]}, {"r": ["a"], "s": ["a"]})
    StrategyOptions("routes", groups, segments)  # a group with no signals is refused


class TestLayoutSerialization:
    def test_json_round_trip(self):
        layout = default_layout()
        back = layout_from_dict(layout_to_dict(layout))
        assert back == layout

    def test_round_tripped_layout_generates_identically(self):
        layout = default_layout()
        back = layout_from_dict(layout_to_dict(layout))
        a = generate(GenSpec(layout, 40, 3))
        b = generate(GenSpec(back, 40, 3))
        assert np.array_equal(a.values, b.values, equal_nan=True)
