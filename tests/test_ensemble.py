import copy
import pickle
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings

from routeboost.analysis import SignalGroup, infer_signal_groups
from routeboost.benchmark import train_proposed
from routeboost.data import Dataset, dataset_from_columns
from routeboost.ensemble import (
    EnsembleMember,
    EnsembleModel,
    evaluate,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    train_bagging,
    train_boosting,
    train_boosting_branched,
    train_conventional,
    train_test_split_rows,
)
from routeboost.errors import (
    EmptySubset,
    EmptyTrainingSet,
    InputError,
    InvalidModel,
    NoApplicableModel,
    NonFinite,
    NotNested,
)
from routeboost.learners import LearnerConfig, MeanLearner, RidgeLearner, fit
from routeboost.subsetting import (
    RouteSegment,
    StrategyOptions,
    SubsetSpec,
    build_subset_specs,
    materialize,
    subsets_by_common_routes,
    subsets_by_grouped_signals,
)
from routeboost.synthgen import GenSpec, default_layout, generate
from tests.conftest import nested_chain, route_plant
from tests.test_predict_oracle import scoring_problems

RIDGE = LearnerConfig(kind="ridge")


def steel_chain(n=600, seed=4, config=RIDGE):
    layout = default_layout()
    ds = generate(GenSpec(layout, n, seed))
    groups = [
        SignalGroup(u.name, tuple(s.name for s in u.signals)) for u in layout.units
    ]
    segments = [RouteSegment(r.name, r.units) for r in layout.routes]
    specs = subsets_by_common_routes(ds, groups, segments)
    return ds, specs, train_boosting(ds, specs, config)


def constant_member(name, features, value):
    return EnsembleMember(name, features, MeanLearner(features, value))


def nested_routes():
    """``y = 1 + 2a + 3b - c`` with ``a`` on every row, ``b`` on the
    routes {a,b} and {a,b,c}, and ``c`` on {a,c} and {a,b,c}."""
    rng = np.random.default_rng(3)
    a, b, c = rng.normal(size=(3, 400))
    y = 1 + 2 * a + 3 * b - c
    route = rng.integers(0, 4, size=400)
    b[route % 2 == 0] = np.nan
    c[route < 2] = np.nan
    return Dataset(("a", "b", "c", "Y"), np.column_stack([a, b, c, y]), "Y")


class TestTrainBoosting:
    def test_single_spec_equals_plain_fit(self, toy6):
        model = train_boosting(toy6, [SubsetSpec("base", ("A",))], RIDGE)
        sub = materialize(toy6, SubsetSpec("base", ("A",)))
        plain = fit(RIDGE, sub.values[:, :1], sub.column("Y"), features=("A",))
        assert len(model.members) == 1
        for a in (1.0, 2.5, 6.0):
            assert model.predict({"A": a}) == plain.predict_one([a])

    def test_toy6_branches_are_not_a_chain(self, toy6):
        specs = subsets_by_grouped_signals(toy6, infer_signal_groups(toy6), True)
        with pytest.raises(NotNested):
            train_boosting(toy6, specs, RIDGE)

    def test_residuals_fit_against_prefix(self):
        ds, specs, model = steel_chain()
        assert [m.name for m in model.members] == ["base", "balanced", "wide"]
        # Refit member 1's training residuals by hand and compare.
        chain_specs = sorted(specs, key=lambda s: len(s.features))
        sub = materialize(ds, chain_specs[1])
        prefix = np.array(
            [
                model.members[0].learner.predict_one(
                    [sub.row_values(i)[s] for s in model.members[0].features]
                )
                for i in range(sub.n_rows)
            ]
        )
        residual = sub.column(ds.target) - prefix
        refit = fit(
            RIDGE,
            np.column_stack([sub.column(f) for f in chain_specs[1].features]),
            residual,
            features=chain_specs[1].features,
        )
        np.testing.assert_allclose(
            refit.weights, model.members[1].learner.weights, atol=1e-12
        )
        assert abs(refit.intercept - model.members[1].learner.intercept) <= 1e-12


class TestBranchedBoosting:
    def test_toy6_base_plus_two_branches(self, toy6):
        specs = subsets_by_grouped_signals(toy6, infer_signal_groups(toy6), True)
        model = train_boosting_branched(toy6, specs, RIDGE)
        assert [m.name for m in model.members] == ["base", "r1", "r2"]
        for i in range(toy6.n_rows):
            row = toy6.row_values(i)
            y = row.pop("Y")
            assert model.predict(row) == pytest.approx(y, abs=1e-5)

    def test_branch_missing_base_features_rejected(self, toy6):
        specs = [SubsetSpec("base", ("A",)), SubsetSpec("odd", ("C",))]
        with pytest.raises(NotNested):
            train_boosting_branched(toy6, specs, RIDGE)

    def test_wider_subset_named_base_refused_before_fitting(self, toy6, monkeypatch):
        """The narrowest subset becomes member "base", so a wider subset of
        that name would repeat it; no member is fit first."""
        def no_fit(*args, **kwargs):
            raise AssertionError("fit was called")

        monkeypatch.setattr("routeboost.ensemble.fit", no_fit)
        specs = [SubsetSpec("base", ("A", "C")), SubsetSpec("narrow", ("A",))]
        with pytest.raises(InvalidModel) as raised:
            train_boosting_branched(toy6, specs, RIDGE)
        assert str(raised.value) == (
            "two members would be named 'base': the narrowest subset 'narrow' "
            "and the subset 'base'"
        )

    @pytest.mark.parametrize("kind", ["ridge", "tree"])
    def test_chain_trains_as_train_boosting(self, kind):
        config = LearnerConfig(kind=kind)
        ds, specs, chain = steel_chain(config=config)
        assert len(chain.members) == 3
        for model in (
            train_boosting_branched(ds, specs, config),
            train_proposed(ds, specs, config, "boosting"),
        ):
            assert model_to_dict(model) == model_to_dict(chain)

    def test_nested_branches_fit_the_wide_route_exactly(self):
        # y = 1 + 2a + 3b - c on the routes {a}, {a,b}, {a,c} and {a,b,c}:
        # the {a,b,c} member sees the residual of the three members below
        # it, so the near-unpenalized ridge sum is exact there.
        ds = nested_routes()
        specs = [SubsetSpec(f, tuple(f)) for f in ("a", "ab", "ac", "abc")]
        model = train_proposed(ds, specs, RIDGE, "boosting")
        values, _ = model.predict_dataset(ds)
        wide = ds.rows_with(("a", "b", "c"))
        assert wide.sum() > 50
        err = np.abs(values - ds.column("Y"))[wide]
        assert err.max() < 1e-8

    def test_equal_feature_sets_train_in_any_order(self):
        ds = nested_routes()
        base = SubsetSpec("base", ("a",))
        x, y = SubsetSpec("x", ("a", "b")), SubsetSpec("y", ("b", "a"))
        model = train_proposed(ds, [base, x, y], RIDGE, "boosting")
        assert [m.name for m in model.members] == ["base", "x", "y"]
        again = train_proposed(ds, [y, base, x], RIDGE, "boosting")
        assert model_to_dict(again) == model_to_dict(model)


class TestTrainBagging:
    def test_toy6_three_members(self, toy6):
        specs = subsets_by_grouped_signals(toy6, infer_signal_groups(toy6), True)
        model = train_bagging(toy6, specs, RIDGE)
        assert model.mode == "bagging"
        assert len(model.members) == 3

    def test_single_spec_equals_plain_model(self, toy6):
        spec = SubsetSpec("base", ("A",))
        model = train_bagging(toy6, [spec], RIDGE)
        sub = materialize(toy6, spec)
        plain = fit(RIDGE, sub.values[:, :1], sub.column("Y"), features=("A",))
        assert model.predict({"A": 3.0}) == plain.predict_one([3.0])

    def test_exclusive_spec_is_empty(self, toy6):
        with pytest.raises(EmptySubset):
            train_bagging(toy6, [SubsetSpec("both", ("C", "D"))], RIDGE)

    @pytest.mark.parametrize("mode", ["bogus", "Bagging"])
    def test_train_proposed_refuses_an_unknown_mode(self, toy6, mode):
        specs = subsets_by_grouped_signals(toy6, infer_signal_groups(toy6), True)
        with pytest.raises(ValueError, match=f"unknown ensemble mode {mode!r}"):
            train_proposed(toy6, specs, RIDGE, mode)


class TestApplicability:
    def test_prefix_selection_on_steel_model(self):
        ds, specs, model = steel_chain()
        narrow = set(model.members[0].features)
        balanced = set(model.members[1].features)
        assert model.applicable_members(balanced) == [0, 1]
        assert model.applicable_members(narrow) == [0]
        assert model.applicable_members({"PLTCM_1"}) == []

    def test_prefix_property_on_generated_rows(self):
        ds, specs, model = steel_chain(n=400, seed=9)
        for i in range(ds.n_rows):
            applicable = model.applicable_members(ds.present_signals(i))
            assert applicable == list(range(len(applicable)))

    @pytest.mark.parametrize("strategy", ["auto", "grouped"])
    def test_base_fires_wherever_any_member_fires(self, strategy):
        ds = generate(GenSpec(default_layout(), 3000, 4))
        specs, _ = build_subset_specs(ds, StrategyOptions(strategy=strategy))
        model = train_proposed(ds, specs, RIDGE, "boosting")
        values, fired = model.predict_dataset(ds)
        assert len(model.members) > 1 and not fired.all()
        assert np.array_equal(fired[:, 0], fired.any(axis=1))
        assert np.array_equal(np.isfinite(values), fired[:, 0])


class TestPredict:
    def test_boosting_telescopes(self):
        members = (
            constant_member("base", ("a",), 5.0),
            constant_member("r1", ("a", "b"), 0.5),
            constant_member("r2", ("a", "b", "c"), -0.2),
        )
        model = EnsembleModel("boosting", "Y", members)
        assert model.predict({"a": 1.0, "b": 1.0, "c": 1.0}) == 5.3
        assert model.predict({"a": 1.0, "b": 1.0}) == 5.5
        assert model.predict({"a": 1.0}) == 5.0

    def test_bagging_averages(self):
        members = (
            constant_member("m1", ("a",), 2.0),
            constant_member("m2", ("a",), 4.0),
        )
        model = EnsembleModel("bagging", "Y", members)
        assert model.predict({"a": 0.0}) == 3.0

    def test_no_applicable_model(self):
        model = EnsembleModel(
            "boosting", "Y", (constant_member("base", ("a",), 1.0),)
        )
        with pytest.raises(NoApplicableModel):
            model.predict({"z": 1.0})

    @pytest.mark.parametrize("mode", ["boosting", "bagging"])
    def test_contributions_are_the_fired_members_scores(self, mode):
        ds, specs, chain = steel_chain(n=300, seed=14)
        model = EnsembleModel(mode, chain.target, chain.members)
        contrib, fired = model.contributions(ds)
        values, fired_again = model.predict_dataset(ds)
        assert contrib.shape == fired.shape == (ds.n_rows, len(model.members))
        assert (fired == fired_again).all()
        assert (contrib[~fired] == 0.0).all()
        for k, member in enumerate(model.members):
            assert contrib[:, k].flags.c_contiguous
            rows = np.flatnonzero(fired[:, k])
            X = ds.values[np.ix_(rows, [ds.index(s) for s in member.features])]
            assert (contrib[rows, k] == member.learner.predict_matrix(X)).all()
        scored = fired.any(axis=1)
        total = np.zeros(ds.n_rows)
        for k in range(len(model.members)):
            total += contrib[:, k]
        if mode == "bagging":
            total[scored] /= fired.sum(axis=1)[scored]
        assert (values[scored] == total[scored]).all()
        assert np.isnan(values[~scored]).all()

    def test_bagging_permutation_invariant(self):
        rng = np.random.default_rng(12)
        members = tuple(
            constant_member(f"m{i}", ("a",), float(v))
            for i, v in enumerate(rng.normal(size=6))
        )
        model = EnsembleModel("bagging", "Y", members)
        shuffled = EnsembleModel("bagging", "Y", members[::-1])
        assert model.predict({"a": 0.0}) == pytest.approx(
            shuffled.predict({"a": 0.0}), abs=1e-12
        )


class TestInvariants:
    # Nested subsets that break a model invariant: (specs, the model's message).
    BAD_SUBSETS = {
        "repeated-name": (
            [SubsetSpec("a", ("A",)), SubsetSpec("x", ("A", "B")),
             SubsetSpec("x", ("A", "B", "C"))],
            "two members are named 'x'",
        ),
        # Boosting names the narrowest subset "base", but its own name counts.
        "narrowest-shares-a-name": (
            [SubsetSpec("x", ("A",)), SubsetSpec("x", ("A", "B"))],
            "two members are named 'x'",
        ),
        "reads-the-target": (
            [SubsetSpec("a", ("A",)), SubsetSpec("t", ("A", "Y"))],
            "member 't' reads the target 'Y'",
        ),
    }

    @pytest.mark.parametrize("case", BAD_SUBSETS)
    @pytest.mark.parametrize(
        "train", [train_boosting, train_boosting_branched, train_bagging],
        ids=lambda train: train.__name__,
    )
    def test_bad_subsets_refused_before_fitting(self, train, case, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit was called")

        monkeypatch.setattr("routeboost.ensemble.fit", no_fit)
        ds = dataset_from_columns(
            {"A": [1, 2, 3, 4], "B": [4, 1, 3, 2], "C": [2, 2, 5, 1], "Y": [1, 3, 2, 4]},
            target="Y",
        )
        specs, message = self.BAD_SUBSETS[case]
        with pytest.raises(InvalidModel) as raised:
            train(ds, specs, RIDGE)
        assert str(raised.value) == message

    @pytest.mark.parametrize("mode", ["boosting", "bagging"])
    def test_repeated_member_name(self, mode):
        members = (constant_member("m", ("a",), 1.0), constant_member("m", ("a", "b"), 2.0))
        with pytest.raises(InvalidModel, match="two members are named 'm'"):
            EnsembleModel(mode, "Y", members)

    @pytest.mark.parametrize("mode", ["boosting", "bagging"])
    def test_member_reads_target(self, mode):
        members = (constant_member("m", ("a",), 1.0), constant_member("n", ("a", "Y"), 2.0))
        with pytest.raises(InvalidModel, match="member 'n' reads the target 'Y'"):
            EnsembleModel(mode, "Y", members)


class TestNanMeansAbsent:
    """A NaN value in a scored row marks its signal absent, as in a table."""

    def test_nested_chain_row(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=40), rng.normal(size=40)
        ds = Dataset(("A", "B", "Y"), np.column_stack([a, b, a + 2 * b]), "Y")
        specs = [SubsetSpec("a", ("A",)), SubsetSpec("ab", ("A", "B"))]
        model = train_boosting(ds, specs, RIDGE)
        row = {"A": 0.5, "B": float("nan")}
        values, fired = model.predict_dataset(Dataset(("A", "B"), [[0.5, np.nan]]))
        value, names = model.predict_with_members(row)
        assert names == ["base"] and fired.tolist() == [[True, False]]
        assert np.float64(value).tobytes() == values[0].tobytes()
        assert model.predict(row) == model.predict({"A": 0.5})

    @settings(max_examples=100, deadline=None)
    @given(scoring_problems())
    def test_rows_with_nan_entries_match_the_table(self, problem):
        model, table, _ = problem
        values, fired = model.predict_dataset(table)
        names = [m.name for m in model.members]
        for i, cells in enumerate(table.values.tolist()):
            row = dict(zip(table.signals, cells))
            row.pop(model.target, None)
            try:
                value, fired_names = model.predict_with_members(row)
            except NoApplicableModel:
                assert np.isnan(values[i]) and not fired[i].any()
                continue
            assert np.float64(value).tobytes() == values[i].tobytes()
            assert [n for n, f in zip(names, fired[i]) if f] == fired_names


# A row's values as a caller may hand them in: each draw as the type.
VALUE_TYPES = {
    "float": float,
    "float64": np.float64,
    "float32": np.float32,
    "float16": np.float16,
    "int": lambda v: int(round(v)),
}


class TestRowValueTypes:
    """``predict_with_members`` reads a row's values as floats, so any
    value type scores with the bits ``predict_one`` and ``predict_dataset``
    give the same values; a ``None`` value is absent, as it is in
    ``dataset_from_columns``."""

    @pytest.mark.parametrize("as_type", VALUE_TYPES.values(), ids=VALUE_TYPES)
    @pytest.mark.parametrize("mode", ["boosting", "bagging"])
    @pytest.mark.parametrize("kind", ["mean", "ridge", "tree"])
    def test_every_value_type_scores_as_floats(self, kind, mode, as_type):
        ds = nested_routes()
        specs = [SubsetSpec(name, tuple(name)) for name in ("a", "ab", "ac", "abc")]
        model = train_proposed(ds, specs, LearnerConfig(kind=kind), mode)
        rng = np.random.default_rng(6)
        for i, draw in enumerate(rng.normal(size=(25, 3)) * 3.0):
            for present in ("a", "ab", "ac", "abc"):
                row = {s: as_type(v) for s, v in zip("abc", draw) if s in present}
                if i % 2:  # odd draws give their absent signals as None
                    row.update((s, None) for s in "abc" if s not in present)
                value, names = model.predict_with_members(row)

                table = dataset_from_columns({s: [row.get(s)] for s in "abc"})
                values, fired = model.predict_dataset(table)
                assert names == [m.name for m, f in zip(model.members, fired[0]) if f]
                one = 0.0
                for member in model.members:
                    if member.name in names:
                        x = [row[s] for s in member.features]
                        one += member.learner.predict_one(x)
                if mode == "bagging":
                    one /= len(names)
                assert type(value) is float
                assert value == values[0] == one, (present, row)


class TestConventional:
    def test_toy6_has_no_complete_cases(self, toy6):
        with pytest.raises(EmptyTrainingSet):
            train_conventional(toy6, RIDGE)

    def test_complete_dataset_equals_plain_fit(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 2))
        y = X @ [1.0, -2.0] + rng.normal(size=30)
        ds = dataset_from_columns(
            {"a": X[:, 0], "b": X[:, 1], "Y": y}, target="Y"
        )
        model = train_conventional(ds, RIDGE)
        plain = fit(RIDGE, X, y, features=("a", "b"))
        x = {"a": 0.5, "b": -0.5}
        assert model.predict(x) == plain.predict_one([0.5, -0.5])

    def test_steel_data_trains_on_wide_rows_only(self):
        layout = default_layout()
        ds = generate(GenSpec(layout, 500, 2))
        model = train_conventional(ds, RIDGE)
        wide_signals = layout.route_signals(layout.routes[2])
        n_wide = sum(
            1
            for i in range(ds.n_rows)
            if ds.present_signals(i) - {"Y"} == wide_signals
        )
        assert (~np.isnan(ds.values)).all(axis=1).sum() == n_wide
        assert len(model.members) == 1
        assert set(model.members[0].features) == wide_signals


class TestEvaluate:
    def make_stratum_dataset(self, y_values):
        return dataset_from_columns(
            {"a": [1.0] * len(y_values), "Y": list(y_values)}, target="Y"
        )

    def test_perfect_predictor(self, toy6):
        specs = subsets_by_grouped_signals(toy6, infer_signal_groups(toy6), True)
        model = train_boosting_branched(toy6, specs, RIDGE)
        metrics = evaluate(model, toy6, specs)
        assert metrics.overall.mae == pytest.approx(0.0, abs=1e-5)
        assert metrics.overall.r2 == pytest.approx(1.0, abs=1e-9)

    def test_stratum_mean_predictor_scores_zero(self):
        ds = self.make_stratum_dataset([1.0, 2.0, 3.0, 6.0])
        spec = SubsetSpec("all", ("a",))
        model = train_bagging(ds, [spec], LearnerConfig(kind="mean"))
        metrics = evaluate(model, ds, [spec])
        assert abs(metrics.stratum("all").r2) <= 1e-12

    def test_constant_target_r2_undefined(self):
        ds = self.make_stratum_dataset([4.0, 4.0, 4.0])
        spec = SubsetSpec("all", ("a",))
        model = train_bagging(ds, [spec], LearnerConfig(kind="mean"))
        metrics = evaluate(model, ds, [spec])
        row = metrics.stratum("all")
        assert row.r2 is None
        assert row.mae == 0.0

    def test_rows_without_target_are_counted(self):
        ds = dataset_from_columns(
            {"a": [1.0, 2.0, 3.0], "Y": [1.0, None, 3.0]}, target="Y"
        )
        spec = SubsetSpec("all", ("a",))
        model = train_bagging(ds, [spec], LearnerConfig(kind="mean"))
        metrics = evaluate(model, ds, [spec])
        assert metrics.skipped_missing_target == 1
        assert metrics.overall.n == 2

    def test_most_specific_stratum_wins(self):
        ds, specs, model = steel_chain(n=300, seed=14)
        metrics = evaluate(model, ds, specs)
        counts = {name: row.n for name, row in metrics.strata}
        # Strata are disjoint: every evaluated row lands in exactly one.
        assert sum(counts.values()) == metrics.overall.n == ds.n_rows

    def test_no_model_rows_reported_not_scored(self, toy6):
        model = EnsembleModel(
            "boosting", "Y", (constant_member("base", ("C",), 1.0),)
        )
        spec = SubsetSpec("everything", ("A",))
        metrics = evaluate(model, toy6, [spec])
        row = metrics.stratum("everything")
        assert row.n == 3  # C-rows predictable, D-rows have no applicable model
        assert row.n_no_model == 3

    def test_non_finite_prediction_raises(self):
        ds = dataset_from_columns(
            {"a": [1.0, 1e308, 2.0], "b": [2.0, -1e308, None], "Y": [1.0, 2.0, 3.0]},
            target="Y",
        )
        learner = RidgeLearner(("a", "b"), 0.0, [10.0, 10.0])
        model = EnsembleModel("boosting", "Y", (EnsembleMember("base", ("a", "b"), learner),))
        with np.errstate(all="ignore"):
            values, fired = model.predict_dataset(ds)
            assert fired[:, 0].tolist() == [True, True, False]
            assert values[0] == 30.0 and np.isnan(values[1]) and np.isnan(values[2])
            with pytest.raises(NonFinite, match="row 1: the prediction nan is not finite"):
                evaluate(model, ds, [SubsetSpec("all", ("a",))])

    def test_overflowing_metrics_raise(self):
        ds = self.make_stratum_dataset([1e308, -1e308, 1e308])
        model = EnsembleModel("bagging", "Y", (constant_member("m", ("a",), 0.0),))
        with np.errstate(all="ignore"), pytest.raises(NonFinite, match="overflow"):
            evaluate(model, ds, [SubsetSpec("all", ("a",))])

    def test_target_other_than_the_models_rejected(self, toy6):
        model = EnsembleModel("boosting", "Y", (constant_member("base", ("A",), 1.0),))
        other = Dataset(toy6.signals, toy6.values, "C")
        with pytest.raises(ValueError, match="the model predicts 'Y', not the target 'C'"):
            evaluate(model, other, [SubsetSpec("all", ("A",))])

    def test_repeated_stratum_name_rejected(self, toy6):
        model = EnsembleModel("boosting", "Y", (constant_member("base", ("A",), 1.0),))
        strata = [SubsetSpec("s", ("A",)), SubsetSpec("t", ("C",)), SubsetSpec("s", ("A", "C"))]
        with pytest.raises(ValueError, match="repeated stratum name 's'"):
            evaluate(model, toy6, strata)


class TestSplit:
    def test_deterministic_and_disjoint(self):
        train, test = train_test_split_rows(100, 0.3, 42)
        train2, test2 = train_test_split_rows(100, 0.3, 42)
        assert np.array_equal(train, train2) and np.array_equal(test, test2)
        assert len(test) == 30
        assert set(train.tolist()).isdisjoint(test.tolist())
        assert sorted(train.tolist() + test.tolist()) == list(range(100))

    def test_different_seeds_differ(self):
        a = train_test_split_rows(100, 0.3, 1)[1]
        b = train_test_split_rows(100, 0.3, 2)[1]
        assert not np.array_equal(a, b)


class TestPersistence:
    def test_round_trip(self, toy6, tmp_path):
        specs = subsets_by_grouped_signals(toy6, infer_signal_groups(toy6), True)
        model = train_boosting_branched(toy6, specs, RIDGE)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert model_to_dict(back) == model_to_dict(model)
        for i in range(toy6.n_rows):
            row = toy6.row_values(i)
            row.pop("Y")
            assert back.predict(row) == model.predict(row)

    def test_schema(self, toy6):
        spec = SubsetSpec("base", ("A",))
        model = train_boosting(toy6, [spec], RIDGE)
        doc = model_to_dict(model)
        assert set(doc) == {"mode", "target", "members"}
        assert doc["members"][0]["name"] == "base"
        assert model_from_dict(doc).target == "Y"

    def test_tree_too_deep_to_read_is_input_error(self):
        node = {"value": 0.0, "n_rows": 1}
        for _ in range(3000):
            node = {"feature": 0, "threshold": 0.5, "left": node, "right": node}
        learner = {"kind": "tree", "features": ["A"], "parameters": {"root": node}}
        doc = {
            "mode": "boosting",
            "target": "Y",
            "members": [{"name": "base", "features": ["A"], "learner": learner}],
        }
        with pytest.raises(InputError, match="malformed model"):
            model_from_dict(doc)

    def test_tree_with_a_shared_node_is_input_error(self):
        # 2**18 paths through 18 node documents: a reader that walks each
        # path returns a tree of 262,144 leaves instead of refusing it.
        node = {"value": 0.0, "n_rows": 1}
        for _ in range(18):
            node = {"feature": 0, "threshold": 0.5, "left": node, "right": node}
        learner = {"kind": "tree", "features": ["A"], "parameters": {"root": node}}
        doc = {
            "mode": "boosting",
            "target": "Y",
            "members": [{"name": "base", "features": ["A"], "learner": learner}],
        }
        with pytest.raises(InputError, match="shares a node"):
            model_from_dict(doc)


class TestPickleAndCopy:
    """A model pickles and deep-copies with members of every arity.

    A copy must score each row as the original does, bit for bit, with
    the same fired names. Members read no feature, one feature and two
    features, so every arity of a member's keys is scored.
    """

    @staticmethod
    def table():
        rng = np.random.default_rng(31)
        a, b = rng.normal(size=60), rng.normal(size=60)
        values = np.column_stack([a, b, a - 2 * b + rng.normal(size=60)])
        values[:, :2][rng.random(size=(60, 2)) < 0.3] = np.nan
        return Dataset(("A", "B", "Y"), values, "Y")

    @staticmethod
    def member(name, features, kind, table):
        rows = table.rows_with(features + ("Y",))
        X = table.values[np.ix_(rows, [table.index(s) for s in features])]
        config = LearnerConfig(kind=kind, tree_min_leaf=3)
        learner = fit(config, X, table.column("Y")[rows], features=features)
        return EnsembleMember(name, features, learner)

    def models(self, table):
        zero = self.member("base", (), "mean", table)
        one = self.member("a", ("A",), "ridge", table)
        yield EnsembleModel(
            "boosting", "Y", (zero, one, self.member("ab", ("A", "B"), "tree", table))
        )
        yield EnsembleModel(
            "bagging", "Y", (one, self.member("b", ("B",), "tree", table))
        )

    def test_copies_score_as_the_original(self):
        table = self.table()
        for model in self.models(table):
            assert len(model.members[0].features) < 2
            copies = [pickle.loads(pickle.dumps(model)), copy.deepcopy(model)]
            values, fired = model.predict_dataset(table)
            names = [m.name for m in model.members]
            unscored = 0
            for i, cells in enumerate(table.values.tolist()):
                row = dict(zip(("A", "B"), cells))
                try:
                    value, fired_names = model.predict_with_members(row)
                except NoApplicableModel:
                    assert not fired[i].any()
                    for twin in copies:
                        with pytest.raises(NoApplicableModel):
                            twin.predict_with_members(row)
                    unscored += 1
                    continue
                assert np.float64(value).tobytes() == values[i].tobytes()
                assert [n for n, f in zip(names, fired[i]) if f] == fired_names
                for twin in copies:
                    twin_value, twin_names = twin.predict_with_members(row)
                    assert np.float64(twin_value).tobytes() == values[i].tobytes()
                    assert twin_names == fired_names
            assert unscored < table.n_rows
            for twin in copies:
                assert model_to_dict(twin) == model_to_dict(model)
                twin_values, twin_fired = twin.predict_dataset(table)
                assert twin_values.tobytes() == values.tobytes()
                assert np.array_equal(twin_fired, fired)


class TestRowsAreReadByName:
    """A member reads its inputs from a row mapping by name. The row with
    its keys reordered, with keys that no member reads, or as a read-only
    mapping scores as the row does, bit for bit, with the same names."""

    @staticmethod
    def variants(row):
        yield dict(reversed(row.items()))
        yield {"Z": 7.0, **row, "Y": 1e300, "C": float("nan")}
        yield types.MappingProxyType(row)

    def models(self, table):
        yield from TestPickleAndCopy().models(table)
        member = TestPickleAndCopy.member
        yield EnsembleModel("bagging", "Y", (
            member("ab", ("A", "B"), "ridge", table), member("b", ("B",), "ridge", table)
        ))

    def test_variants_score_as_the_row(self):
        table = TestPickleAndCopy.table()
        kinds = set()
        for model in self.models(table):
            kinds.update(m.learner.kind for m in model.members)
            for cells in table.values.tolist():
                row = dict(zip(("A", "B"), cells))
                try:
                    value, names = model.predict_with_members(row)
                except NoApplicableModel:
                    for variant in self.variants(row):
                        with pytest.raises(NoApplicableModel):
                            model.predict_with_members(variant)
                    continue
                for variant in self.variants(row):
                    twin_value, twin_names = model.predict_with_members(variant)
                    assert np.float64(twin_value).tobytes() == np.float64(value).tobytes()
                    assert twin_names == names
        assert kinds == {"mean", "ridge", "tree"}


class TestEqualInformationEquivalence:
    def test_single_spec_boosting_matches_conventional(self):
        layout = default_layout()
        ds = generate(GenSpec(layout, 800, 21))
        narrow = SubsetSpec(
            "narrow", ("PLTCM_1", "PLTCM_2", "CAL_1", "CAL_2")
        )
        sub = materialize(ds, narrow)
        boosted = train_boosting(sub, [narrow], RIDGE)
        conventional = train_conventional(sub, RIDGE)
        for i in range(0, sub.n_rows, 7):
            row = sub.row_values(i)
            row.pop("Y")
            assert boosted.predict(row) == conventional.predict(row)
        mb = evaluate(boosted, sub, [narrow])
        mc = evaluate(conventional, sub, [narrow])
        assert abs(mb.overall.mae - mc.overall.mae) <= 1e-12
        assert abs(mb.overall.r2 - mc.overall.r2) <= 1e-12


TRAIN_PEAK = {"ridge": 1.35, "tree": 1.6}


@pytest.mark.parametrize("kind", sorted(TRAIN_PEAK))
def test_training_peak_is_pinned(kind):
    """The tracemalloc peak of training a 12-route nested chain, over the
    table's value bytes (25 columns), at 4,000 and 16,000 rows (seed 1).

    Every member but the last has a child, so the stored parent columns
    cost 8 bytes × rows × (members with children), here 0.44 of the
    value bytes, held to the end of training. Measured with Python 3.11
    and NumPy 2.4: ridge 1.22 and 1.08, trees 1.46 and 1.39 (1.28 / 1.13
    and 1.33 / 1.14 when every parent was scored on the whole table again
    for each member). ``TRAIN_PEAK`` leaves at least 0.13; keeping every
    member's training matrix reads over 3.1.
    """
    config = LearnerConfig(kind=kind)
    for n_rows in (4_000, 16_000):
        ds, specs = route_plant(nested_chain(12), n_rows, 1)
        tracemalloc.start()
        try:
            model = train_proposed(ds, specs, config, "boosting")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model.members) == 12
        assert peak / ds.values.nbytes <= TRAIN_PEAK[kind]
