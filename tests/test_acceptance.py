"""Acceptance gate: one test per release criterion, each printing a
pass line with the measured numbers (run with -s or -v to see them)."""

import time

import numpy as np
import pytest

from routeboost.analysis import infer_signal_groups
from routeboost.benchmark import benchmark_learner_config, run_benchmark
from routeboost.data import dataset_from_columns, write_csv
from routeboost.ensemble import (
    evaluate,
    train_bagging,
    train_boosting,
    train_boosting_branched,
    train_conventional,
)
from routeboost.errors import (
    EmptySubset,
    EmptyTrainingSet,
    NoBaseSignals,
    NoQualifyingRoutes,
)
from routeboost.learners import LearnerConfig, fit
from routeboost.subsetting import (
    StrategyOptions,
    SubsetSpec,
    materialize,
    subsets_by_common_routes,
    subsets_by_grouped_signals,
)
from routeboost.synthgen import GenSpec, default_layout, generate, with_noise_sigma
from tests.conftest import random_masked_dataset
from tests.test_learners import ridge_oracle

RIDGE = LearnerConfig(kind="ridge")


def steel_options(layout):
    return StrategyOptions("routes", *layout.route_strategy())


def train_steel_chain(n, seed):
    layout = default_layout()
    ds = generate(GenSpec(layout, n, seed))
    from routeboost.subsetting import build_subset_specs

    specs, _ = build_subset_specs(ds, steel_options(layout))
    return layout, ds, specs, train_boosting(ds, specs, RIDGE)


def test_criterion_1_subset_purity_property():
    """Every materialized subset from either strategy has zero missing cells."""
    rng = np.random.default_rng(20240901)
    start = time.perf_counter()
    n_datasets = 1000
    n_materialized = 0
    for _ in range(n_datasets):
        ds = random_masked_dataset(rng)
        groups = infer_signal_groups(ds)
        specs = []
        try:
            specs += subsets_by_grouped_signals(ds, groups, True)
        except NoBaseSignals:
            pass
        try:
            specs += subsets_by_common_routes(
                ds, groups, None, min_support=0.2, uncommon_policy="merge_common"
            )
        except NoQualifyingRoutes:
            pass
        for spec in specs:
            try:
                sub = materialize(ds, spec)
            except EmptySubset:
                continue
            assert not np.isnan(sub.values).any(), f"missing cell in {spec}"
            n_materialized += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"purity sweep took {elapsed:.1f}s"
    print(
        f"criterion 1 PASS: {n_datasets} datasets, {n_materialized} materializations, "
        f"0 missing cells, {elapsed:.1f}s"
    )


def test_criterion_2_complete_case_collapse(toy6):
    """Exclusive branches kill the complete-case baseline, not the ensemble."""
    with pytest.raises(EmptyTrainingSet):
        train_conventional(toy6, RIDGE)
    specs = subsets_by_grouped_signals(toy6, infer_signal_groups(toy6), True)
    for model in (
        train_boosting_branched(toy6, specs, RIDGE),
        train_bagging(toy6, specs, RIDGE),
    ):
        assert len(model.members) == 3
        for i in range(toy6.n_rows):
            row = toy6.row_values(i)
            row.pop("Y")
            model.predict(row)  # must not raise
    print("criterion 2 PASS: baseline collapses, 3-member ensembles predict all 6 rows")


def test_criterion_3_equal_information_equivalence():
    """A one-spec chain and the baseline are bit-identical on equal data."""
    layout = default_layout()
    ds = generate(GenSpec(layout, 2000, 77))
    narrow = SubsetSpec("narrow", ("PLTCM_1", "PLTCM_2", "CAL_1", "CAL_2"))
    sub = materialize(ds, narrow)
    boosted = train_boosting(sub, [narrow], RIDGE)
    conventional = train_conventional(sub, RIDGE)
    for i in range(sub.n_rows):
        row = sub.row_values(i)
        row.pop("Y")
        assert boosted.predict(row) == conventional.predict(row)  # bit-identical
    mb = evaluate(boosted, sub, [narrow])
    mc = evaluate(conventional, sub, [narrow])
    assert abs(mb.overall.mae - mc.overall.mae) <= 1e-12
    assert abs(mb.overall.r2 - mc.overall.r2) <= 1e-12
    print(
        f"criterion 3 PASS: {sub.n_rows} bit-identical predictions, "
        f"MAE/R2 agree to 1e-12"
    )


def test_criterion_4_qualitative_benchmark_reproduction():
    """Wide > balanced > narrow for the ensemble; baseline loses on wide."""
    start = time.perf_counter()
    layout = default_layout()
    ds = generate(GenSpec(layout, 10000, 42))
    report = run_benchmark(
        ds,
        steel_options(layout),
        benchmark_learner_config("ridge"),
        mode="boosting",
        seed=42,
        test_fraction=0.3,
    )
    prop = {name: row for name, row in report.proposed.metrics.strata}
    conv = {name: row for name, row in report.conventional.metrics.strata}
    r2 = {k: prop[k].r2 for k in ("narrow", "balanced", "wide")}
    assert r2["wide"] > r2["balanced"] > r2["narrow"], f"ordering violated: {r2}"
    gap = prop["wide"].r2 - conv["wide"].r2
    assert gap >= 0.05, f"wide R2 gap {gap:.3f} below 0.05"
    assert prop["wide"].mae < conv["wide"].mae
    # Regression baselines recorded from the first verified run; the wide
    # tolerance only guards against silent drift, not exact reproduction.
    baselines = {
        ("narrow", "r2"): 0.523546,
        ("balanced", "r2"): 0.634438,
        ("wide", "r2"): 0.705080,
    }
    for (stratum, _), expected in baselines.items():
        assert prop[stratum].r2 == pytest.approx(expected, abs=0.02)
    assert conv["wide"].r2 == pytest.approx(0.625345, abs=0.02)
    assert prop["wide"].mae == pytest.approx(1.386183, abs=0.05)
    assert conv["wide"].mae == pytest.approx(1.553677, abs=0.05)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"benchmark took {elapsed:.1f}s"
    print(
        "criterion 4 PASS: proposed R2 n/b/w = "
        f"{r2['narrow']:.3f}/{r2['balanced']:.3f}/{r2['wide']:.3f}, "
        f"conventional wide R2 = {conv['wide'].r2:.3f} (gap {gap:.3f}), "
        f"wide MAE {prop['wide'].mae:.3f} < {conv['wide'].mae:.3f}, {elapsed:.1f}s"
    )


def test_criterion_4_holds_on_average_over_seeds():
    """Criterion 4's orderings on means over 20 seeds, which no single
    seed's draws can decide."""
    layout = default_layout()
    seeds = range(20)
    readings = []
    for seed in seeds:
        report = run_benchmark(
            generate(GenSpec(layout, 10000, seed)),
            steel_options(layout),
            benchmark_learner_config("ridge"),
            mode="boosting",
            seed=seed,
            test_fraction=0.3,
        )
        prop = dict(report.proposed.metrics.strata)
        conv = dict(report.conventional.metrics.strata)
        readings.append([
            prop["narrow"].r2, prop["balanced"].r2, prop["wide"].r2, conv["wide"].r2,
            prop["wide"].mae, conv["wide"].mae,
        ])
    narrow, balanced, wide, conv_wide, wide_mae, conv_wide_mae = np.mean(readings, axis=0)
    assert wide > balanced > narrow, f"ordering violated: {narrow, balanced, wide}"
    gap = wide - conv_wide
    assert gap >= 0.05, f"mean wide R2 gap {gap:.3f} below 0.05"
    assert wide_mae < conv_wide_mae
    print(
        f"criterion 4 over {len(seeds)} seeds: mean proposed R2 n/b/w = "
        f"{narrow:.3f}/{balanced:.3f}/{wide:.3f}, wide gap {gap:.3f}, "
        f"wide MAE {wide_mae:.3f} < {conv_wide_mae:.3f}"
    )


def test_criterion_5_ols_oracle_equivalence():
    """Ridge at 1e-8 matches a brute-force normal-equations oracle to 1e-8."""
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(5):
        X = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        model = fit(LearnerConfig(kind="ridge", ridge_lambda=1e-8), X, y)
        b, w = ridge_oracle(X, y, 1e-8)
        worst = max(
            worst, abs(model.intercept - b), float(np.max(np.abs(model.weights - w)))
        )
    assert worst <= 1e-8
    print(f"criterion 5 PASS: max |coef - oracle| = {worst:.2e}")


def test_criterion_6_boosting_telescoping():
    """Prediction equals the exact running sum of applicable member outputs."""
    layout, _, specs, model = train_steel_chain(2000, 11)
    rows_ds = generate(GenSpec(layout, 1000, 1234))
    checked = 0
    for i in range(rows_ds.n_rows):
        row = rows_ds.row_values(i)
        row.pop("Y", None)
        present = set(row)
        applicable = model.applicable_members(present)
        expected = 0.0
        for k in applicable:
            member = model.members[k]
            expected += member.learner.predict_one([row[s] for s in member.features])
        assert model.predict(row) == expected  # zero tolerance
        checked += 1
    assert checked == 1000
    print(f"criterion 6 PASS: {checked} rows telescope exactly")


def test_criterion_7_prefix_applicability():
    """Applicable members of a chain model always form a prefix."""
    layout, _, specs, model = train_steel_chain(1500, 5)
    total = 0
    for seed in (0, 42, 2024):
        ds = generate(GenSpec(layout, 800, seed))
        for i in range(ds.n_rows):
            applicable = model.applicable_members(ds.present_signals(i))
            assert applicable == list(range(len(applicable)))
            total += 1
    print(f"criterion 7 PASS: prefix property held on {total} generated rows")


def test_criterion_8_generator_determinism_and_mechanism(tmp_path):
    """Bit-identical output, route-exact missingness, coefficient recovery."""
    layout = default_layout()
    spec = GenSpec(layout, 1000, 7)
    a, b = generate(spec), generate(spec)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, pa)
    write_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()

    route_sets = [layout.route_signals(r) | {"Y"} for r in layout.routes]
    for i in range(a.n_rows):
        assert a.present_signals(i) in route_sets

    quiet = with_noise_sigma(layout, 0.0)
    ds = generate(GenSpec(quiet, 2500, 99))
    wide_features = tuple(quiet.signal_names())
    sub = materialize(ds, SubsetSpec("wide", wide_features))
    model = fit(
        LearnerConfig(kind="ridge", ridge_lambda=1e-8),
        np.column_stack([sub.column(f) for f in wide_features]),
        sub.column("Y"),
        features=wide_features,
    )
    coeffs = quiet.target_rule.coefficients
    worst = max(
        abs(w - coeffs[name]) for name, w in zip(wide_features, model.weights)
    )
    assert worst <= 1e-6
    print(
        f"criterion 8 PASS: bit-identical CSV, route-exact availability, "
        f"max coefficient error {worst:.2e}"
    )


def test_criterion_9_metric_units():
    """Perfect predictor, stratum-mean predictor, constant-target stratum."""
    ds = dataset_from_columns(
        {"a": [1.0, 2.0, 3.0, 4.0], "Y": [1.0, 2.0, 3.0, 6.0]}, target="Y"
    )
    spec = SubsetSpec("all", ("a",))
    perfect = train_boosting(ds, [spec], LearnerConfig(kind="tree", tree_min_leaf=1))
    m = evaluate(perfect, ds, [spec]).stratum("all")
    assert m.mae == 0.0 and m.r2 == 1.0

    mean_model = train_bagging(ds, [spec], LearnerConfig(kind="mean"))
    m = evaluate(mean_model, ds, [spec]).stratum("all")
    assert abs(m.r2) <= 1e-12

    const = dataset_from_columns({"a": [1.0, 2.0, 3.0], "Y": [4.0, 4.0, 4.0]}, target="Y")
    m = evaluate(
        train_bagging(const, [spec], LearnerConfig(kind="mean")), const, [spec]
    ).stratum("all")
    assert m.r2 is None and m.mae == 0.0
    print("criterion 9 PASS: MAE 0 / R2 1, stratum-mean R2 0, constant target undefined")
