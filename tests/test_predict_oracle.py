"""The columnar scoring path against the per-row loops it replaced.

``evaluate`` must report exactly what the row loop in
``tests/predict_oracle.py`` reports, ``routeboost predict`` must write the
same bytes as both of its writers there, and
``EnsembleModel.predict_dataset`` must give every row the value and member
names the scalar ``predict_with_members`` gives it.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeboost.benchmark import train_proposed
from routeboost.cli import main
from routeboost.data import Dataset, write_csv
from routeboost.ensemble import (
    evaluate,
    load_model,
    save_model,
    train_bagging,
    train_boosting,
    train_boosting_branched,
    train_conventional,
)
from routeboost.errors import NoApplicableModel
from routeboost.subsetting import SubsetSpec
from routeboost.synthgen import GenSpec, default_layout, generate
from tests import predict_oracle
from tests.test_train_oracle import LEARNER_IDS, LEARNERS, plant


def assert_rows_match(model, table):
    """Per row, ``predict_dataset`` against ``predict_with_members``."""
    values, fired = model.predict_dataset(table)
    assert values.shape == (table.n_rows,)
    assert fired.shape == (table.n_rows, len(model.members))
    names = [m.name for m in model.members]
    for i in range(table.n_rows):
        row = table.row_values(i)
        row.pop(model.target, None)
        try:
            value, fired_names = model.predict_with_members(row)
        except NoApplicableModel:
            assert np.isnan(values[i]) and not fired[i].any()
            continue
        assert np.float64(value).tobytes() == values[i].tobytes()
        assert [n for n, f in zip(names, fired[i]) if f] == fired_names


def assert_evaluate_matches(model, dataset, strata):
    new = evaluate(model, dataset, strata)
    old = predict_oracle.evaluate(model, dataset, strata)
    assert new.to_dict() == old.to_dict()
    assert new == old


@st.composite
def scoring_problems(draw):
    """A model trained on complete rows plus a holey table to score.

    The table may lack one of the model's columns, has rows where no
    member applies, and the strata may name signals it does not have.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 6))
    signals = tuple(f"s{j}" for j in range(p)) + ("Y",)
    scale = 10.0 ** draw(st.integers(-2, 3))
    train = Dataset(signals, rng.normal(size=(3 * p + 12, p + 1)) * scale, "Y")

    order = [signals[j] for j in rng.permutation(p)]
    kind = draw(st.sampled_from(["chain", "branched", "bagging", "conventional"]))
    learner = draw(st.sampled_from(LEARNERS))
    if kind == "chain":
        sizes = sorted(set(rng.integers(1, p + 1, size=draw(st.integers(1, 4)))))
        specs = [SubsetSpec(f"m{k}", tuple(order[:n])) for k, n in enumerate(sizes)]
        model = train_boosting(train, specs, learner)
    elif kind == "branched":
        b = int(rng.integers(1, p + 1))
        branches = [
            order[:b] + [s for s in order[b:] if rng.random() < 0.6]
            for _ in range(draw(st.integers(0, 3)))
        ]
        feature_sets = [order[:b]] + [f for f in branches if len(f) > b]
        specs = [SubsetSpec(f"m{k}", tuple(f)) for k, f in enumerate(feature_sets)]
        model = train_boosting_branched(train, specs, learner)
    elif kind == "bagging":
        specs = [
            SubsetSpec(f"m{k}", tuple(s for s in order if rng.random() < 0.5) or (order[0],))
            for k in range(draw(st.integers(1, 4)))
        ]
        model = train_bagging(train, specs, learner)
    else:
        specs = [SubsetSpec("all", tuple(order))]
        model = train_conventional(train, learner)

    n = draw(st.integers(0, 80))
    values = rng.normal(size=(n, p + 1)) * scale
    values[rng.random(size=(n, p + 1)) < draw(st.floats(0.0, 0.7))] = np.nan
    table = Dataset(signals, values, "Y")
    if p > 1 and draw(st.booleans()):
        dropped = order[int(rng.integers(p))]
        table = table.project(s for s in signals if s != dropped)
    strata = list(specs)
    if draw(st.booleans()):
        strata.append(SubsetSpec("unknown", (order[0], "zz")))
    if draw(st.booleans()):
        strata.append(SubsetSpec("any", (order[-1],)))
    return model, table, strata


@settings(max_examples=200, deadline=None)
@given(scoring_problems())
def test_random_problems_match_oracle(problem):
    model, table, strata = problem
    assert_rows_match(model, table)
    assert_evaluate_matches(model, table, strata)


@pytest.mark.parametrize("learner", LEARNERS, ids=LEARNER_IDS)
@pytest.mark.parametrize("mode", ["boosting", "bagging", "conventional"])
@pytest.mark.parametrize("strategy", ["grouped", "routes"])
def test_plant_cli_outputs_match_oracle(tmp_path, strategy, mode, learner):
    ds, spec_sets = plant(1500, 42)
    specs = spec_sets[strategy]
    if mode == "conventional":
        model = train_conventional(ds, learner)
    else:
        model = train_proposed(ds, specs, learner, mode)
    assert_rows_match(model, ds)
    assert_evaluate_matches(model, ds, specs)

    data, model_path = tmp_path / "plant.csv", tmp_path / "model.json"
    write_csv(ds, data)
    save_model(model, model_path)
    out, expected = tmp_path / "pred.csv", tmp_path / "oracle.csv"
    assert main(
        ["predict", "--model", str(model_path), "--data", str(data), "--out", str(out)]
    ) == 0
    predict_oracle.write_predictions(model, ds, expected)
    assert out.read_bytes() == expected.read_bytes()


# Route segment names, which become member names, that a CSV field must
# quote: a comma, a double quote, both.
QUOTED_NAMES = ['narrow, short', 'balanced "mid"', 'wide, "all" units']


@pytest.mark.parametrize("learner", ["ridge", "tree"])
@pytest.mark.parametrize("mode", ["boosting", "bagging"])
def test_predict_writes_the_per_row_writers_bytes(tmp_path, mode, learner):
    """``routeboost predict`` against the per-row writer, on a table with
    unscored rows and member names that need quoting."""
    layout = default_layout()
    ds = generate(GenSpec(layout, 1500, 3))
    groups = {u.name: [s.name for s in u.signals] for u in layout.units}
    segments = {n: list(r.units) for n, r in zip(QUOTED_NAMES, layout.routes)}
    config, data = tmp_path / "config.json", tmp_path / "plant.csv"
    config.write_text(
        json.dumps({"strategy": "routes", "groups": groups, "segments": segments}),
        encoding="utf-8",
    )
    write_csv(ds, data)
    model_path = tmp_path / "model.json"
    assert main(
        [
            "train", "--config", str(config), "--data", str(data), "--target", "Y",
            "--mode", mode, "--learner", learner, "--model-out", str(model_path),
        ]
    ) == 0
    model = load_model(model_path)

    # Every fifth row keeps only its target, so no member fires there;
    # every fifth row from the second lacks the first member's first input.
    values = ds.values.copy()
    inputs = [j for j, s in enumerate(ds.signals) if s != ds.target]
    values[::5, inputs] = np.nan
    values[1::5, ds.index(model.members[0].features[0])] = np.nan
    table = Dataset(ds.signals, values, ds.target)
    write_csv(table, data)

    out, expected = tmp_path / "pred.csv", tmp_path / "oracle.csv"
    assert main(
        ["predict", "--model", str(model_path), "--data", str(data), "--out", str(out)]
    ) == 0
    predict_oracle.write_predictions_per_row(model, table, expected)
    assert out.read_bytes() == expected.read_bytes()
    text = out.read_text(encoding="utf-8")
    assert ",,no-applicable-model\n" in text
    assert 'balanced ""mid""' in text and 'wide, ""all"" units' in text
