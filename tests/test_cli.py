import csv
import gc
import hashlib
import importlib
import json
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

import routeboost.data
from routeboost import __version__
from routeboost.benchmark import _row_checksum
from routeboost.cli import main
from routeboost.config import RunConfig, load_run_config
from routeboost.data import write_csv
from routeboost.ensemble import train_test_split_rows
from routeboost.synthgen import GenSpec, default_layout, generate


@pytest.fixture
def toy6_csv(tmp_path, toy6):
    path = tmp_path / "toy6.csv"
    write_csv(toy6, path)
    return str(path)


@pytest.fixture
def steel_csv(tmp_path):
    ds = generate(GenSpec(default_layout(), 1200, 3))
    path = tmp_path / "steel.csv"
    write_csv(ds, path)
    return str(path)


def steel_flags():
    return default_layout().route_strategy()


class TestAnalyze:
    def test_toy6_report(self, toy6_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["analyze", "--data", toy6_csv, "--target", "Y", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["patterns"]) == 2
        assert len(report["groups"]) == 3
        assert report["always_available"] == ["A", "Y"]
        text = capsys.readouterr().out
        assert "availability patterns" in text

    def test_complete_csv_single_pattern(self, tmp_path):
        path = tmp_path / "full.csv"
        path.write_text("A,Y\n1,2\n3,4\n", encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["analyze", "--data", str(path), "--target", "Y", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["patterns"]) == 1
        assert len(report["groups"]) == 1

    def test_missing_file_exit_2(self, capsys):
        assert main(["analyze", "--data", "/nope/missing.csv", "--target", "Y"]) == 2
        assert "error" in capsys.readouterr().err


class TestConsoleScript:
    """The function ``[project.scripts]`` installs as the ``routeboost``
    command, found by a text match since Python 3.10 has no tomllib."""

    @pytest.fixture
    def script(self):
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        found = re.search(r'^\[project\.scripts\]\nrouteboost = "([\w.]+):(\w+)"$', text, re.M)
        module, function = found.groups()
        return getattr(importlib.import_module(module), function)

    def exit_code(self, script, monkeypatch, *args) -> int:
        monkeypatch.setattr(sys, "argv", ["routeboost", *args])
        with pytest.raises(SystemExit) as exc:
            script()
        return exc.value.code

    def test_version(self, script, monkeypatch, capsys):
        assert self.exit_code(script, monkeypatch, "--version") == 0
        assert capsys.readouterr().out == f"{__version__}\n"

    def test_missing_data_exit_2(self, script, monkeypatch, capsys, tmp_path):
        missing = str(tmp_path / "missing.csv")
        code = self.exit_code(script, monkeypatch, "analyze", "--data", missing, "--target", "Y")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSubset:
    def test_manifest(self, toy6_csv, tmp_path):
        out = tmp_path / "subsets.json"
        code = main(
            ["subset", "--data", toy6_csv, "--target", "Y", "--strategy", "grouped", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads(out.read_text())
        assert [(m["name"], m["n_rows"]) for m in manifest] == [
            ("base", 6),
            ("r1", 3),
            ("r2", 3),
        ]


class TestTrain:
    def test_toy6_bagging(self, toy6_csv, tmp_path):
        model_path = tmp_path / "model.json"
        code = main(
            [
                "train", "--data", toy6_csv, "--target", "Y",
                "--strategy", "grouped", "--mode", "bagging",
                "--model-out", str(model_path),
            ]
        )
        assert code == 0
        model = json.loads(model_path.read_text())
        assert model["mode"] == "bagging"
        assert len(model["members"]) == 3

    def test_toy6_boosting_uses_branch_extension(self, toy6_csv, tmp_path):
        model_path = tmp_path / "model.json"
        code = main(
            [
                "train", "--data", toy6_csv, "--target", "Y",
                "--strategy", "grouped", "--mode", "boosting",
                "--model-out", str(model_path),
            ]
        )
        assert code == 0
        model = json.loads(model_path.read_text())
        assert [m["name"] for m in model["members"]] == ["base", "r1", "r2"]

    def test_steel_routes_chain(self, steel_csv, tmp_path):
        groups, segments = steel_flags()
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "strategy": "routes",
                    "groups": groups,
                    "segments": segments,
                    "mode": "boosting",
                }
            ),
            encoding="utf-8",
        )
        model_path = tmp_path / "model.json"
        code = main(
            [
                "train", "--config", str(config), "--data", steel_csv,
                "--target", "Y", "--model-out", str(model_path),
                "--manifest-out", str(tmp_path / "manifest.json"),
            ]
        )
        assert code == 0
        model = json.loads(model_path.read_text())
        assert [m["name"] for m in model["members"]] == ["base", "balanced", "wide"]

    def test_domain_error_exit_1(self, toy6_csv, tmp_path, capsys):
        # Auto strategy with an unreachable support threshold.
        code = main(
            [
                "train", "--data", toy6_csv, "--target", "Y",
                "--strategy", "auto", "--min-support", "0.9",
                "--model-out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("strategy", ["grouped", "routes", "auto"])
    def test_group_signal_missing_from_data_exit_1(
        self, steel_csv, tmp_path, capsys, strategy
    ):
        groups, segments = steel_flags()
        groups["HSM1"] = ["HSM1_1", "HSM1_TYPO"]
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"strategy": strategy, "groups": groups, "segments": segments}),
            encoding="utf-8",
        )
        model = tmp_path / "m.json"
        code = main(
            [
                "train", "--config", str(config), "--data", steel_csv,
                "--target", "Y", "--model-out", str(model),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: group 'HSM1' references unknown signal 'HSM1_TYPO'\n"
        assert not model.exists()

    def test_infinite_cell_exit_2(self, tmp_path, capsys):
        data = tmp_path / "inf.csv"
        data.write_text("A,Y\n1,2\n2,inf\n3,4\n", encoding="utf-8")
        code = main(
            [
                "train", "--data", str(data), "--target", "Y", "--learner", "tree",
                "--model-out", str(tmp_path / "m.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "line 3, column 'Y'" in captured.err
        assert not (tmp_path / "m.json").exists()


class TestPredict:
    def make_model(self, steel_csv, tmp_path):
        groups, segments = steel_flags()
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"strategy": "routes", "groups": groups, "segments": segments}),
            encoding="utf-8",
        )
        model_path = tmp_path / "model.json"
        assert (
            main(
                [
                    "train", "--config", str(config), "--data", steel_csv,
                    "--target", "Y", "--mode", "boosting",
                    "--model-out", str(model_path),
                ]
            )
            == 0
        )
        return model_path

    def test_member_columns(self, steel_csv, tmp_path):
        model_path = self.make_model(steel_csv, tmp_path)
        layout = default_layout()
        ds = generate(GenSpec(layout, 40, 77))
        inputs = tmp_path / "inputs.csv"
        write_csv(ds.project([s for s in ds.signals if s != "Y"]), inputs)
        out = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(inputs), "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        member_sets = {r["members"] for r in rows}
        assert "base" in member_sets
        assert "base,balanced,wide" in member_sets
        assert all(r["reason"] == "" for r in rows)

    def test_row_without_base_signals(self, steel_csv, tmp_path):
        model_path = self.make_model(steel_csv, tmp_path)
        inputs = tmp_path / "bad.csv"
        inputs.write_text("HSM1_1,HSM1_2\n1.0,2.0\n", encoding="utf-8")
        out = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(inputs), "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["prediction"] == ""
        assert rows[0]["reason"] == "no-applicable-model"


class TestEvaluateCommand:
    def test_metrics_table(self, steel_csv, tmp_path, capsys):
        groups, segments = steel_flags()
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"strategy": "routes", "groups": groups, "segments": segments}),
            encoding="utf-8",
        )
        model_path = tmp_path / "model.json"
        main(
            [
                "train", "--config", str(config), "--data", steel_csv,
                "--target", "Y", "--mode", "boosting", "--model-out", str(model_path),
            ]
        )
        out = tmp_path / "metrics.json"
        code = main(
            ["evaluate", "--model", str(model_path), "--data", steel_csv, "--target", "Y", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc["strata"]) == {"base", "balanced", "wide"}
        text = capsys.readouterr().out
        assert "MAE" in text and "R2" in text

    @pytest.mark.parametrize("target", ["D", "A"])
    def test_target_other_than_the_models_exit_2(self, toy6_csv, tmp_path, capsys, target):
        # D is present on half the rows and A on all; neither is what the model predicts.
        model = tmp_path / "model.json"
        model.write_text(json.dumps(boosting(MEAN_MEMBER)), encoding="utf-8")
        code = main(["evaluate", "--data", toy6_csv, "--model", str(model), "--target", target])
        err = one_line_error(code, capsys)
        assert f"the model predicts 'Y', not the target '{target}'" in err
        assert "strata manifest" not in err

    def test_target_coalesced_into_the_models(self, tmp_path, capsys):
        path = tmp_path / "y.csv"
        path.write_text("A,Y1,Y2\n1,2,\n2,,4\n3,6,\n", encoding="utf-8")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(boosting(MEAN_MEMBER)), encoding="utf-8")
        code = main(
            [
                "evaluate", "--data", str(path), "--model", str(model),
                "--target", "Y1", "--coalesce", "Y=Y1,Y2",
            ]
        )
        assert code == 0
        n_row = capsys.readouterr().out.splitlines()[3]
        assert n_row.split() == ["n", "3", "3"]


class TestGenerate:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "plant.csv"
        assert main(["generate", "--out", str(out), "--rows", "50", "--seed", "5"]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert "PLTCM_1" in header and header[-1] == "Y"

    def test_custom_layout_file(self, tmp_path):
        from routeboost.synthgen import layout_to_dict

        layout_path = tmp_path / "layout.json"
        layout_path.write_text(json.dumps(layout_to_dict(default_layout())), encoding="utf-8")
        out = tmp_path / "plant.csv"
        assert main(
            ["generate", "--out", str(out), "--rows", "20", "--seed", "1", "--layout", str(layout_path)]
        ) == 0
        default_out = tmp_path / "default.csv"
        main(["generate", "--out", str(default_out), "--rows", "20", "--seed", "1"])
        assert out.read_bytes() == default_out.read_bytes()


class TestBenchmark:
    def test_toy6_reports_no_complete_cases(self, toy6_csv, tmp_path, capsys):
        code = main(
            [
                "benchmark", "--data", toy6_csv, "--target", "Y",
                "--strategy", "grouped", "--seed", "0",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "n/a (no complete cases)" in text

    def test_synthetic_table_and_json(self, tmp_path, capsys):
        out_json = tmp_path / "bench.json"
        out_table = tmp_path / "bench.txt"
        code = main(
            [
                "benchmark", "--synthetic", "--rows", "1500", "--seed", "42",
                "--out-json", str(out_json), "--out-table", str(out_table),
            ]
        )
        assert code == 0
        table = out_table.read_text()
        assert "Narrow" in table and "Balanced" in table and "Wide" in table
        assert "proposed" in table and "conventional" in table
        doc = json.loads(out_json.read_text())
        assert doc["proposed"]["train_checksum"] == doc["conventional"]["train_checksum"]
        train, _ = train_test_split_rows(1500, 0.3, 42)
        joined = ",".join(str(int(r)) for r in train)
        assert doc["proposed"]["train_checksum"] == hashlib.sha256(joined.encode()).hexdigest()
        assert doc["n_train"] + doc["n_test"] == doc["n_rows"] == 1500

    BLOCK = routeboost.data.CSV_BLOCK_FIELDS

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_train_checksum_hashes_the_joined_indices(self, n):
        train, _ = train_test_split_rows(2 * n, 0.5, n)
        assert train.size == n
        joined = ",".join(str(int(r)) for r in train)
        assert _row_checksum(train) == hashlib.sha256(joined.encode()).hexdigest()

    def test_train_checksum_peak_does_not_grow_with_the_indices(self):
        """The indices are hashed a block at a time: 500,000 of them peak
        at about 110 bytes for each index of one block, where one join of
        them all peaked at about 100 bytes for each of the 500,000."""
        train, _ = train_test_split_rows(1_000_000, 0.5, 2)
        gc.collect()
        tracemalloc.start()
        try:
            _row_checksum(train)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * self.BLOCK

    def test_synthetic_keeps_an_explicit_grouped_strategy(self, tmp_path):
        out_json = tmp_path / "bench.json"
        argv = ["benchmark", "--synthetic", "--rows", "1500", "--seed", "42"]
        assert main(argv + ["--strategy", "grouped", "--out-json", str(out_json)]) == 0
        strata = [s["name"] for s in json.loads(out_json.read_text())["strata"]]
        assert strata[:2] == ["base", "r1"]

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["benchmark", "--synthetic", "--rows", "800", "--seed", "9"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(args + ["--out-json", str(a)]) == 0
        assert main(args + ["--out-json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_complete_dataset_single_stratum_equivalence(self, tmp_path, capsys):
        # On fully complete data with one stratum both arms see identical
        # training rows and produce identical metrics.
        import numpy as np

        from routeboost.data import dataset_from_columns

        rng = np.random.default_rng(10)
        X = rng.normal(size=(400, 2))
        y = X @ [1.0, 2.0] + rng.normal(size=400)
        ds = dataset_from_columns({"a": X[:, 0], "b": X[:, 1], "Y": y}, target="Y")
        path = tmp_path / "full.csv"
        write_csv(ds, path)
        out_json = tmp_path / "bench.json"
        code = main(
            [
                "benchmark", "--data", str(path), "--target", "Y",
                "--strategy", "grouped", "--seed", "4", "--out-json", str(out_json),
            ]
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        prop = doc["proposed"]["metrics"]["overall"]
        conv = doc["conventional"]["metrics"]["overall"]
        assert abs(prop["mae"] - conv["mae"]) <= 1e-12
        assert abs(prop["r2"] - conv["r2"]) <= 1e-12


class TestCoalesceFlag:
    def test_fuses_before_analysis(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text(
            "A,B1,B2,Y\n1,5,,2\n2,,6,4\n3,7,,6\n", encoding="utf-8"
        )
        out = tmp_path / "report.json"
        code = main(
            [
                "analyze", "--data", str(path), "--target", "Y",
                "--coalesce", "B=B1,B2", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert "B" in report["signals"]
        assert "B1" not in report["signals"]
        assert "B" in report["always_available"]



def one_line_error(code, capsys, expected=2) -> str:
    """The stderr of a run that must exit ``expected`` with one ``error:`` line."""
    err = capsys.readouterr().err
    assert code == expected
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


MEAN_MEMBER = {
    "name": "base",
    "features": ["A"],
    "learner": {"kind": "mean", "features": ["A"], "parameters": {"value": 1.0}},
}
SVM_MEMBER = dict(MEAN_MEMBER, learner=dict(MEAN_MEMBER["learner"], kind="svm"))
C_MEMBER = dict(
    MEAN_MEMBER, features=["C"], learner=dict(MEAN_MEMBER["learner"], features=["C"])
)
Y_MEMBER = dict(
    MEAN_MEMBER, features=["Y"], learner=dict(MEAN_MEMBER["learner"], features=["Y"])
)


def boosting(*members):
    return {"mode": "boosting", "target": "Y", "members": list(members)}


def member_with(kind, parameters):
    return dict(MEAN_MEMBER, learner=dict(MEAN_MEMBER["learner"], kind=kind, parameters=parameters))


def leaf(value=1.0, n_rows=3):
    return {"value": value, "n_rows": n_rows}


def split(feature=0, threshold=3.5, value=1.0, n_rows=3):
    return {"feature": feature, "threshold": threshold, "left": leaf(value, n_rows), "right": leaf()}


def tree_with(**node):
    return boosting(member_with("tree", {"root": split(**node)}))


MALFORMED_MODELS = {
    name: json.dumps(doc)
    for name, doc in {
        "not-an-object": [1, 2],
        "no-members": {"mode": "boosting", "target": "Y"},
        "empty-members": boosting(),
        "unknown-learner": boosting(SVM_MEMBER),
        "base-not-nested": boosting(C_MEMBER, MEAN_MEMBER),
        "repeated-name": boosting(MEAN_MEMBER, MEAN_MEMBER),
        "reads-target": boosting(Y_MEMBER),
        "n-rows-0": tree_with(n_rows=0),
        "n-rows-neg": tree_with(n_rows=-3),
        "n-rows-float": tree_with(n_rows=1.0),
        "n-rows-true": tree_with(n_rows=True),
        "feature-float": tree_with(feature=0.0),
        "feature-true": tree_with(feature=True),
        "feature-neg": tree_with(feature=-1),
        "feature-past-end": tree_with(feature=1),
    }.items()
}
# Each bad number goes in as raw JSON text where BAD stands, since
# ``1e400`` has no Python spelling.
BAD = "@BAD@"
BAD_MEMBERS = {
    "mean-value": member_with("mean", {"value": BAD}),
    "intercept": member_with("ridge", {"intercept": BAD, "weights": [2.0]}),
    "weight": member_with("ridge", {"intercept": 0.0, "weights": [BAD]}),
    "threshold": member_with("tree", {"root": split(threshold=BAD)}),
    "leaf-value": member_with("tree", {"root": split(value=BAD)}),
}
BAD_NUMBERS = {
    "nan": "NaN", "inf": "Infinity", "1e400": "1e400", "string": '"1.0"',
    "true": "true", "null": "null",
}
MALFORMED_MODELS.update(
    (f"{field}-{name}", json.dumps(boosting(member)).replace(json.dumps(BAD), raw))
    for field, member in BAD_MEMBERS.items()
    for name, raw in BAD_NUMBERS.items()
)


class TestMalformedModel:
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("text", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS)
    def test_exit_2(self, toy6_csv, tmp_path, capsys, text, command):
        model = tmp_path / "model.json"
        model.write_text(text, encoding="utf-8")
        code = main(
            [
                command, "--data", toy6_csv, "--model", str(model),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert "malformed model" in one_line_error(code, capsys)

    def test_hand_written_model_loads(self, toy6_csv, tmp_path):
        model = tmp_path / "model.json"
        doc = {"mode": "boosting", "target": "Y", "members": [MEAN_MEMBER]}
        model.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "pred.csv"
        code = main(
            ["predict", "--data", toy6_csv, "--model", str(model), "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().splitlines()[1] == "1.0,base,"


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"seed": "abc"}, "'seed' must be int"),
            ({"test_fraction": "x"}, "'test_fraction' must be float"),
            ({"learner": {"ridge_lambda": "x"}}, "'ridge_lambda' must be float"),
            ({"groups": {"a": "PLTCM_1"}}, "groups 'a' is not a list of signal names"),
            ({"test_fraction": 2}, "test_fraction must be within [0, 1], got 2"),
            ({"mode": "foo"}, "mode must be one of ['boosting', 'bagging'], got 'foo'"),
            ({"learner": {"ridge_lambda": float("nan")}}, "'ridge_lambda' must be float, got nan"),
            ({"min_support": float("nan")}, "'min_support' must be float, got nan"),
            ({"min_support": True}, "'min_support' must be float, got True"),
            ({"learner": {"tree_max_depth": 65}}, "tree_max_depth must be at most 64"),
            ({"mode": None}, "'mode' must be str, got None"),
            ({"seed": None}, "'seed' must be int, got None"),
            ({"learner": {"ridge_lambda": None}}, "'ridge_lambda' must be float, got None"),
        ],
        ids=[
            "seed", "test-fraction", "ridge-lambda", "group-string",
            "test-fraction-range", "mode", "ridge-lambda-nan", "min-support-nan",
            "min-support-true", "tree-depth-cap", "mode-null", "seed-null",
            "ridge-lambda-null",
        ],
    )
    def test_exit_2(self, steel_csv, tmp_path, capsys, doc, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        code = main(
            [
                "benchmark", "--config", str(config), "--data", steel_csv,
                "--target", "Y",
            ]
        )
        assert message in one_line_error(code, capsys)


    def test_train_rejects_unknown_mode(self, toy6_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "foo"}), encoding="utf-8")
        model = tmp_path / "model.json"
        code = main(
            [
                "train", "--config", str(config), "--data", toy6_csv,
                "--target", "Y", "--model-out", str(model),
            ]
        )
        assert "mode must be one of" in one_line_error(code, capsys)
        assert not model.exists()


class TestMalformedFlags:
    """Flag values pass the same check as config values."""

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--tree-max-depth", "0"], "tree_max_depth and tree_min_leaf must be >= 1"),
            (["--tree-max-depth", "65"], "tree_max_depth must be at most 64"),
            (["--ridge-lambda", "-1"], "ridge_lambda must be non-negative"),
            (["--test-fraction", "-0.5"], "test_fraction must be within [0, 1], got -0.5"),
            (["--seed", "-1"], "seed must be non-negative, got -1"),
            (["--ridge-lambda", "nan"], "ridge_lambda must be non-negative"),
            (["--ridge-lambda", "inf"], "ridge_lambda must be non-negative"),
        ],
        ids=[
            "tree-depth", "tree-depth-cap", "ridge-lambda", "test-fraction", "seed",
            "ridge-lambda-nan", "ridge-lambda-inf",
        ],
    )
    def test_benchmark_exit_2(self, toy6_csv, capsys, flags, message):
        code = main(["benchmark", "--data", toy6_csv, "--target", "Y", *flags])
        assert message in one_line_error(code, capsys)

    def test_flag_overrides_bad_config_value(self, toy6_csv, tmp_path, capsys):
        # The check runs once, after the merge: a flag can mend a file value.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"test_fraction": 2}), encoding="utf-8")
        code = main(
            [
                "benchmark", "--config", str(config), "--data", toy6_csv,
                "--target", "Y", "--test-fraction", "0.5",
            ]
        )
        assert code == 0


class TestMalformedStrata:
    @pytest.mark.parametrize(
        "doc",
        [
            [1],
            {"a": 1},
            [{"name": "x"}],
            [{"name": "x", "features": []}],
            [{"name": "x", "features": ["A"]}, {"name": "x", "features": ["A", "C"]}],
        ],
        ids=[
            "not-an-object", "not-a-list", "no-features", "empty-features",
            "repeated-name",
        ],
    )
    def test_exit_2(self, toy6_csv, tmp_path, capsys, doc):
        model = tmp_path / "model.json"
        model.write_text(
            json.dumps({"mode": "boosting", "target": "Y", "members": [MEAN_MEMBER]}),
            encoding="utf-8",
        )
        strata = tmp_path / "strata.json"
        strata.write_text(json.dumps(doc), encoding="utf-8")
        code = main(
            [
                "evaluate", "--data", toy6_csv, "--model", str(model),
                "--strata", str(strata),
            ]
        )
        assert "malformed strata manifest" in one_line_error(code, capsys)


def layout_with(change) -> dict:
    from routeboost.synthgen import layout_to_dict

    doc = layout_to_dict(default_layout())
    change(doc)
    return doc


def set_dist(dist):
    return lambda doc: doc["units"][0]["signals"][0].update(dist=dist)


class TestMalformedLayout:
    @pytest.mark.parametrize(
        "change,message",
        [
            (set_dist(["normal", 0.0, "x"]), "normal needs two numbers"),
            (set_dist(["normal", "a", 1.0]), "normal needs two numbers"),
            (set_dist(["normal", 0.0]), "normal needs two numbers"),
            (lambda doc: doc["target_rule"].update(target=["Y"]), "must be strings"),
            (
                lambda doc: doc["routes"][0].update(units="PLTCM"),
                "expected a list of names, got 'PLTCM'",
            ),
            (
                lambda doc: doc["routes"][0].update(probability="0.5"),
                "route 'narrow': probability must be a finite number, got '0.5'",
            ),
            (
                lambda doc: doc["target_rule"]["coefficients"].update(CAL_1=True),
                "coefficient of 'CAL_1' must be a finite number, got True",
            ),
            (
                lambda doc: doc["target_rule"].update(noise_sigma=float("nan")),
                "noise_sigma must be a finite number, got nan",
            ),
        ],
        ids=[
            "sd-string", "mean-string", "two-element-dist", "target-list", "units-string",
            "probability-string", "coefficient-true", "noise-sigma-nan",
        ],
    )
    def test_exit_2(self, tmp_path, capsys, change, message):
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps(layout_with(change)), encoding="utf-8")
        out = tmp_path / "plant.csv"
        code = main(["generate", "--out", str(out), "--rows", "20", "--layout", str(layout)])
        assert message in one_line_error(code, capsys)
        assert not out.exists()


class TestSettingsFromConfig:
    def test_predict_writes_config_predictions_out(self, toy6_csv, tmp_path):
        model = tmp_path / "model.json"
        doc = {"mode": "boosting", "target": "Y", "members": [MEAN_MEMBER]}
        model.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "pred.csv"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"predictions_out": str(out)}), encoding="utf-8")
        code = main(
            ["predict", "--config", str(config), "--data", toy6_csv, "--model", str(model)]
        )
        assert code == 0
        assert out.read_text().splitlines()[1] == "1.0,base,"

    @pytest.mark.parametrize(
        "key",
        [
            key for key, spec in RunConfig.__dataclass_fields__.items()
            if spec.type.endswith(" | None")
        ],
    )
    def test_null_optional_setting_loads_as_unset(self, tmp_path, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: None}), encoding="utf-8")
        assert getattr(load_run_config(config), key) is None

    def test_predict_without_output_path_exit_2(self, toy6_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        doc = {"mode": "boosting", "target": "Y", "members": [MEAN_MEMBER]}
        model.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["predict", "--data", toy6_csv, "--model", str(model)])
        assert "no predictions output path" in one_line_error(code, capsys)

    def test_group_only_boosting_names_both_subsets(self, steel_csv, tmp_path, capsys):
        code = main(
            [
                "train", "--data", steel_csv, "--target", "Y",
                "--group-signals-only", "--model-out", str(tmp_path / "m.json"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "narrowest subset 'r" in err and "but 'base' does not contain it" in err


class TestNonUtf8Input:
    """A file that is not UTF-8 text exits 2 with one line, whichever reader gets it."""

    @pytest.mark.parametrize(
        "reader,message",
        [
            ("csv", "not UTF-8 text"),
            ("model", "malformed model"),
            ("config", "not UTF-8 text"),
            ("layout", "malformed layout document"),
            ("strata", "malformed strata manifest"),
        ],
    )
    def test_exit_2(self, toy6_csv, tmp_path, capsys, reader, message):
        bad = tmp_path / "bad"
        bad.write_bytes(b'{"x": "\xff"}\n' if reader != "csv" else b"A,Y\n1,\xff2\n")
        model = tmp_path / "model.json"
        model.write_text(
            json.dumps({"mode": "boosting", "target": "Y", "members": [MEAN_MEMBER]}),
            encoding="utf-8",
        )
        argv = {
            "csv": ["analyze", "--data", str(bad), "--target", "Y"],
            "model": ["predict", "--data", toy6_csv, "--model", str(bad), "--out", str(model)],
            "config": ["analyze", "--config", str(bad), "--data", toy6_csv, "--target", "Y"],
            "layout": ["generate", "--out", str(tmp_path / "g.csv"), "--layout", str(bad)],
            "strata": [
                "evaluate", "--data", toy6_csv, "--model", str(model), "--strata", str(bad),
            ],
        }[reader]
        err = one_line_error(main(argv), capsys)
        assert message in err and "can't decode byte 0xff" in err


class TestCsvFieldLimit:
    """A field longer than csv.field_size_limit() exits 2 with one line."""

    def test_data_field_exit_2(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        long = "0" * (csv.field_size_limit() + 1)  # a finite number, were it shorter
        data.write_text(f"A,Y\n1,2\n{long},3\n", encoding="utf-8")
        model = tmp_path / "m.json"
        argv = ["train", "--data", str(data), "--target", "Y", "--model-out", str(model)]
        err = one_line_error(main(argv), capsys)
        assert err == (
            f"error: {data}: line 3: field larger than field limit "
            f"({csv.field_size_limit()})\n"
        )
        assert not model.exists()

    def test_header_name_exit_2(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text("Y," + "A" * (csv.field_size_limit() + 1) + "\n1,2\n", encoding="utf-8")
        err = one_line_error(main(["analyze", "--data", str(data), "--target", "Y"]), capsys)
        assert err.startswith(f"error: {data}: line 1: field larger than field limit")

    def test_file_grown_while_read_exit_2(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "grown.csv"
        data.write_text("A,Y\n1,2\n3,4\n", encoding="utf-8")
        count = routeboost.data._count_lines
        monkeypatch.setattr(routeboost.data, "_count_lines", lambda fh: count(fh) - 1)
        err = one_line_error(main(["analyze", "--data", str(data), "--target", "Y"]), capsys)
        assert err == f"error: {data}: the file changed while it was read\n"


def deep_tree_model(depth: int) -> str:
    """A model whose one tree member is nested ``depth`` splits deep."""
    split = '{"feature": 0, "threshold": 0.5, "right": {"value": 1.0, "n_rows": 1}, "left": '
    tree = split * depth + '{"value": 0.0, "n_rows": 1}' + "}" * depth
    learner = '{"kind": "tree", "features": ["A"], "parameters": {"root": ' + tree + "}}"
    member = '{"name": "base", "features": ["A"], "learner": ' + learner + "}"
    return '{"mode": "boosting", "target": "Y", "members": [' + member + "]}"


class TestUnreadableJson:
    """Every JSON input goes through one reader: exit 2, one line, no traceback."""

    @pytest.mark.parametrize("text", ["[" * 5000, '{"mode": '], ids=["deep", "truncated"])
    @pytest.mark.parametrize(
        "reader,message",
        [
            ("model", "malformed model"),
            ("config", "malformed config"),
            ("layout", "malformed layout document"),
            ("strata", "malformed strata manifest"),
        ],
    )
    def test_exit_2(self, toy6_csv, tmp_path, capsys, reader, message, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        model = tmp_path / "model.json"
        model.write_text(
            json.dumps({"mode": "boosting", "target": "Y", "members": [MEAN_MEMBER]}),
            encoding="utf-8",
        )
        argv = {
            "model": ["predict", "--data", toy6_csv, "--model", str(bad), "--out", str(model)],
            "config": ["analyze", "--config", str(bad), "--data", toy6_csv, "--target", "Y"],
            "layout": ["generate", "--out", str(tmp_path / "g.csv"), "--layout", str(bad)],
            "strata": [
                "evaluate", "--data", toy6_csv, "--model", str(model), "--strata", str(bad),
            ],
        }[reader]
        err = one_line_error(main(argv), capsys)
        assert err.startswith(f"error: {message}: ") and "not valid JSON" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("depth", [984, 2000])
    def test_deep_model_tree_exit_2(self, toy6_csv, tmp_path, capsys, depth):
        model = tmp_path / "model.json"
        model.write_text(deep_tree_model(depth), encoding="utf-8")
        argv = ["predict", "--data", toy6_csv, "--model", str(model), "--out", str(tmp_path / "p")]
        assert "malformed model" in one_line_error(main(argv), capsys)


class TestOverflow:
    """A row whose values overflow float64 under a fitted model."""

    CSV = "A,B,Y\n1,2,3\n2,1,4\n3,5,6\n1e308,-1e308,7\n4,4,8\n5,2,9\n"

    @pytest.fixture
    def paths(self, tmp_path):
        data = tmp_path / "over.csv"
        data.write_text(self.CSV, encoding="utf-8")
        member = dict(
            MEAN_MEMBER,
            features=["A", "B"],
            learner={
                "kind": "ridge",
                "features": ["A", "B"],
                "parameters": {"intercept": 0.0, "weights": [10.0, 10.0]},
            },
        )
        model = tmp_path / "model.json"
        model.write_text(json.dumps(boosting(member)), encoding="utf-8")
        return str(data), str(model), tmp_path / "out"

    def test_predict_writes_the_scored_value(self, paths, capsys):
        data, model, out = paths
        assert main(["predict", "--data", data, "--model", model, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[4] == "nan,base,"
        assert rows[1] == "30.0,base,"
        assert "predicted 6/6 rows" in capsys.readouterr().out

    def test_evaluate_exit_1_without_report(self, paths, capsys):
        data, model, out = paths
        code = main(["evaluate", "--data", data, "--model", model, "--out", str(out)])
        err = one_line_error(code, capsys, expected=1)
        assert err == "error: row 3: the prediction nan is not finite\n"
        assert not out.exists()

    def test_train_exit_1_without_model(self, paths, capsys):
        data, _, out = paths
        code = main(
            [
                "train", "--data", data, "--target", "Y", "--strategy", "grouped",
                "--model-out", str(out),
            ]
        )
        assert "ridge fit gave a non-finite parameter" in one_line_error(
            code, capsys, expected=1
        )
        assert not out.exists()

    def test_unpenalized_ridge_overflow_is_not_singular(self, tmp_path, capsys):
        """With ridge_lambda 0 an infinite Gram matrix would read as rank-deficient."""
        data = tmp_path / "big.csv"
        data.write_text("A,Y\n1.5e308,0\n1.5e308,0\n1.7e308,10\n1.7e308,10\n", encoding="utf-8")
        out = tmp_path / "model.json"
        code = main(
            [
                "train", "--data", str(data), "--target", "Y", "--learner", "ridge",
                "--ridge-lambda", "0", "--model-out", str(out),
            ]
        )
        assert one_line_error(code, capsys, expected=1) == (
            "error: ridge fit gave a non-finite parameter: the training values are "
            "too large for float64\n"
        )
        assert not out.exists()

    def test_generate_overflow_exit_1_without_csv(self, tmp_path, capsys):
        from routeboost.synthgen import layout_to_dict

        doc = layout_to_dict(default_layout())
        doc["units"][0]["signals"][0]["dist"] = ["normal", 1e308, 1e308]
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "plant.csv"
        argv = ["generate", "--out", str(out), "--rows", "200", "--seed", "1", "--layout", str(layout)]
        assert one_line_error(main(argv), capsys, expected=1) == (
            "error: row 49, column 'DES_1': the generated value inf is not finite; "
            "the layout's numbers overflow float64\n"
        )
        assert not out.exists()


def test_train_segment_named_base_exit_1(tmp_path, capsys):
    """Boosting names member 0 ``base``; a segment of that name would repeat it."""
    data = tmp_path / "plant.csv"
    write_csv(generate(GenSpec(default_layout(), 2000, 1)), data)
    groups, _ = steel_flags()
    segments = {"x": ["PLTCM", "CAL"], "base": ["HSM1", "PLTCM", "CAL"]}
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"strategy": "routes", "groups": groups, "segments": segments}),
        encoding="utf-8",
    )
    model = tmp_path / "model.json"
    code = main(
        [
            "train", "--config", str(config), "--data", str(data), "--target", "Y",
            "--model-out", str(model),
        ]
    )
    err = one_line_error(code, capsys, expected=1)
    assert err == (
        "error: two members would be named 'base': the narrowest subset 'x' "
        "and the subset 'base'\n"
    )
    assert not model.exists()


def test_internal_error_exit_3(toy6_csv, monkeypatch, capsys):
    def broken(config, args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr("routeboost.cli.cmd_analyze", broken)
    code = main(["analyze", "--data", toy6_csv, "--target", "Y"])
    err = one_line_error(code, capsys, expected=3)
    assert err == "error: internal error (ZeroDivisionError): division by zero\n"


def ridge_member(weights):
    return member_with("ridge", {"intercept": 0.0, "weights": weights})


ROUTES = {"strategy": "routes", "groups": {"GA": ["A"], "GY": ["Y"]}}
TOY_ARGS = ["--data", "{data}", "--target", "Y"]
# toy6's rows with D are on no segment, so merge_common adds an "uncommon" subset.
MERGED_UNCOMMON = {
    "strategy": "routes", "groups": {"GA": ["A"], "GC": ["C"]},
    "segments": {"uncommon": ["GA", "GC"]}, "uncommon_policy": "merge_common",
}
CSV_ARGS = ["analyze", "--data", "{csv}", "--target", "Y"]
CONFIG_ARGS = ["--config", "{config}", *TOY_ARGS]
PREDICT = ["predict", "--data", "{data}", "--model", "{model}", "--out", "{out}"]
GENERATE = ["generate", "--out", "{out}", "--layout", "{layout}"]
# Each case reaches one check of a setting, path or document that the
# other tests leave out: (argv, documents, exit code, stderr line). In
# argv and the message, {data} is the toy6 CSV, {out} an output path,
# {csv} a file of the given text and {config}, {model}, {layout} or
# {strata} the file that holds that document. A bad strategy or uncommon_policy stops analyze too, which
# builds no subsets.
MALFORMED_INPUTS = {
    "no-data": (["analyze", "--target", "Y"], {}, 2,
                "no input data file given (use --data or the config)"),
    "no-target": (["analyze", "--data", "{data}"], {}, 2,
                  "no target signal given (use --target or the config)"),
    "no-model-out": (["train", *TOY_ARGS], {}, 2,
                     "no model output path (use --model-out or the config)"),
    "unknown-learner-option": (
        ["analyze", *CONFIG_ARGS],
        {"config": {"learner": {"depth": 3}}}, 2, "unknown learner options: ['depth']",
    ),
    "unknown-learner-kind": (
        ["analyze", *CONFIG_ARGS],
        {"config": {"learner": {"kind": "svm"}}}, 2, "unknown learner kind 'svm'",
    ),
    "unknown-config-key": (
        ["analyze", *CONFIG_ARGS],
        {"config": {"bogus": 1}}, 2, "{config}: unknown config keys ['bogus']",
    ),
    "coalesce-without-equals": (
        ["analyze", *TOY_ARGS, "--coalesce", "B"], {}, 2,
        "coalesce directive 'B' must look like NEW=A,B",
    ),
    "coalesce-without-sources": (
        ["analyze", *TOY_ARGS, "--coalesce", "B=,"], {}, 2,
        "coalesce directive 'B=,' must look like NEW=A,B",
    ),
    "bad-cell": (
        CSV_ARGS, {"csv": "A,B,Y\n1,2,3\n4,x,5\n"}, 2,
        "{csv}: line 3, column 'B': unparsable number 'x'",
    ),
    "empty-signal-name": (
        CSV_ARGS, {"csv": "A,,Y\n1,2,3\n"}, 2, "{csv}: empty signal name",
    ),
    "repeated-signal-name": (
        CSV_ARGS, {"csv": "A,A,Y\n1,2,3\n"}, 2, "{csv}: duplicated signals ['A']",
    ),
    "member-features": (
        PREDICT,
        {"model": boosting(dict(C_MEMBER, features=["A"]))}, 2,
        "malformed model: member 'base': learner features do not match member features",
    ),
    "ensemble-mode": (
        PREDICT,
        {"model": dict(boosting(MEAN_MEMBER), mode="stacking")}, 2,
        "malformed model: unknown ensemble mode 'stacking'",
    ),
    "base-outside-a-member": (
        PREDICT,
        {"model": boosting(MEAN_MEMBER, dict(C_MEMBER, name="c"))}, 2,
        "malformed model: boosting needs the narrowest subset 'base' inside every "
        "other subset, but 'c' does not contain it (bagging fits subsets that are "
        "not nested)",
    ),
    "weights-not-a-list": (
        PREDICT,
        {"model": boosting(ridge_member(2.0))}, 2,
        "malformed model: weights must be a list, got 2.0",
    ),
    "weight-count": (
        PREDICT,
        {"model": boosting(ridge_member([1.0, 2.0]))}, 2,
        "malformed model: 2 weights for 1 features",
    ),
    "stratum-repeats-a-feature": (
        ["evaluate", *TOY_ARGS, "--model", "{model}", "--strata", "{strata}"],
        {"model": boosting(MEAN_MEMBER), "strata": [{"name": "s", "features": ["A", "A"]}]},
        2, "malformed strata manifest: subset 's' repeats a feature",
    ),
    "segment-repeats-a-group": (
        ["subset", *CONFIG_ARGS],
        {"config": dict(ROUTES, segments={"s": ["GA", "GA"]})}, 2,
        "segment 's' repeats a group",
    ),
    "segment-lists-no-groups": (
        ["subset", *CONFIG_ARGS],
        {"config": dict(ROUTES, segments={"s": []})}, 2, "segment 's' lists no groups",
    ),
    "segment-covers-only-the-target": (
        ["subset", *CONFIG_ARGS],
        {"config": dict(ROUTES, segments={"s": ["GY"]})}, 2,
        "segment 's' covers no feature signals",
    ),
    "unknown-group": (
        ["subset", *CONFIG_ARGS],
        {"config": dict(ROUTES, segments={"s": ["GA", "GB"]})}, 2,
        "segment 's': unknown group 'GB'",
    ),
    "segment-named-like-the-merged-subset": (
        ["subset", *CONFIG_ARGS], {"config": MERGED_UNCOMMON}, 2,
        "two route subsets are named 'uncommon'",
    ),
    "segment-named-like-the-merged-subset-bagging": (
        ["train", "--mode", "bagging", *CONFIG_ARGS, "--model-out", "{out}"],
        {"config": MERGED_UNCOMMON}, 2, "two route subsets are named 'uncommon'",
    ),
    "routes-without-segments": (
        ["subset", *CONFIG_ARGS],
        {"config": {"strategy": "routes"}}, 2, "strategy 'routes' needs route segments",
    ),
    "unknown-strategy": (
        ["analyze", *CONFIG_ARGS],
        {"config": {"strategy": "bogus"}}, 2, "unknown strategy 'bogus'",
    ),
    "empty-strategy": (
        ["analyze", *CONFIG_ARGS],
        {"config": {"strategy": ""}}, 2, "unknown strategy ''",
    ),
    "unknown-uncommon-policy": (
        ["analyze", *CONFIG_ARGS],
        {"config": {"uncommon_policy": "keep"}}, 2, "unknown uncommon_policy 'keep'",
    ),
    "min-support-zero": (
        ["subset", *TOY_ARGS, "--strategy", "auto", "--min-support", "0"], {}, 2,
        "min_support must be in (0, 1], got 0.0",
    ),
    "unknown-distribution": (
        GENERATE,
        {"layout": layout_with(set_dist(["beta", 0.0, 1.0]))}, 2,
        "signal 'DES_1': unknown distribution 'beta'",
    ),
    "negative-sd": (
        GENERATE,
        {"layout": layout_with(set_dist(["normal", 0.0, -1.0]))}, 2,
        "signal 'DES_1': negative sd",
    ),
    "empty-uniform-range": (
        GENERATE,
        {"layout": layout_with(set_dist(["uniform", 1.0, 0.0]))}, 2,
        "signal 'DES_1': empty uniform range",
    ),
    "repeated-unit": (
        GENERATE,
        {"layout": layout_with(lambda doc: doc["units"][1].update(name="DES"))}, 2,
        "unit names must be unique",
    ),
    "target-is-a-signal": (
        GENERATE,
        {"layout": layout_with(lambda doc: doc["target_rule"].update(target="DES_1"))}, 2,
        "target name collides with a unit signal",
    ),
    "no-routes": (
        GENERATE,
        {"layout": layout_with(lambda doc: doc.update(routes=[]))}, 2,
        "layout declares no routes",
    ),
    "zero-probability": (
        GENERATE,
        {"layout": layout_with(lambda doc: doc["routes"][0].update(probability=0))}, 2,
        "route 'narrow': non-positive probability",
    ),
    "negative-noise": (
        GENERATE,
        {"layout": layout_with(lambda doc: doc["target_rule"].update(noise_sigma=-1.0))},
        2, "noise_sigma must be non-negative",
    ),
    "no-rows": (["generate", "--out", "{out}", "--rows", "0"], {}, 2,
                "n_rows must be at least 1"),
}


@pytest.mark.parametrize(
    "argv,documents,code,message", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS
)
def test_malformed_input_exit_code_and_message(
    toy6_csv, tmp_path, capsys, argv, documents, code, message
):
    paths = {"data": toy6_csv, "out": str(tmp_path / "out")}
    for kind, doc in documents.items():
        suffix, text = ("csv", doc) if kind == "csv" else ("json", json.dumps(doc))
        paths[kind] = str(tmp_path / f"{kind}.{suffix}")
        Path(paths[kind]).write_text(text, encoding="utf-8")
    exit_code = main([arg.format(**paths) for arg in argv])
    err = one_line_error(exit_code, capsys, expected=code)
    assert err == f"error: {message.format(**paths)}\n"
    assert not Path(paths["out"]).exists()
