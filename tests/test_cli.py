import csv
import json

import pytest

from routeboost.cli import main
from routeboost.data import write_csv
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
    layout = default_layout()
    groups = {u.name: [s.name for s in u.signals] for u in layout.units}
    segments = {r.name: list(r.units) for r in layout.routes}
    return groups, segments


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
        assert doc["n_train"] + doc["n_test"] == doc["n_rows"] == 1500

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
