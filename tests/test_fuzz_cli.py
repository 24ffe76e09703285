"""Mutated input files never crash the command line.

Each example starts from a valid set of inputs (a plant CSV, a run
config, a layout, a trained model and a strata manifest), mutates one
file that a command reads and runs that command in-process. Every run
ends with a documented exit code (3 being an internal error, still
reported in one line) and writes at most one line on stderr, and only
a failed run writes any.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeboost.cli import main
from routeboost.data import write_csv
from routeboost.synthgen import GenSpec, default_layout, generate, layout_to_dict

# Which files each command reads, beside its fixed arguments.
COMMANDS = {
    "analyze": (["analyze", "--config", "@config", "--data", "@csv", "--target", "Y",
                 "--out", "@out"], ["csv", "config"]),
    "subset": (["subset", "--config", "@config", "--data", "@csv", "--target", "Y",
                "--out", "@out"], ["csv", "config"]),
    "train": (["train", "--config", "@config", "--data", "@csv", "--target", "Y",
               "--model-out", "@out"], ["csv", "config"]),
    "predict": (["predict", "--data", "@csv", "--model", "@model", "--out", "@out"],
                ["csv", "model"]),
    "evaluate": (["evaluate", "--data", "@csv", "--model", "@model", "--strata", "@strata",
                  "--out", "@out"], ["csv", "model", "strata"]),
    "generate": (["generate", "--layout", "@layout", "--rows", "30", "--out", "@out"],
                 ["layout"]),
    "benchmark": (["benchmark", "--config", "@config", "--data", "@csv", "--target", "Y",
                   "--out-json", "@out"], ["csv", "config"]),
}
CELLS = [
    "", "0", "-0", "1e308", "-1e308", "1.7e308", "5e-324", "nan", "inf", "x", " 7",
    "1_0", '"', "Y", "A,B",
]
NAMES = ["Y", "base", "PLTCM_1", "CAL", "tree", "ridge", "mean", "bagging", "routes", "auto"]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=3)
    | st.sampled_from(NAMES),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(NAMES) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid input files' text, by role."""
    tmp = tmp_path_factory.mktemp("valid")
    layout = default_layout()
    write_csv(generate(GenSpec(layout, 60, 5)), tmp / "plant.csv")
    groups, segments = layout.route_strategy()
    config = {
        "strategy": "routes",
        "groups": groups,
        "segments": segments,
        "learner": {"kind": "tree", "tree_max_depth": 3, "tree_min_leaf": 2},
        "test_fraction": 0.5,
    }
    (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")
    common = ["--config", str(tmp / "config.json"), "--data", str(tmp / "plant.csv"),
              "--target", "Y"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", *common, "--model-out", str(tmp / "model.json")]) == 0
        assert main(["subset", *common, "--out", str(tmp / "strata.json")]) == 0
    return {
        "csv": (tmp / "plant.csv").read_text(encoding="utf-8"),
        "config": json.dumps(config),
        "model": (tmp / "model.json").read_text(encoding="utf-8"),
        "strata": (tmp / "strata.json").read_text(encoding="utf-8"),
        "layout": json.dumps(layout_to_dict(layout)),
    }


def mutate_json(draw, doc):
    """``doc`` with one value, found by walking down from the root,
    replaced or deleted."""
    action = draw(st.sampled_from(["descend", "descend", "replace", "delete"]))
    if not isinstance(doc, (dict, list)) or not doc or action == "replace":
        return draw(JSON_VALUES)
    copy = doc.copy()
    key = draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
    if action == "delete":
        del copy[key]
    else:
        copy[key] = mutate_json(draw, doc[key])
    return copy


def mutate_csv(draw, text):
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["cell", "cell", "cell", "drop-line", "truncate"]))
    if action == "drop-line":
        del lines[i]
    elif action == "truncate":
        return text[: draw(st.integers(0, len(text)))]
    else:
        cells = lines[i].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(
            st.sampled_from(CELLS) | st.text(max_size=3)
        )
        lines[i] = ",".join(cells)
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_inputs_end_in_one_line(inputs, tmp_path_factory, data):
    argv, reads = COMMANDS[data.draw(st.sampled_from(sorted(COMMANDS)))]
    role = data.draw(st.sampled_from(reads))
    texts = dict(inputs)
    if role == "csv":
        texts[role] = mutate_csv(data.draw, texts[role])
    else:
        texts[role] = json.dumps(mutate_json(data.draw, json.loads(texts[role])))
    tmp = tmp_path_factory.mktemp("mutated")
    paths = {"out": str(tmp / "out")}
    for name, text in texts.items():
        paths[name] = str(tmp / name)
        (tmp / name).write_text(text, encoding="utf-8")

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([paths[a[1:]] if a.startswith("@") else a for a in argv])
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
    if role == "csv" and code == 2:
        assert err.getvalue().startswith(f"error: {paths['csv']}: ")
