"""The settings path: every flag sets a RunConfig or LearnerConfig field.

Flags and config files meet in ``load_run_config``, so the same settings
given either way must produce the same bytes.
"""

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeboost.cli import build_parser, main
from routeboost.config import RunConfig
from routeboost.data import write_csv
from routeboost.learners import LearnerConfig
from routeboost.synthgen import GenSpec, default_layout, generate

# Arguments that select what a command works on rather than how; they
# name no setting and never reach RunConfig.
COMMAND_ONLY = {"help", "config", "model", "strata", "synthetic", "rows", "layout"}
SETTING_FIELDS = set(RunConfig.__dataclass_fields__) | set(
    LearnerConfig.__dataclass_fields__
)


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_every_flag_names_a_setting_or_is_command_only():
    assert not COMMAND_ONLY & SETTING_FIELDS
    for command, parser in subparsers().items():
        for action in parser._actions:
            assert action.dest in SETTING_FIELDS | COMMAND_ONLY, (
                command, action.option_strings, action.dest
            )


def test_setting_flags_default_to_none():
    # A default other than None would override the config file.
    for command, parser in subparsers().items():
        for action in parser._actions:
            if action.dest in SETTING_FIELDS:
                assert action.default is None, (command, action.option_strings)


# field -> flag for the settings shared by train and benchmark
FLAGS = {
    "strategy": "--strategy",
    "min_support": "--min-support",
    "kind": "--learner",
    "ridge_lambda": "--ridge-lambda",
    "tree_max_depth": "--tree-max-depth",
    "tree_min_leaf": "--tree-min-leaf",
    "mode": "--mode",
    "seed": "--seed",
}
RUN_SETTINGS = st.fixed_dictionaries(
    {},
    optional={
        "strategy": st.sampled_from(["grouped", "auto"]),
        "include_base_signals": st.just(False),
        "min_support": st.sampled_from([0.05, 0.3]),
        "kind": st.sampled_from(["mean", "ridge", "tree"]),
        "ridge_lambda": st.sampled_from([0.0, 2.5, 1200.0]),
        "tree_max_depth": st.integers(1, 4),
        "tree_min_leaf": st.integers(1, 30),
        "standardize": st.just(True),
        "mode": st.sampled_from(["boosting", "bagging"]),
        "seed": st.integers(0, 2**32),
        "test_fraction": st.sampled_from([0.2, 0.5]),
    },
)


def as_flags(values: dict, command: str) -> list[str]:
    flags = []
    for key, value in values.items():
        if key in FLAGS:
            flags += [FLAGS[key], str(value)]
        elif key == "include_base_signals":
            flags.append("--group-signals-only")
        elif key == "standardize":
            flags.append("--standardize")
        elif key == "test_fraction" and command == "benchmark":
            flags += ["--test-fraction", str(value)]
    return flags


def as_config(values: dict) -> dict:
    learner_keys = set(LearnerConfig.__dataclass_fields__)
    doc = {k: v for k, v in values.items() if k not in learner_keys}
    learner = {k: v for k, v in values.items() if k in learner_keys}
    return dict(doc, learner=learner) if learner else doc


def run(argv: list[str], out: Path) -> tuple:
    """Exit code, stdout, stderr and output bytes of one CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, stdout.getvalue(), stderr.getvalue(), written


@pytest.fixture(scope="module")
def plant_csv(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("settings") / "plant.csv"
    write_csv(generate(GenSpec(default_layout(), 300, 11)), path)
    return path


@settings(max_examples=25, deadline=None)
@given(values=RUN_SETTINGS)
def test_flags_and_config_file_give_identical_outputs(plant_csv, values):
    work = plant_csv.parent
    config = work / "config.json"
    out = work / "out.json"
    data = ["--data", str(plant_csv), "--target", "Y"]
    for command, out_flag, out_key in (
        ("train", "--model-out", "model_out"),
        ("benchmark", "--out-json", "report_out"),
    ):
        by_flags = run(
            [command, *data, *as_flags(values, command), out_flag, str(out)], out
        )
        config.write_text(
            json.dumps(dict(as_config(values), **{out_key: str(out)})),
            encoding="utf-8",
        )
        by_file = run([command, "--config", str(config), *data], out)
        assert by_flags == by_file
        if by_flags[0] == 0:
            assert by_flags[3] is not None
