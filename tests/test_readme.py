"""README's library example runs as written against a generated plant,
and its config example loads and names every setting."""

import json
import re
from pathlib import Path

from routeboost.config import RunConfig, load_run_config
from routeboost.data import write_csv
from routeboost.learners import LearnerConfig
from routeboost.synthgen import GenSpec, default_layout, generate

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = readme_blocks("python")
    assert len(blocks) == 1
    write_csv(generate(GenSpec(default_layout(), 2000, 42)), tmp_path / "plant.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out


def test_config_example_loads_and_names_every_setting(tmp_path):
    blocks = readme_blocks("json")
    assert len(blocks) == 1
    path = tmp_path / "run.json"
    path.write_text(blocks[0], encoding="utf-8")
    config = load_run_config(path)
    doc = json.loads(blocks[0])
    assert set(doc) == set(RunConfig.__dataclass_fields__)
    assert set(doc["learner"]) == set(LearnerConfig.__dataclass_fields__)
    assert config.learner == doc["learner"]
