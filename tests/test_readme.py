"""README's library example runs as written against a generated plant."""

import re
from pathlib import Path

from routeboost.data import write_csv
from routeboost.synthgen import GenSpec, default_layout, generate

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    write_csv(generate(GenSpec(default_layout(), 2000, 42)), tmp_path / "plant.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out
