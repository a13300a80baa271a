"""The README's code runs against the current API."""

import json
import re
from pathlib import Path

from mourre_lab.cli import load_config, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    tour = README.read_text().split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    assert len(scope["rows"]) == 2
    assert scope["iii"].left.shape[0] == scope["ops"].n


def test_config_schema_loads_and_runs(tmp_path):
    schema = README.read_text().split("Config schema", 1)[1]
    block = re.search(r"```json\n(.*?)```", schema, re.S).group(1)
    path = tmp_path / "config.json"
    path.write_text(block)
    cfg = load_config(path)
    assert json.loads(block) == {key: getattr(cfg, key) for key in json.loads(block)}
    assert main([cfg.experiment, "--config", str(path), "--out", str(tmp_path)]) == 0
