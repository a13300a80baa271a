"""The README's code runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    tour = README.read_text().split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    assert len(scope["rows"]) == 2
    assert scope["iii"].left.shape[0] == scope["ops"].n
