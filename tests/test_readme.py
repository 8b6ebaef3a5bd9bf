"""The README's library quickstart runs as written."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quickstart_runs(monkeypatch) -> None:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    monkeypatch.chdir(ROOT)  # the quickstart opens tests/fixtures/ by a relative path
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["runner"].state.state_name == "Initial"
