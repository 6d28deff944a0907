"""The README Quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), str(README), "exec"), {})
