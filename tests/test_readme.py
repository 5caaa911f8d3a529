"""The README's `## Library` example runs as written, so the documented API
cannot name an export that no longer exists."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1, "the Library section holds one Python block"
    return blocks[0]


def test_library_example_runs():
    namespace: dict = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    assert namespace["report"].certified()
    assert namespace["iv"].strictly_positive()
