"""The README's "Library quick start" example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def quick_start_code() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, "the quick start holds one python block"
    return blocks[0]


def test_library_quick_start_runs():
    code = quick_start_code()
    assert "assert " in code  # the example checks its own result
    exec(compile(code, "README.md", "exec"), {})
