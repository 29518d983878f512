"""Every ```python block of README.md runs as written, so the documented API cannot drift from the code."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_in_readme_runs():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.S | re.M))
    assert blocks, "README.md has no python block"
    for block in blocks:
        # padded to its line in README.md, so that a traceback names the README line
        source = "\n" * text.count("\n", 0, block.start(1)) + block[1]
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
