"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    block = re.search(r"## Library example\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README.md has no Library example code block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
