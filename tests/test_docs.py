"""The README's code and the demos run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"


def test_readme_library_example_runs(capsys):
    block = re.search(r"## Library example\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README.md has no Library example code block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize(
    "demo",
    ["01_normalize_and_classify", "02_deductive_closure", "03_negative_sampling", "04_toy_training"],
)
def test_demo_runs(demo):
    """Each demo exits 0 as a script with ``src`` on its path (a few seconds
    for all four).  Demo 05 is left out: it trains three models for about
    half a minute, and the acceptance tests cover that pipeline."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
