"""The README's python blocks and every demo run; no module of the library
relies on ``assert`` or ``__debug__``, which ``python -O`` strips."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "graphdirac").rglob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_library_has_no_assert_or_debug_check():
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in SOURCES for node in ast.walk(ast.parse(path.read_bytes(), str(path)))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert SOURCES and not found, found


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
