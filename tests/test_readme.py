"""Every ```python block of README.md runs as written, so a doc example
that goes stale fails the suite."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_the_quick_start_and_own_problem_blocks():
    assert len(BLOCKS) >= 2
    assert any("run_famv" in block for block in BLOCKS)
    assert any("def terms" in block for block in BLOCKS)


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"),
         {"__name__": "readme"})
    assert capsys.readouterr().out
