"""Every Python file of the project parses as Python 3.10, the oldest version
``pyproject.toml`` admits (``requires-python = ">=3.10"``).

This checks syntax only (``ast.parse`` with ``feature_version=(3, 10)``
rejects 3.11 grammar such as ``except*``).  It does not catch a library
call added in 3.11 or later, such as ``tomllib`` or ``enum.StrEnum``; only
a run under 3.10 does.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "bench", "perfbench") for p in (ROOT / d).rglob("*.py")) + [
    ROOT / "conftest.py"
]


def test_the_file_list_covers_every_tree():
    tops = {p.relative_to(ROOT).parts[0] for p in FILES}
    assert tops == {"src", "tests", "bench", "perfbench", "conftest.py"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
