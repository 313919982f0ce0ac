"""Every source and test file parses as Python 3.10, the oldest version
`pyproject.toml` supports (`requires-python = ">=3.10"`).

`ast.parse(..., feature_version=(3, 10))` rejects syntax that 3.10 lacks,
such as `except*`, on a newer interpreter. It cannot see library calls that
3.10 lacks, such as `hashlib.file_digest`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)
FILES = sorted((*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")))


def test_the_floor_is_the_declared_one():
    assert f'requires-python = ">={FLOOR[0]}.{FLOOR[1]}"' in (ROOT / "pyproject.toml").read_text()


def test_every_file_parses_at_the_floor():
    failures = []
    for path in FILES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)
        except SyntaxError as err:
            failures.append(f"{path.relative_to(ROOT)}:{err.lineno}: {err.msg}")
    assert FILES
    assert not failures, failures


def test_newer_syntax_fails_at_the_floor():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=FLOOR)
