"""Source-level rules for the library package."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "actinv"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Invariant checks raise errors; ``python -O`` would strip an assert."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}"
