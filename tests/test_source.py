import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "voltplan"


def test_no_assert_statements():
    """Invariants are explicit checks: `python -O` strips assert statements."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
