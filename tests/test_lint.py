import ast
from pathlib import Path

import strata_lab

SRC = Path(strata_lab.__file__).resolve().parent


def test_no_assert_statements_in_src():
    """Correctness checks must raise: `python -O` strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
