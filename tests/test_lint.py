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


def _writes_stdout(node) -> bool:
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "print"
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "sys" and node.attr == "stdout"
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(a.name == "stdout" for a in node.names)
    return False


def test_only_the_cli_writes_stdout():
    """CLI stdout must stay byte-identical for a seed; every other module
    reports through return values, exceptions or stderr."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _writes_stdout(node)
    ]
    assert not found, found
