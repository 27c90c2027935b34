"""Tolerances live in ``hopfq.tolerances``: no other module of the package
writes a small float literal of its own."""

import ast
from pathlib import Path

import hopfq

PACKAGE = Path(hopfq.__file__).parent


def small_float_literals(path: Path) -> list[tuple[int, float]]:
    """(line, value) of every float literal with 0 < |value| < 1e-3.  Docstrings
    are string constants, so a number quoted in one is not counted."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-3
    ]


def test_no_tolerance_is_hard_coded_outside_the_tolerances_module():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "tolerances.py"]
    assert len(modules) >= 8
    found = {path.name: small_float_literals(path) for path in modules}
    assert {name: literals for name, literals in found.items() if literals} == {}
    assert small_float_literals(PACKAGE / "tolerances.py")  # the scan sees literals
