"""Package layout: no module imports a sibling module's private names."""

import ast
from pathlib import Path

import grassmult


def test_no_private_names_imported_across_modules():
    modules = sorted(Path(grassmult.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    offenders = [
        (path.name, node.module, alias.name)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 or (node.module or "").startswith("grassmult"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert offenders == []
