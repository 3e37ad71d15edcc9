"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "screwinv"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.Module):
    """(bound name, line) for each module-level import but `from __future__`."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_package_has_modules():
    assert "sagbi.py" in MODULES and "_kernel.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_referenced(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(name, line) for name, line in imported_names(tree) if name not in referenced]
    assert unused == [], f"{module}: imported but never referenced"
