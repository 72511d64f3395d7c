"""Checks on the package's own source text."""

import ast
from pathlib import Path

import polyrigid


def unused_imports(tree):
    """The names that the module-level imports of a parsed module bind and
    that nothing in the module reads (``from __future__`` binds none)."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_unused_imports_are_caught():
    tree = ast.parse("from math import gcd, lcm\nimport os.path\nimport sys as system\nlcm(system.argv)\n")
    assert unused_imports(tree) == {"gcd", "os"}


def test_no_module_keeps_an_unused_import():
    # the package's __init__ imports to re-export
    package = Path(polyrigid.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            if names := unused_imports(ast.parse(path.read_text(), str(path))):
                found[path.name] = sorted(names)
    assert found == {}
