"""Checks on the package's own source text, and on the names that the
benchmark's tracer looks up in it."""

import ast
import importlib
import inspect
import re
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


def function_imports(tree):
    """The line numbers of the imports inside function bodies: ones that
    ``unused_imports`` does not see, and that hide an import cycle."""
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted({
        node.lineno
        for function in functions
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


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


def test_function_imports_are_caught():
    tree = ast.parse("import os\ndef f():\n    def g():\n        from math import gcd\n    import sys\n")
    assert function_imports(tree) == [4, 5]


def test_no_module_imports_inside_a_function():
    package = Path(polyrigid.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        if lines := function_imports(ast.parse(path.read_text(), str(path))):
            found[path.name] = lines
    assert found == {}


def float_lines(tree):
    """The line numbers of the float literals in a parsed module, and of
    the places that name ``float``."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Name) and node.id == "float"
    })


def test_float_uses_are_caught():
    tree = ast.parse("x = 1\ny = 2.5\nz = float(x)\nw = 3e0\nv = x.float\nu = 10**6\n")
    assert float_lines(tree) == [2, 3, 4]


def test_floats_stay_in_the_falsifier():
    # every verdict is exact: only the numeric falsifier computes in floats
    package = Path(polyrigid.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        if lines := float_lines(ast.parse(path.read_text(), str(path))):
            found[path.name] = lines
    assert set(found) == {"oracle.py"}


def rank_calls(tree):
    """The (enclosing function, line) of every call in a parsed module to
    ``mat_rank`` or ``rank_exact``, by name or as an attribute."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if callee in ("mat_rank", "rank_exact"):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_rank_calls_are_caught():
    tree = ast.parse(
        "from .linalg import mat_rank\nrank_exact = mat_rank\n"
        "def f(rows):\n    return mat_rank(rows)\n"
        "class C:\n    def g(self):\n        return linalg.rank_exact([])\n"
        "n = mat_rank([[1]])\n"
    )
    assert rank_calls(tree) == [("f", 4), ("g", 7), (None, 8)]


def test_colouring_ranks_use_the_tagged_elimination():
    # every colouring-matrix rank reads the sparse tagged elimination in
    # framework.py; the dense Fraction rank is left to the norm's check
    # that its face normals span the space (``rank_exact`` stays public)
    package = Path(polyrigid.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        if calls := rank_calls(ast.parse(path.read_text(), str(path))):
            found[path.name] = [function for function, _ in calls]
    assert found == {"norm.py": ["__init__"]}


def unreached_functions(defining, reading, text=""):
    """The module-level functions of the parsed modules ``defining`` that no
    parsed module of ``reading`` names, as a variable or an attribute, and
    that no word of ``text`` names; a ``def`` or an import alone names
    nothing."""
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in reading
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    named |= set(re.findall(r"\w+", text))
    return sorted(
        node.name
        for tree in defining
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name not in named
    )


def test_unreached_functions_are_caught():
    defining = [ast.parse("def f():\n    return g()\ndef g():\n    pass\ndef h():\n    pass\n"
                          "def k():\n    pass\nclass C:\n    def method(self):\n        pass\n")]
    reading = [*defining, ast.parse("import m\nm.k()\nfrom m import h\n")]
    assert unreached_functions(defining, reading) == ["f", "h"]
    assert unreached_functions(defining, reading, "call `f` first") == ["h"]


def test_library_functions_have_a_caller_outside_the_tests():
    # a function that only the tests reach belongs in tests/_oracles.py; of
    # the four that stay, acceptance 7 calls two as the spec's API, and two
    # are exported beside path_graph and is_2_connected
    root = Path(__file__).resolve().parent.parent
    package = Path(polyrigid.__file__).parent
    defining = [ast.parse(path.read_text(), str(path))
                for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    others = [*sorted((root / "demos").glob("*.py")),
              *(path for path in sorted((root / "bench").glob("*.py")) if path.name != "test_bench.py")]
    reading = [*defining, *(ast.parse(path.read_text(), str(path)) for path in others)]
    assert unreached_functions(defining, reading, (root / "README.md").read_text()) == [
        "cycle_graph", "is_2_edge_connected", "is_rigid_linf_by_colour", "project_framework"]


def test_every_traced_name_resolves():
    # bench/spans.py wraps each (module, attribute) of TARGETS by name: a
    # function of the module, or a method in its class's __dict__; read as
    # text, so nothing under bench/ runs
    spans = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    tree = ast.parse(spans.read_text(), str(spans))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    missing = []
    for module_name, attr, _ in targets:
        module = importlib.import_module(f"polyrigid.{module_name}")
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            found = inspect.isclass(cls := getattr(module, cls_name, None)) and method in vars(cls)
        else:
            found = inspect.isfunction(getattr(module, attr, None))
        if not found:
            missing.append((module_name, attr))
    assert targets and missing == []
