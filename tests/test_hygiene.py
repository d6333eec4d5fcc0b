"""Static checks over the package source that need nothing beyond the standard library."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dckit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name in ("*", "annotations"):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def unreferenced_private_defs(sources: dict) -> list[str]:
    """Module-level ``_private`` functions and classes that no module in ``sources`` names.

    A definition's own ``def``/``class`` line is not a use; a call, an attribute
    access or a ``from .x import _name`` anywhere in ``sources`` is.
    """
    defined, used = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined[node.name] = f"{module} line {node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{name} ({where})" for name, where in sorted(defined.items()) if name not in used]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detected():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\nc()\n") == []


def test_no_dead_private_code():
    assert unreferenced_private_defs({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def test_dead_private_code_detected():
    a = "def _used():\n    pass\n\n\ndef _dead():\n    return 1\n\n\nclass _Gone:\n    pass\n"
    b = "from .a import _used\n"
    assert unreferenced_private_defs({"a.py": a, "b.py": b}) == ["_Gone (a.py line 9)", "_dead (a.py line 5)"]
    assert "_used (a.py line 1)" in unreferenced_private_defs({"a.py": a})
