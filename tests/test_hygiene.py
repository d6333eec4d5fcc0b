"""Static checks over the package source, the demos and the README quick start.

Each check parses source with ``ast``; only the import-name check imports ``dckit``.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dckit"
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


def default_only_params(source: str) -> list[str]:
    """Parameters that their function rejects unless they equal the default literal.

    The pattern is ``if p != <default>: raise ...``: such a parameter accepts one
    value, so it is no option at all.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        a = fn.args
        positional = [*a.posonlyargs, *a.args]
        pairs = [*zip(positional[len(positional) - len(a.defaults):], a.defaults),
                 *zip(a.kwonlyargs, a.kw_defaults)]
        defaults = {arg.arg: d.value for arg, d in pairs if isinstance(d, ast.Constant)}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                    and len(node.body) == 1 and isinstance(node.body[0], ast.Raise)):
                continue
            test = node.test
            if len(test.ops) != 1 or not isinstance(test.ops[0], ast.NotEq):
                continue
            for name, other in ((test.left, test.comparators[0]), (test.comparators[0], test.left)):
                if (isinstance(name, ast.Name) and name.id in defaults and isinstance(other, ast.Constant)
                        and other.value == defaults[name.id]):
                    found.append(f"{fn.name}({name.id}) (line {node.lineno})")
    return found


def variant_gets(source: str) -> list[str]:
    """``.get(...)`` calls whose receiver is ``variants``, a subscript of it or a chain from it.

    ``MethodConfig`` fills in every variant parameter's default from the one
    variant table, so such a call can only restate, or contradict, that default.
    """
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get"):
            continue
        receiver = node.func.value
        while isinstance(receiver, (ast.Call, ast.Subscript, ast.Attribute, ast.Name)):
            if getattr(receiver, "id", None) == "variants" or getattr(receiver, "attr", None) == "variants":
                lines.add(node.lineno)
                break
            receiver = receiver.func if isinstance(receiver, ast.Call) else getattr(receiver, "value", None)
    return [f"line {n}" for n in sorted(lines)]


def _fd_site(node) -> bool:
    """A call of ``_central_diff``, or an inline central difference: a quotient by ``2 * h``
    (h a name) of an expression holding a subtraction, as in ``c * (f(x + h) - f(x - h)) / (2 * h)``."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) == "_central_diff"
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
        return False
    d = node.right
    two_h = (isinstance(d, ast.BinOp) and isinstance(d.op, ast.Mult)
             and {type(d.left), type(d.right)} == {ast.Constant, ast.Name}
             and 2 in (getattr(d.left, "value", None), getattr(d.right, "value", None)))
    return two_h and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub) for n in ast.walk(node.left))


def central_diff_sites(source: str) -> dict:
    """Finite-difference sites (``_fd_site``) per enclosing top-level function or class."""
    sites = {}
    for top in ast.parse(source).body:
        n = sum(_fd_site(node) for node in ast.walk(top))
        if n:
            sites[top.name] = n
    return sites


def central_diff_helpers(source: str) -> list[str]:
    """Definitions and imports of a ``_central_diff`` helper: the oracle lives in the tests."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "_central_diff":
            found.append(f"def (line {node.lineno})")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                a.name.split(".")[-1] == "_central_diff" for a in node.names):
            found.append(f"import (line {node.lineno})")
    return found


# Each finite-difference gradient site in production code. Removing one lowers its
# count here; a new one fails until it is written down. Left: the two Danskin terms,
# each a central difference of an exact tangent sweep along the top eigenvector
# (curvdc's lambda term in _bptt_value_and_grad, and the gm curvature penalty's S gradient).
FD_SITES = {"_bptt_value_and_grad": 1, "_curvature_penalty": 1}


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detected():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_default_only_params(path):
    assert default_only_params(path.read_text()) == []


def test_default_only_param_detected():
    planted = (
        "def w1(t, s, ground_metric='euclidean', *, norm='l_inf'):\n"
        "    if ground_metric != 'euclidean':\n"
        "        raise ValueError('only euclidean')\n"
        "    if 'l_inf' != norm:\n"
        "        raise ValueError('only l_inf')\n"
    )
    assert default_only_params(planted) == ["w1(ground_metric) (line 2)", "w1(norm) (line 4)"]
    fine = (
        "def f(mode='a', k=1):\n"
        "    if mode != 'b':\n"
        "        raise ValueError(mode)\n"
        "    if mode not in ('a', 'b'):\n"
        "        raise ValueError(mode)\n"
        "    if k != 1:\n"
        "        k = 1\n"
    )
    assert default_only_params(fine) == []


def test_no_dead_private_code():
    assert unreferenced_private_defs({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def test_dead_private_code_detected():
    a = "def _used():\n    pass\n\n\ndef _dead():\n    return 1\n\n\nclass _Gone:\n    pass\n"
    b = "from .a import _used\n"
    assert unreferenced_private_defs({"a.py": a, "b.py": b}) == ["_Gone (a.py line 9)", "_dead (a.py line 5)"]
    assert "_used (a.py line 1)" in unreferenced_private_defs({"a.py": a})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_variant_parameter_lookups(path):
    assert variant_gets(path.read_text()) == []


def test_variant_parameter_lookup_detected():
    planted = (
        "eps = cfg.variants.get('robust_outer', {}).get('eps', 0.0)\n"
        "r = int(self.cfg.variants['multiform'].get('r', 2))\n"
        "k = variants.get('kmeans_proxy')\n"
    )
    assert variant_gets(planted) == ["line 1", "line 2", "line 3"]
    fine = "s = cfg.variants['dp_grad']['sigma']\nk = params.get('k', None)\nv = d.get('variants')\n"
    assert variant_gets(fine) == []


def test_central_diff_sites_ratchet():
    sites = {}
    for path in MODULES:
        for name, n in central_diff_sites(path.read_text()).items():
            sites[name] = sites.get(name, 0) + n
    assert sites == FD_SITES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_central_diff_helper(path):
    assert central_diff_helpers(path.read_text()) == []


def test_central_diff_helper_detected():
    planted = (
        "from .kernels import _central_diff\n"
        "from tests.conftest import central_diff\n"
        "import dckit._central_diff\n\n\n"
        "def _central_diff(fn, x):\n    return x\n"
    )
    assert central_diff_helpers(planted) == ["import (line 1)", "import (line 3)", "def (line 6)"]


def test_central_diff_site_detected():
    planted = (
        "def _central_diff(fn, x):\n    return x\n\n\n"
        "def objective(v):\n    g = _central_diff(len, v)\n    return lambda u: _central_diff(len, u) + g\n\n\n"
        "class Solver:\n    def step(self, v):\n        return _central_diff(len, v)\n\n\n"
        "def exact(v):\n    return central_diff(v) + obj._central_diff\n\n\n"
        "def danskin(f, u, h, c):\n    return c * (f(u + h) - f(u - h)) / (2 * h) + (f(u) - u) / 2\n\n\n"
        "def bandwidth(med, gamma, a, b):\n    return (a - b) / (2.0 * med**gamma)\n"
    )
    assert central_diff_sites(planted) == {"objective": 2, "Solver": 1, "danskin": 1}


# pyproject.toml declares numpy>=1.24: these names exist only from numpy 2.0 on.
NUMPY2_ONLY = {"mT", "mH", "vecdot", "matvec", "vecmat", "matrix_transpose", "permute_dims", "unstack",
               "concat", "isdtype", "cumulative_sum", "cumulative_prod", "bitwise_count"}


def numpy2_only_uses(source: str) -> list[str]:
    """Attributes ``.mT``/``.mH`` of any object, and numpy-2-only functions as ``np.<name>``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in NUMPY2_ONLY:
            if node.attr in ("mT", "mH") or getattr(node.value, "id", None) == "np":
                found.append(f"{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy2_only_api(path):
    assert numpy2_only_uses(path.read_text()) == []


def test_numpy2_only_api_detected():
    planted = "import numpy as np\n\n\ndef f(a, b):\n    return a.mT @ b, np.vecdot(a, b), a.T, np.swapaxes(a, -1, -2), b.concat\n"
    assert numpy2_only_uses(planted) == ["mT (line 5)", "vecdot (line 5)"]


def missing_dckit_imports(source: str) -> list[str]:
    """Names that ``from dckit[.module] import ...`` statements in ``source`` ask for but the package
    lacks, found with ``getattr`` on the imported module; the source itself is not run."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dckit":
            try:
                module = importlib.import_module(node.module)
            except ImportError:
                missing.append(f"{node.module} (line {node.lineno})")
                continue
            missing += [f"{node.module}.{a.name} (line {node.lineno})" for a in node.names
                        if not hasattr(module, a.name)]
    return missing


DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 7


def readme_python_blocks() -> str:
    return "\n".join(re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    assert missing_dckit_imports(path.read_text()) == []


def test_readme_quick_start_imports_exist():
    source = readme_python_blocks()
    assert "from dckit import" in source
    assert missing_dckit_imports(source) == []


def test_missing_dckit_import_detected():
    planted = (
        "import numpy as np\n"
        "from dckit import Mlp, push_forward_dataset\n"
        "from dckit.kernels import gram_matrix, _central_diff\n"
        "from dckit.nowhere import thing\n"
    )
    assert missing_dckit_imports(planted) == [
        "dckit.push_forward_dataset (line 2)", "dckit.kernels._central_diff (line 3)", "dckit.nowhere (line 4)"]
