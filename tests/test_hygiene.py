"""Static checks over the package source, the demos and the README quick start.

Each check parses source with ``ast``; only the import-name and traced-name checks import ``dckit``.
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
# count here; a new one fails until it is written down. Left: the one Danskin term, a
# central difference of two exact tangent sweeps along the top eigenvector, which both
# curvdc's penalty and gm's curvature variant take from _sharpness.
FD_SITES = {"_sharpness": 1}


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


def log_sum_exp_sites(source: str) -> list[str]:
    """The top-level definitions of ``source`` that call both ``np.exp`` and ``np.log``: each one
    writes a log-sum-exp, such as a softmax cross-entropy, of its own."""
    found = []
    for top in ast.parse(source).body:
        called = {(getattr(node.func.value, "id", None), node.func.attr) for node in ast.walk(top)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
        if {("np", "exp"), ("np", "log")} <= called:
            found.append(getattr(top, "name", "<module>"))
    return found


# The package's one softmax cross-entropy: the training loss, every mean loss (``Mlp.mean_loss``,
# the evaluation's scores), pgd's per-row losses and the con, intra and dis regularizers take
# their values and gradients from it. A softmax alone, such as
# the one in ``_loss_grad_logits_tangent``, takes no log and is not a site.
LOG_SUM_EXP_SITES = {"_loss_value_and_grad"}


def test_log_sum_exp_sites_ratchet():
    assert {name for path in MODULES for name in log_sum_exp_sites(path.read_text())} == LOG_SUM_EXP_SITES


def test_log_sum_exp_site_detected():
    planted = (
        "import math\nimport numpy as np\n\n\n"
        "def xent(z, y):\n    m = z.max(axis=1)\n    return m + np.log(np.exp(z - m[:, None]).sum(axis=1)) - z[y]\n\n\n"
        "class Head:\n    def loss(self, z):\n        return -np.log(np.exp(z) / np.exp(z).sum())\n\n\n"
        "def softmax(z):\n    e = np.exp(z - z.max())\n    return e / e.sum()\n\n\n"
        "def entropy(p):\n    return -np.sum(p * np.log(p))\n\n\n"
        "def mixed(z):\n    return math.log(np.exp(z).sum())\n\n\n"
        "LSE = np.log(np.exp(1.0) + 1.0)\n"
    )
    assert log_sum_exp_sites(planted) == ["xent", "Head", "<module>"]


# The package's one mean of a whole Gram matrix: every other mean k(A, B) is ``gram_mean``'s, which
# streams a gamma-exponential kernel's matrix with the same bits.
GRAM_MEAN_SITES = {"gram_mean"}


def gram_mean_sites(source: str) -> list[str]:
    """The top-level definitions of ``source`` that take ``gram_matrix(...).mean()``."""
    return [getattr(top, "name", "<module>") for top in ast.parse(source).body
            if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "mean"
                   and isinstance(node.func.value, ast.Call) and getattr(node.func.value.func, "id", None) == "gram_matrix"
                   for node in ast.walk(top))]


def test_gram_mean_sites_ratchet():
    assert {name for path in MODULES for name in gram_mean_sites(path.read_text())} == GRAM_MEAN_SITES


def test_gram_mean_site_detected():
    planted = (
        "def ktt(spec, t):\n    return gram_matrix(spec, t, t).mean()\n\n\n"
        "class Step:\n    def __call__(self, rows):\n        return [gram_matrix(k, r, r).mean() for r in rows]\n\n\n"
        "def fine(spec, t, s):\n    k = gram_matrix(spec, t, s)\n    return k.mean(), gram_mean(spec, t, t)\n\n\n"
        "KSS = gram_matrix(SPEC, S, S).mean()\n"
    )
    assert gram_mean_sites(planted) == ["ktt", "Step", "<module>"]


# The package's Gaussian gradient weight -c gamma k r^(gamma - 2): krr's VJP and mmd's step take
# theirs from ``_gaussian_and_weight``, which takes no power at gamma = 2. ``kernel_grad2`` keeps
# its own formula, as the reference that tests compare ``gram_and_vjp`` against.
GAUSSIAN_WEIGHT_SITES = {"_gaussian_and_weight", "kernel_grad2"}


def gaussian_weight_sites(source: str) -> list[str]:
    """The top-level definitions of ``source`` that raise a value to ``gamma - 2``, by ``**``,
    ``**=``, ``power`` or ``pow``."""
    def gamma_minus_2(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and "gamma" in (getattr(node.left, "id", None), getattr(node.left, "attr", None))
                and isinstance(node.right, ast.Constant) and node.right.value == 2)

    def raises(node):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            return gamma_minus_2(node.right if isinstance(node, ast.BinOp) else node.value)
        return (isinstance(node, ast.Call) and _callee(node.func) in ("power", "pow") and len(node.args) == 2
                and gamma_minus_2(node.args[1]))

    return [getattr(top, "name", "<module>") for top in ast.parse(source).body if any(map(raises, ast.walk(top)))]


def test_gaussian_weight_sites_ratchet():
    assert {name for path in MODULES for name in gaussian_weight_sites(path.read_text())} == GAUSSIAN_WEIGHT_SITES


def test_gaussian_weight_site_detected():
    planted = (
        "import numpy as np\n\n\n"
        "def weight(spec, r):\n    return r ** (spec.gamma - 2.0)\n\n\n"
        "class Step:\n    def __call__(self, r, gamma):\n        r **= gamma - 2\n        return r\n\n\n"
        "def via_power(spec, r):\n    return np.power(r, spec.gamma - 2.0)\n\n\n"
        "def fine(spec, r, gamma):\n    return r ** spec.gamma, r ** (gamma - 1.0), r ** 2.0, (gamma - 2) * r\n\n\n"
        "W = R ** (gamma - 2)\n"
    )
    assert gaussian_weight_sites(planted) == ["weight", "Step", "via_power", "<module>"]


def self_dot_sites(source: str) -> list[str]:
    """The top-level definitions of ``source`` that take a squared norm of one name, as ``x @ x`` or
    ``np.dot(x, x)`` (also ``vdot``, ``inner`` or ``matmul``)."""
    def same_name(a, b):
        return isinstance(a, ast.Name) and isinstance(b, ast.Name) and a.id == b.id

    def self_dot(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            return same_name(node.left, node.right)
        return (isinstance(node, ast.Call) and _callee(node.func) in ("dot", "vdot", "inner", "matmul")
                and len(node.args) == 2 and same_name(*node.args))

    return [getattr(top, "name", "<module>") for top in ast.parse(source).body if any(map(self_dot, ast.walk(top)))]


# The package's one squared-norm formula is ``kernels._squared_norms``, the matmul of each (1, h)
# row by its (h, 1) column, which has the bits of ``row @ row`` and takes a stack of rows in one call.
def test_squared_norms_are_taken_in_one_place():
    assert [f"{path.name}:{name}" for path in MODULES for name in self_dot_sites(path.read_text())] == []


def test_self_dot_site_detected():
    planted = (
        "import numpy as np\n\n\n"
        "def gap(a, b):\n    d = a - b\n    return float(d @ d)\n\n\n"
        "class Step:\n    def __call__(self, g):\n        return [np.dot(r, r) for r in g]\n\n\n"
        "def fine(a, b, h):\n    return a @ b, h @ h.T, np.dot(a, b), _squared_norms(a - b)\n\n\n"
        "NORM = V @ V\n"
    )
    assert self_dot_sites(planted) == ["gap", "Step", "<module>"]


# The discrepancy functionals: the CLI layer reaches them only through ``discrepancy.model_free``
# and ``hierarchy_report``, so each value has one definition.
DISCREPANCY_FUNCTIONALS = {"wasserstein1", "hausdorff_distance", "characteristic_discrepancy", "mmd_squared"}


def imported_functionals(source: str) -> list[str]:
    """The discrepancy functionals that ``source`` imports by name."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
            if alias.name.split(".")[-1] in DISCREPANCY_FUNCTIONALS]


@pytest.mark.parametrize("name", ["harness.py", "cli.py"])
def test_cli_layer_imports_no_discrepancy_functional(name):
    assert imported_functionals((SRC / name).read_text()) == []


def test_imported_functional_detected():
    planted = ("from .discrepancy import ModelBatch, wasserstein1\n"
               "from .kernels import KernelSpec, mmd_squared as mmd\n"
               "import dckit.discrepancy\nfrom .discrepancy import model_free\n")
    assert imported_functionals(planted) == ["wasserstein1 (line 1)", "mmd_squared (line 2)"]


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


def scipy_imports(source: str) -> list[str]:
    """The ``import scipy...`` and ``from scipy... import`` statements anywhere in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "scipy":
            found.append(f"{node.module} (line {node.lineno})")
    return found


# numpy is the package's one runtime dependency; scipy serves the tests as an oracle.
@pytest.mark.parametrize("path", [SRC / "__init__.py", *MODULES], ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert scipy_imports(path.read_text()) == []


def test_scipy_import_detected():
    planted = ("import numpy as np\nimport scipy\nfrom scipy.spatial.distance import cdist\n\n\n"
               "def f():\n    import scipy.optimize as opt\n    from .scipy import x\n    return opt, x\n")
    assert scipy_imports(planted) == ["scipy (line 2)", "scipy.spatial.distance (line 3)", "scipy.optimize (line 7)"]


def malloc_tuning(source: str) -> list[str]:
    """Calls of ``mallopt`` or ``malloc_trim`` (by name or attribute), and string constants naming
    a glibc malloc setting: a ``MALLOC_*`` environment variable or a ``GLIBC_TUNABLES`` entry."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _callee(node.func) in ("mallopt", "malloc_trim"):
            found.append(f"{_callee(node.func)} (line {node.lineno})")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and (
                "MALLOC_" in node.value or "GLIBC_TUNABLES" in node.value):
            found.append(f"{node.value!r} (line {node.lineno})")
    return found


# Heap settings are process-wide and glibc-specific, and they would only hide an allocation
# churn: a step that faults its pages back in is mended by reusing its buffers.
@pytest.mark.parametrize("path", [SRC / "__init__.py", *MODULES], ids=lambda p: p.name)
def test_no_malloc_tuning(path):
    assert malloc_tuning(path.read_text()) == []


def test_malloc_tuning_detected():
    planted = ("import ctypes\nimport os\n\nos.environ['MALLOC_TRIM_THRESHOLD_'] = '1000000000'\n\n\n"
               "def tune(libc):\n    libc.mallopt(-1, 1 << 30)\n    os.environ.setdefault('GLIBC_TUNABLES', 'x')\n"
               "    return ctypes.CDLL(None).malloc_trim(0), 'MALLOC'\n")
    assert malloc_tuning(planted) == ["'MALLOC_TRIM_THRESHOLD_' (line 4)", "mallopt (line 8)",
                                      "'GLIBC_TUNABLES' (line 9)", "malloc_trim (line 10)"]


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


def read_names(source: str) -> set:
    """Every name that ``source`` reads: plain names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def uncalled_public_names(sources: dict, callers: list) -> list[str]:
    """Public top-level functions and classes of ``sources``, and the public methods of those
    classes, that no source in ``callers`` names (a definition is not a use of itself)."""
    used = set().union(*map(read_names, callers))
    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            names = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                names += [(f"{node.name}.{m.name}", m.name) for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            found += [f"{module}:{qualified}" for qualified, name in names if name not in used]
    return found


def _callee(func):
    return getattr(func, "id", None) or getattr(func, "attr", None)


def unset_optional_params(sources: dict, callers: list) -> list[str]:
    """Optional parameters of the public top-level functions, and of the public methods of public
    classes, of ``sources`` that no call in ``callers`` sets, by keyword, by position or as a
    keyword or position of ``partial(fn, ...)``. Calls are matched by the called name; a
    ``*args`` call sets every position, and a method's positions start after its ``self`` or
    ``cls``."""
    positions, keywords = {}, {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name, args = _callee(node.func), node.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            n = float("inf") if any(isinstance(a, ast.Starred) for a in args) else len(args)
            positions[name] = max(positions.get(name, 0), n)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords if k.arg)
    found = []
    for module, source in sources.items():
        body = ast.parse(source).body
        defs = [("", fn, 0) for fn in body if isinstance(fn, ast.FunctionDef)]
        defs += [(f"{cls.name}.", fn, int("staticmethod" not in {_callee(d) for d in fn.decorator_list}))
                 for cls in body if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        for owner, fn, bound in defs:
            if fn.name.startswith("_"):
                continue
            a = fn.args
            positional = [*a.posonlyargs, *a.args]
            optional = [(i - bound, arg.arg) for i, arg in enumerate(positional)
                        if i >= len(positional) - len(a.defaults)]
            optional += [(None, arg.arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            found += [f"{module}:{owner}{fn.name}({arg})" for i, arg in optional
                      if arg not in keywords.get(fn.name, ()) and (i is None or positions.get(fn.name, 0) <= i)]
    return found


def missing_traced_names(tracing_source: str) -> list[str]:
    """The ``(module, attr)`` pairs of a tracer's ``FUNCTIONS`` table and the ``Mlp`` methods of
    its ``MLP_METHODS`` table that do not exist; the tracer source is parsed, not run."""
    tables = {node.targets[0].id: [[getattr(e, "value", None) for e in row.elts] for row in node.value.elts]
              for node in ast.parse(tracing_source).body
              if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("FUNCTIONS", "MLP_METHODS")}
    missing = []
    for _, module, attr, _ in tables.get("FUNCTIONS", []):
        try:
            found = hasattr(importlib.import_module(module), attr)
        except ImportError:
            missing.append(module)
            continue
        if not found:
            missing.append(f"{module}.{attr}")
    mlp = importlib.import_module("dckit.models").Mlp
    return missing + [f"Mlp.{attr}" for _, attr, _ in tables.get("MLP_METHODS", []) if attr not in vars(mlp)]


PACKAGE = {p.name: p.read_text() for p in MODULES}
PRODUCTION_CALLERS = [*PACKAGE.values(), *(p.read_text() for p in DEMOS), readme_python_blocks()]
TEST_SOURCES = [p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))]
# Public names whose only callers are the tests. A test aid belongs in tests/conftest.py, so
# this stays empty: a public name with no caller in the package, the demos or the README is
# surface to delete.
TEST_ONLY_NAMES = []


def test_public_names_only_tests_reference():
    assert uncalled_public_names(PACKAGE, PRODUCTION_CALLERS) == TEST_ONLY_NAMES
    assert uncalled_public_names(PACKAGE, PRODUCTION_CALLERS + TEST_SOURCES) == []


def test_uncalled_public_name_detected():
    lib = ("def used(x):\n    return helper(x)\n\n\ndef helper(x):\n    return x\n\n\n"
           "def tested_only():\n    pass\n\n\nclass Box:\n    def open(self):\n        pass\n\n"
           "    def seal(self):\n        pass\n\n    def _hidden(self):\n        pass\n\n\ndef _private():\n    pass\n")
    caller = "from lib import used, Box\nBox().open()\nused(1)\n"
    assert uncalled_public_names({"lib.py": lib}, [lib, caller]) == ["lib.py:tested_only", "lib.py:Box.seal"]
    assert uncalled_public_names({"lib.py": lib}, [lib, caller, "tested_only()\nb.seal()\n"]) == []


# Optional parameters that only the tests set, a ratchet as ``TEST_ONLY_NAMES`` is for names: the
# list may shrink, and a new entry is surface for the package, the demos or the README to use or
# for the change to delete.
TEST_ONLY_OPTIONS = [
    "cli.py:main(argv)",  # the tests substitute the command line for sys.argv
    "condense.py:kcenter_covering(method)",  # criterion 6 compares greedy with exact k-center on the same points
    "discrepancy.py:gradient_discrepancy(mode)",  # the contrastive discrepancy that gm's contrastive variant matches
]


def test_every_optional_parameter_is_set_by_a_call():
    assert unset_optional_params(PACKAGE, PRODUCTION_CALLERS) == TEST_ONLY_OPTIONS
    assert unset_optional_params(PACKAGE, PRODUCTION_CALLERS + TEST_SOURCES) == []


def test_unset_optional_parameter_detected():
    lib = ("def plot(values, path, title='t', width=640, height=400, *, dpi=72, ink=None):\n    pass\n\n\n"
           "def draw(x, seed=0, mixing=None):\n    pass\n\n\n"
           "def spread(a, b=1, c=2):\n    pass\n\n\n"
           "def _private(a, b=1):\n    pass\n\n\n"
           "class Canvas:\n    def fill(self, color, alpha=1.0, blend='over'):\n        pass\n\n"
           "    @classmethod\n    def blank(cls, w, h=1):\n        pass\n\n"
           "    @staticmethod\n    def parse(text, strict=False):\n        pass\n\n"
           "    def _mix(self, a=0):\n        pass\n\n\n"
           "class _Hidden:\n    def show(self, x=0):\n        pass\n")
    callers = ["plot(v, 'p', 'title', width=10)\nobj.plot(v, 'p', ink='red')\n",
               "from functools import partial\nf = partial(draw, mixing=m)\nspread(*args)\n",
               "canvas.fill('red', 0.5)\nCanvas.blank(3, 4)\nCanvas.parse('x')\n"]
    assert unset_optional_params({"lib.py": lib}, callers) == [
        "lib.py:plot(height)", "lib.py:plot(dpi)", "lib.py:draw(seed)", "lib.py:Canvas.fill(blend)",
        "lib.py:Canvas.parse(strict)"]


def test_traced_names_exist():
    assert missing_traced_names((ROOT / "perfbench" / "tracing.py").read_text()) == []


def test_missing_traced_name_detected():
    planted = (
        "FUNCTIONS = (\n"
        "    ('data.load_dataset', 'dckit.data', 'load_dataset', lambda a, k, r: r.n_samples),\n"
        "    ('condense.gone', 'dckit.condense', 'no_such_function', None),\n"
        "    ('gone.f', 'dckit.gone', 'f', None),\n"
        ")\n"
        "MLP_METHODS = (('models.backward', 'backward', None), ('models.gone', 'no_such_method', None))\n"
    )
    assert missing_traced_names(planted) == ["dckit.condense.no_such_function", "dckit.gone", "Mlp.no_such_method"]


def call_sites(sources: dict, name: str) -> list[str]:
    """``module:definition`` for each call of ``name`` (as a plain name or an attribute) in
    ``sources``, named by the top-level definition that holds it (``<module>`` outside one)."""
    return [f"{module}:{getattr(top, 'name', '<module>')}" for module, source in sources.items()
            for top in ast.parse(source).body for node in ast.walk(top)
            if isinstance(node, ast.Call) and _callee(node.func) == name]


def test_default_kernel_is_chosen_in_one_place():
    # every command that falls back to the median-heuristic kernel goes through kernel_or_default
    assert call_sites(PACKAGE, "median_heuristic_spec") == ["kernels.py:kernel_or_default"]


def test_class_statistics_are_compared_in_one_place():
    # the matching engine and the discrepancy report share one formula per statistic, each
    # comparing T's class statistics with one sweep over S's class stack
    assert call_sites(PACKAGE, "_feature_stats") == ["condense.py:_matching_problem", "discrepancy.py:_feature_gap",
                                                     "discrepancy.py:_model_gaps"]
    assert call_sites(PACKAGE, "_feature_gap") == ["condense.py:_matching_problem", "discrepancy.py:_model_gaps"]
    assert call_sites(PACKAGE, "_gradient_gap") == ["condense.py:_matching_problem", "discrepancy.py:_model_gaps"]


def test_eigenvalues_are_solved_in_one_place():
    # a bare power iteration returns the eigenvalue of largest magnitude; max_eigenvalue shifts
    # a negative one away, so every curvature term penalizes the largest signed eigenvalue
    assert set(call_sites(PACKAGE, "_power_iteration")) == {"models.py:max_eigenvalue"}


def test_bare_power_iteration_detected():
    planted = {
        "models.py": "def max_eigenvalue(hvp, p):\n    return _power_iteration(hvp, p, 8, 0)\n",
        "condense.py": "def _penalty(model, hvp, cfg):\n    return models._power_iteration(hvp, model.param_count, 8, 0)\n",
    }
    assert call_sites(planted, "_power_iteration") == ["models.py:max_eigenvalue", "condense.py:_penalty"]


def test_call_site_detected():
    planted = ("def default(k, x):\n    return k or median_heuristic_spec(x)\n\n\n"
               "class Solver:\n    def spec(self, x):\n        return kernels.median_heuristic_spec(x)\n\n\n"
               "SPEC = median_heuristic_spec(X)\nname = 'median_heuristic_spec'\nf = median_heuristic_spec\n")
    assert call_sites({"a.py": planted}, "median_heuristic_spec") == ["a.py:default", "a.py:Solver", "a.py:<module>"]


def post_init_number_checks(source: str) -> list[str]:
    """The ``check_number`` calls in the ``__post_init__`` of a dataclass in ``source``: a config
    field's kind and bound belong in its class's field table, which ``errors.check_fields`` enforces."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or "dataclass" not in {
                _callee(d.func if isinstance(d, ast.Call) else d) for d in cls.decorator_list}:
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                found += [f"{cls.name} (line {node.lineno})" for node in ast.walk(fn)
                          if isinstance(node, ast.Call) and _callee(node.func) == "check_number"]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_config_post_init_checks_no_number_itself(path):
    assert post_init_number_checks(path.read_text()) == []


def test_post_init_number_check_detected():
    planted = (
        "from dataclasses import dataclass\nimport dataclasses\n\n\n"
        "@dataclass(frozen=True)\nclass Run:\n    seed: int = 0\n\n"
        "    def __post_init__(self):\n        check_fields(self, FIELDS)\n"
        "        check_number('seed', self.seed, integer=True)\n\n\n"
        "@dataclasses.dataclass\nclass Spec:\n    scale: float = 1.0\n\n"
        "    def __post_init__(self):\n        if self.scale:\n            errors.check_number('scale', self.scale)\n\n\n"
        "@dataclass\nclass Table:\n    rows: int = 1\n\n"
        "    def __post_init__(self):\n        check_fields(self, {'rows': (int, 1)})\n\n"
        "    def grow(self, n):\n        check_number('n', n, integer=True)\n\n\n"
        "class Plain:\n    def __post_init__(self):\n        check_number('x', 1)\n\n\n"
        "def read(v):\n    check_number('v', v)\n"
    )
    assert post_init_number_checks(planted) == ["Run (line 11)", "Spec (line 20)"]


def _table_rows(table: ast.Dict) -> set:
    """The string keys of a dict literal, with those of a ``**{k: ... for k in (<strings>)}`` entry."""
    rows = set()
    for key, value in zip(table.keys, table.values):
        if key is not None:
            rows.add(key.value)
        elif isinstance(value, ast.DictComp) and isinstance(value.generators[0].iter, ast.Tuple):
            rows |= {e.value for e in value.generators[0].iter.elts}
    return rows


def untabled_fields(source: str) -> dict:
    """For each class of ``source`` whose ``__post_init__`` calls ``check_fields(self, TABLE)``, the
    annotated fields that have no row in TABLE, a module-level dict literal of ``source``."""
    tree = ast.parse(source)
    tables = {node.targets[0].id: _table_rows(node.value) for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Dict)}
    found = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
                continue
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and _callee(call.func) == "check_fields":
                    rows = tables.get(getattr(call.args[1], "id", None), set())
                    found[cls.name] = [f.target.id for f in cls.body
                                       if isinstance(f, ast.AnnAssign) and f.target.id not in rows]
    return found


# Every field of a config class has a row in its class's field table, so ``errors.check_fields``
# checks its kind when the object is built. KernelSpec.model's kind depends on the family, and
# KernelSpec.encoder is duck-typed because ``kernels`` cannot import ``spaces``.
UNTABLED_FIELDS = {"RunConfig": [], "MethodConfig": [], "EvalConfig": [], "TrainConfig": [],
                   "KernelSpec": ["model", "encoder"]}


def test_every_config_field_has_a_table_row():
    assert {name: fields for path in MODULES for name, fields in untabled_fields(path.read_text()).items()} \
        == UNTABLED_FIELDS


def test_untabled_field_detected():
    planted = (
        "from dataclasses import dataclass\n\n"
        "BASE = {'lr': (float, 0), 'epochs': (int, 0)}\n"
        "RUN = {'seed': (int, None), **{k: BASE[k] for k in ('lr',)}}\n\n\n"
        "@dataclass(frozen=True)\nclass Run:\n    seed: int = 0\n    lr: float = 0.1\n    model: object = None\n"
        "    out: str = ''\n\n"
        "    def __post_init__(self):\n        check_fields(self, RUN)\n\n\n"
        "@dataclass\nclass Lost:\n    n: int = 1\n\n"
        "    def __post_init__(self):\n        errors.check_fields(self, MISSING)\n\n\n"
        "@dataclass\nclass Free:\n    x: int = 0\n\n"
        "    def __post_init__(self):\n        check_value('x', self.x, int, 0)\n"
    )
    assert untabled_fields(planted) == {"Run": ["model", "out"], "Lost": ["n"]}
