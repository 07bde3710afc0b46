"""Import hygiene: every top-level import in the package and its tests is used,
every private module-level name of the package is read, and the `test` extra
names exactly the third-party packages the tests import.

A name bound by a module-level `import` or `from ... import` counts as used
when the module reads it anywhere or lists it in `__all__`.  A module-level
`_name` function, class or constant, or an UPPER_CASE constant, of the package
counts as read when some module of the package loads it, reads it as an
attribute, imports it or lists it in `__all__`.  Written with the stdlib `ast`
module only, so deleting code cannot leave a dead import or helper behind.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "npcsubdiv"
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def exported(tree) -> set:
    """The names a module lists in `__all__`."""
    return {e.value for node in tree.body if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for e in node.value.elts if isinstance(e, ast.Constant)}


def unread_names(sources: dict) -> list:
    """(module, line, name) for each private module-level name of the modules
    in `sources` (module name -> source) that none of them reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name] if node.name.startswith("_") else []
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                         and (n.id.startswith("_") or n.id.isupper())]
            else:
                names = []
            defined += [(module, node.lineno, name) for name in names
                        if not name.startswith("__")]
        read |= exported(tree)
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, (ast.Attribute, ast.alias)):
                read.add(n.attr if isinstance(n, ast.Attribute) else n.name)
    return sorted(entry for entry in defined if entry[2] not in read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_checker_flags_dead_imports():
    source = ("import os\nimport numpy as np\nfrom math import pi, tau\n"
              "__all__ = ['tau']\nprint(np.zeros(1))\n")
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def test_every_private_name_of_the_package_is_read():
    assert unread_names({p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}) == []


def test_the_checker_flags_unread_private_names():
    sources = {"a": ("LIMIT = 2\nSTALE = 3\n_USED = 1\n_SHARED = 4\n__all__ = ['LIMIT']\n\n\n"
                     "def _helper():\n    return _USED\n\n\ndef _dead():\n    pass\n\n\n"
                     "class _Gone:\n    pass\n\n\nclass Kept:\n    _slot = 0\n"),
               "b": "from .a import _helper\nimport a\n\nprint(_helper(), a._SHARED)\n"}
    assert unread_names(sources) == [("a", 2, "STALE"), ("a", 12, "_dead"), ("a", 16, "_Gone")]


def requirements(pyproject: str, key: str) -> set:
    """The package names of the list `key = [...]` in a pyproject text, read as
    a Python list literal, so the check needs no TOML reader on 3.10."""
    block = re.search(rf"^{key} = (\[.*?^\])", pyproject, re.M | re.S).group(1)
    return {re.split(r"[<>=!~;\[ ]", spec, maxsplit=1)[0].lower().replace("-", "_")
            for spec in ast.literal_eval(block)}


def extra_faults(pyproject: str, sources: list, local: set) -> list:
    """(package, fault) for each third-party import of `sources` that neither
    the `test` extra nor `dependencies` lists, and each package of the extra
    but pytest that no source imports."""
    imported = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported -= set(sys.stdlib_module_names) | local
    extra = requirements(pyproject, "test")
    listed = extra | requirements(pyproject, "dependencies")
    return sorted([(name, "not listed") for name in imported - listed]
                  + [(name, "not imported") for name in extra - imported - {"pytest"}])


def test_the_test_extra_names_exactly_what_the_tests_import():
    local = {p.stem for p in TESTS.glob("*.py")} | {PACKAGE.name}
    sources = [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert extra_faults((TESTS.parent / "pyproject.toml").read_text(), sources, local) == []


def test_the_checker_flags_unlisted_and_unused_test_packages():
    pyproject = ('[project]\ndependencies = [\n    "numpy>=1.24",\n]\n\n'
                 '[project.optional-dependencies]\ntest = [\n    "pytest>=7",\n'
                 '    "hypothesis>=6",\n    "mpmath>=1.2",\n]\n')
    sources = ["import os\nimport numpy as np\nimport pytest\nfrom scipy import linalg\n",
               "from mpmath import mp\nfrom . import helpers\nimport oracles\n"]
    assert extra_faults(pyproject, sources, {"oracles"}) == [("hypothesis", "not imported"),
                                                            ("scipy", "not listed")]
