"""Layering: package code never calls up into the one-point API.

The functions on single `SpacePoint`s are a thin layer over the batched
backend code, so no method of a `_Backend` class in `spaces.py` may read one
of their names, and no other module of the package may import or read them
or `BarycenterProblem`: it works on payload rows.  `__init__.py` only
re-exports the public names.  Written with the stdlib `ast` module only.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "npcsubdiv"
SPACES = PACKAGE / "spaces.py"
POINT_API = {"random_point", "distance", "log_map", "exp_map", "geodesic_point",
             "weighted_barycenter", "euclidean_point", "spd_point", "hyperboloid_point",
             "hyperboloid_from_spatial", "tripod_point"}


def upward_calls(source: str) -> list:
    """(class.method, name) for each read of a one-point name inside a method
    of `_Backend` or of a class derived from it."""
    backends, found = {"_Backend"}, []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name not in backends and not any(
                isinstance(b, ast.Name) and b.id in backends for b in node.bases):
            continue
        backends.add(node.name)
        for method in node.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(f"{node.name}.{method.name}", n.id) for n in ast.walk(method)
                          if isinstance(n, ast.Name) and n.id in POINT_API]
    return found


def test_no_backend_method_reads_the_one_point_api():
    assert upward_calls(SPACES.read_text()) == []


def test_the_checker_flags_an_upward_call():
    source = ("class _Backend:\n    def sampler(self):\n        return random_point(1)\n"
              "class _Flat(_Backend):\n    def random(self):\n        return spd_point(2)\n"
              "class Other:\n    def f(self):\n        return distance(3)\n")
    assert upward_calls(source) == [("_Backend.sampler", "random_point"),
                                    ("_Flat.random", "spd_point")]


def point_api_reads(source: str) -> list:
    """(line, name) for each import or read of a one-point name or of
    `BarycenterProblem`, as a bare name or as a module attribute."""
    names, found = POINT_API | {"BarycenterProblem"}, []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in names]
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_no_other_module_reads_the_one_point_api():
    reads = {path.name: point_api_reads(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in ("spaces.py", "__init__.py")}
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_checker_flags_a_one_point_import_or_read():
    source = ("from .spaces import barycenters, distance\n"
              "from . import spaces\n"
              "def gap(p, q):\n"
              "    problem = BarycenterProblem([p, q], [0.5, 0.5])\n"
              "    return spaces.weighted_barycenter(problem), barycenters(p, q)\n")
    assert point_api_reads(source) == [(1, "distance"), (4, "BarycenterProblem"),
                                       (5, "weighted_barycenter")]
