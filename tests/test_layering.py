"""Layering: the backend classes never call up into the one-point API.

The functions on single `SpacePoint`s are a thin layer over the batched
backend code, so no method of a `_Backend` class in `spaces.py` may read one
of their names.  Written with the stdlib `ast` module only.
"""

import ast
from pathlib import Path

SPACES = Path(__file__).resolve().parents[1] / "src" / "npcsubdiv" / "spaces.py"
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
