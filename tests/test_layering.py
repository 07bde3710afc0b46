"""Layering: package code never calls up into the one-point API, and each
kind's rules stay in its backend class.

The functions on single `SpacePoint`s are a thin layer over the batched
backend code, so no method of a `_Backend` class in `spaces.py` may read one
of their names, and no other module of the package may import or read them
or `BarycenterProblem`: it works on payload rows.  `__init__.py` only
re-exports the public names.  No module but `spaces` may read the registry
`_BACKENDS` or the kind names `KINDS` and `TRIPOD`, and no code outside the
backend classes and the registry lookup of `SpaceDescriptor` may compare a
`.kind`: a descriptor's `backend` answers for its kind.  Written with the
stdlib `ast` module only.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "npcsubdiv"
SPACES = PACKAGE / "spaces.py"
POINT_API = {"random_point", "distance", "log_map", "exp_map", "geodesic_point",
             "weighted_barycenter", "euclidean_point", "spd_point", "hyperboloid_point",
             "hyperboloid_from_spatial", "tripod_point"}


REGISTRY = {"_BACKENDS", "KINDS", "TRIPOD"}


def backend_classes(tree) -> list:
    """The top-level class nodes of `_Backend` and of the classes derived from it."""
    names, found = {"_Backend"}, []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and (node.name in names or any(
                isinstance(b, ast.Name) and b.id in names for b in node.bases)):
            names.add(node.name)
            found.append(node)
    return found


def upward_calls(source: str) -> list:
    """(class.method, name) for each read of a one-point name inside a method
    of `_Backend` or of a class derived from it."""
    found = []
    for node in backend_classes(ast.parse(source)):
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


def name_reads(source: str, names) -> list:
    """(line, name) for each import or read of one of names, as a bare name or
    as a module attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in names]
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
    return sorted(found)


def point_api_reads(source: str) -> list:
    """`name_reads` of the one-point names and `BarycenterProblem`."""
    return name_reads(source, POINT_API | {"BarycenterProblem"})


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


def space_kind(node) -> bool:
    """Whether node reads a `.kind` other than numpy's `dtype.kind`."""
    return isinstance(node, ast.Attribute) and node.attr == "kind" and not (
        isinstance(node.value, ast.Attribute) and node.value.attr == "dtype")


def kind_comparisons(source: str, allowed=()) -> list:
    """(line, text) of each comparison with a `.kind` operand outside the
    top-level classes named in allowed."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef) and top.name in allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Compare) and any(
                    map(space_kind, (node.left, *node.comparators))):
                found.append((node.lineno, ast.unparse(node)))
    return found


def registry_classes(source: str) -> set:
    """The backend classes and `SpaceDescriptor`, whose `__post_init__` looks
    its kind up in the registry: where `spaces` may compare a `.kind`."""
    return {node.name for node in backend_classes(ast.parse(source))} | {"SpaceDescriptor"}


def test_no_module_but_spaces_reads_the_registry_or_a_kind_name():
    reads = {path.name: name_reads(path.read_text(), REGISTRY)
             for path in sorted(PACKAGE.glob("*.py")) if path != SPACES}
    assert {name: found for name, found in reads.items() if found} == {}


def test_no_code_outside_the_backends_and_the_registry_compares_a_kind():
    found = {path.name: kind_comparisons(path.read_text(), registry_classes(
        path.read_text()) if path == SPACES else ()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


def test_the_checkers_flag_a_planted_kind_test():
    source = ("from .spaces import TRIPOD, SpaceDescriptor\n"
              "def _plan(mask, x):\n"
              "    if x.descriptor.kind != TRIPOD:\n"
              "        return spaces._BACKENDS[x.descriptor.kind]\n")
    assert kind_comparisons(source) == [(3, "x.descriptor.kind != TRIPOD")]
    assert kind_comparisons("ok = arr.dtype.kind in 'iuf'\n") == []
    assert name_reads(source, REGISTRY) == [(1, "TRIPOD"), (3, "TRIPOD"), (4, "_BACKENDS")]
    spaces = ("class _Backend:\n    def f(self, d):\n        return d.kind == 'spd'\n"
              "class _Flat(_Backend):\n    pass\n"
              "def g(d):\n    return d.kind in KINDS\n")
    assert registry_classes(spaces) == {"_Backend", "_Flat", "SpaceDescriptor"}
    assert kind_comparisons(spaces, registry_classes(spaces)) == [(7, "d.kind in KINDS")]
