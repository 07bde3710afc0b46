"""Malformed input files reach the CLI as typed errors, never as tracebacks.

The named cases each pin one refusal.  The battery replaces one leaf of a
valid mask file or grid file with a string, a float, a bool, null or a nested
list, and runs `validate` and `subdivide --levels 1` in-process: each run exits
0, or exits 1 with stderr holding exactly one error object.
"""

import io
import json
import math
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from npcsubdiv import (SpaceDescriptor, bspline_mask, chaikin_mask, euclidean_point,
                       tensor_power)
from npcsubdiv.cli import main
from npcsubdiv.grid import grid_from_points, grid_to_json, random_grid
from npcsubdiv.masks import mask_to_json

MASK = mask_to_json(chaikin_mask())
GRIDS = {kind: grid_to_json(random_grid(SpaceDescriptor(kind, 2), (0,), (4,),
                                        np.random.default_rng(7)))
         for kind in ("euclidean", "spd", "hyperboloid", "tripod")}
FILES = {"mask": MASK, **GRIDS}


def leaves(obj, path=()):
    """Paths to the scalar leaves of a JSON object."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        yield path
        return
    for key, value in items:
        yield from leaves(value, path + (key,))


def replaced(obj, path, value):
    """A copy of obj with the leaf at path set to value."""
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


def run(argv):
    """(exit code, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def assert_handled_or_refused(argv, case):
    rc, err = run(argv)
    if rc == 0:
        assert err == "", case
    else:
        assert rc == 1, case
        error = json.loads(err)  # exactly one JSON document
        assert set(error) == {"error"}, case
        assert set(error["error"]) == {"type", "message"}, case


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")
    for name, obj in FILES.items():
        (root / f"{name}.json").write_text(json.dumps(obj))
    return root


# -- named cases ------------------------------------------------------------------

def expect(root, argv, error_type):
    rc, err = run([str(root / a) if a.endswith(".json") else a for a in argv])
    assert rc == 1
    assert json.loads(err)["error"]["type"] == error_type


@pytest.mark.parametrize("mask,path,value", (
    (MASK, ("coeffs",), [0.25, "x", 0.75, 0.25]),
    (MASK, ("coeffs",), [[1], [1, 2]]),
    (MASK, ("coeffs", 1), True),
    (MASK, ("dim",), True),
    (MASK, ("dim",), 1.0),
    (MASK, ("offset",), [0.0]),
    (mask_to_json(tensor_power(bspline_mask(), 2)), ("offset",), "00"),
))
def test_malformed_masks_are_structural_errors(root, mask, path, value):
    (root / "bad.json").write_text(json.dumps(replaced(mask, path, value)))
    expect(root, ["validate", "--mask", "bad.json"], "StructuralError")


@pytest.mark.parametrize("name,path,value", (
    ("euclidean", ("points", 0), {"v": ["a"]}),
    ("tripod", ("points", 1, "leg"), 1.9),
    ("tripod", ("points", 1, "t"), "0.5"),
    ("euclidean", ("descriptor", "dim"), "2"),
    ("euclidean", ("descriptor", "dim"), 2.9),
))
def test_malformed_grids_are_structural_errors(root, name, path, value):
    (root / "bad.json").write_text(json.dumps(replaced(FILES[name], path, value)))
    expect(root, ["subdivide", "--mask", "mask.json", "--data", "bad.json",
                  "--levels", "1"], "StructuralError")


def test_level_counts_past_the_cap_are_resource_errors(root):
    four = grid_from_points(SpaceDescriptor("euclidean", 1), (0,), (3,),
                            [euclidean_point([float(i)]) for i in range(4)])
    (root / "four.json").write_text(json.dumps(grid_to_json(four)))
    expect(root, ["subdivide", "--mask", "mask.json", "--data", "four.json",
                  "--levels", "30"], "ResourceError")


@pytest.mark.parametrize("p", ("nan", "inf"))
def test_non_finite_moment_exponents_are_domain_errors(root, p):
    expect(root, ["lp", "--mask", "mask.json", "--start", "1", "--p", p],
           "DomainError")


def test_chain_state_of_the_wrong_dimension_is_a_structural_error(root):
    expect(root, ["chain", "--mask", "mask.json", "--start", "0,0", "--steps", "1"],
           "StructuralError")


# -- the battery ------------------------------------------------------------------

# text, nan, +-inf, bools, null, nested lists, floats whose squares overflow, a
# fraction, a negative, -0.0, the smallest subnormal and the largest float
BAD_LEAVES = ("x", "", math.nan, math.inf, -math.inf, True, False, None, [[1]], [[-2, 2], []],
              1.3407807929942597e+154, -1e300, 0.5, -1.0, -0.0, 5e-324, 1.7976931348623157e+308)
# the j-th leaf of a file takes bad leaves 3j, 3j + 1 and 3j + 2 (mod their
# count), so each file with six or more leaves meets every bad leaf
PAIRS = [((name, path), (3 * j + r) % len(BAD_LEAVES)) for name, obj in FILES.items()
         for j, path in enumerate(leaves(obj)) for r in range(3)]
EXAMPLES = [(("mask", ("coeffs", 1)), "x"), (("mask", ("offset", 0)), True),
            (("tripod", ("points", 0, "leg")), 0.0), (("spd", ("points", 2, "m", 0)), [[1]]),
            (("hyperboloid", ("descriptor", "dim")), 0.5),
            (("hyperboloid", ("points", 0, "p", 0)), -1.0)]


def test_one_bad_leaf_is_handled_or_refused(root):
    assert len(PAIRS) >= 200 and min(Counter(case for case, _ in PAIRS).values()) >= 2
    assert {(case[0], k) for case, k in PAIRS} == {(name, k) for name in FILES
                                                   for k in range(len(BAD_LEAVES))}
    bad = root / "battery.json"
    for case, value in EXAMPLES + [(case, BAD_LEAVES[k]) for case, k in PAIRS]:
        (name, path), label = case, (case, value)
        bad.write_text(json.dumps(replaced(FILES[name], path, value)))
        if name == "mask":
            assert_handled_or_refused(["validate", "--mask", str(bad)], label)
            assert_handled_or_refused(["subdivide", "--mask", str(bad), "--data",
                                       str(root / "euclidean.json"), "--levels", "1"], label)
        else:
            assert_handled_or_refused(["subdivide", "--mask", str(root / "mask.json"),
                                       "--data", str(bad), "--levels", "1"], label)
