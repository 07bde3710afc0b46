"""Grid windows, the boundary rule, interior-box arithmetic, JSON."""

import json

import numpy as np
import pytest

from npcsubdiv import (DomainError, GridData, NumericError, SpaceDescriptor,
                       SpacePoint, StructuralError, bspline_mask, chaikin_mask,
                       convergence_diagnostic, euclidean_point, exp_map,
                       iterate, make_mask, nonassociativity_gap, tripod_point)
from npcsubdiv.grid import (box_indices, box_is_empty,
                            check_interior_depth, grid_from_function,
                            grid_from_json, grid_from_points, grid_to_json,
                            minimal_window_width, random_grid,
                            refined_interior, refined_window)
from npcsubdiv import grid, spaces
from npcsubdiv.masks import translate
from npcsubdiv.spaces import hyperboloid_from_spatial, point_from_json
from oracles import points_equal

EU = SpaceDescriptor("euclidean", 1)
B = bspline_mask()
C = chaikin_mask()


def ramp(lo, hi):
    pts = [euclidean_point([float(i)]) for i in range(lo, hi + 1)]
    return grid_from_points(EU, (lo,), (hi,), pts)


# -- reads and the boundary rule ---------------------------------------------------

def test_get_inside_and_outside_the_window():
    x = ramp(0, 3)
    assert x.get((2,)).payload[0] == 2.0
    assert x.get(2).payload[0] == 2.0  # bare int accepted for dim 1
    assert x.get((5,)).payload[0] == 3.0   # clamps to the nearest stored node
    assert x.get((-2,)).payload[0] == 0.0


def test_get_past_int64_takes_the_nearest_node():
    """Indices are clamped as Python ints, so no OverflowError at any size."""
    x = ramp(0, 3)
    assert x.get((2 ** 70,)).payload[0] == 3.0
    assert x.get((-2 ** 70,)).payload[0] == 0.0
    y = grid_from_function(SpaceDescriptor("euclidean", 2), (0, -1), (1, 1),
                           lambda i: euclidean_point([float(i[0]), float(i[1])]))
    assert y.get((-2 ** 70, 2 ** 70)).payload.tolist() == [0.0, 1.0]
    assert y.get((2 ** 63, -2 ** 64)).payload.tolist() == [1.0, -1.0]


def test_window_and_point_validation():
    pts = [euclidean_point([0.0])]
    with pytest.raises(StructuralError):
        grid_from_points(EU, (1,), (0,), pts)
    with pytest.raises(StructuralError, match="^empty window$"):
        GridData(EU, (1,), (0,), np.zeros((0, 1)))
    with pytest.raises(StructuralError):
        grid_from_points(EU, (0,), (1,), pts)  # one point for a 2-node window
    with pytest.raises(StructuralError):
        grid_from_points(EU, (0,), (0,), [tripod_point(0, 1.0)])
    x = ramp(0, 3)
    with pytest.raises(StructuralError):
        x.get((0, 0))
    with pytest.raises(StructuralError):
        x.get((2.5,))
    assert x.get((np.int64(2),)).payload[0] == 2.0


# -- storage contract ---------------------------------------------------------------

@pytest.mark.parametrize("kind,dim,shape", (("spd", 2, (4, 3, 3)), ("tripod", 1, (4, 3)),
                                            ("euclidean", 2, (3, 2))))
def test_payload_shape_must_match_the_window_and_descriptor(kind, dim, shape):
    with pytest.raises(StructuralError):
        GridData(SpaceDescriptor(kind, dim), (0,), (3,), np.ones(shape))


EYE = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("desc,payloads,error,message", (
    (SpaceDescriptor("tripod"), [[5, 1], [0, 2], [1, -3]], StructuralError, "leg must be"),
    (SpaceDescriptor("tripod"), [[1, 1], [0, 2], [1, -3]], DomainError, "must be >= 0"),
    (SpaceDescriptor("hyperboloid", 1), [[1, 0], [5, 0], [1, 0]], StructuralError,
     "not on the unit hyperboloid"),
    (SpaceDescriptor("hyperboloid", 1), [[1, 0], [-1, 0], [1, 0]], StructuralError,
     "positive time coordinate"),
    (SpaceDescriptor("hyperboloid", 1), [[1, 0], [1.35e154, 1.35e154], [1, 0]], NumericError,
     "leaves the float range"),
    (SpaceDescriptor("hyperboloid", 1), [[1, 0], [1.35e154, -1.35e154], [1, 0]], NumericError,
     "leaves the float range"),
    (SpaceDescriptor("spd", 2), [EYE, [[1, 2], [2, 1]], EYE], StructuralError,
     "positive definite"),
    (SpaceDescriptor("spd", 2), [EYE, [[1, 2], [0, 1]], EYE], StructuralError, "symmetric"),
    (SpaceDescriptor("euclidean", 1), [[0], [float("nan")], [1]], NumericError, "non-finite"),
    (SpaceDescriptor("tripod"), [[0, 1], [2, float("nan")], [1, 3]], NumericError,
     "non-finite"),
), ids=("bad-leg", "negative-t", "off-sheet", "past-sheet", "overflow", "overflow-negative",
        "not-spd", "not-symmetric", "nan", "tripod-nan"))
def test_grid_rows_must_be_points_of_the_backend(desc, payloads, error, message):
    """The batched check of GridData raises what the point constructors raise."""
    with pytest.raises(error, match=message):
        GridData(desc, (0,), (2,), payloads)


def test_a_hyperboloid_row_passes_up_to_where_its_form_overflows():
    """<p,p>_M squares the coordinates, which stay below sqrt(max float) = 1.34e154."""
    row = [1.3e154, 1.3e154]
    assert GridData(SpaceDescriptor("hyperboloid", 1), (0,), (2,), [[1, 0], row, [1, 0]]) \
        .payloads[1].tolist() == row


def test_a_grid_keeps_the_glue_point_on_leg_0():
    x = GridData(SpaceDescriptor("tripod"), (0,), (1,), [[2, 0.0], [1, 0.5]])
    assert x.payloads.tolist() == [[0.0, 0.0], [1.0, 0.5]]
    assert x.get((0,)).payload == tripod_point(2, 0.0).payload == (0, 0.0)


@pytest.mark.parametrize("kind,dim", (("spd", 2), ("hyperboloid", 2), ("tripod", 1)))
def test_stored_payloads_are_read_only(kind, dim):
    x = random_grid(SpaceDescriptor(kind, dim), (0,), (3,), np.random.default_rng(5))
    with pytest.raises(ValueError):
        x.payloads[1] = x.payloads[0]
    p = x.get((1,)).payload
    if kind != "tripod":  # a tripod payload is an immutable (leg, t) tuple
        with pytest.raises(ValueError):
            p[0] = 7.0
    source = np.array(x.payloads)
    copy = GridData(x.descriptor, x.lo, x.hi, source)
    source[0] = source[1]  # the grid keeps its own copy
    assert np.array_equal(copy.payloads, x.payloads)


@pytest.mark.parametrize("kind,dim", (("spd", 2), ("tripod", 1), ("euclidean", 3)))
def test_points_view_agrees_with_get(kind, dim):
    x = random_grid(SpaceDescriptor(kind, dim), (-1, 0), (1, 2), np.random.default_rng(8))
    views = list(x.points.flat)
    gets = [x.get(i) for i in x.indices()]
    assert x.points.shape == (3, 3) and len(views) == len(gets)
    for v, g in zip(views, gets):
        assert v.descriptor == g.descriptor
        assert np.array_equal(np.asarray(v.payload), np.asarray(g.payload))
        assert type(v.payload) is type(g.payload)


def test_grid_from_function_rejects_a_foreign_descriptor():
    with pytest.raises(StructuralError):
        grid_from_function(EU, (0,), (2,),
                           lambda i: tripod_point(0, 1.0) if i == (1,) else euclidean_point([0.0]))


def test_grid_from_function_reads_each_corner_once_before_the_constructor(monkeypatch):
    reads = []
    read = grid.lattice_point
    monkeypatch.setattr(grid, "lattice_point", lambda v, *a, **k: reads.append(v) or read(v, *a, **k))
    x = grid_from_function(EU, [0], [2], lambda i: euclidean_point([float(i[0])]))
    # its own read, which the node indices need, and then that of GridData
    assert reads == [[0], [2], (0,), (2,)] and x.payloads.ravel().tolist() == [0.0, 1.0, 2.0]


def test_refinement_builds_no_point_objects(monkeypatch):
    x = random_grid(SpaceDescriptor("spd", 2), (0,), (9,), np.random.default_rng(2))
    tripod = random_grid(SpaceDescriptor("tripod"), (0,), (9,), np.random.default_rng(3))
    built = []
    init = SpacePoint.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SpacePoint, "__init__", spy)
    for mask in (B, C):
        trace = iterate(mask, x, 4)
        convergence_diagnostic(mask, x, 4)
        for data in (x, tripod):
            nonassociativity_gap(mask, data, (10,), 2)
    assert built == []
    assert trace.levels[-1].points.size == trace.levels[-1].payloads.shape[0]
    assert len(built) == trace.levels[-1].payloads.shape[0]


def test_a_decoded_grid_is_checked_once_and_its_levels_are_not(monkeypatch):
    obj = grid_to_json(random_grid(SpaceDescriptor("spd", 2), (0,), (9,),
                                   np.random.default_rng(2)))
    checked = []
    members = spaces._SPD.members
    monkeypatch.setattr(spaces._SPD, "members",
                        lambda self, rows: checked.append(len(rows)) or members(self, rows))
    for run in (lambda x: iterate(C, x, 3), lambda x: convergence_diagnostic(C, x, 3)):
        checked.clear()
        run(grid_from_json(obj))
        assert checked == [10]  # the decode, not one call per level


# -- interior recursion -----------------------------------------------------------

def test_refined_window_doubles_the_box():
    assert refined_window((-2,), (3,)) == ((-4,), (6,))
    assert refined_window((0, -1), (2, 2)) == ((0, -2), (4, 4))


def test_refined_interior_for_the_centered_mask():
    # support [-1, 1]: both margins clamp to 0, interior = the doubled box
    assert refined_interior(B, (-2,), (2,)) == ((-4,), (4,))


def test_refined_interior_clamps_to_the_doubled_window():
    # one-sided support [0, 3]: naive dependency bound 2*hi + 1 would point
    # one node past the stored doubled window; the hi side must clamp
    assert refined_interior(C, (-1,), (1,)) == ((0,), (2,))
    assert refined_interior(C, (0,), (2,)) == ((2,), (4,))
    one_sided = make_mask((2,), [1.0, 1.0])
    lo, hi = refined_interior(one_sided, (-3,), (3,))
    assert lo == (-4,) and hi == (6,)
    for mask in (B, C, one_sided, make_mask((-4,), [1.0, 1.0])):
        ilo, ihi = refined_interior(mask, (-3,), (3,))
        assert ilo >= (-6,) and ihi <= (6,)


def test_interior_chain_frozen_for_chaikin():
    boxes = check_interior_depth(C, (-1,), (1,), 2)
    assert boxes == [((-1,), (1,)), ((0,), (2,)), ((2,), (4,))]


def test_minimal_window_width_matches_interior_survival():
    assert [minimal_window_width(B, n) for n in (1, 3, 5)] == [0, 0, 0]
    assert [minimal_window_width(C, n) for n in (1, 2, 3, 6)] == [1, 2, 2, 2]
    for mask in (B, C, make_mask((0,), [1.0, 0.0, 0.0, 1.0])):
        for levels in range(1, 5):
            w = minimal_window_width(mask, levels)
            check_interior_depth(mask, (0,), (w,), levels)  # survives
            if w >= 1:
                with pytest.raises(DomainError):
                    check_interior_depth(mask, (0,), (w - 1,), levels)


def test_minimal_window_width_is_exact_past_float_precision():
    """Chaikin moved by 2^70 loses 2^70 + 2 nodes a level, and by -2^70 loses
    2^70 - 1: the float bound named 2^69 for one level of the first, a window
    that still has no interior."""
    assert minimal_window_width(translate(C, (2 ** 70,)), 1) == 2 ** 69 + 1
    for shift, need in ((2 ** 70, 2 ** 70 + 2), (-2 ** 70, 2 ** 70 - 1)):
        far = translate(C, (shift,))
        for levels in (1, 2, 3, 70, 71, 72, 200):
            w = minimal_window_width(far, levels)
            assert w == -(-need * (2 ** levels - 1) // 2 ** levels) and w <= need
            check_interior_depth(far, (0,), (w,), levels)  # survives
            with pytest.raises(DomainError, match=f"hi-lo >= {w}$"):
                check_interior_depth(far, (0,), (w - 1,), levels)


def test_interior_depth_error_names_the_required_width():
    with pytest.raises(DomainError, match="hi-lo >= 2"):
        check_interior_depth(C, (0,), (1,), 2)


# -- box helpers -------------------------------------------------------------------

def test_box_helpers():
    assert list(box_indices((0, 0), (1, 1))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(box_indices((2,), (1,))) == []
    assert box_is_empty((2,), (1,)) and not box_is_empty((1,), (1,))


# -- JSON ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,dim", (("tripod", 1), ("spd", 2), ("euclidean", 3)))
def test_grid_json_roundtrip(kind, dim):
    desc = SpaceDescriptor(kind, dim)
    rng = np.random.default_rng(31)
    x = random_grid(desc, (-1,), (2,), rng)
    back = grid_from_json(grid_to_json(x))
    assert back.window() == x.window()
    assert all(points_equal(back.get(i), x.get(i)) for i in x.indices())


def test_grid_json_carries_the_one_boundary_rule():
    obj = grid_to_json(ramp(0, 1))
    assert obj["extension"] == "constant_nearest"
    with pytest.raises(StructuralError, match="^bad grid object$"):
        grid_from_json({k: v for k, v in obj.items() if k != "extension"})
    for policy in ("periodic", "mirror"):
        with pytest.raises(StructuralError, match=f"^unknown extension policy '{policy}'$"):
            grid_from_json(dict(obj, extension=policy))


@pytest.mark.parametrize("kind,dim", (("tripod", 1), ("spd", 2), ("euclidean", 3),
                                      ("hyperboloid", 2)))
def test_grid_json_writes_the_point_encoding_without_building_points(kind, dim,
                                                                     monkeypatch):
    x = random_grid(SpaceDescriptor(kind, dim), (-1, 0), (1, 2), np.random.default_rng(5))
    key = {"euclidean": "v", "spd": "m", "hyperboloid": "p"}.get(kind)
    want = [{key: p.payload.tolist()} if key else {"leg": p.payload[0], "t": p.payload[1]}
            for p in x.points.flat]
    monkeypatch.setattr(SpacePoint, "__init__", None)  # any point built raises
    got = grid_to_json(x)["points"]
    assert json.dumps(got) == json.dumps(want)
    if kind == "tripod":
        assert all(type(p["leg"]) is int and type(p["t"]) is float for p in got)


def test_far_hyperboloid_points_survive_the_json_round_trip():
    origin = hyperboloid_from_spatial([0.0, 0.0])
    pts = [exp_map(origin, [0.0, r * np.cos(t), r * np.sin(t)])
           for r in (5.0, 10.0, 20.0) for t in (0.3, 1.1, 2.9, 4.4)]
    x = grid_from_points(SpaceDescriptor("hyperboloid", 2), (0,),
                         (len(pts) - 1,), pts)
    back = grid_from_json(grid_to_json(x))
    assert all(np.array_equal(back.get(i).payload, x.get(i).payload)
               for i in x.indices())


def test_grid_json_rejects_malformed_objects():
    with pytest.raises(StructuralError):
        grid_from_json({"window": {"lo": [0], "hi": [1]}})
    # window corners must be integers: no truncation, parsing or bool-as-int
    for window in ({"lo": [0.7], "hi": [2.9]}, {"lo": [0], "hi": ["2"]},
                   {"lo": [True], "hi": [3]}, {"lo": [0], "hi": [2.0]}):
        obj = dict(grid_to_json(ramp(0, 2)), window=window)
        with pytest.raises(StructuralError):
            grid_from_json(obj)
    # a window reversed on every axis has a positive size product
    obj = dict(grid_to_json(ramp(0, 0)), window={"lo": [1, 1], "hi": [-1, -1]})
    with pytest.raises(StructuralError):
        grid_from_json(obj)


@pytest.mark.parametrize("kind,dim", (("tripod", 1), ("spd", 2), ("euclidean", 3),
                                      ("hyperboloid", 2)))
def test_grid_json_reads_the_point_encoding_without_building_points(kind, dim,
                                                                    monkeypatch):
    x = random_grid(SpaceDescriptor(kind, dim), (-1, 0), (1, 2), np.random.default_rng(6))
    obj = json.loads(json.dumps(grid_to_json(x)))
    monkeypatch.setattr(SpacePoint, "__init__", None)  # any point built raises
    back = grid_from_json(obj)
    assert back.window() == x.window() and np.array_equal(back.payloads, x.payloads)


def tripod_grid(**point1):
    """A three-node tripod grid object whose middle point has the given keys."""
    points = [{"leg": 2, "t": 2.0}, {"leg": 1, "t": 0.5, **point1}, {"leg": 0, "t": 2.0}]
    return {"descriptor": {"kind": "tripod", "dim": 1}, "window": {"lo": [0], "hi": [2]},
            "extension": "constant_nearest",
            "points": [{k: v for k, v in p.items() if v is not None} for p in points]}


def test_a_bare_number_is_a_euclidean_1_vector_as_before():
    want = ramp(0, 2)
    for values in ([0.0, 1.0, 2.0], [0, [1.0], 2.0]):
        obj = dict(grid_to_json(want), points=[{"v": v} for v in values])
        assert np.array_equal(grid_from_json(obj).payloads, want.payloads)
    assert points_equal(point_from_json(EU, {"v": 3.0}), euclidean_point([3.0]))
    with pytest.raises(StructuralError):
        grid_from_json(dict(grid_to_json(ramp(0, 0)), points=[{"v": [[1.0]]}]))


def test_a_tripod_coordinate_given_as_a_list_is_refused_as_before():
    with pytest.raises(StructuralError, match="^tripod coordinate must be one number"):
        tripod_point(1, [1.0])
    with pytest.raises(StructuralError, match="^tripod coordinate must be one number"):
        point_from_json(SpaceDescriptor("tripod"), {"leg": 1, "t": [1.0]})
    with pytest.raises(StructuralError, match="^tripod coordinate must"):
        grid_from_json(tripod_grid(t=[1.0]))
    obj = tripod_grid()
    obj["points"] = [dict(p, t=[p["t"]]) for p in obj["points"]]  # no ragged nesting
    with pytest.raises(StructuralError, match="^tripod coordinate must be one number"):
        grid_from_json(obj)


@pytest.mark.parametrize("obj", (
    tripod_grid(leg=1.0), tripod_grid(leg=True), tripod_grid(leg=10 ** 400),
    tripod_grid(leg=-10 ** 400), tripod_grid(leg=3), tripod_grid(leg=None),
    tripod_grid(t=None), tripod_grid(t="0.5"), tripod_grid(t=10 ** 400),
    dict(tripod_grid(), points=5), dict(tripod_grid(), points=None),
    dict(tripod_grid(), points="abc"), dict(tripod_grid(), points={"leg": 0, "t": 1.0}),
    dict(tripod_grid(), points=[{"leg": 0, "t": 1.0}] * 2),
    dict(tripod_grid(), points=[[0, 1.0]] * 3),
    dict(grid_to_json(ramp(0, 2)), points=[{"v": [0.0]}, {"v": [1.0, 2.0]}, {"v": [2.0]}]),
    dict(grid_to_json(ramp(0, 2)), points=[{"v": [0.0]}, {"p": [1.0]}, {"v": [2.0]}]),
    dict(grid_to_json(ramp(0, 2)), points=[{"v": [0.0]}, {"v": [True]}, {"v": [2.0]}]),
    dict(grid_to_json(ramp(0, 2)), points=[]),
    {"descriptor": {"kind": "spd", "dim": 2}, "window": {"lo": [0], "hi": [0]},
     "extension": "constant_nearest", "points": [{"m": [[1.0, 0.0], [0.0]]}]},
    {"descriptor": {"kind": "spd", "dim": 2}, "window": {"lo": [0], "hi": [0]},
     "extension": "constant_nearest", "points": [{"m": [1.0, 0.0, 0.0, 1.0]}]},
), ids=("leg-float", "leg-bool", "leg-huge", "leg-huge-negative", "leg-3", "leg-missing",
        "t-missing", "t-string", "t-huge", "points-int", "points-null", "points-string",
        "points-dict", "points-too-few", "points-lists", "v-ragged", "v-wrong-key", "v-bool",
        "points-empty", "m-ragged", "m-flat"))
def test_malformed_points_of_a_grid_are_structural_errors(obj):
    with pytest.raises(StructuralError):
        grid_from_json(obj)


def test_a_grid_decodes_to_what_its_points_would_be():
    obj = tripod_grid(leg=2, t=0.0)  # the glue point comes back on leg 0
    back = grid_from_json(obj)
    want = [tripod_point(2, 2.0), tripod_point(2, 0.0), tripod_point(0, 2.0)]
    assert all(points_equal(back.get(i), p) for i, p in zip(back.indices(), want))
    with pytest.raises(DomainError):
        grid_from_json(tripod_grid(t=-0.5))
    with pytest.raises(NumericError):
        grid_from_json(tripod_grid(t=float("inf")))
