"""Backend geometry: distances, geodesics, barycenters, the NPC inequality."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from npcsubdiv import (BarycenterProblem, DomainError, NumericError,
                       SpaceDescriptor, StructuralError, distance,
                       euclidean_point, exp_map, geodesic_point,
                       hyperboloid_point, log_map, npc_residual, random_point,
                       spd_point, tripod_point, weighted_barycenter)
from npcsubdiv import spaces
from npcsubdiv.spaces import (descriptor_from_json, descriptor_to_json,
                              hyperboloid_from_spatial, point_from_json,
                              point_to_json, points_equal)
from oracles import frechet_value, scan_tripod_barycenter

BACKENDS = (
    SpaceDescriptor("euclidean", 3),
    SpaceDescriptor("spd", 2),
    SpaceDescriptor("spd", 3),
    SpaceDescriptor("hyperboloid", 2),
    SpaceDescriptor("hyperboloid", 3),
    SpaceDescriptor("tripod"),
)
SMOOTH = tuple(d for d in BACKENDS if d.kind != "tripod")

seeds = st.integers(min_value=0, max_value=2 ** 20)


def points(desc, seed, count):
    rng = np.random.default_rng([17, seed])
    return [random_point(desc, rng) for _ in range(count)]


# -- distances ------------------------------------------------------------------

def test_known_distances():
    assert distance(euclidean_point([0.0, 3.0]), euclidean_point([4.0, 0.0])) == pytest.approx(5.0, abs=1e-12)
    # 1x1 spd matrices: the metric is |log u - log v|
    assert distance(spd_point([[1.0]]), spd_point([[math.e ** 2]])) == pytest.approx(2.0, abs=1e-12)
    base = hyperboloid_from_spatial([0.0, 0.0])
    boosted = hyperboloid_from_spatial([math.sinh(1.0), 0.0])
    assert distance(base, boosted) == pytest.approx(1.0, abs=1e-12)
    assert distance(tripod_point(1, 2.0), tripod_point(1, 0.5)) == 1.5
    assert distance(tripod_point(1, 2.0), tripod_point(2, 0.5)) == 2.5
    assert distance(tripod_point(0, 0.0), tripod_point(2, 0.75)) == 0.75


def test_distance_requires_matching_descriptor():
    with pytest.raises(StructuralError):
        distance(euclidean_point([0.0]), tripod_point(0, 1.0))
    with pytest.raises(StructuralError):
        distance(euclidean_point([0.0]), euclidean_point([0.0, 1.0]))


# -- geodesics ------------------------------------------------------------------

@pytest.mark.parametrize("desc", BACKENDS, ids=str)
@given(seed=seeds)
def test_geodesic_parametrization_is_proportional(desc, seed):
    p, q = points(desc, seed, 2)
    d = distance(p, q)
    tol = 1e-9 * (1.0 + d)
    for t in (0.25, 0.5, 0.75):
        g = geodesic_point(p, q, t)
        assert abs(distance(p, g) - t * d) <= tol
        assert abs(distance(g, q) - (1.0 - t) * d) <= tol
    assert points_equal(geodesic_point(p, q, 0.0), p)
    assert points_equal(geodesic_point(p, q, 1.0), q)


def test_geodesic_parameter_domain():
    p, q = euclidean_point([0.0]), euclidean_point([1.0])
    with pytest.raises(DomainError):
        geodesic_point(p, q, -0.1)
    with pytest.raises(DomainError):
        geodesic_point(p, q, 1.5)


def test_tripod_geodesic_crosses_glue_point():
    mid = geodesic_point(tripod_point(1, 2.0), tripod_point(2, 2.0), 0.5)
    assert mid.payload == (0, 0.0)
    quarter = geodesic_point(tripod_point(1, 2.0), tripod_point(2, 2.0), 0.75)
    assert quarter.payload == (2, 1.0)


@pytest.mark.parametrize("desc", SMOOTH, ids=str)
@given(seed=seeds)
def test_exp_log_roundtrip(desc, seed):
    base, x = points(desc, seed, 2)
    back = exp_map(base, log_map(base, x))
    assert distance(x, back) <= 1e-9 * (1.0 + distance(base, x))


# -- NPC inequality -------------------------------------------------------------

@pytest.mark.parametrize("desc", BACKENDS, ids=str)
@given(seed=seeds)
def test_npc_residual_nonpositive(desc, seed):
    x0, x1, z = points(desc, seed, 3)
    assert npc_residual(x0, x1, z) <= 1e-9


def test_npc_residual_tripod_spanning_triple():
    # unit points on the three legs: midpoint is the glue point, so the
    # residual is 1 - (1/2 + 1/2 + 1/2 + 1/2) + 4/4 - 2 = -2 exactly
    r = npc_residual(tripod_point(0, 1.0), tripod_point(1, 1.0), tripod_point(2, 1.0))
    assert r == pytest.approx(-2.0, abs=1e-12)


def test_npc_residual_zero_on_the_segment():
    p, q = euclidean_point([0.0, 0.0]), euclidean_point([2.0, 0.0])
    z = euclidean_point([1.0, 0.0])
    assert npc_residual(p, q, z) == pytest.approx(0.0, abs=1e-12)


# -- barycenters ----------------------------------------------------------------

def test_euclidean_barycenter_is_the_weighted_mean():
    pts = [euclidean_point(v) for v in ([0.0, 0.0], [1.0, 0.0], [0.0, 2.0])]
    w = np.array([0.5, 0.25, 0.25])
    y = weighted_barycenter(BarycenterProblem(pts, w))
    assert np.allclose(y.payload, [0.25, 0.5], atol=1e-12)


@pytest.mark.parametrize("desc", BACKENDS, ids=str)
def test_two_point_barycenter_lies_on_the_geodesic(desc):
    for seed, w in ((0, 0.25), (1, 0.5), (2, 0.7)):
        p, q = points(desc, seed, 2)
        y = weighted_barycenter(BarycenterProblem([p, q], np.array([1.0 - w, w])))
        assert distance(y, geodesic_point(p, q, w)) <= 1e-8 * (1.0 + distance(p, q))


@pytest.mark.parametrize("desc", SMOOTH, ids=str)
def test_barycenter_returns_the_iterate_before_the_last_update(desc, monkeypatch):
    steps = []
    step = spaces._karcher_step

    def recording(backend, y, pts, weights):
        out = step(backend, y, pts, weights)
        steps.append((y.copy(), float(out[0][0]), float(out[1][0].max())))
        return out

    monkeypatch.setattr(spaces, "_karcher_step", recording)
    pts = points(desc, 9, 3)
    y = weighted_barycenter(BarycenterProblem(pts, np.array([0.5, 0.3, 0.2])))
    tol = 1e-10 * (1.0 + steps[0][2])
    assert len(steps) >= 2 and steps[-2][1] > tol >= steps[-1][1]
    assert np.array_equal(y.payload, steps[-1][0][0])
    assert np.array_equal(steps[0][0][0], pts[0].payload)  # started at the heaviest point


def test_tripod_barycenter_matches_dense_scan():
    cases = (
        ([(0, 2.0), (1, 0.5), (2, 2.0)], (0.5, 0.25, 0.25)),
        ([(1, 1.0), (2, 1.0), (0, 3.0)], (1 / 3, 1 / 3, 1 / 3)),
        ([(2, 2.0), (1, 0.5), (0, 2.0)], (3 / 16, 12 / 16, 1 / 16)),
    )
    for raw, weights in cases:
        pts = [tripod_point(leg, t) for leg, t in raw]
        y = weighted_barycenter(BarycenterProblem(pts, np.array(weights)))
        f_scan, y_scan = scan_tripod_barycenter(pts, weights)
        assert frechet_value(y, pts, weights) <= f_scan + 1e-6
        assert distance(y, y_scan) <= 2e-3


def test_tripod_barycenter_tie_sits_at_the_glue_point():
    pts = [tripod_point(leg, 1.0) for leg in (0, 1, 2)]
    y = weighted_barycenter(BarycenterProblem(pts, np.full(3, 1 / 3)))
    assert y.payload == (0, 0.0)


@pytest.mark.parametrize("desc", SMOOTH, ids=str)
def test_barycenter_first_order_stationarity(desc):
    pts = points(desc, 5, 4)
    w = np.array([0.4, 0.3, 0.2, 0.1])
    y = weighted_barycenter(BarycenterProblem(pts, w))
    v = sum(wi * log_map(y, p) for wi, p in zip(w, pts))
    if desc.kind == "hyperboloid":
        norm = math.sqrt(max(float(v[1:] @ v[1:] - v[0] * v[0]), 0.0))
    else:
        norm = float(np.linalg.norm(v))
    assert norm <= 1e-7


@pytest.mark.parametrize("desc", BACKENDS, ids=str)
@given(seed=seeds)
def test_barycenter_is_nonexpansive_in_the_data(desc, seed):
    a = points(desc, seed, 3)
    b = points(desc, seed + 7, 3)
    w = np.array([0.5, 0.3, 0.2])
    ya = weighted_barycenter(BarycenterProblem(a, w))
    yb = weighted_barycenter(BarycenterProblem(b, w))
    worst = max(distance(p, q) for p, q in zip(a, b))
    assert distance(ya, yb) <= worst + 1e-7


def test_barycenter_problem_validation():
    p = euclidean_point([0.0])
    with pytest.raises(StructuralError):
        BarycenterProblem([], np.array([]))
    with pytest.raises(StructuralError):
        BarycenterProblem([p, p], np.array([0.5]))
    with pytest.raises(StructuralError):
        BarycenterProblem([p, p], np.array([1.5, -0.5]))
    with pytest.raises(StructuralError):
        BarycenterProblem([p, p], np.array([0.9, 0.2]))
    with pytest.raises(StructuralError):
        BarycenterProblem([p, tripod_point(0, 1.0)], np.array([0.5, 0.5]))
    with pytest.raises(NumericError):
        BarycenterProblem([p, p], np.array([0.5, math.nan]))


# -- failures ---------------------------------------------------------------------

def test_exp_map_overflow_is_a_numeric_error():
    with pytest.raises(NumericError):
        exp_map(hyperboloid_from_spatial([0.0, 0.0]), np.array([0.0, 800.0, 0.0]))


@pytest.mark.parametrize("dim", (2, 3))
def test_degenerate_spd_elements_stay_failed(dim):
    """Good matrices first, then one with a zero eigenvalue, one with a
    negative eigenvalue and one with a NaN entry.  Each bad matrix fails every
    batched primitive on its own, so none of them gives a finite value, and a
    batch reports its lowest bad row.  The other argument is the identity, so
    the zero eigenvalue stays exact in the congruence si q si as well."""
    desc = SpaceDescriptor("spd", dim)
    good = np.array([p.payload for p in points(desc, 5, 3)])
    bad = np.array([np.diag([1.0] * (dim - 1) + [0.0]), np.diag([1.0] * (dim - 1) + [-1.0]),
                    np.eye(dim)])
    bad[2, 0, 0] = math.nan
    base = np.broadcast_to(good[0], good.shape)
    assert np.isfinite(spaces.distances(desc, good, base)).all()
    assert np.isfinite(spaces.geodesic_points(desc, base, good, 0.3)).all()
    for m in bad:
        stack = np.concatenate([good, m[None]])
        other = np.broadcast_to(np.eye(dim), stack.shape)
        for p, q in ((stack, other), (other, stack)):
            with pytest.raises(NumericError):
                spaces.distances(desc, p, q)
            with pytest.raises(NumericError):
                spaces.geodesic_points(desc, p, q, 0.3)
            _, failure = spaces.barycenters(desc, np.stack((p, q), axis=1), [0.6, 0.4])
            assert failure[0] == len(good) and isinstance(failure[1], NumericError)
    rows = np.concatenate([good, bad])
    _, failure = spaces.barycenters(
        desc, np.stack((rows, np.broadcast_to(good[2], rows.shape)), axis=1), [0.5, 0.5])
    assert failure[0] == len(good) and isinstance(failure[1], NumericError)


# -- payload validation -----------------------------------------------------------

def test_spd_point_validation():
    with pytest.raises(StructuralError):
        spd_point([[1.0, 0.5]])
    with pytest.raises(StructuralError):
        spd_point([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(StructuralError):
        spd_point([[1.0, 0.0], [0.0, -2.0]])


def test_hyperboloid_point_validation():
    with pytest.raises(StructuralError):
        hyperboloid_point([1.0])
    with pytest.raises(StructuralError):
        hyperboloid_point([-1.0, 0.0])
    with pytest.raises(StructuralError):
        hyperboloid_point([2.0, 0.0])  # off the sheet <p,p> = -1
    with pytest.raises(NumericError):
        hyperboloid_point([math.inf, 0.0])


def test_tripod_point_validation():
    with pytest.raises(StructuralError):
        tripod_point(3, 1.0)
    with pytest.raises(DomainError):
        tripod_point(1, -0.5)
    assert tripod_point(2, 0.0).payload == (0, 0.0)  # canonical glue point


def test_descriptor_validation():
    with pytest.raises(StructuralError):
        SpaceDescriptor("moduli", 2)
    with pytest.raises(StructuralError):
        SpaceDescriptor("spd", 0)
    assert SpaceDescriptor("tripod", 7).dim == 1


# -- JSON -------------------------------------------------------------------------

@pytest.mark.parametrize("desc", BACKENDS, ids=str)
def test_point_json_roundtrip(desc):
    rng = np.random.default_rng(23)
    for _ in range(5):
        p = random_point(desc, rng)
        q = point_from_json(desc, point_to_json(p))
        assert points_equal(p, q)


def test_descriptor_json_roundtrip():
    for desc in BACKENDS:
        assert descriptor_from_json(descriptor_to_json(desc)) == desc
    with pytest.raises(StructuralError):
        descriptor_from_json({"dim": 2})
    with pytest.raises(StructuralError):
        point_from_json(SpaceDescriptor("spd", 2), {"v": [1.0, 0.0]})
