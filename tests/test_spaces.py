"""Backend geometry: distances, geodesics, barycenters, the NPC inequality."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from npcsubdiv import (BarycenterProblem, DomainError, NumericError, SolverError,
                       SpaceDescriptor, StructuralError, distance,
                       euclidean_point, exp_map, geodesic_point,
                       hyperboloid_point, log_map, npc_residual,
                       random_point, spd_point, tripod_point, weighted_barycenter)
from npcsubdiv import spaces
from npcsubdiv.spaces import (descriptor_from_json, descriptor_to_json,
                              hyperboloid_from_spatial, parse_space)
from oracles import data_diameter, exact_tripod_barycenter, frechet_hessian, frechet_value, \
    hyperboloid_log, karcher_gradient_norm, scan_tripod_barycenter, tripod_distance
from test_conformance import SEEDS, SMOOTH, points

TRI = SpaceDescriptor("tripod")
HYP2, HYP3 = SpaceDescriptor("hyperboloid", 2), SpaceDescriptor("hyperboloid", 3)
SPD2, SPD3 = SpaceDescriptor("spd", 2), SpaceDescriptor("spd", 3)

# -- distances ------------------------------------------------------------------

def test_far_apart_hyperboloid_points_keep_their_distance():
    """Points at radius 140 and 15 on opposite rays are 155 apart; the
    chordal form alone cancels to 0.0 at these coordinates."""
    def at(radius, sign):
        return hyperboloid_from_spatial([sign * math.sinh(radius), 0.0])

    assert distance(at(140.0, 1.0), at(15.0, -1.0)) == pytest.approx(155.0, rel=1e-12)
    assert distance(at(15.0, -1.0), at(140.0, 1.0)) == pytest.approx(155.0, rel=1e-12)


def test_nearby_points_far_out_keep_their_distance():
    """Points on one ray at radius R and R + 0.5 are 0.5 apart; -<p,q>_M - 1
    cancels terms of size e^(2R) / 4 down to cosh(0.5) - 1 = 0.13.  Points at
    radius R 1e-6 radians apart: p_s ^ q_s cancels terms of size e^(2R) / 4."""
    def exact(p, q):  # acosh(-<p,q>_M) of the float payloads, in 50 digits
        with mpmath.workdps(50):
            a, b = ([mpmath.mpf(float(c)) for c in x.payload[1:]] for x in (p, q))
            a0, b0 = (mpmath.sqrt(1 + sum(c * c for c in x)) for x in (a, b))
            return float(mpmath.acosh(a0 * b0 - sum(x * z for x, z in zip(a, b))))

    for radius in (10.0, 15.0, 17.0):
        p, q = (hyperboloid_from_spatial([math.sinh(r), 0.0]) for r in (radius, radius + 0.5))
        assert distance(p, q) == pytest.approx(0.5, rel=1e-12)
        p, q = (hyperboloid_from_spatial([math.sinh(radius) * math.cos(t),
                                          math.sinh(radius) * math.sin(t)]) for t in (0.3, 0.3 + 1e-6))
        assert distance(p, q) == pytest.approx(exact(p, q), rel=1e-13)


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


# -- 2 x 2 symmetric eigenproblems ----------------------------------------------

def _spd_stack(spread, seed, n=12):
    """n random 2 x 2 SPD matrices with log-eigenvalues in [-spread, spread]."""
    rng = np.random.default_rng([53, seed])
    q, _ = np.linalg.qr(rng.standard_normal((n, 2, 2)))
    return (q * np.exp(rng.uniform(-spread, spread, (n, 1, 2)))) @ q.swapaxes(-1, -2)


EIGH2_CASES = {
    **{f"spd-spread-{s}": _spd_stack(s, k) for k, s in enumerate((0.1, 1.0, 4.0, 12.0))},
    "indefinite": np.array([[[1.0, 2.0], [2.0, -3.0]], [[0.0, 1.0], [1.0, 0.0]],
                            [[1e-8, 3.0], [2.0, 1e8]]]),  # the last is not symmetric
    "singular": np.array([[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 5.0]],
                          [[0.0, 0.0], [0.0, 0.0]]]),
    "negative-definite": np.array([[[-2.0, 0.5], [0.5, -1.0]], [[-1e-3, 0.0], [0.0, -7.0]]]),
    "equal-diagonal": np.array([[[3.0, 0.0], [0.0, 3.0]], [[1e-7, -0.0], [-0.0, 1e-7]]]),
    "near-equal": np.array([[[1.0 + 2.0 ** -52, 0.0], [0.0, 1.0]],  # lo = det / hi rounds above hi
                            [[1.0, 1e-17], [1e-17, 1.0 + 2.0 ** -52]],
                            [[2.0, 3e-9], [3e-9, 2.0 - 1e-9]]]),
    "non-finite": np.array([[[math.nan, 0.0], [0.0, 1.0]], [[2.0, 0.5], [0.5, 1.0]],
                            [[1.0, math.inf], [0.0, 1.0]]]),
    "empty": np.empty((0, 2, 2)),
}


@pytest.mark.parametrize("m", EIGH2_CASES.values(), ids=EIGH2_CASES.keys())
def test_2x2_eigenproblems_match_the_50_digit_solver(m):
    """The closed-form 2 x 2 `_eigh` of the symmetric part s: eigenvalues
    ascending and within 4 eps max|s| of mpmath's at 50 digits, V diag(w) V^T
    within 4 eps max|s| of s, V^T V within 4 eps of I, NaN eigenvalues exactly
    where an entry is not finite, and the same values without the vectors."""
    eps = np.finfo(float).eps
    with np.errstate(invalid="ignore"):  # the non-finite case
        s = 0.5 * (m + m.swapaxes(-1, -2))
        w, v = spaces._eigh(m)
    values, none = spaces._eigh(m, vectors=False)
    assert none is None and w.shape == m.shape[:-1] and v.shape == m.shape
    assert values.tobytes() == w.tobytes()
    finite = np.isfinite(m).all(axis=(-2, -1))
    assert np.array_equal(np.isnan(w), np.repeat(~finite[:, None], 2, axis=1))
    for sk, wk, vk in zip(s[finite], w[finite], v[finite]):
        scale = 4.0 * eps * np.abs(sk).max()
        with mpmath.workdps(50):
            want = sorted(mpmath.eigsy(mpmath.matrix(sk.tolist()), eigvals_only=True))
        assert wk[0] <= wk[1]
        assert max(abs(float(a) - b) for a, b in zip(want, wk)) <= scale
        assert np.abs((vk * wk) @ vk.T - sk).max() <= scale
        assert np.abs(vk.T @ vk - np.eye(2)).max() <= 4.0 * eps


# -- geodesics ------------------------------------------------------------------

def test_geodesic_parameter_domain():
    p, q = euclidean_point([0.0]), euclidean_point([1.0])
    with pytest.raises(DomainError):
        geodesic_point(p, q, -0.1)
    with pytest.raises(DomainError):
        geodesic_point(p, q, 1.5)
    with pytest.raises(DomainError):
        geodesic_point(p, q, math.nan)
    for t in ("0.5", True, np.bool_(False), [0.5], None):
        with pytest.raises(StructuralError):
            geodesic_point(p, q, t)
    assert geodesic_point(p, q, np.float64(0.25)).payload.tolist() == [0.25]
    assert geodesic_point(p, q, 1).payload.tolist() == [1.0]


def test_tripod_geodesic_crosses_glue_point():
    mid = geodesic_point(tripod_point(1, 2.0), tripod_point(2, 2.0), 0.5)
    assert mid.payload == (0, 0.0)
    quarter = geodesic_point(tripod_point(1, 2.0), tripod_point(2, 2.0), 0.75)
    assert quarter.payload == (2, 1.0)
    assert tripod_point(2, 0.0).payload == (0, 0.0)  # the canonical glue point


def test_exp_map_far_out_moves_by_the_tangent_norm():
    """A radial tangent of norm t at radius R reaches radius R + t.  Its
    Minkowski norm |v_s|^2 - v0^2 cancels terms of size t^2 cosh^2 R."""
    for radius in (10.0, 14.0, 17.0):
        y = hyperboloid_from_spatial([math.sinh(radius), 0.0])
        for t in (0.5, 1.0):
            q = exp_map(y, np.array([t * math.sinh(radius), t * math.cosh(radius), 0.0]))
            assert math.asinh(float(np.linalg.norm(q.payload[1:]))) == pytest.approx(
                radius + t, rel=1e-12)


def test_exp_map_refuses_a_vector_that_is_not_tangent():
    origin = hyperboloid_from_spatial([0.0, 0.0])
    with pytest.raises(DomainError, match="not tangent"):
        exp_map(origin, np.array([0.5, 1.0, 0.0]))
    with pytest.raises(StructuralError):
        exp_map(origin, np.array([1.0, 0.0]))
    with pytest.raises(StructuralError):
        exp_map(euclidean_point([0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    assert exp_map(origin, np.array([0.0, 1.0, 0.0])).payload[1] == pytest.approx(math.sinh(1.0))


def near_pair(desc, seed, radius, gap):
    """p within geodesic radius `radius` of the origin and q with |q_s - p_s| = gap,
    both in normal random directions."""
    u, e = np.random.default_rng([seed]).standard_normal((2, desc.dim))
    ps = math.sinh(radius) * u / np.linalg.norm(u)
    return (hyperboloid_from_spatial(ps),
            hyperboloid_from_spatial(ps + gap * e / np.linalg.norm(e)))


def seeded_cases(edges, lows, highs):
    """(seed, values): the edge tuples, then per k of SEEDS a draw uniform in the
    box [lows, highs] from default_rng([7, k]); seed, the place in the list, picks the points."""
    draws = [tuple(np.random.default_rng([7, k]).uniform(lows, highs).tolist()) for k in SEEDS]
    return list(enumerate(edges + draws))


# edge radii: the origin, the smallest subnormal, float32's eps and the far end
LOG_GAPS = (math.log(3e-4), math.log(0.1))
RADII = (0.0, 5e-324, 6e-8, 2.0)


@pytest.mark.parametrize("desc", (HYP2, HYP3), ids=str)
def test_log_map_matches_the_50_digit_log_near_the_diagonal(desc):
    """acosh(1 + t) / sqrt(t (t + 2)) loses up to 2.6e-9 relative accuracy for
    gaps in [3e-4, 3e-2]; the asinh form of `dist` keeps it."""
    edges = [(r, g) for r in RADII for g in LOG_GAPS]
    for seed, (radius, log_gap) in seeded_cases(edges, (0.0, LOG_GAPS[0]), (2.0, LOG_GAPS[1])):
        p, q = near_pair(desc, seed, radius, math.exp(log_gap))
        want = hyperboloid_log(p.payload, q.payload)
        assert np.linalg.norm(log_map(p, q) - want) <= 1e-11 * np.linalg.norm(want), seed


@pytest.mark.parametrize("desc", (HYP2, HYP3), ids=str)
def test_exp_map_of_the_zero_vector_returns_the_base_payload(desc):
    edges = [(r,) for r in RADII + (1e-300, 2.2e-16, 1.0)]
    for seed, (radius,) in seeded_cases(edges, (0.0,), (2.0,)):
        p, _ = near_pair(desc, seed, radius, 0.0)
        assert np.array_equal(exp_map(p, np.zeros(desc.dim + 1)).payload, p.payload), seed


# -- NPC inequality -------------------------------------------------------------

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


@pytest.mark.parametrize("desc", (SPD2, SPD3, HYP2, HYP3), ids=str)
def test_barycenter_returns_a_certified_candidate_or_the_last_iterate(desc, monkeypatch):
    """A row ends at the iterate of its last evaluation when the residual there
    is within the tolerance, or at the Newton candidate built there when the
    candidate's residual bound is within half the tolerance: evaluated once
    more, that candidate's residual is within the tolerance too."""
    calls = spy_steps(monkeypatch)
    pts, weights = points(desc, 9, 3), np.array([0.5, 0.3, 0.2])
    y = weighted_barycenter(BarycenterProblem(pts, weights))
    stack = np.array([p.payload for p in pts])
    backend = desc.backend
    start = backend.start(stack[None], weights)[0]
    tol = 1e-10 * (1.0 + spaces.distances(desc, start, stack).max())
    assert np.array_equal(calls[0][0][0], start)  # started at the backend's start
    last, residual, nxt, _, bound = calls[-1]
    assert len(calls) >= 2 and calls[-2][1][0] > tol
    if nxt is None:
        assert residual[0] <= tol and np.array_equal(y.payload, last[0])
    else:
        assert residual[0] > tol and bound[0] <= tol / 2
        assert np.array_equal(y.payload, nxt[0])
        assert spaces._karcher_step(backend, nxt, stack[None], weights)[0][0] <= tol


def test_euclidean_rows_are_the_newton_step_from_the_heaviest_point(monkeypatch):
    """Rows of 3 or more euclidean points return y + sum_i w_i (x_i - y) from
    the heaviest point y (ties: the lowest index), summed left to right, with
    no evaluation; even a start point within the tolerance of the mean moves
    to the mean.  A non-finite row fails, the first one is reported."""
    steps = []
    monkeypatch.setattr(spaces, "_karcher_step", lambda *args: steps.append(args))
    desc = SpaceDescriptor("euclidean", 3)
    rows = np.random.default_rng([5]).standard_normal((6, 4, 3))
    for weights in ([0.1, 0.4, 0.1, 0.4], [0.25, 0.25, 0.25, 0.25], [0.2, 0.1, 0.3, 0.4]):
        start = int(np.argmax(weights))
        y = rows[:, start]
        want = y + sum(w * (rows[:, k] - y) for k, w in enumerate(weights))
        out, failure = spaces.barycenters(desc, rows, weights)
        assert failure is None and out.tobytes() == want.tobytes()
        assert np.allclose(out, np.einsum("k,nkd->nd", weights, rows), rtol=0.0, atol=1e-15)
    near = np.array([[[0.0], [4e-11], [0.0]]])  # the start point is 1e-11 from the mean
    out, failure = spaces.barycenters(SpaceDescriptor("euclidean", 1), near, [0.5, 0.25, 0.25])
    assert failure is None and out.tolist() == [[1e-11]]
    bad = rows.copy()
    bad[4, 1, 0], bad[2, 3, 2] = math.inf, math.nan
    _, failure = spaces.barycenters(desc, bad, [0.1, 0.4, 0.1, 0.4])
    assert failure[0] == 2 and isinstance(failure[1], NumericError)
    assert steps == []


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
        assert tripod_distance(y, y_scan) <= 2e-3


def tripod_problem(rng):
    """(rows, weights) at a scale of t from 1 to 1e4.  Half are near-ties:
    (1, t1), (2, t2) and (0, t0) in either leg order with weights .4/.4/.2, where
    t1 - t2 and t0 (or t0 = 0) are 1e-12 to 1e-6 of the scale, so the pull of one
    leg is near 0; the rest are 2 to 6 points with weights from 0.01 to 1."""
    scale = float(rng.choice([1.0, 1e2, 1e4]))
    tiny = scale * 10.0 ** rng.uniform(-12.0, -6.0, 2)
    if rng.random() < 0.5:
        t2 = scale * rng.uniform(0.5, 2.0)
        legs = rng.permutation([1, 2]).tolist()
        t0 = 0.0 if rng.random() < 0.5 else tiny[1]
        return [(legs[0], t2 + tiny[0]), (legs[1], t2), (0, t0)], [0.4, 0.4, 0.2]
    k = int(rng.integers(2, 7))
    rows = [(int(leg), scale * t) for leg, t in zip(rng.integers(0, 3, k), rng.uniform(0, 2, k))]
    raw = rng.uniform(0.01, 1.0, k)
    return rows, (raw / raw.sum()).tolist()


# edges: all at the glue point; ties with no pull, the smallest pulls at both ends of
# t2's range, the largest at each scale; 6 points at t = 0, 2e4 with weights 0.01, 1
TIE = [0.4, 0.4, 0.2]
TRIPOD_EDGES = [
    ([(0, 0.0), (0, 0.0)], [0.5, 0.5]), ([(1, 0.0), (2, 0.0), (0, 0.0)], TIE),
    ([(1, 0.5 + 1e-12), (2, 0.5), (0, 0.0)], TIE), ([(2, 2.0 + 1e-12), (1, 2.0), (0, 1e-12)], TIE),
    ([(1, 2e4 + 1e-8), (2, 2e4), (0, 0.0)], TIE), ([(1, 0.5 + 1e-6), (2, 0.5), (0, 1e-6)], TIE),
    ([(2, 50.0 + 1e-4), (1, 50.0), (0, 1e-4)], TIE), ([(1, 5e3 + 1e-2), (2, 5e3), (0, 1e-2)], TIE),
    ([(0, 2e4), (1, 2e4), (2, 2e4), (0, 0.0), (1, 0.0), (2, 0.0)],
     (np.array([0.01, 1.0, 1.0, 0.01, 1.0, 0.01]) / 3.03).tolist()),
]


def test_tripod_barycenter_is_exact_to_4_ulps():
    problems = TRIPOD_EDGES + [tripod_problem(np.random.default_rng([11, k])) for k in SEEDS]
    for rows, weights in problems:
        out, failure = spaces.barycenters(TRI, np.array(rows, dtype=float)[None], weights)
        assert failure is None
        leg, t = out[0]
        exact_leg, s = exact_tripod_barycenter(rows, weights)
        gap = abs(Fraction(t) - s) if leg == exact_leg else Fraction(t) + s
        assert gap <= 4 * math.ulp(max(t for _, t in rows)), rows


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


def test_weighted_barycenter_reads_its_weights_once(monkeypatch):
    reads = []
    read = spaces._check_weights
    monkeypatch.setattr(spaces, "_check_weights", lambda w, k: reads.append(k) or read(w, k))
    p, q = euclidean_point([0.0]), euclidean_point([1.0])
    y = weighted_barycenter(BarycenterProblem([p, q], np.array([0.25, 0.75])))
    assert reads == [2] and y.payload.tolist() == [0.75]


@pytest.mark.parametrize("desc", SMOOTH, ids=str)
def test_two_point_rows_are_geodesic_points_from_the_heavier_point(desc, monkeypatch):
    steps = []
    monkeypatch.setattr(spaces, "_karcher_step", lambda *args: steps.append(args))
    pts = np.array([[p.payload for p in points(desc, seed, 2)] for seed in range(4)])
    for weights, start in (([0.3, 0.7], 1), ([0.5, 0.5], 0), ([0.8, 0.2], 0)):
        out, failure = spaces.barycenters(desc, pts, weights)
        assert failure is None
        expected = spaces.geodesic_points(desc, pts[:, start], pts[:, 1 - start],
                                          weights[1 - start])
        assert np.array_equal(out, expected)
    assert steps == []


# -- barycenters on spread data -------------------------------------------------

def spread_points(desc, rng, count, reach):
    """count points: on the hyperboloid at geodesic radius `reach` from the
    origin in normal random directions; spd matrices with log-eigenvalues
    uniform in [-reach, reach] under a random rotation."""
    out = []
    for _ in range(count):
        if desc.kind == "hyperboloid":
            u = rng.standard_normal(desc.dim)
            v = math.sinh(reach) * u / np.linalg.norm(u)
            out.append([math.sqrt(1.0 + float(v @ v))] + v.tolist())
        else:
            q, _ = np.linalg.qr(rng.standard_normal((desc.dim, desc.dim)))
            m = (q * np.exp(rng.uniform(-reach, reach, desc.dim))) @ q.T
            out.append(0.5 * (m + m.T))
    return np.array(out)


def solve_spread(desc, count, reach, seed):
    rng = np.random.default_rng([seed])
    pts = spread_points(desc, rng, count, reach)
    weights = rng.dirichlet(np.ones(count))
    out, failure = spaces.barycenters(desc, pts[None], weights)
    return pts, weights, out[0], failure


def assert_converged(desc, pts, weights, y):
    """The stationarity residual at y bounds d(y, y*): at most 1e-8 (1 + diam);
    the diameter is read only when the residual is above 1e-8."""
    norm = karcher_gradient_norm(desc.kind, y, pts, weights)
    assert norm <= 1e-8 or norm <= 1e-8 * (1.0 + data_diameter(desc.kind, pts))


@pytest.mark.parametrize("desc", (SPD2, HYP2), ids=str)
@pytest.mark.parametrize("cap", (1, 2))
def test_a_solver_error_reports_an_iterate_with_its_own_residual(desc, cap, monkeypatch):
    """At the iteration cap the error names the last iterate the solver
    evaluated and the residual there, not the untested candidate after it."""
    monkeypatch.setattr(spaces, "BARYCENTER_MAX_ITER", cap)
    rng = np.random.default_rng([31, cap])
    rows = np.stack([spread_points(desc, rng, 4, 3.0) for _ in range(3)])
    weights = rng.dirichlet(np.ones(4))
    _, (r, err) = spaces.barycenters(desc, rows, weights)
    assert isinstance(err, SolverError)
    norm = karcher_gradient_norm(desc.kind, err.last_iterate.payload, rows[r], weights)
    assert err.residual == pytest.approx(norm, rel=1e-6)


@pytest.mark.parametrize("desc,reach", ((HYP2, 17.0), (HYP3, 17.0), (SPD2, 12.0), (SPD3, 12.0)),
                         ids=str)
def test_barycenters_converge_over_the_documented_range(desc, reach):
    edges = [(c, t) for c in (2, 9) for t in (0.0, 5e-324, 1.0)]
    for seed, (count, scale) in seeded_cases(edges, (2, 0.0), (10, 1.0)):
        pts, weights, y, failure = solve_spread(desc, int(count), scale * reach, seed)  # 2..9
        assert failure is None, (count, scale, seed)
        assert_converged(desc, pts, weights, y)


@pytest.mark.parametrize("desc,count,seed", (
    (SPD2, 8, 6), (SPD2, 2, 16), (SPD2, 7, 117),
    (SPD3, 2, 0), (SPD3, 2, 88), (SPD3, 3, 1), (SPD3, 7, 29)), ids=str)
def test_spd_rows_at_log_spread_12_converge(desc, count, seed):
    """Draws at log-spread 12 that whitening by y^-1/2 (y^-1/2 x y^-1/2)
    got wrong: 2-point geodesics up to 3300x the bound, SolverError, and
    NumericError from a whitened matrix with a negative eigenvalue."""
    pts, weights, y, failure = solve_spread(desc, count, 12.0, seed)
    assert failure is None
    assert_converged(desc, pts, weights, y)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="spd:3 near log-spread 12: V^T x V rounds off about eps |x|, "
                          "and data of condition 1e10 stall the residual above the tolerance")
@pytest.mark.parametrize("count,scale,seed", ((7, 0.9820542299106726, 198185),))
def test_spd3_draws_at_the_edge_of_the_range_that_stall(count, scale, seed):
    """Two of 600 draws of the property's generator for spd:3 at log-spread
    12 end in SolverError, this one and (6, 0.9741, 686109): its residual
    floors near 5e-8, above the tolerance 3.3e-9.  The draws are
    count = integers(2, 10), scale = random(), seed = integers(0, 2**20 + 1)
    from default_rng(12345); which of them stall flips on 1-ulp changes of
    the step."""
    _, _, _, failure = solve_spread(SPD3, count, scale * 12.0, seed)
    assert failure is None


@pytest.mark.parametrize("desc", (HYP2, HYP3), ids=str)
def test_far_hyperboloid_data_converge_or_are_refused(desc):
    edges = [(c, r) for c in (2, 9) for r in (17.0, 30.0)]
    for seed, (count, radius) in seeded_cases(edges, (2, 17.0), (10, 30.0)):
        pts, weights, y, failure = solve_spread(desc, int(count), radius, seed)
        if failure:
            assert isinstance(failure[1], DomainError)
            assert "ill-conditioned" in str(failure[1])
            continue
        assert_converged(desc, pts, weights, y)
        diam = max(distance(hyperboloid_point(p), hyperboloid_point(q)) for p in pts for q in pts)
        assert max(distance(hyperboloid_point(y), hyperboloid_point(p)) for p in pts) <= diam


def test_a_row_where_the_unit_step_barely_contracts_converges():
    """A cubic-mask row of a spread hyperboloid:2 grid (radius 3 to 4) whose
    c = sum_i w_i d_i coth(d_i) stays at 1.985 along the iteration: a unit
    step contracts it by c - 1 = 0.985 and ran past BARYCENTER_MAX_ITER."""
    pts = np.array([[20.672133262758866, 20.646265840738444, -0.26229843083468724],
                    [10.440749187481739, 7.058655394133345, 7.627884872149869],
                    [11.91407870451646, 11.77758088458288, -1.4946102784741317]])
    weights = np.array([0.125, 0.75, 0.125])
    out, failure = spaces.barycenters(HYP2, pts[None], weights)
    assert failure is None
    assert_converged(HYP2, pts, weights, out[0])


def test_euclidean_rows_far_from_the_origin_are_refused_before_any_step(monkeypatch):
    """At 1e8 a coordinate's float spacing, 1.5e-8, exceeds the tolerance
    1e-10 (1 + diam) of unit-spread rows; at 1e4 it does not."""
    steps = []
    step = spaces._karcher_step
    monkeypatch.setattr(spaces, "_karcher_step", lambda *args: steps.append(1) or step(*args))
    desc = SpaceDescriptor("euclidean", 2)
    rows = np.random.default_rng([3]).standard_normal((5, 3, 2))
    weights = [0.2, 0.3, 0.5]
    out, failure = spaces.barycenters(desc, rows + 1e4, weights)
    assert failure is None
    assert np.allclose(out, np.einsum("k,nkd->nd", weights, rows) + 1e4, rtol=0.0, atol=1e-9)
    steps.clear()
    _, failure = spaces.barycenters(desc, rows + 1e8, weights)
    assert failure[0] == 0 and isinstance(failure[1], DomainError)
    assert "ill-conditioned" in str(failure[1])
    assert steps == []


def test_radius_10_converges_and_radius_20_is_refused():
    """Three hyperboloid:2 points at radius 10 and 20 (weights .2/.3/.5): the
    unit-step iteration returned a point 33.5 from the data at radius 10
    (data diameter 20); at radius 20 the coordinates cannot resolve the
    tolerance."""
    weights = np.array([0.2, 0.3, 0.5])
    for seed in range(3):
        rng = np.random.default_rng([seed])
        pts = spread_points(HYP2, rng, 3, 10.0)
        out, failure = spaces.barycenters(HYP2, pts[None], weights)
        assert failure is None
        assert_converged(HYP2, pts, weights, out[0])
        rng = np.random.default_rng([seed])
        far = spread_points(HYP2, rng, 3, 20.0)
        _, failure = spaces.barycenters(HYP2, far[None], weights)
        assert failure[0] == 0 and isinstance(failure[1], DomainError)
        with pytest.raises(DomainError, match="ill-conditioned"):
            weighted_barycenter(BarycenterProblem([hyperboloid_point(p) for p in far], weights))


# -- the safeguarded Newton step ---------------------------------------------------

CURVED = (SPD2, SPD3, HYP2, HYP3)


def unit_ball_rows(desc, seed, rows, count):
    """`rows` rows of `count` random points (within distance 1 of the origin
    on the hyperboloid, exp of entries in [-1, 1) on spd) and Dirichlet weights."""
    rng = np.random.default_rng([31, seed])
    pts = np.array([[random_point(desc, rng).payload for _ in range(count)]
                    for _ in range(rows)])
    return pts, rng.dirichlet(np.ones(count))


def spy_steps(monkeypatch, candidates=None):
    """Records [y, residuals, Newton candidates, the y they start from, the
    bounds of the residual at the candidates] of every batched evaluation; the
    last three are None when no row of it builds a candidate.
    `candidates(nxt)`, if given, replaces the candidates built, and their
    bounds with +inf, so that no replaced candidate is certified."""
    calls = []
    step = spaces._karcher_step

    def evaluating(*args):
        out = step(*args)
        calls.append([args[1].copy(), out[0].copy(), None, None, None])
        return out

    def building(build):
        def candidate(backend, y, *args):
            nxt, bound = build(backend, y, *args)
            calls[-1][2:] = nxt.copy(), y.copy(), bound.copy()
            if candidates is None:
                return nxt, bound
            return candidates(nxt), np.full(len(nxt), np.inf)
        return candidate

    monkeypatch.setattr(spaces, "_karcher_step", evaluating)
    for backend in {type(b) for b in spaces._BACKENDS.values() if hasattr(b, "candidate")}:
        monkeypatch.setattr(backend, "candidate", building(backend.candidate))
    return calls


@pytest.mark.parametrize("desc", CURVED, ids=str)
@pytest.mark.parametrize("seed", (0, 1))
def test_newton_step_solves_the_finite_difference_hessian(desc, seed, monkeypatch):
    """The first Newton step s from the start point solves H s = -g, with the
    Hessian H and the gradient g of f = 1/2 sum_i w_i d(., x_i)^2 taken by
    central differences of f along geodesics in 50-digit mpmath (the oracle
    uses nothing of the package).  The float step meets it to 1e-15 - 4e-15
    relative to |g|; 1e-9 leaves room for round-off and still refuses the
    bounded step, which misses by about 1e-2."""
    calls = spy_steps(monkeypatch)
    pts, weights = unit_ball_rows(desc, seed, 1, 4)
    spaces.barycenters(desc, pts, weights)
    y, _, candidate, _, _ = calls[0]
    hess, grad, log = frechet_hessian(desc.kind, y[0], pts[0], weights)
    s, grad = np.array(log(candidate[0])), np.array(grad)
    assert np.linalg.norm(np.array(hess) @ s + grad) <= 1e-9 * np.linalg.norm(grad)


@pytest.mark.parametrize("desc", CURVED, ids=str)
def test_newton_converges_quadratically_on_unit_ball_rows(desc, monkeypatch):
    """r_{k+1} <= r_k^2 for the residuals of a row while r_k >= 1e-6 (below
    that the next residual is round-off); the probed constant is at most 0.034."""
    for seed in range(4):
        calls = spy_steps(monkeypatch)
        pts, weights = unit_ball_rows(desc, seed, 1, 5)
        _, failure = spaces.barycenters(desc, pts, weights)
        assert failure is None
        r = [float(residual[0]) for _, residual, *_ in calls]
        assert all(b <= a * a for a, b in zip(r, r[1:]) if a >= 1e-6), r


@pytest.mark.parametrize("desc", CURVED, ids=str)
def test_unit_ball_rows_take_at_most_3_batched_steps(desc, monkeypatch):
    """The bounded step alone took 5-12 on such rows, and Newton without the
    certificate 4."""
    calls = spy_steps(monkeypatch)
    pts, weights = unit_ball_rows(desc, 7, 30, 4)
    _, failure = spaces.barycenters(desc, pts, weights)
    assert failure is None and len(calls) <= 3


@pytest.mark.parametrize("desc", CURVED, ids=str)
def test_only_rows_that_move_on_build_a_newton_candidate(desc, monkeypatch):
    """A row builds a candidate at an evaluation iff its residual is above its
    tolerance, read at its first evaluated iterate as the solver reads it (no
    row is rejected on unit-ball data, so none reverts): the
    candidates start from those rows' y, a candidate whose bound plus the
    row's rounding floor is within half the tolerance is the row's answer,
    and the others are the rows the next evaluation takes; the last
    evaluation of a call builds candidates only for rows that it certifies."""
    bounded = []
    fallback = spaces._bounded
    monkeypatch.setattr(spaces, "_bounded", lambda *args: bounded.append(1) or fallback(*args))
    calls = spy_steps(monkeypatch)
    pts, weights = unit_ball_rows(desc, 5, 30, 4)
    out, failure = spaces.barycenters(desc, pts, weights)
    assert failure is None and bounded == [] and len(calls) >= 2
    tol = 1e-10 * (1.0 + spaces.distances(desc, calls[0][0][:, None], pts).max(axis=-1))
    floor = desc.backend.resolution(pts)
    live, certified = np.arange(len(pts)), 0
    for k, (y, residual, nxt, start, bound) in enumerate(calls):
        moving = residual > tol[live]
        assert np.array_equal(out[live[~moving]], y[~moving])
        if not moving.any():
            assert nxt is None and k == len(calls) - 1
            break
        assert np.array_equal(start, y[moving])
        live = live[moving]
        sure = bound + floor[live] <= tol[live] / 2
        assert np.array_equal(out[live[sure]], nxt[sure])
        certified += sure.sum()
        live = live[~sure]
        if k == len(calls) - 1:
            assert live.size == 0
        else:
            assert np.array_equal(calls[k + 1][0], nxt[~sure])
    assert certified > 0


@pytest.mark.parametrize("desc,shrink", ((HYP2, 16.0), (HYP3, 16.0), (SPD2, 4.0), (SPD3, 4.0)),
                         ids=str)
def test_the_start_is_of_high_order_in_the_row_diameter(desc, shrink, monkeypatch):
    """Rows of 3 points within d / 2 of a random point, along fixed directions:
    each halving of d shrinks the worst distance from the first evaluated
    iterate to the converged mean at least `shrink`-fold.  Measured: 32x on
    the hyperboloid (centroid plus one fixed-point step, fifth order), 8x on
    spd ((A + H) / 2, third order); from the heaviest point it is 2x.  The
    hyperboloid's start is 1e-10 - 2e-10 off at d = 0.05, so the mean is
    solved to the tolerance 1e-14 here."""
    monkeypatch.setattr(spaces, "BARYCENTER_TOL", 1e-14)
    rng = np.random.default_rng([61, desc.dim])
    weights = np.array([0.2, 0.5, 0.3])
    bases = [random_point(desc, rng) for _ in range(20)]
    units = [[log_map(p, q) / distance(p, q) for q in (random_point(desc, rng) for _ in range(3))]
             for p in bases]
    calls, worst = spy_steps(monkeypatch), []
    for d in (0.2, 0.1, 0.05):
        rows = np.array([[exp_map(p, 0.5 * d * u).payload for u in us]
                         for p, us in zip(bases, units)])
        calls.clear()
        out, failure = spaces.barycenters(desc, rows, weights)
        assert failure is None
        worst.append(spaces.distances(desc, calls[0][0], out).max())
    assert worst[0] >= shrink * worst[1] and worst[1] >= shrink * worst[2], worst


def solve_row(desc, row, weights, certify=True):
    """The solver's answer for one row, its failure, and (bound, floor) of the
    certificate that ended it (a candidate built after the last evaluation),
    or None; certify=False sets every bound to +inf, the rule without the
    certificate."""
    backend, ended = desc.backend, []
    build = type(backend).candidate

    def candidate(self, *args):
        nxt, bound = build(self, *args)
        ended[:] = [bound[0]] if certify else []
        return nxt, bound if certify else np.full(len(nxt), np.inf)

    step = spaces._karcher_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(backend), "candidate", candidate)
        mp.setattr(spaces, "_karcher_step", lambda *args: ended.clear() or step(*args))
        out, failure = spaces.barycenters(desc, row[None], weights)
    floor = backend.resolution(row[None])[0]
    return out[0], failure, (ended[0], floor) if ended else None


@pytest.mark.parametrize("data", ("unit", "spread"))
@pytest.mark.parametrize("desc,reach", ((HYP2, 17.0), (HYP3, 17.0), (SPD2, 12.0), (SPD3, 12.0)),
                         ids=str)
def test_a_certified_row_is_the_point_the_next_evaluation_accepts(desc, reach, data):
    """Rows of 3 to 9 points, unit-ball or spread (up to the documented
    hyperboloid radius 17 and spd log-spread 12): every answer, and every
    failure, is bit for bit the one of the rule without the certificate, which
    evaluates the candidate once more; at a certified row the mpmath residual
    is within the bound plus the rounding floor, and within the tolerance (the
    oracle checks the first certified row of each count)."""
    rng = np.random.default_rng([41, int(reach), int(data == "spread")])
    certified = 0
    for count in range(3, 10):
        checked = False
        for _ in range(2):
            if data == "unit":
                row = np.array([random_point(desc, rng).payload for _ in range(count)])
            else:
                row = spread_points(desc, rng, count, rng.uniform(0.2, 1.0) * reach)
            weights = rng.dirichlet(np.ones(count))
            y, failure, cert = solve_row(desc, row, weights)
            want, want_failure, _ = solve_row(desc, row, weights, certify=False)
            assert (failure is None) == (want_failure is None)
            if failure:
                assert failure[0] == want_failure[0] and str(failure[1]) == str(want_failure[1])
                continue
            assert y.tobytes() == want.tobytes()
            if cert is not None:
                bound, floor = cert
                tol = 1e-10 * (1.0 + spaces.distances(desc, row[np.argmax(weights)], row).max())
                assert bound + floor <= tol / 2
                if not checked:
                    norm = karcher_gradient_norm(desc.kind, y, row, weights)
                    assert norm <= min(bound + floor, tol)
                    checked, certified = True, certified + 1
    assert certified >= 4


def far_point(desc, n):
    """n copies of a point about 8 from the unit ball."""
    if desc.kind == "spd":
        return np.broadcast_to(np.exp(8.0) * np.eye(desc.dim), (n, desc.dim, desc.dim))
    return np.broadcast_to(hyperboloid_from_spatial(
        [math.sinh(8.0)] + [0.0] * (desc.dim - 1)).payload, (n, desc.dim + 1))


@pytest.mark.parametrize("desc", CURVED, ids=str)
@pytest.mark.parametrize("candidate", ("nan", "far"))
def test_rejected_newton_candidates_fall_back_to_the_bounded_step(desc, candidate, monkeypatch):
    """With every Newton candidate NaN, or a far point whose residual is
    larger, each row reaches the answer through the bounded step alone: no
    row fails (a NaN candidate is a rejected trial, not a failure), each
    row is stationary to the oracle's bound, and it lies within 2 tol of the
    answer of the unpatched solver, since both are within tol of the
    minimizer."""
    pts, weights = unit_ball_rows(desc, 3, 6, 4)
    want, _ = spaces.barycenters(desc, pts, weights)
    bounded = []
    fallback = spaces._bounded
    monkeypatch.setattr(spaces, "_bounded", lambda *args: bounded.append(1) or fallback(*args))
    spy_steps(monkeypatch, {"nan": lambda nxt: np.full_like(nxt, np.nan),
                            "far": lambda nxt: far_point(desc, len(nxt)).copy()}[candidate])
    out, failure = spaces.barycenters(desc, pts, weights)
    assert failure is None and bounded
    for row, y, x in zip(pts, out, want):
        assert_converged(desc, row, weights, y)
        diam = max(spaces.distances(desc, p, row).max() for p in row)
        assert spaces.distances(desc, y, x) <= 2e-10 * (1.0 + diam)


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


@pytest.mark.parametrize("dim", (2, 3))
def test_a_degenerate_spd_matrix_fails_its_own_3_point_row(dim):
    """The start of a 3-point spd row inverts its matrices, which LAPACK refuses
    for a singular or NaN one: the row with it fails with NumericError, and the
    rows below it get the values they get alone, also a row scaled by 1e-110,
    whose determinants underflow to 0 while its LU factors do not."""
    desc = SpaceDescriptor("spd", dim)
    good = np.array([p.payload for p in points(desc, 7, 3)])
    good = np.stack((good, good[[1, 2, 0]], 1e-110 * good))
    weights = [0.5, 0.3, 0.2]
    alone, failure = spaces.barycenters(desc, good, weights)
    assert failure is None
    for bad in (np.diag([1.0] * (dim - 1) + [0.0]), np.diag([1.0] * (dim - 1) + [-1.0]),
                np.full((dim, dim), math.nan)):
        rows = np.concatenate([good, np.stack((good[0, 0], bad, good[0, 1]))[None]])
        out, failure = spaces.barycenters(desc, rows, weights)
        assert failure[0] == len(good) and isinstance(failure[1], NumericError)
        assert out[:len(good)].tobytes() == alone.tobytes()


# -- payload validation -----------------------------------------------------------

@pytest.mark.parametrize("call,error,message", (
    (lambda: euclidean_point([[1.0, 2.0]]), StructuralError, "euclidean payload must be a vector"),
    (lambda: log_map(tripod_point(0, 1.0), tripod_point(1, 2.0)), DomainError,
     "tripod backend has no exp/log maps"),
    (lambda: exp_map(tripod_point(0, 1.0), np.array([1.0, 0.5])), DomainError,
     "tripod backend has no exp/log maps"),
), ids=("euclidean-matrix", "tripod-log", "tripod-exp"))
def test_point_operations_refuse_what_their_backend_lacks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("weights,error,message", (
    ([0.5, 0.6], StructuralError, "weights must sum to 1 within 1e-12"),
    ([0.5, 0.25, 0.25], StructuralError, "one weight per point required"),
    ([1.5, -0.5], StructuralError, "weights must be nonnegative"),
    ([math.nan, 1.0], NumericError, "non-finite weights"),
), ids=("sum", "count", "negative", "nan"))
def test_batched_barycenters_give_bad_weights_as_the_failure_of_row_0(weights, error,
                                                                       message):
    rng = np.random.default_rng(7)
    points = np.array([random_point(SPD2, rng).payload for _ in range(4)]).reshape(2, 2, 2, 2)
    out, failure = spaces.barycenters(SPD2, points, weights)
    assert failure[0] == 0 and type(failure[1]) is error and str(failure[1]) == message
    assert np.array_equal(out, points[:, 0])


def test_descriptor_validation():
    with pytest.raises(StructuralError):
        SpaceDescriptor("moduli", 2)
    with pytest.raises(StructuralError):
        SpaceDescriptor("spd", 0)
    assert SpaceDescriptor("tripod", 7).dim == 1


KINDS = "('euclidean', 'spd', 'hyperboloid', 'tripod')"


@pytest.mark.parametrize("source,kind,dim", (
    ("euclidean:2", "euclidean", 2), ("euclidean:1", "euclidean", 1), ("spd:3", "spd", 3),
    ("spd:1", "spd", 1), ("spd:007", "spd", 7), ("hyperboloid:2", "hyperboloid", 2),
    ("hyperboloid:1", "hyperboloid", 1), ("tripod", "tripod", 1), ("tripod:", "tripod", 1),
    ("tripod:1", "tripod", 1), ("tripod:3", "tripod", 1), ("tripod:0", "tripod", 1),
    ("tripod:-1", "tripod", 1),
    ({"kind": "tripod"}, "tripod", 1), ({"kind": "tripod", "dim": 5}, "tripod", 1),
    ({"kind": "tripod", "dim": 0}, "tripod", 1), ({"kind": "spd", "dim": 2}, "spd", 2),
    ({"kind": "euclidean"}, "euclidean", 1), ({"kind": "hyperboloid", "dim": 3}, "hyperboloid", 3),
    ({"kind": "spd", "dim": np.int64(4)}, "spd", 4),
), ids=str)
def test_a_spelling_or_json_object_parses_to_its_descriptor(source, kind, dim):
    """Command-line spellings and JSON objects give the descriptor (kind, dim):
    equal, with one hash, repr and JSON object; a kind with a fixed dim takes it."""
    got = (parse_space if isinstance(source, str) else descriptor_from_json)(source)
    want = SpaceDescriptor(kind, dim)
    assert got == want and hash(got) == hash(want) and type(got.dim) is int
    assert repr(got) == f"SpaceDescriptor(kind={kind!r}, dim={dim})"
    assert descriptor_to_json(got) == {"kind": kind, "dim": dim}
    assert got.backend is spaces._BACKENDS[kind]


@pytest.mark.parametrize("source,error,message", (
    ("foo:2", DomainError, f"unknown space kind 'foo'; expected one of {KINDS}"),
    ("foo", DomainError, f"unknown space kind 'foo'; expected one of {KINDS}"),
    ("", DomainError, f"unknown space kind ''; expected one of {KINDS}"),
    (":2", DomainError, f"unknown space kind ''; expected one of {KINDS}"),
    ("Spd:2", DomainError, f"unknown space kind 'Spd'; expected one of {KINDS}"),
    ("spd", DomainError, "bad space 'spd'; expected kind:dim, dim ''"),
    ("spd:", DomainError, "bad space 'spd:'; expected kind:dim, dim ''"),
    ("spd:x", DomainError, "bad space 'spd:x'; expected kind:dim, dim 'x'"),
    ("spd:2.0", DomainError, "bad space 'spd:2.0'; expected kind:dim, dim '2.0'"),
    ("spd:+2", DomainError, "bad space 'spd:+2'; expected kind:dim, dim '+2'"),
    ("spd: 2", DomainError, "bad space 'spd: 2'; expected kind:dim, dim ' 2'"),
    ("spd:2:3", DomainError, "bad space 'spd:2:3'; expected kind:dim, dim '2:3'"),
    ("euclidean:\u0663", DomainError,
     "bad space 'euclidean:\u0663'; expected kind:dim, dim '\u0663'"),
    ("tripod:x", DomainError, "bad space 'tripod:x'; expected kind:dim, dim 'x'"),
    ("tripod:1.5", DomainError, "bad space 'tripod:1.5'; expected kind:dim, dim '1.5'"),
    ("spd:0", StructuralError, "dim must be >= 1, got 0"),
    ("spd:-0", StructuralError, "dim must be >= 1, got 0"),
    ("spd:-1", StructuralError, "dim must be >= 1, got -1"),
    ("hyperboloid:0", StructuralError, "dim must be >= 1, got 0"),
    ({"kind": "spd", "dim": True}, StructuralError, "space dim must be an integer, got True"),
    ({"kind": "tripod", "dim": True}, StructuralError, "space dim must be an integer, got True"),
    ({"kind": "spd", "dim": 2.0}, StructuralError, "space dim must be an integer, got 2.0"),
    ({"kind": "spd", "dim": "2"}, StructuralError, "space dim must be an integer, got '2'"),
    ({"kind": "tripod", "dim": "x"}, StructuralError, "space dim must be an integer, got 'x'"),
    ({"kind": "spd", "dim": None}, StructuralError, "space dim must be an integer, got None"),
    ({"kind": "spd", "dim": 0}, StructuralError, "dim must be >= 1, got 0"),
    ({"kind": "spd", "dim": -3}, StructuralError, "dim must be >= 1, got -3"),
    ({"dim": 2}, StructuralError, "bad descriptor object: {'dim': 2}"),
    ({"kind": "foo", "dim": 2}, StructuralError, "unknown space kind 'foo'"),
    ({"kind": ["spd"], "dim": 2}, StructuralError, "unknown space kind ['spd']"),
    ({"kind": None}, StructuralError, "unknown space kind None"),
    (["spd"], StructuralError, "bad descriptor object: ['spd']"),
    (None, StructuralError, "bad descriptor object: None"),
), ids=str)
def test_a_refused_spelling_or_json_object_keeps_its_error(source, error, message):
    """The error type and text of each refused spelling and JSON value."""
    with pytest.raises(error) as info:
        (parse_space if isinstance(source, str) else descriptor_from_json)(source)
    assert type(info.value) is error and str(info.value) == message
