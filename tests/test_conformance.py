"""The conformance battery: the checks every backend of the registry must pass.

Each test runs on every kind of `spaces._BACKENDS` at dims 2 and 3 (a kind
with a fixed dim once), so a new kind joins the battery with its registry
line; `test_membership` also needs its entry in `NON_MEMBERS`.  The checks:
membership, the JSON round trip, copies that keep the registry's backend, the
NPC inequality (criterion 2), geodesic proportionality, exp/log round trips
where the space is smooth, barycenter nonexpansiveness and a sampler that is
Lipschitz 1 (unit speed).  The properties over random points run on the
seeded streams of `SEEDS`.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from npcsubdiv import (BarycenterProblem, DomainError, NumericError, SpaceDescriptor,
                       StructuralError, distance, euclidean_point, exp_map, geodesic_point,
                       geodesic_sampler, hyperboloid_point, log_map, npc_residual, random_grid,
                       random_point, spd_point, tripod_point, weighted_barycenter)
from npcsubdiv import spaces
from npcsubdiv.spaces import descriptor_from_json, descriptor_to_json, point_from_json, \
    point_to_json
from oracles import points_equal

BATTERY = tuple(dict.fromkeys(SpaceDescriptor(kind, dim)
                              for kind in spaces._BACKENDS for dim in (2, 3)))
SMOOTH = tuple(d for d in BATTERY if d.kind != "tripod")  # the backends with exp/log maps

# per kind, calls that build a non-member and the error each raises
NON_MEMBERS = {
    "euclidean": [(lambda: euclidean_point([math.nan, 0.0]), NumericError)],
    "spd": [(lambda: spd_point([[1.0, 0.5]]), StructuralError),
            (lambda: spd_point([[1.0, 0.5], [0.0, 1.0]]), StructuralError),
            (lambda: spd_point([[1.0, 0.0], [0.0, -2.0]]), StructuralError)],
    "hyperboloid": [(lambda: hyperboloid_point([1.0]), StructuralError),
                    (lambda: hyperboloid_point([-1.0, 0.0]), StructuralError),
                    (lambda: hyperboloid_point([2.0, 0.0]), StructuralError),  # off <p,p> = -1
                    (lambda: hyperboloid_point([math.inf, 0.0]), NumericError)],
    "tripod": [(lambda: tripod_point(3, 1.0), StructuralError),
               (lambda: tripod_point(1, -0.5), DomainError)],
}

# the streams of the properties over random points: a seed has no edges to aim at
SEEDS = range(40)


def points(desc, seed, count):
    rng = np.random.default_rng([17, seed])
    return [random_point(desc, rng) for _ in range(count)]


def test_every_kind_of_the_registry_lists_its_non_members():
    assert set(NON_MEMBERS) == set(spaces._BACKENDS)


# -- membership -------------------------------------------------------------------

@pytest.mark.parametrize("desc", BATTERY, ids=str)
def test_membership(desc):
    """A random draw's payloads pass the batched membership test unchanged, and
    the kind's non-members are refused with their errors."""
    rows = desc.backend.random(desc, np.random.default_rng(11), 20)
    assert desc.backend.members(rows.copy()).tobytes() == rows.tobytes()
    for call, error in NON_MEMBERS[desc.kind]:
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("desc", BATTERY, ids=str)
def test_random_grid_is_one_draw_of_the_random_point_stream(desc, monkeypatch):
    calls = []
    draw = desc.backend.random
    monkeypatch.setattr(desc.backend, "random", lambda *a: calls.append(a[-1]) or draw(*a))
    grid_rng, point_rng = np.random.default_rng(31), np.random.default_rng(31)
    x = random_grid(desc, (0, -1), (4, 3), grid_rng)
    nodes = [random_point(desc, point_rng).payload for _ in range(25)]
    assert calls == [25] + [1] * 25  # the grid's one draw, then one per point
    assert np.array_equal(x.payloads.reshape((25,) + desc.payload_shape),
                          np.array(nodes, dtype=float))
    assert grid_rng.bit_generator.state == point_rng.bit_generator.state


# -- JSON -------------------------------------------------------------------------

@pytest.mark.parametrize("desc", BATTERY, ids=str)
def test_point_json_roundtrip(desc):
    rng = np.random.default_rng(23)
    for _ in range(5):
        p = random_point(desc, rng)
        q = point_from_json(desc, point_to_json(p))
        assert points_equal(p, q)


@pytest.mark.parametrize("desc", BATTERY, ids=str)
def test_descriptor_json_roundtrip(desc):
    assert descriptor_from_json(descriptor_to_json(desc)) == desc


@pytest.mark.parametrize("desc", BATTERY, ids=str)
def test_a_copied_descriptor_keeps_the_registry_backend(desc):
    for copied in (copy.copy(desc), copy.deepcopy(desc), pickle.loads(pickle.dumps(desc))):
        assert copied == desc and copied.backend is spaces._BACKENDS[desc.kind]


@pytest.mark.parametrize("desc", BATTERY, ids=str)
def test_a_point_object_of_another_space_is_refused(desc):
    rng = np.random.default_rng(29)
    for other in BATTERY:
        if other != desc:
            with pytest.raises(StructuralError):
                point_from_json(desc, point_to_json(random_point(other, rng)))


# -- geodesics --------------------------------------------------------------------

@pytest.mark.parametrize("desc", BATTERY, ids=str)
def test_geodesic_parametrization_is_proportional(desc):
    for seed in SEEDS:
        p, q = points(desc, seed, 2)
        d = distance(p, q)
        tol = 1e-9 * (1.0 + d)
        for t in (0.25, 0.5, 0.75):
            g = geodesic_point(p, q, t)
            assert abs(distance(p, g) - t * d) <= tol, seed
            assert abs(distance(g, q) - (1.0 - t) * d) <= tol, seed
        assert points_equal(geodesic_point(p, q, 0.0), p), seed
        assert points_equal(geodesic_point(p, q, 1.0), q), seed


@pytest.mark.parametrize("desc", SMOOTH, ids=str)
def test_exp_log_roundtrip(desc):
    for seed in SEEDS:
        base, x = points(desc, seed, 2)
        back = exp_map(base, log_map(base, x))
        assert distance(x, back) <= 1e-9 * (1.0 + distance(base, x)), seed


@pytest.mark.parametrize("desc", BATTERY, ids=str)
def test_geodesic_sampler_has_unit_speed(desc):
    f = geodesic_sampler(desc, seed=3)
    rng = np.random.default_rng(5)
    for _ in range(8):
        s, t = rng.uniform(-2.0, 2.0, 2)
        p, q = f(np.array([[s], [t]]))
        assert spaces.distances(desc, p, q) == pytest.approx(abs(s - t), abs=1e-9)


# -- NPC inequality (criterion 2) -------------------------------------------------

@pytest.mark.parametrize("desc", BATTERY, ids=str)
def test_npc_residual_nonpositive(desc):
    for seed in SEEDS:
        x0, x1, z = points(desc, seed, 3)
        assert npc_residual(x0, x1, z) <= 1e-9, seed


# -- barycenters ------------------------------------------------------------------

@pytest.mark.parametrize("desc", BATTERY, ids=str)
def test_two_point_barycenter_lies_on_the_geodesic(desc):
    for seed, w in ((0, 0.25), (1, 0.5), (2, 0.7)):
        p, q = points(desc, seed, 2)
        y = weighted_barycenter(BarycenterProblem([p, q], np.array([1.0 - w, w])))
        assert distance(y, geodesic_point(p, q, w)) <= 1e-8 * (1.0 + distance(p, q))


@pytest.mark.parametrize("desc", BATTERY, ids=str)
def test_barycenter_is_nonexpansive_in_the_data(desc):
    w = np.array([0.5, 0.3, 0.2])
    for seed in SEEDS:
        a = points(desc, seed, 3)
        b = points(desc, seed + 7, 3)
        ya = weighted_barycenter(BarycenterProblem(a, w))
        yb = weighted_barycenter(BarycenterProblem(b, w))
        worst = max(distance(p, q) for p, q in zip(a, b))
        assert distance(ya, yb) <= worst + 1e-7, seed
