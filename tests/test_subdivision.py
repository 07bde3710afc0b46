"""Barycentric refinement, contraction series, diagnostics, approximation."""

import json
import math

import numpy as np
import pytest

from npcsubdiv import (DomainError, ResourceError, SolverError,
                       SpaceDescriptor,
                       StructuralError, approximation_error, bspline_comparison,
                       bspline_mask, chaikin_mask, contractivity_D, convergence_diagnostic,
                       d_inf, default_gauge, distance, empirical_gamma,
                       euclidean_point, geodesic_sampler, iterate, make_mask,
                       random_point, subdivide, tensor_power, tensor_product, tripod_point)
from npcsubdiv import GridData, spaces, subdivision
from npcsubdiv.cli import APPROX_H_SWEEP, RunConfig, main, run
from npcsubdiv.grid import box_indices, grid_from_points, grid_to_json, random_grid
from npcsubdiv.masks import BoxGauge, mask_to_json, translate, unit_gauge
from npcsubdiv.spaces import hyperboloid_point, point_to_json
from npcsubdiv.subdivision import _approximations, _diagnoses, trial_grid
import oracles
from oracles import (approx_loop, data_diameter, diagnose_loop, empirical_gamma_loop,
                     karcher_gradient_norm, linear_refine, pairwise_sup, pointwise_refine)
from test_linear import seeded_mask

EU1 = SpaceDescriptor("euclidean", 1)
EU2 = SpaceDescriptor("euclidean", 2)
TRI = SpaceDescriptor("tripod")
SPD2 = SpaceDescriptor("spd", 2)
HYP2 = SpaceDescriptor("hyperboloid", 2)
B = bspline_mask()
C = chaikin_mask()
GAPPED = make_mask((0,), [1.0, 0.0, 0.0, 1.0])


def tripod_grid(data, lo=None):
    pts = [tripod_point(leg, t) for leg, t in data]
    if lo is None:
        lo = -(len(data) // 2)
    return grid_from_points(TRI, (lo,), (lo + len(data) - 1,), pts)


# -- agreement with the linear route on euclidean data -------------------------------

@pytest.mark.parametrize("mask,dim", ((B, 1), (C, 1), (tensor_power(B, 2), 2)),
                         ids=("bspline", "chaikin", "bspline2d"))
def test_barycentric_matches_linear_on_euclidean_data(mask, dim):
    desc = SpaceDescriptor("euclidean", 2)
    for trial in range(5):
        rng = np.random.default_rng([41, trial])
        x = random_grid(desc, (0,) * dim, (4,) * dim, rng)
        lhs = subdivide(mask, x)
        rhs = linear_refine(mask, x)
        worst = max(float(np.max(np.abs(lhs.get(i).payload - rhs[i])))
                    for i in lhs.indices())
        assert worst <= 1e-12


# -- the batched step against the node-by-node loop -------------------------------------

CUBIC = make_mask((-2,), [0.125, 0.5, 0.75, 0.5, 0.125])
BB = tensor_power(B, 2)
NONDYADIC = make_mask((3,), [0.3, 0.4, 0.7, 0.6])  # translated, weights not dyadic
SHIFTED_BB = tensor_product(make_mask((1,), [0.5, 1.0, 0.5]), B)  # a translated 2-D mask
REFINE_MASKS = {"chaikin": C, "cubic": CUBIC, "tensor_hat": BB, "nondyadic": NONDYADIC}
REFINE_BACKENDS = (EU2, SPD2, SpaceDescriptor("spd", 3), HYP2,
                   SpaceDescriptor("hyperboloid", 3), TRI)


def bits(p):
    """Exact text of a point: equal strings mean equal floats, sign of zero included."""
    return json.dumps(point_to_json(p))


@pytest.mark.parametrize("shift", (0, 7, -9, 2 ** 62, 2 ** 70, -2 ** 70), ids=str)
@pytest.mark.parametrize("mask_name", REFINE_MASKS)
@pytest.mark.parametrize("desc", REFINE_BACKENDS, ids=str)
def test_subdivide_equals_the_pointwise_oracle_bit_for_bit(desc, mask_name, shift):
    """Also for masks translated past int64: every read then takes the nearest
    stored node, as the oracle's Python-int reads through `get` do."""
    mask = REFINE_MASKS[mask_name]
    mask = translate(mask, (shift,) * mask.dim)
    rng = np.random.default_rng([53, len(mask_name), desc.dim])
    lo, hi = ((-2,), (3,)) if mask.dim == 1 else ((-1, 0), (1, 2))
    for window in ((lo, hi), (hi, hi)):  # and a one-node window
        x = random_grid(desc, *window, rng)
        y = subdivide(mask, x)
        expected = pointwise_refine(mask, x)
        assert list(y.indices()) == list(expected)
        assert [bits(y.get(i)) for i in y.indices()] == [bits(p) for p in expected.values()]


@pytest.mark.parametrize("desc", REFINE_BACKENDS, ids=str)
def test_contraction_sups_equal_the_pairwise_loop_bit_for_bit(desc):
    rng = np.random.default_rng([59, desc.dim])
    x = random_grid(desc, (-3,), (4,), rng)
    x2 = random_grid(desc, (0, 0), (2, 3), rng)
    boxes = (x.window(), ((-1,), (2,)), ((-6,), (7,)), ((2,), (1,)))  # past the window; empty
    # half widths of at most 0.5 leave no offset but e = 0: no pairs
    for gauge in (unit_gauge(1), default_gauge(CUBIC), default_gauge(NONDYADIC),
                  BoxGauge(np.array([0.4]))):
        for box in boxes:
            assert contractivity_D(x, gauge, box) == pairwise_sup(x, gauge, box)
    assert d_inf(x) == pairwise_sup(x, unit_gauge(1), x.window())
    assert contractivity_D(x, unit_gauge(1), ((2,), (1,))) == 0.0
    for box in (x2.window(), ((-1, 1), (3, 5))):
        assert d_inf(x2, box) == pairwise_sup(x2, unit_gauge(2), box)
        for gauge in (default_gauge(BB), BoxGauge(np.array([0.5, 0.3]))):
            assert contractivity_D(x2, gauge, box) == pairwise_sup(x2, gauge, box)
    # the series of a trace come from one sweep over the default-gauge offsets
    for mask, data in ((NONDYADIC, x), (GAPPED, x), (BB, x2), (SHIFTED_BB, x2)):
        trace = iterate(mask, data, 2)
        for n, (level, box) in enumerate(zip(trace.levels, trace.interiors)):
            assert trace.d_inf_series[n] == contractivity_D(level, unit_gauge(mask.dim), box)
            assert trace.gauge_series[n] == contractivity_D(level, default_gauge(mask), box)


def spread_hyperboloid_grid(seed, far=0, near=(3.0, 4.0)):
    """Ten hyperboloid:2 points at distance 3 to 4 (or in the range `near`)
    from the origin, where the cubic mask's three-point barycenters need the
    bounded Karcher step to converge; the last `far` of them at distance 300
    to 340, where the first step overflows."""
    rng = np.random.default_rng([seed])
    pts = []
    for k in range(10):
        u = rng.standard_normal(2)
        radius = rng.uniform(300.0, 340.0) if k >= 10 - far else rng.uniform(*near)
        v = math.sinh(radius) * u / np.linalg.norm(u)
        pts.append(hyperboloid_point([math.sqrt(1.0 + float(v @ v))] + v.tolist()))
    return grid_from_points(HYP2, (0,), (9,), pts)


# three points in each parity class, so nodes of both classes fail; with the
# iteration capped at 3 steps the first failing node is the odd node 1 on the
# grids of seeds 0 and 1, ahead of the even node 2
BOTH_CLASSES = make_mask((-2,), [0.125, 0.25, 0.75, 0.5, 0.125, 0.25])
SPREAD_CASES = pytest.mark.parametrize(
    "mask,seed", ((CUBIC, 0), (BOTH_CLASSES, 0), (BOTH_CLASSES, 1)),
    ids=("cubic-0", "both-classes-0", "both-classes-1"))


@SPREAD_CASES
def test_spread_grids_refine_like_the_pointwise_loop(mask, seed):
    x = spread_hyperboloid_grid(seed)
    y = subdivide(mask, x)
    expected = pointwise_refine(mask, x)
    assert [bits(y.get(i)) for i in y.indices()] == [bits(p) for p in expected.values()]


def test_a_grid_far_from_the_origin_refines_to_stationary_points():
    """Ten hyperboloid:2 points at radius 15: the cubic mask's three-point
    barycenters lie near radius 12, where -<y,x>_M rounds off about 2e-5 and
    the residual stalled at 1.2e-6, above the tolerance 3e-9."""
    x = spread_hyperboloid_grid(0, near=(15.0, 15.0))
    y = subdivide(CUBIC, x)
    expected = pointwise_refine(CUBIC, x)
    assert [bits(y.get(i)) for i in y.indices()] == [bits(p) for p in expected.values()]
    rows = np.stack([x.payloads[i - 1:i + 2] for i in range(1, 9)])
    weights = [0.125, 0.75, 0.125]
    out, failure = spaces.barycenters(HYP2, rows, weights)
    assert failure is None
    for row, point in zip(rows, out):
        norm = karcher_gradient_norm("hyperboloid", point, row, weights)
        assert norm <= 1e-8 or norm <= 1e-8 * (1.0 + data_diameter("hyperboloid", row))


@SPREAD_CASES
def test_solver_failures_match_the_pointwise_loop(mask, seed, monkeypatch):
    monkeypatch.setattr(spaces, "BARYCENTER_MAX_ITER", 3)  # too few steps for these grids
    x = spread_hyperboloid_grid(seed)
    with pytest.raises(SolverError) as batched:
        subdivide(mask, x)
    with pytest.raises(SolverError) as pointwise:
        pointwise_refine(mask, x)
    assert str(batched.value) == str(pointwise.value)
    assert batched.value.residual == pointwise.value.residual
    assert bits(batched.value.last_iterate) == bits(pointwise.value.last_iterate)


@pytest.mark.parametrize("mask,lo,hi,far", (
    (translate(C, (-1,)), (0,), (9,), 2), (tensor_power(B, 2), (0, 0), (1, 4), 1)),
    ids=("chaikin", "tensor-hat"))
def test_merged_classes_fail_at_their_lowest_node(mask, lo, hi, far):
    """The 2-point classes of Chaikin ([.25, .75] and [.75, .25], at offset -1)
    and of the tensor hat ([.5, .5] twice) run as one barycenter call whose
    rows are in node order: with the last `far` points 300 from the origin,
    nodes of both merged classes fail (their coordinates cannot resolve the
    tolerance), the lowest in the class that comes second in class order.
    The call's first failure is that node's, and subdivide raises what the
    node-by-node loop raises."""
    pts = [hyperboloid_point(p) for p in spread_hyperboloid_grid(3, far=far).payloads]
    x = grid_from_points(HYP2, lo, hi, pts)
    failures = oracles.pointwise_failures(mask, x)
    plan = [g for g in subdivision._plan(mask, x) if len(g[0]) == 2]
    assert len(plan) == 1 and plan[0][1].sum() == 2  # one group of two classes
    held = {tuple(int(c) for c in r) for r in np.argwhere(plan[0][1])}
    in_group = [i for i in failures if tuple(c % 2 for c in i) in held]
    assert {tuple(c % 2 for c in i) for i in in_group} == held
    assert tuple(c % 2 for c in in_group[0]) == max(held)  # the later class in row-major order
    _, first = subdivision._refine(plan, subdivision._stack([x]))
    assert first[0] == (0,) + in_group[0]
    assert str(first[1]) == str(failures[in_group[0]])
    with pytest.raises(DomainError) as batched:
        subdivide(mask, x)
    with pytest.raises(DomainError) as pointwise:
        oracles.pointwise_refine(mask, x)
    assert str(batched.value) == str(pointwise.value)


@pytest.mark.parametrize("mask", [B, C, CUBIC, tensor_power(B, 2), tensor_product(C, B)]
                         + [seeded_mask(k) for k in range(20)],
                         ids=["hat", "chaikin", "cubic", "tensor-hat", "chaikin-hat"]
                         + [f"seeded-{k}" for k in range(20)])
def test_the_plan_is_the_same_on_every_backend(mask):
    """A run's stencil groups read the mask alone: each registered backend gets
    the groups euclidean data gets, so Chaikin's two classes are one group."""
    def groups(desc):
        x = random_grid(desc, (0,) * mask.dim, (3,) * mask.dim, np.random.default_rng(5))
        return [(w.tolist(), holds.tolist(), offsets.tolist())
                for w, holds, offsets in subdivision._plan(mask, x)]

    want = groups(EU1)
    assert all(groups(SpaceDescriptor(kind, backend.fixed_dim or 2)) == want
               for kind, backend in spaces._BACKENDS.items())
    if mask is C:
        assert len(want) == 1


def test_a_lower_node_failing_later_is_the_one_raised(monkeypatch):
    """With the iteration capped at 3 steps, a far node of this grid fails at
    the first step (its coordinates are too coarse for the tolerance: a
    DomainError) and a lower node fails later, at the cap; subdivide raises
    the lower node's error, as the node-by-node loop does."""
    monkeypatch.setattr(spaces, "BARYCENTER_MAX_ITER", 3)
    x = spread_hyperboloid_grid(18, far=5)
    with pytest.raises(SolverError) as batched:
        subdivide(CUBIC, x)
    with pytest.raises(SolverError) as pointwise:
        pointwise_refine(CUBIC, x)
    assert str(batched.value) == str(pointwise.value)
    assert batched.value.residual == pointwise.value.residual
    assert bits(batched.value.last_iterate) == bits(pointwise.value.last_iterate)


def test_cli_reports_the_solver_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spaces, "BARYCENTER_MAX_ITER", 3)
    data, mask = tmp_path / "data.json", tmp_path / "mask.json"
    data.write_text(json.dumps(grid_to_json(spread_hyperboloid_grid(0))))
    mask.write_text(json.dumps({"dim": 1, "offset": [-2],
                                "coeffs": [0.125, 0.5, 0.75, 0.5, 0.125]}))
    code = main(["subdivide", "--mask", str(mask), "--data", str(data), "--levels", "2"])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": {"type": "SolverError", "message": "barycenter iteration did not converge"}}


def test_cli_reports_an_overflow_as_a_numeric_error(tmp_path, capsys):
    """At radius 300 to 340 the cubic mask's first barycenter step overflows:
    the CLI reports a typed error, and nothing else reaches stderr."""
    data, mask = tmp_path / "data.json", tmp_path / "mask.json"
    data.write_text(json.dumps(grid_to_json(spread_hyperboloid_grid(0, far=10))))
    mask.write_text(json.dumps(mask_to_json(CUBIC)))
    code = main(["subdivide", "--mask", str(mask), "--data", str(data), "--levels", "2"])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": {"type": "NumericError", "message": "non-finite result"}}


# -- iterate bookkeeping ---------------------------------------------------------------

def test_iterate_tracks_the_clamped_interiors():
    x = tripod_grid([(2, 2.0), (1, 0.5), (0, 2.0)])
    trace = iterate(C, x, 2)
    assert trace.interiors == [((-1,), (1,)), ((0,), (2,)), ((2,), (4,))]
    for level, (lo, hi) in zip(trace.levels, trace.interiors):
        assert all(wl <= il and ih <= wh for wl, il, ih, wh
                   in zip(level.lo, lo, hi, level.hi))
    assert len(trace.d_inf_series) == 3 and len(trace.gauge_series) == 3


def test_iterate_raises_when_the_window_is_too_small():
    x = tripod_grid([(1, 1.0), (2, 1.0)], lo=0)
    with pytest.raises(DomainError, match="window needs"):
        iterate(C, x, 2)


def test_iterate_refuses_levels_past_the_support_cap(monkeypatch):
    # 4 nodes: level n spans 3 * 2^n + 1 nodes, past 2^22 from n = 21 on
    x = grid_from_points(EU1, (0,), (3,), [euclidean_point([float(i)]) for i in range(4)])
    monkeypatch.setattr("npcsubdiv.subdivision._refine", None)  # nothing is refined
    with pytest.raises(TypeError):  # 3 * 2^20 + 1 floats pass the cap and reach a step
        iterate(B, x, 20)
    for n in (21, 30, 10 ** 9):
        with pytest.raises(ResourceError, match="payload floats"):
            iterate(B, x, n)
    with pytest.raises(ResourceError):  # four floats per spd:2 node
        iterate(B, random_grid(SPD2, (0,), (3,), np.random.default_rng(0)), 19)


def test_hat_scheme_halves_d_inf_on_a_geodesic_line():
    pts = [tripod_point(1, float(i)) if i >= 0 else tripod_point(2, float(-i))
           for i in range(-3, 4)]
    x = grid_from_points(TRI, (-3,), (3,), pts)
    trace = iterate(B, x, 3)
    assert trace.d_inf_series[0] == 1.0
    for n, v in enumerate(trace.d_inf_series):
        assert v == pytest.approx(2.0 ** -n, abs=1e-12)


def test_gauge_series_is_monotone_for_the_gapped_mask():
    # d_inf over unit neighbors can grow for (1,0,0,1); the mask's own gauge
    # series is the quantity the scheme actually contracts weakly
    pts = [euclidean_point([float(i)]) for i in range(-4, 5)]
    x = grid_from_points(EU1, (-4,), (4,), pts)
    trace = iterate(GAPPED, x, 4)
    assert any(b > a + 1e-12 for a, b in zip(trace.d_inf_series, trace.d_inf_series[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(trace.gauge_series, trace.gauge_series[1:]))


def test_subdivide_validation():
    x = tripod_grid([(1, 1.0), (2, 1.0), (0, 0.5)])
    with pytest.raises(StructuralError):
        subdivide(tensor_power(B, 2), x)
    with pytest.raises(StructuralError):
        subdivide(make_mask((0,), [1.0, 0.5]), x)


@pytest.mark.parametrize("n", (0, 3))
def test_a_mask_of_another_dimension_is_refused_at_any_level(n):
    """The plan checks the dimensions before any box arithmetic, which would
    zip a 1-D support box against 2-D window corners."""
    x = random_grid(SPD2, (0, 0), (1, 1), np.random.default_rng(0))
    with pytest.raises(StructuralError, match="^mask and data dimension disagree$"):
        iterate(C, x, n)


def test_a_mask_that_breaks_the_sum_rule_is_refused_at_level_0():
    x = tripod_grid([(1, 1.0), (2, 1.0), (0, 0.5)])
    with pytest.raises(StructuralError, match="^mask violates the sum rule"):
        iterate(make_mask((0,), [1.0, 0.5]), x, 0)


# -- midpoint comparison scheme -----------------------------------------------------------

@pytest.mark.parametrize("desc", (EU2, SPD2, HYP2, TRI), ids=str)
def test_midpoint_scheme_equals_the_hat_scheme_in_one_dimension(desc):
    rng = np.random.default_rng(43)
    x = random_grid(desc, (-2,), (2,), rng)
    comp = bspline_comparison(x)
    sub = subdivide(B, x)
    worst = max(distance(comp.get(i), sub.get(i))
                for i in box_indices((-4,), (4,)))
    assert worst <= 1e-10


def test_midpoint_scheme_equals_the_tensor_mask_on_euclidean_squares():
    rng = np.random.default_rng(44)
    x = random_grid(EU2, (0, 0), (2, 2), rng)
    comp = bspline_comparison(x)
    sub = subdivide(tensor_power(B, 2), x)
    worst = max(float(np.max(np.abs(comp.get(i).payload - sub.get(i).payload)))
                for i in box_indices((0, 0), (4, 4)))
    assert worst <= 1e-12


def test_midpoint_scheme_departs_from_the_tensor_mask_on_the_tripod():
    # axiswise midpoints and the 4-point barycenter genuinely disagree once
    # three legs pull with unequal strength
    corners = {(0, 0): tripod_point(0, 4.0), (1, 0): tripod_point(1, 1.0),
               (0, 1): tripod_point(1, 1.0), (1, 1): tripod_point(2, 1.0)}
    x = grid_from_points(TRI, (0, 0), (1, 1),
                         [corners[i] for i in box_indices((0, 0), (1, 1))])
    comp = bspline_comparison(x)
    sub = subdivide(tensor_power(B, 2), x)
    assert comp.get((1, 1)).payload == (0, 0.75)
    assert sub.get((1, 1)).payload == (0, 0.25)
    assert distance(comp.get((1, 1)), sub.get((1, 1))) == pytest.approx(0.5, abs=1e-12)


# -- convergence diagnostics -----------------------------------------------------------

def test_diagnostic_verdicts():
    curved = tripod_grid([(2, 2.0), (1, 0.5), (0, 2.0), (1, 1.0), (2, 0.25)])
    assert convergence_diagnostic(B, curved, 4).verdict == "converging"
    assert convergence_diagnostic(C, curved, 4).verdict == "converging"
    pts = [euclidean_point([float(v)]) for v in np.random.default_rng(3).random(10)]
    x = grid_from_points(EU1, (0,), (9,), pts)
    report = convergence_diagnostic(GAPPED, x, 4)
    assert report.verdict == "inconclusive"
    assert len(report.cauchy_series) == 4
    with pytest.raises(DomainError):
        convergence_diagnostic(B, curved, 1)


def test_empirical_gamma_for_the_hat_scheme_on_spd():
    est = empirical_gamma(B, SPD2, trials=4, n_max=5, seed=1)
    assert 0.45 <= est.gamma_hat <= 0.55
    assert est.C_hat <= 3.0
    assert len(est.per_trial_gamma) == 4


# -- Jensen inequality -------------------------------------------------------------------

def test_jensen_inequality_against_n_step_weights():
    from npcsubdiv import kernel_row
    backends = (EU2, SPD2, HYP2, TRI)
    for trial in range(20):
        rng = np.random.default_rng([47, trial])
        mask = (B, C)[trial % 2]
        desc = backends[trial % 4]
        n = 1 + trial % 3
        x = random_grid(desc, (-2,), (2,), rng)
        z = random_point(desc, rng)
        trace = iterate(mask, x, n)
        for i in box_indices(*trace.interiors[n]):
            weights = kernel_row(mask, i, n).probs
            bound = sum(w * distance(x.get(j), z) for j, w in weights.items())
            assert distance(trace.levels[n].get(i), z) <= bound + 1e-8


# -- geodesic sampling and the approximation bound ----------------------------------------

@pytest.mark.parametrize("desc", (SpaceDescriptor("euclidean", 3), SPD2, HYP2), ids=str)
def test_the_batched_sampler_is_the_one_point_exp_map_bit_for_bit(desc):
    rng = np.random.default_rng(7)  # the draws of geodesic_sampler(desc, seed=7)
    base, other = random_point(desc, rng), random_point(desc, rng)
    unit = spaces.log_map(base, other) / distance(base, other)
    t = np.concatenate(([0.0, -0.0], np.random.default_rng(8).uniform(-3.0, 3.0, 30)))
    got = geodesic_sampler(desc, seed=7)(np.column_stack([t, -t]))  # reads column 0
    want = np.array([spaces.exp_map(base, s * unit).payload for s in t])
    assert got.shape == (len(t),) + desc.payload_shape
    assert got.tobytes() == want.tobytes()


def test_the_tripod_sampler_runs_through_the_glue_point():
    t = np.array([[0.0], [-0.0], [1.5], [-2.0], [-1e-300]])
    rows = geodesic_sampler(TRI)(t)
    assert rows.tolist() == [[0.0, 0.0], [0.0, 0.0], [1.0, 1.5], [2.0, 2.0], [2.0, 1e-300]]
    assert [bits(TRI.backend.point(TRI, r)) for r in rows] == [
        bits(tripod_point(1 if s >= 0 else 2, abs(s))) for s in t[:, 0]]


def test_the_sampler_checks_tangency_once_where_it_is_built(monkeypatch):
    seen = []
    check = spaces._Hyperboloid.tangent
    monkeypatch.setattr(spaces._Hyperboloid, "tangent",
                        lambda self, p, v: seen.append(v) or check(self, p, v))
    f = geodesic_sampler(HYP2, seed=0)
    unit = seen[-1]  # the last check of the build is that of the unit vector
    assert math.isclose(float(unit[1:] @ unit[1:] - unit[0] ** 2), 1.0, rel_tol=1e-12)
    f(np.linspace(-2.0, 2.0, 50)[:, None])
    assert seen[-1] is unit
    bent = np.array([1.0, 0.0, 0.0])  # not tangent anywhere on the sheet
    monkeypatch.setattr(spaces._Hyperboloid, "log", lambda self, p, q: bent)
    with pytest.raises(DomainError, match="not tangent"):
        geodesic_sampler(HYP2, seed=0)


def test_approximation_error_samples_each_grid_in_one_call():
    f = geodesic_sampler(SPD2, seed=1)
    calls = []

    def counted(t):
        calls.append(t.shape)
        return f(t)

    chk = approximation_error(tensor_power(B, 2), SPD2, counted, lipschitz=1.0, h=0.1, n=2)
    assert calls == [(81, 2), (33 * 33, 2)] and chk.ok
    calls.clear()  # a sweep of h: one call on all the coarse grids, one on all the interiors
    checks = _approximations(tensor_power(B, 2), SPD2, counted, 1.0, APPROX_H_SWEEP, 2)
    assert calls == [(3 * 81, 2), (3 * 33 * 33, 2)] and checks[1].sup_err == chk.sup_err


def test_approximation_bound_holds_and_scales():
    f = geodesic_sampler(HYP2, seed=0)
    coarse = approximation_error(B, HYP2, f, lipschitz=1.0, h=0.2, n=4)
    fine = approximation_error(B, HYP2, f, lipschitz=1.0, h=0.1, n=4)
    assert coarse.ok and fine.ok
    assert coarse.sup_err <= coarse.bound + 1e-8
    assert fine.bound == pytest.approx(0.5 * coarse.bound)
    assert fine.sup_err <= 0.5 * coarse.sup_err + 1e-8


def test_a_gauge_of_another_dimension_is_refused():
    x = random_grid(EU1, (0,), (4,), np.random.default_rng(2))
    with pytest.raises(StructuralError, match="^gauge and data dimension disagree$"):
        contractivity_D(x, unit_gauge(2))


def test_approximation_error_validation():
    f = geodesic_sampler(HYP2, seed=0)
    with pytest.raises(DomainError):
        approximation_error(B, HYP2, f, lipschitz=1.0, h=0.0, n=3)
    for lipschitz, h, name in ((math.nan, 0.1, "lipschitz"), (-1.0, 0.1, "lipschitz"),
                               (math.inf, 0.1, "lipschitz"), (1.0, math.inf, "h"),
                               (1.0, math.nan, "h"), (1.0, -0.1, "h")):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            approximation_error(B, HYP2, f, lipschitz=lipschitz, h=h, n=2)
    assert approximation_error(B, HYP2, f, lipschitz=0.0, h=0.1, n=2).bound == 0.0


# -- stacked trials --------------------------------------------------------------------

CUBIC = make_mask((-2,), [0.125, 0.5, 0.75, 0.5, 0.125])
STACKED_SPACES = [SpaceDescriptor(kind, dim) for kind in ("euclidean", "spd", "hyperboloid")
                  for dim in (1, 2)] + [TRI]


@pytest.mark.parametrize("desc", STACKED_SPACES, ids=str)
def test_stacked_runs_equal_the_trial_by_trial_loop(desc, tmp_path):
    """`diagnose --space` (all trials in one run) and `approx` (all h in one
    run) on 1-D and 2-D masks, and `empirical_gamma` (one `_iterate` and one
    d_inf sweep per draw), give the bits of one run per trial on public `iterate`."""
    space = f"{desc.kind}:{desc.dim}"
    for mask, levels in ((CUBIC, 3), (tensor_power(B, 2), 2)):
        path = tmp_path / "mask.json"
        path.write_text(json.dumps(mask_to_json(mask)))
        report = run(RunConfig("diagnose", mask=str(path), space=space, levels=levels,
                               trials=3, seed=1)).payload
        grids = [trial_grid(mask, desc, np.random.default_rng([1, t])) for t in range(3)]
        assert list(zip(report["cauchy_series"], report["verdicts"])) == \
            diagnose_loop(mask, grids, levels)
        report = run(RunConfig("approx", mask=str(path), space=space, levels=levels,
                               seed=1)).payload
        assert [c["sup_err"] for c in report["checks"]] == approx_loop(
            mask, desc, geodesic_sampler(desc, 1), APPROX_H_SWEEP, levels)
    est = empirical_gamma(CUBIC, desc, trials=3, n_max=4, seed=2)
    assert (est.per_trial_gamma, est.C_hat) == empirical_gamma_loop(CUBIC, desc, 3, 4, 2)


def raised(run):
    with pytest.raises((SolverError, DomainError)) as info:
        run()
    return info.value


def assert_same_error(got, want):
    assert type(got) is type(want) and str(got) == str(want)
    if isinstance(got, SolverError):  # the iterate and residual of a row that ran out of steps
        assert got.residual == want.residual
        assert (got.last_iterate is None) == (want.last_iterate is None)
        if got.last_iterate is not None:
            assert np.array_equal(got.last_iterate.payload, want.last_iterate.payload)


def spread_about_first_node(payloads, desc, factor):
    """The payloads moved `factor` times as far along the geodesics from the first."""
    base = np.broadcast_to(payloads[0], payloads.shape)
    logs = spaces._apply(desc.backend.log, base, payloads)
    return spaces._apply(desc.backend.exp, base, factor * logs)


def late_failing_grid(desc):
    """A grid whose first failure, with two evaluations per row, comes at level 2,
    and the error it raises there.  spd:2: a zigzag I, I, A, A, I, I, C, C, ... with
    A = exp(15 S1), C = exp(15 S2) for non-commuting unit S1, S2 (log-spread 10.6): a
    3-point row of level 1 holds at most two points, in whose flat Newton is exact,
    and the rows of level 2 about the corners at I, arms 15/8 long, take three
    evaluations.  hyperboloid:2: points 0.2 apart on a geodesic near radius 14, whose
    coordinates resolve only 1.16e-10: the rows of level 1, which read data 0.2 apart
    (tolerance 1.2e-10 and up), start at their mean, and rows of level 2 that span
    0.1 or less (tolerance 1.1e-10 or less) are refused."""
    if desc.kind == "spd":
        a, c = (spaces._apply(desc.backend.exp, np.eye(2), 15.0 / math.sqrt(2.0) * np.array(s))
                for s in ([[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]))
        zigzag = np.array([np.eye(2), a, np.eye(2), c] * 3).repeat(2, axis=0)[:12]
        return GridData(desc, (0,), (11,), zigzag), (SolverError, "did not converge")
    t = 0.2 * (np.arange(12) - 5.5)
    far = np.stack((math.cosh(14.0) * np.cosh(t), math.sinh(14.0) * np.cosh(t), np.sinh(t)), axis=1)
    return GridData(desc, (0,), (11,), far), (DomainError, "ill-conditioned")


@pytest.mark.parametrize("desc", (SPD2, HYP2), ids=str)
def test_a_stacked_failure_is_the_one_the_trial_loop_raises(desc, monkeypatch):
    """With two evaluations per row, random data spread twice about its first
    node fails at level 1, `late_failing_grid` first fails at level 2, and data
    on one geodesic never fails.  A stack raises the error of its lowest failing
    trial, at its own level, as the loop does, even where a higher trial fails
    at an earlier level; so do stacks of one trial, which `STACK_FLOATS` = 1
    makes of every job."""
    monkeypatch.setattr(spaces, "BARYCENTER_MAX_ITER", 2)
    on_line = geodesic_sampler(desc, 1)(np.linspace(0.0, 2.0, 12)[:, None])
    line = GridData(desc, (0,), (11,), on_line)
    late, (error, message) = late_failing_grid(desc)
    rough = GridData(desc, (0,), (11,), spread_about_first_node(
        random_grid(desc, (0,), (11,), np.random.default_rng(5)).payloads, desc, 2.0))
    iterate(CUBIC, line, 3)
    iterate(CUBIC, late, 1)
    with pytest.raises(error, match=message):
        iterate(CUBIC, late, 2)
    with pytest.raises(SolverError, match="did not converge"):
        iterate(CUBIC, rough, 1)
    sizes = []
    refine = subdivision._refine
    monkeypatch.setattr(subdivision, "_refine", lambda *args: sizes.append(len(args[1].payloads))
                        or refine(*args))
    for floats, largest in ((subdivision.STACK_FLOATS, 4), (1, 1)):
        monkeypatch.setattr(subdivision, "STACK_FLOATS", floats)
        for grids in ([late, rough], [line, late, rough, late], [rough, late]):
            assert_same_error(raised(lambda: _diagnoses(CUBIC, grids, 3)),
                              raised(lambda: diagnose_loop(CUBIC, grids, 3)))
        assert [(r.cauchy_series, r.verdict) for r in _diagnoses(CUBIC, [line, line], 3)] == \
            diagnose_loop(CUBIC, [line, line], 3)
        assert max(sizes) == largest
        sizes.clear()


def test_a_stacked_coarse_row_is_the_one_the_trial_loop_refuses():
    """Euclidean data near 1.5e6 resolves only 2.3e-10, so a row of diameter
    below 1.33 is refused (DomainError) before any step: a linear grid of slope
    4 is refused at level 3, of slope 2 at level 2 and of slope 0.5 at level 1."""
    nodes = np.arange(12.0)[:, None]
    grids = {s: GridData(EU1, (0,), (11,), 1.5e6 + s * nodes)
             for s in (4.0, 2.0, 0.5)}
    for s, level in ((4.0, 3), (2.0, 2), (0.5, 1)):
        iterate(CUBIC, grids[s], level - 1)
        with pytest.raises(DomainError, match="ill-conditioned"):
            iterate(CUBIC, grids[s], level)
    for order in ((4.0, 2.0, 0.5), (2.0, 0.5, 4.0), (0.5, 4.0)):
        stack = [grids[s] for s in order]
        assert_same_error(raised(lambda: _diagnoses(CUBIC, stack, 3)),
                          raised(lambda: diagnose_loop(CUBIC, stack, 3)))


def test_empirical_gamma_redraws_a_failing_trial_from_its_own_stream(monkeypatch):
    """With three evaluations per row about two thirds of the spd:2 trial grids
    of the cubic mask fail once spread 3 times about their first node (39 of
    60; unspread, none does).  A failing trial draws again from its own
    stream; seed 9 needs 3 redraws and succeeds, seed 10 gives trial 2 up
    after 3 draws, with the loop's error."""
    monkeypatch.setattr(spaces, "BARYCENTER_MAX_ITER", 3)
    draws = []
    draw = subdivision.trial_grid

    def spread(mask, space, rng):
        x = draw(mask, space, rng)
        return GridData(space, x.lo, x.hi, spread_about_first_node(x.payloads, space, 3.0))

    monkeypatch.setattr(oracles, "trial_grid", spread)
    monkeypatch.setattr(subdivision, "trial_grid", lambda *args: draws.append(1) or spread(*args))
    est = empirical_gamma(CUBIC, SPD2, trials=3, n_max=3, seed=9)
    assert (est.per_trial_gamma, est.C_hat) == empirical_gamma_loop(CUBIC, SPD2, 3, 3, 9)
    assert len(draws) == 6
    assert_same_error(raised(lambda: empirical_gamma(CUBIC, SPD2, trials=3, n_max=3, seed=10)),
                      raised(lambda: empirical_gamma_loop(CUBIC, SPD2, 3, 3, 10)))


@pytest.mark.parametrize("chosen", (
    {(0, 1): "flat"},
    {(1, 1): "flat", (1, 2): "flat", (1, 3): "flat"},
    {(1, 1): "flat", (1, 2): "spread", (1, 3): "spread"},
    {(0, 1): "spread", (2, 1): "flat"},
), ids=("flat-first-draw", "three-flat-draws", "flat-then-two-failures", "failure-below-flat"))
def test_empirical_gamma_redraws_degenerate_data_as_the_trial_loop_does(chosen, monkeypatch):
    """Chosen draws (trial, draw number) of spd:2 trial grids become constant,
    whose d_inf at level 0 (2.2e-16) is degenerate, or spread 5 times about
    their first node, which fails with three evaluations per row (unspread,
    none does).  `empirical_gamma` redraws, keeps a series and raises as the
    trial loop does: the last of three degenerate series, a degenerate series
    that two failed draws follow, and a degenerate trial above a failing one;
    each trial draws as often as in the loop."""
    monkeypatch.setattr(spaces, "BARYCENTER_MAX_ITER", 3)
    draw = subdivision.trial_grid

    def counted(draws):
        def trial_grid(mask, space, rng):
            x = draw(mask, space, rng)
            t = rng.bit_generator.seed_seq.entropy[1]  # the trial t of [seed, t]
            draws[t] = draws.get(t, 0) + 1
            how = chosen.get((t, draws[t]))
            if how is None:
                return x
            payloads = np.broadcast_to(x.payloads[0], x.payloads.shape) if how == "flat" \
                else spread_about_first_node(x.payloads, space, 5.0)
            return GridData(space, x.lo, x.hi, payloads)
        return trial_grid

    def outcome(run):
        try:
            return run()
        except (SolverError, DomainError) as error:
            return type(error), str(error)

    got, want = {}, {}
    monkeypatch.setattr(subdivision, "trial_grid", counted(got))
    monkeypatch.setattr(oracles, "trial_grid", counted(want))
    est = outcome(lambda: empirical_gamma(CUBIC, SPD2, trials=3, n_max=3, seed=1))
    est = est if isinstance(est, tuple) else (est.per_trial_gamma, est.C_hat)
    assert est == outcome(lambda: empirical_gamma_loop(CUBIC, SPD2, 3, 3, 1))
    assert got == want


def test_a_refused_empirical_gamma_trial_raises_as_the_trial_loop_does(monkeypatch):
    """Trial grids moved near 1.5e6 on euclidean:1 are refused (DomainError,
    after which no trial draws again) at a level their slope sets: slope 0.5
    at level 1, slope 4 at level 3.  `empirical_gamma` raises the error of
    the lowest refused trial, as the loop does, also where a higher trial is
    refused at an earlier level."""
    slopes = {}
    draw = subdivision.trial_grid

    def moved(mask, space, rng):
        x = draw(mask, space, rng)  # keeps each trial's stream where the loop has it
        s = slopes.get(rng.bit_generator.seed_seq.entropy[1])  # the trial t of [seed, t]
        if s is None:
            return x
        nodes = np.arange(len(x.payloads), dtype=float)[:, None]
        return GridData(x.descriptor, x.lo, x.hi, 1.5e6 + s * nodes)

    monkeypatch.setattr(subdivision, "trial_grid", moved)
    monkeypatch.setattr(oracles, "trial_grid", moved)
    errors = []
    for case in ({0: 0.5}, {1: 4.0}, {2: 0.5}, {1: 4.0, 2: 0.5}):
        slopes.clear()
        slopes.update(case)
        got = raised(lambda: empirical_gamma(CUBIC, EU1, trials=3, n_max=3, seed=4))
        assert_same_error(got, raised(lambda: empirical_gamma_loop(CUBIC, EU1, 3, 3, 4)))
        assert isinstance(got, DomainError) and "ill-conditioned" in str(got)
        errors.append(str(got))
    # trial 1's level-3 refusal, not trial 2's level-1 one
    assert errors[3] == errors[1] != errors[2]


def test_a_failing_approx_run_raises_as_the_h_by_h_loop_does(monkeypatch):
    """With one evaluation per row the 3-point rows of the cubic mask do not
    converge on rough hyperboloid samples, and do on samples along one
    geodesic, which the sampler gives for |t| <= 0.5: evenly spaced, their
    rows start at their mean.  `approximation_error` and the stacked
    `_approximations` raise the SolverError (with its iterate and residual)
    of the loop over h, whose first failing h need not be the first h."""
    monkeypatch.setattr(spaces, "BARYCENTER_MAX_ITER", 1)

    def rough(t):
        t = t[:, 0]
        x = np.stack((t, np.where(np.abs(t) > 0.5, 2.0 * np.sin(97.0 * t), 0.0)), axis=1)
        return np.concatenate((np.sqrt(1.0 + (x * x).sum(axis=1))[:, None], x), axis=1)

    approx_loop(CUBIC, HYP2, rough, (0.1,), 2)  # samples along the geodesic converge
    for hs in ((0.2, 0.1), (0.1, 0.2)):
        want = raised(lambda: approx_loop(CUBIC, HYP2, rough, hs, 2))
        assert isinstance(want, SolverError)
        assert_same_error(raised(lambda: _approximations(CUBIC, HYP2, rough, 1.0, hs, 2)), want)
    assert_same_error(raised(lambda: approximation_error(CUBIC, HYP2, rough, 1.0, 0.2, 2)), want)
