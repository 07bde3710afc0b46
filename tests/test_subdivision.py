"""Barycentric refinement, contraction series, diagnostics, approximation."""

import json
import math

import numpy as np
import pytest

from npcsubdiv import (DomainError, NumericError, SolverError, SpaceDescriptor,
                       StructuralError, approximation_error, bspline_comparison,
                       bspline_mask, chaikin_mask, contractivity_D, convergence_diagnostic,
                       d_inf, default_gauge, distance, empirical_gamma,
                       euclidean_point, geodesic_sampler, iterate, make_mask,
                       random_point, subdivide, tensor_power, tripod_point)
from npcsubdiv.cli import main
from npcsubdiv.grid import box_indices, grid_from_points, grid_to_json, random_grid
from npcsubdiv.masks import BoxGauge, mask_to_json, unit_gauge
from npcsubdiv.spaces import hyperboloid_point, point_to_json
from oracles import linear_refine, pairwise_sup, pointwise_refine

EU1 = SpaceDescriptor("euclidean", 1)
EU2 = SpaceDescriptor("euclidean", 2)
TRI = SpaceDescriptor("tripod")
SPD2 = SpaceDescriptor("spd", 2)
HYP2 = SpaceDescriptor("hyperboloid", 2)
B = bspline_mask()
C = chaikin_mask()
GAPPED = make_mask((0,), [1.0, 0.0, 0.0, 1.0])


def tripod_grid(data, lo=None, extension="constant_nearest"):
    pts = [tripod_point(leg, t) for leg, t in data]
    if lo is None:
        lo = -(len(data) // 2)
    return grid_from_points(TRI, (lo,), (lo + len(data) - 1,), pts, extension)


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
REFINE_MASKS = {"chaikin": C, "cubic": CUBIC, "tensor_hat": BB, "nondyadic": NONDYADIC}
REFINE_BACKENDS = (EU2, SPD2, SpaceDescriptor("spd", 3), HYP2,
                   SpaceDescriptor("hyperboloid", 3), TRI)


def bits(p):
    """Exact text of a point: equal strings mean equal floats, sign of zero included."""
    return json.dumps(point_to_json(p))


@pytest.mark.parametrize("extension", ("constant_nearest", "periodic"))
@pytest.mark.parametrize("mask_name", REFINE_MASKS)
@pytest.mark.parametrize("desc", REFINE_BACKENDS, ids=str)
def test_subdivide_equals_the_pointwise_oracle_bit_for_bit(desc, mask_name, extension):
    mask = REFINE_MASKS[mask_name]
    rng = np.random.default_rng([53, len(mask_name), desc.dim])
    lo, hi = ((-2,), (3,)) if mask.dim == 1 else ((-1, 0), (1, 2))
    for window in ((lo, hi), (hi, hi)):  # and a one-node window
        x = random_grid(desc, *window, rng, extension)
        y = subdivide(mask, x)
        expected = pointwise_refine(mask, x)
        assert list(y.indices()) == list(expected)
        assert [bits(y.get(i)) for i in y.indices()] == [bits(p) for p in expected.values()]


@pytest.mark.parametrize("desc", REFINE_BACKENDS, ids=str)
def test_contraction_sups_equal_the_pairwise_loop_bit_for_bit(desc):
    rng = np.random.default_rng([59, desc.dim])
    x = random_grid(desc, (-3,), (4,), rng, "periodic")
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


def spread_hyperboloid_grid(seed, far=0, near=(3.0, 4.0)):
    """Ten hyperboloid:2 points at distance 3 to 4 (or in the range `near`)
    from the origin, where the cubic mask's three-point barycenters do not
    converge; the last `far` of them at distance 300 to 340, where the
    iteration overflows."""
    rng = np.random.default_rng([seed])
    pts = []
    for k in range(10):
        u = rng.standard_normal(2)
        radius = rng.uniform(300.0, 340.0) if k >= 10 - far else rng.uniform(*near)
        v = math.sinh(radius) * u / np.linalg.norm(u)
        pts.append(hyperboloid_point([math.sqrt(1.0 + float(v @ v))] + v.tolist()))
    return grid_from_points(HYP2, (0,), (9,), pts)


# three points in each parity class, so nodes of both classes fail; the first
# failing node is 2 on the grid of seed 0 and 3 on the grid of seed 1
BOTH_CLASSES = make_mask((-2,), [0.125, 0.25, 0.75, 0.5, 0.125, 0.25])


@pytest.mark.parametrize("mask,seed", ((CUBIC, 0), (BOTH_CLASSES, 0), (BOTH_CLASSES, 1)),
                         ids=("cubic-0", "both-classes-0", "both-classes-1"))
def test_solver_failures_match_the_pointwise_loop(mask, seed):
    x = spread_hyperboloid_grid(seed)
    with pytest.raises(SolverError) as batched:
        subdivide(mask, x)
    with pytest.raises(SolverError) as pointwise:
        pointwise_refine(mask, x)
    assert str(batched.value) == str(pointwise.value)
    assert batched.value.residual == pointwise.value.residual
    assert bits(batched.value.last_iterate) == bits(pointwise.value.last_iterate)


def test_a_lower_node_failing_later_is_the_one_raised():
    """On this grid a far node fails (a non-finite result) at an earlier
    iteration than a lower node overflows; both are a NumericError, as in the
    node-by-node loop."""
    x = spread_hyperboloid_grid(18, far=5)
    with pytest.raises(NumericError) as batched:
        subdivide(CUBIC, x)
    with pytest.raises(NumericError) as pointwise:
        pointwise_refine(CUBIC, x)
    assert type(batched.value) is type(pointwise.value)
    assert str(batched.value) == str(pointwise.value)


def test_cli_reports_the_solver_failure(tmp_path, capsys):
    data, mask = tmp_path / "data.json", tmp_path / "mask.json"
    data.write_text(json.dumps(grid_to_json(spread_hyperboloid_grid(0))))
    mask.write_text(json.dumps({"dim": 1, "offset": [-2],
                                "coeffs": [0.125, 0.5, 0.75, 0.5, 0.125]}))
    code = main(["subdivide", "--mask", str(mask), "--data", str(data), "--levels", "2"])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": {"type": "SolverError", "message": "barycenter iteration did not converge"}}


def test_cli_reports_an_overflow_as_a_numeric_error(tmp_path, capsys):
    """At radius 15 the cubic mask's barycenter iteration overflows cosh: the
    CLI reports a typed error, and nothing else reaches stderr."""
    data, mask = tmp_path / "data.json", tmp_path / "mask.json"
    data.write_text(json.dumps(grid_to_json(spread_hyperboloid_grid(0, near=(15.0, 15.0)))))
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


def test_interior_values_are_extension_independent():
    data = [(2, 2.0), (1, 0.5), (0, 2.0), (1, 1.0), (2, 0.25)]
    for mask in (B, C):
        per_policy = []
        for ext in ("constant_nearest", "periodic"):
            trace = iterate(mask, tripod_grid(data, extension=ext), 3)
            lo, hi = trace.interiors[3]
            per_policy.append([trace.levels[3].get(i) for i in box_indices(lo, hi)])
        worst = max(distance(u, v) for u, v in zip(*per_policy))
        assert worst <= 1e-12


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

@pytest.mark.parametrize("desc", (SpaceDescriptor("euclidean", 3), SPD2, HYP2, TRI),
                         ids=str)
def test_geodesic_sampler_has_unit_speed(desc):
    f = geodesic_sampler(desc, seed=3)
    rng = np.random.default_rng(5)
    for _ in range(8):
        s, t = rng.uniform(-2.0, 2.0, 2)
        assert distance(f((s,)), f((t,))) == pytest.approx(abs(s - t), abs=1e-9)


def test_approximation_bound_holds_and_scales():
    f = geodesic_sampler(HYP2, seed=0)
    coarse = approximation_error(B, f, lipschitz=1.0, h=0.2, n=4)
    fine = approximation_error(B, f, lipschitz=1.0, h=0.1, n=4)
    assert coarse.ok and fine.ok
    assert coarse.sup_err <= coarse.bound + 1e-8
    assert fine.bound == pytest.approx(0.5 * coarse.bound)
    assert fine.sup_err <= 0.5 * coarse.sup_err + 1e-8


def test_approximation_error_validation():
    f = geodesic_sampler(HYP2, seed=0)
    with pytest.raises(DomainError):
        approximation_error(B, f, lipschitz=1.0, h=0.0, n=3)
