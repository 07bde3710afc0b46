"""Barycentric refinement, contraction series, diagnostics, approximation."""

import math

import numpy as np
import pytest

from npcsubdiv import (DomainError, SpaceDescriptor, StructuralError,
                       approximation_error, bspline_comparison, bspline_mask,
                       chaikin_mask, convergence_diagnostic, d_inf, distance,
                       empirical_gamma, euclidean_point, geodesic_sampler,
                       iterate, make_mask, random_point,
                       subdivide, tensor_power, tripod_point)
from npcsubdiv.grid import box_indices, grid_from_points, random_grid
from oracles import linear_refine

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
