"""Characteristic chain: kernel rows, moments, stationarity, confinement,
and the nested-versus-one-shot barycenter gap."""

import math
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from npcsubdiv import (BarycenterProblem, DomainError, NumericError, ResourceError, SolverError,
                       SpaceDescriptor, StructuralError, ball_confinement, bspline_mask,
                       cascade, chaikin_mask, dispersion_gap, euclidean_point, iterated_mask,
                       kernel_row, lp_curve, lp_moment, make_mask, nonassociativity_gap,
                       random_grid, simulate_chain, stationary_from_refinable, tensor_power,
                       tripod_point, weighted_barycenter)
from npcsubdiv import markov, masks, spaces
from npcsubdiv.grid import box_indices, check_interior_depth, grid_from_points
from npcsubdiv.masks import ITERATED_SUPPORT_CAP, coset, stencil, translate
from oracles import forward_row, fraction_row, splitting_chain, tv

TRI = SpaceDescriptor("tripod")
B = bspline_mask()
C = chaikin_mask()
BB = tensor_power(B, 2)
GAPPED = make_mask((0,), [1.0, 0.0, 0.0, 1.0])
NONDYADIC = translate(make_mask((-1,), [0.2, 0.7, 0.8, 0.3]), (5,))
WIDE_GAPPED = make_mask((-6,), [0.5, 0.5] + [0.0] * 9 + [0.5, 0.5])


# -- kernel rows -----------------------------------------------------------------

def test_kernel_row_frozen_examples():
    assert kernel_row(B, (0,), 1).probs == {(0,): 1.0}
    assert kernel_row(B, (1,), 1).probs == {(0,): 0.5, (1,): 0.5}
    assert kernel_row(B, (1,), 3).probs == {(0,): 0.875, (1,): 0.125}
    assert kernel_row(C, (4,), 2).probs == {(-1,): 0.1875, (0,): 0.75, (1,): 0.0625}
    assert kernel_row(BB, (1, 1), 1).probs == {
        (0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}
    row = kernel_row(B, 5, 0)
    assert row.probs == {(5,): 1.0} and row.start == (5,) and row.steps == 0


def test_gapped_mask_yields_a_deterministic_chain():
    # from odd starts the chain falls into the 2-cycle -1 <-> -2
    assert kernel_row(GAPPED, (0,), 1).probs == {(0,): 1.0}
    assert kernel_row(GAPPED, (1,), 1).probs == {(-1,): 1.0}
    assert kernel_row(GAPPED, (1,), 3).probs == {(-1,): 1.0}
    assert kernel_row(GAPPED, (1,), 4).probs == {(-2,): 1.0}


@pytest.mark.parametrize("mask,starts", (
    (B, ((0,), (1,), (2,), (-3,))),
    (C, ((0,), (1,), (5,), (-2,))),
    (GAPPED, ((0,), (1,), (3,))),
    (BB, ((0, 0), (1, 0), (1, 1))),
), ids=("bspline", "chaikin", "gapped", "bspline2d"))
def test_kernel_rows_match_the_pushforward_oracle(mask, starts):
    for start in starts:
        for n in range(0, 4):
            got = kernel_row(mask, start, n).probs
            want = forward_row(mask, start, n)
            assert set(got) == set(want)
            assert all(abs(got[j] - want[j]) <= 1e-15 for j in got)


def test_rows_are_stochastic_and_satisfy_chapman_kolmogorov():
    for mask, start in ((B, (1,)), (C, (0,)), (BB, (1, 1))):
        for n in range(1, 5):
            full = kernel_row(mask, start, n).probs
            assert abs(sum(full.values()) - 1.0) <= 1e-12
            for m in range(1, n):
                first = kernel_row(mask, start, m).probs
                composed = {}
                for j, wj in first.items():
                    for i, wi in kernel_row(mask, j, n - m).probs.items():
                        composed[i] = composed.get(i, 0.0) + wj * wi
                assert set(composed) == set(full)
                assert all(abs(composed[i] - full[i]) <= 1e-12 for i in full)


def battery_mask(case: int):
    """Mask number `case` of the row battery, and whether it is dyadic.

    Dims 1-3 in turn; boxes of 2-5 (1-D), 2-4 (2-D) or 2-3 (3-D) per axis,
    offsets in -3..3 or at +-2^70.  A dyadic class spreads 2^m units over its
    entries by a multinomial draw (m = 0 gives a single-entry class, and zero
    holes are common); a non-dyadic class takes uniform draws, some zeroed,
    over their float sum."""
    rng = np.random.default_rng([34, case])
    dim, dyadic = 1 + case % 3, case % 2 == 0
    shape = tuple(int(n) for n in rng.integers(2, (6, 5, 4)[dim - 1], size=dim))
    coeffs = np.zeros(shape)
    for r in product((0, 1), repeat=dim):
        cls = tuple(slice(b, None, 2) for b in r)
        size = coeffs[cls].size
        if dyadic:
            m = int(rng.integers(0, 5))
            coeffs[cls] = rng.multinomial(2 ** m, np.full(size, 1 / size)).reshape(
                coeffs[cls].shape) / 2 ** m
        else:
            w = rng.random(size) * (rng.random(size) < 0.8)
            w[rng.integers(size)] += 0.1  # every class keeps an entry
            coeffs[cls] = (w / math.fsum(w)).reshape(coeffs[cls].shape)
    offset = [int(o) for o in rng.integers(-3, 4, size=dim)]
    if case % 5 == 1:
        offset[0] += (-1) ** case * 2 ** 70
    return make_mask(offset, coeffs), dyadic


def ladder_moments(mask, start, steps, p, k):
    """The L^p curve summed in `coset` order off each level of the ladder."""
    return [sum(w * math.hypot(*(a - b for a, b in zip(j, k))) ** p
                for j, w in coset(iterated_mask(mask, n), n, start))
            for n in range(steps + 1)]


def assert_rows_agree(got: list, want: list, dyadic: bool):
    assert [j for j, _ in got] == [j for j, _ in want]  # states and their order
    if dyadic:
        assert got == want
    else:
        assert all(abs(g - w) <= 1e-12 * w for (_, g), (_, w) in zip(got, want))


@pytest.mark.parametrize("case", range(60))
def test_rows_and_curves_pushed_on_the_cells_equal_the_ladder_read(case):
    """kernel_row, lp_curve and dispersion_gap against coset(a^(n), n, u):
    bit for bit on dyadic masks, within 1e-12 relative otherwise; starts near
    0 or the mask's far offset, every third one moved by +-2^70."""
    mask, dyadic = battery_mask(case)
    rng = np.random.default_rng([35, case])
    steps = (10, 6, 3)[mask.dim - 1]
    start = tuple(int(v) - o for v, o in zip(rng.integers(-40, 41, size=mask.dim), mask.offset))
    if case % 3 == 2:
        start = (start[0] - (-1) ** case * 2 ** 70,) + start[1:]
    for n in range(steps + 1):
        want = coset(iterated_mask(mask, n), n, start)
        assert_rows_agree(list(kernel_row(mask, start, n).probs.items()), want, dyadic)
    k = tuple(u + int(d) for u, d in zip(start, rng.integers(-3, 4, size=mask.dim)))
    p = (1.0, 1.5, 2.0)[case % 3]
    got, want = lp_curve(mask, start, steps, p, k), ladder_moments(mask, start, steps, p, k)
    if dyadic:
        assert got == want
    else:
        assert all(abs(g - w) <= 1e-12 * w for g, w in zip(got, want))
    n = steps // 2
    level = iterated_mask(mask, n)
    gap = sum(wj * wi * math.hypot(*(a - b for a, b in zip(i, j))) ** p
              for j, wj in coset(level, n, start) for i, wi in coset(level, n, j))
    assert dispersion_gap(mask, start, n, p) == pytest.approx(gap, rel=1e-12, abs=0.0)


def test_rows_past_the_cap_read_the_ladder(monkeypatch):
    """With no room for the cell tables, rows, curves, gaps and ball checks
    read each row off its level of the ladder, as the forward pass does."""
    for mask, start in ((C, (5,)), (NONDYADIC, (2 ** 70 + 3,)), (BB, (3, -2)),
                        (battery_mask(2)[0], (0, 0, 0))):
        k = (1,) * mask.dim
        forward = ([kernel_row(mask, start, n).probs for n in range(4)],
                   lp_curve(mask, start, 3, 1.5, k), dispersion_gap(mask, start, 2, 2.0),
                   ball_confinement(mask, start, 2).gauge_radius)
        with monkeypatch.context() as m:
            m.setattr(markov, "_cells", lambda mask: None)
            ladder = ([kernel_row(mask, start, n).probs for n in range(4)],
                      lp_curve(mask, start, 3, 1.5, k), dispersion_gap(mask, start, 2, 2.0),
                      ball_confinement(mask, start, 2).gauge_radius)
            with pytest.raises(ResourceError, match=f"cap {ITERATED_SUPPORT_CAP}"):
                simulate_chain(mask, start, 1, 10, seed=0)
        assert [list(r) for r in forward[0]] == [list(r) for r in ladder[0]]
        assert all(abs(forward[0][n][j] - w) <= 1e-15 * w
                   for n in range(4) for j, w in ladder[0][n].items())
        assert forward[1] == pytest.approx(ladder[1], rel=1e-14, abs=0.0)
        assert forward[2:] == pytest.approx(ladder[2:], rel=1e-14, abs=0.0)


def test_rows_past_the_cap_build_each_level_once(monkeypatch):
    """Past the cap an L^p curve over n = 0..steps walks one ladder: steps
    calls of `next_iterate`, not one ladder per n."""
    built = []
    step = masks.next_iterate
    monkeypatch.setattr(markov, "_cells", lambda mask: None)
    monkeypatch.setattr(masks, "next_iterate", lambda *args: built.append(1) or step(*args))
    curve = lp_curve(C, (5,), 6, 2.0, (1,))
    assert len(built) == 6 and len(curve) == 7


def test_dyadic_rows_far_beyond_the_old_support_cap_equal_the_path_sum():
    """Chaikin and the cubic B-spline mask from 2^80 + 3: up to 17 steps every
    row is exact in floats; at 30 and 60 steps, where a^(n) would pass
    ITERATED_SUPPORT_CAP, each weight is within steps ulps of the path sum."""
    cubic = make_mask((-2,), [0.125, 0.5, 0.75, 0.5, 0.125])
    start = (2 ** 80 + 3,)
    for mask, far in ((C, 30), (cubic, 60)):
        for n in list(range(18)) + [far]:
            want = fraction_row(mask, start, n)
            got = kernel_row(mask, start, n).probs
            assert set(got) == set(want) and sum(want.values()) == 1
            if n < 18:
                assert got == {j: float(w) for j, w in want.items()}
            assert all(abs(Fraction(got[j]) - w) <= n * 2 ** -53 * w for j, w in want.items())
        assert lp_curve(mask, start, far, 1.0, start)[-1] == pytest.approx(
            float(sum(w * abs(j[0] - start[0]) for j, w in fraction_row(mask, start, far).items())),
            rel=1e-14)


def test_kernel_row_validation():
    with pytest.raises(DomainError):
        kernel_row(B, (0,), -1)
    with pytest.raises(StructuralError):
        kernel_row(B, (0.5,), 1)
    with pytest.raises(StructuralError):
        kernel_row(B, (2.0,), 1)  # integral floats are refused, not cast
    with pytest.raises(StructuralError):
        kernel_row(B, (0, 0), 1)  # state dimension mismatch
    with pytest.raises(StructuralError):
        kernel_row(make_mask((0,), [1.0, 0.5]), (0,), 1)


# -- moments ----------------------------------------------------------------------

def test_lp_moment_hat_is_exactly_geometric():
    for n in range(1, 11):
        assert lp_moment(B, (1,), n, 1.0, (0,)) == 2.0 ** -n
    assert lp_moment(B, (0,), 5, 1.0, (0,)) == 0.0
    assert lp_moment(B, (1,), 2, 2.0, (0,)) == 0.25  # |1|^2 with mass 2^-2


def test_lp_moment_chaikin_stays_bounded_away_from_zero():
    curve = [lp_moment(C, (0,), n, 1.0, (0,)) for n in range(1, 9)]
    assert curve[0] == 0.75
    assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert all(0.7 <= v <= 1.5 for v in curve)


def test_lp_curve_reads_every_step_off_one_pass():
    for mask, start, k in ((C, (1,), (0,)), (NONDYADIC, (-7,), (2,)),
                           (BB, (3, -5), (1, 1))):
        for p in (1.0, 2.0, 3.5):
            want = [sum(w * math.dist(j, k) ** p
                        for j, w in kernel_row(mask, start, n).probs.items())
                    for n in range(7)]
            assert lp_curve(mask, start, 6, p, k) == want


def test_lp_moment_validation():
    with pytest.raises(DomainError):
        lp_moment(B, (0,), 1, 0.5, (0,))
    for p in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            lp_curve(B, (1,), 2, p, (0,))
        with pytest.raises(DomainError, match="finite"):
            dispersion_gap(B, (1,), 2, p)


def test_lp_offsets_are_read_in_exact_ints():
    # from 2^60 + 1 the hat lands on 2^59 and 2^59 + 1 with mass 1/2 each; as
    # floats both read 2^59 and the moment about 2^59 came out 0
    assert lp_curve(B, (2 ** 60 + 1,), 1, 1.0, (2 ** 59,))[1] == 0.5
    assert lp_curve(C, (10 ** 400,), 0, 2.0, (10 ** 400,)) == [0.0]
    assert lp_curve(BB, (10 ** 400, 3), 0, 1.0, (10 ** 400, 0)) == [3.0]


def test_lp_moment_overflow_is_a_numeric_error():
    # from 0, Chaikin reaches distance 2 at n = 2, and 2^1100 is no float
    assert lp_curve(C, (0,), 1, 1100.0, (0,)) == [0.0, 0.75]
    with pytest.raises(NumericError, match=r"p = 1100.0, n = 2"):
        lp_curve(C, (0,), 3, 1100.0, (0,))
    with pytest.raises(NumericError, match=r"p = 1100.0, n = 2"):
        dispersion_gap(C, (0,), 2, 1100.0)
    with pytest.raises(NumericError, match=r"p = 1.0, n = 0"):
        lp_moment(C, (10 ** 400,), 0, 1.0, (0,))


def test_dispersion_gap_hat_closed_form():
    # from (1,) the n-step row is {0: 1-q, 1: q}; the second hop only moves
    # when the first landed on 1, and then by 1 with probability 1-q, so the
    # gap is q(1-q) for every p
    for n in range(1, 9):
        q = 2.0 ** -n
        assert dispersion_gap(B, (1,), n, 1.0) == pytest.approx(q * (1 - q), abs=1e-15)
        assert dispersion_gap(B, (1,), n, 2.0) == pytest.approx(q * (1 - q), abs=1e-15)
    assert dispersion_gap(B, (0,), 4, 1.0) == 0.0


def test_dispersion_gap_matches_the_oracle_rows():
    for mask, start, n in ((C, (0,), 2), (C, (1,), 3), (B, (1,), 4)):
        first = forward_row(mask, start, n)
        want = sum(wj * wi * abs(i[0] - j[0])
                   for j, wj in first.items()
                   for i, wi in forward_row(mask, j, n).items())
        assert dispersion_gap(mask, start, n, 1.0) == pytest.approx(want, abs=1e-13)


def test_dispersion_gap_chaikin_does_not_collapse():
    for n in range(4, 9):
        assert dispersion_gap(C, (0,), n, 1.0) >= 0.2


# -- stationary vectors --------------------------------------------------------------

def test_stationary_hat_is_interpolatory():
    report = stationary_from_refinable(cascade(B, 4))
    assert report.pi == {(0,): 1.0}
    assert report.interpolatory == (0,)
    assert report.residual == 0.0


def test_stationary_tensor_hat_is_interpolatory():
    report = stationary_from_refinable(cascade(BB, 3))
    assert report.interpolatory == (0, 0)
    assert report.residual == 0.0
    assert report.pi[(0, 0)] == 1.0


def test_stationary_chaikin_frozen():
    report = stationary_from_refinable(cascade(C, 6))
    assert report.interpolatory is None
    assert report.pi == {(-2,): 0.476806640625, (-1,): 0.52294921875,
                         (0,): 0.000244140625}
    assert sum(report.pi.values()) == 1.0
    assert report.residual == 0.01153564453125


def test_stationary_residual_equals_the_interlevel_gap():
    # independently rebuild pi at levels 6 and 7 from the iterated mask
    def pi_at(level):
        scale = 2 ** level
        return {tuple(-(v // scale) for v in i): w
                for i, w in iterated_mask(C, level).nonzero_items()
                if all(v % scale == 0 for v in i)}

    p6, p7 = pi_at(6), pi_at(7)
    gap = max(abs(p6.get(j, 0.0) - p7.get(j, 0.0)) for j in set(p6) | set(p7))
    assert stationary_from_refinable(cascade(C, 6)).residual == gap


def test_rows_from_the_origin_converge_to_the_stationary_vector():
    # at matching levels the origin row IS the stationary vector
    for level in (5, 6):
        row = kernel_row(C, (0,), level).probs
        assert row == stationary_from_refinable(cascade(C, level)).pi
    # against a deeper reference the rows close in monotonically
    pi10 = stationary_from_refinable(cascade(C, 10)).pi
    sups = []
    for n in (4, 6, 8):
        row = kernel_row(C, (0,), n).probs
        sups.append(max(abs(row.get(j, 0.0) - pi10.get(j, 0.0))
                        for j in set(row) | set(pi10)))
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] <= 0.005


def test_stationary_validation():
    with pytest.raises(DomainError):
        stationary_from_refinable(cascade(B, 0))
    with pytest.raises(StructuralError):
        stationary_from_refinable(cascade(make_mask((0,), [1.0, 0.5]), 2))


# -- ball confinement ------------------------------------------------------------------

def test_ball_confinement_frozen_examples():
    r = ball_confinement(B, (4,), 2)
    assert r.confined and r.gauge_radius == 1.0
    r = ball_confinement(C, (8,), 2)
    assert r.confined and r.gauge_radius == 1.0
    r = ball_confinement(B, (5,), 1)
    assert not r.confined and r.gauge_radius == 3.0
    r = ball_confinement(C, (9,), 1)
    assert not r.confined and r.gauge_radius == 2.5


def test_ball_confinement_reads_far_states_exactly():
    """From 2^70 as from 2^40 the ball is left, and the radius is the largest
    |j| / c over the exact rows of the recentred mask at the three checked steps."""
    from npcsubdiv import default_gauge
    from npcsubdiv.masks import recenter
    centred, _ = recenter(C)
    c = int(default_gauge(C).half_widths[0])
    for start in ((2 ** 40,), (2 ** 70,), (-2 ** 70 - 1,)):
        r = ball_confinement(C, start, 2)
        radius = max(abs(j) for n in (2, 3, 4) for (j,) in kernel_row(centred, start, n).probs) / c
        assert not r.confined and r.gauge_radius == radius
    assert ball_confinement(C, (10 ** 400,), 1).gauge_radius == math.inf


def test_ball_confinement_holds_inside_the_scaled_ball():
    from npcsubdiv import default_gauge, gauge_value
    for mask in (B, C):
        gauge = default_gauge(mask)
        for n in (1, 2):
            i = 0
            while gauge_value(gauge, (i,)) <= 2 ** n:
                assert ball_confinement(mask, (i,), n).confined
                assert ball_confinement(mask, (-i,), n).confined
                i += 1


# -- Monte Carlo -------------------------------------------------------------------------

def test_simulate_chain_is_reproducible_and_consistent():
    freq1 = simulate_chain(C, (0,), 3, 5000, seed=9)
    freq2 = simulate_chain(C, (0,), 3, 5000, seed=9)
    assert freq1 == freq2
    assert abs(sum(freq1.values()) - 1.0) <= 1e-12
    assert tv(freq1, kernel_row(C, (0,), 3).probs) <= 0.02
    assert tv(simulate_chain(B, (1,), 3, 20000, seed=1),
              kernel_row(B, (1,), 3).probs) <= 0.02


def test_simulate_chain_degenerate_cases():
    assert simulate_chain(B, (4,), 0, 100, seed=0) == {(4,): 1.0}
    assert simulate_chain(GAPPED, (1,), 3, 50, seed=0) == {(-1,): 1.0}
    for trials in (0, 2 ** 63, 2 ** 70):  # the counts are int64
        with pytest.raises(DomainError, match=r"trials must be >= 1 and < 2\^63"):
            simulate_chain(B, (0,), 1, trials, seed=0)


def bhc_tv_radius(trials, support, delta=1e-9):
    """TV distance an empirical law exceeds with probability <= delta.

    Bretagnolle-Huber-Carol: P(||p_hat - p||_1 >= eps) <= 2^K exp(-n eps^2 / 2)
    for n draws from a law on K points.
    """
    l1 = math.sqrt(2.0 * (support * math.log(2.0) + math.log(1.0 / delta))
                   / trials)
    return 0.5 * l1


TRIALS = (1, 37, 2 ** 53 + 1, 2 ** 63 - 1)  # past 2^53 a float count is inexact


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("mask,starts", (
    (BB, ((10 ** 6, -10 ** 6), (-10 ** 6, 3), (2 ** 40, -2 ** 40),
          (-2 ** 40, 2 ** 40 + 1))),
    (NONDYADIC, ((10 ** 6,), (-10 ** 6,), (2 ** 40,), (-2 ** 40 - 1,))),
), ids=("bspline2d", "nondyadic-shifted"))
def test_sampler_counts_support_and_tv_across_trial_counts(mask, starts, trials):
    for start in starts:
        freq = simulate_chain(mask, start, 3, trials, seed=5)
        exact = kernel_row(mask, start, 3).probs
        assert set(freq) <= set(exact)
        assert math.fsum(freq.values()) == pytest.approx(1.0, rel=0.0, abs=1e-15)
        if trials < 2 ** 53:  # each count reads back exactly
            hits = [f * trials for f in freq.values()]
            assert all(abs(h - round(h)) <= 1e-6 for h in hits)
            assert sum(round(h) for h in hits) == trials
        else:
            assert tv(freq, exact) <= bhc_tv_radius(trials, len(exact))
        assert simulate_chain(mask, start, 3, trials, seed=5) == freq


@pytest.mark.parametrize("mask,start,steps,trials", (
    (C, (0,), 3, 2 ** 53 + 1),
    (NONDYADIC, (-7,), 4, 600),
    (BB, (3, -5), 2, 400),
    # end-state spans (2, 1, 2): pins the order of the draws over the states
    (tensor_power(B, 3), (-5, 8, -1), 2, 300),
    (tensor_power(C, 2), (9, -4), 2, 2 ** 63 - 1),
    # end states fill 12 of the 13 coefficient positions, the most possible
    (WIDE_GAPPED, (41,), 8, 2000),
), ids=("chaikin", "nondyadic-shifted", "bspline2d", "bspline3d-mixed-sign",
        "chaikin2d-int64-top", "wide-gapped"))
def test_sampler_equals_the_splitting_oracle_on_the_same_stream(mask, start, steps, trials):
    assert (simulate_chain(mask, start, steps, trials, seed=21)
            == splitting_chain(mask, start, steps, trials, seed=21))


def random_chain_case(k):
    """Case k of the sampler's fixed battery, drawn from default_rng(k): a nonnegative
    mask of dim 1 + k % 3 with every parity class normalized to sum 1, offsets in -5..5,
    a start within 10^6 of the origin, k % 7 steps and a seed.  Weights are 0,
    non-dyadic floats or 1e-17 (a bin that all but never draws a trial; behind a
    larger weight, that weight's share of the rest rounds to 1, and first in its
    class, the draw runs at p = 1e-17), and a class with one positive entry makes
    a deterministic step."""
    rng = np.random.default_rng(k)
    dim = 1 + k % 3
    shape = tuple(rng.integers(2, 5 if dim < 3 else 4, size=dim).tolist())
    coeffs = np.choose(rng.integers(0, 3, size=shape),
                       (0.0, 1e-17, rng.uniform(0.05, 1.0, size=shape)))
    for r in product((0, 1), repeat=dim):
        cls = coeffs[tuple(slice(rk, None, 2) for rk in r)]  # a view
        if cls.sum() == 0.0:
            cls.flat[rng.integers(cls.size)] = 1.0
        cls /= cls.sum()
    offset = tuple(rng.integers(-5, 6, size=dim).tolist())
    start = tuple(rng.integers(-10 ** 6, 10 ** 6 + 1, size=dim).tolist())
    return make_mask(offset, coeffs.tolist()), start, k % 7, int(rng.integers(2 ** 32))


def test_the_random_chain_battery_covers_its_edge_cases():
    masks_ = [random_chain_case(k)[0] for k in range(20)]
    weights = [w for m in masks_ for w in m.coeffs.ravel().tolist()]
    classes = [stencil(m, r) for m in masks_ for r in product((0, 1), repeat=m.dim)]
    assert {m.dim for m in masks_} == {1, 2, 3}
    assert 0.0 in weights and any(0.0 < w < 1e-15 for w in weights)
    assert any(Fraction(w).denominator > 2 ** 20 for w in weights)
    assert any(len(pairs) == 1 for pairs in classes)
    assert any(pairs[0][1] < 1e-15 for pairs in classes)  # a draw at p ~ 1e-17
    assert any(len(pairs) > 1 and pairs[-1][1] < 1e-15 for pairs in classes)  # behind more


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("k", range(20))
def test_sampler_equals_the_splitting_oracle_on_random_masks(k, trials):
    mask, start, steps, seed = random_chain_case(k)
    assert (simulate_chain(mask, start, steps, trials, seed)
            == splitting_chain(mask, start, steps, trials, seed))


def test_a_short_class_never_sends_trials_past_its_last_bin():
    """The even class [0.1, 0.2, 0.7] is padded to the odd class's 4 bins.  Padded
    at the end, numpy's multinomial would draw its last live bin at
    0.7 / 0.7000000000000001 and hand what that leaves to the padded bin, a state
    off the kernel row; padded in front, the last bin is live and takes the rest."""
    mask = make_mask((0,), [0.1, 0.25, 0.2, 0.25, 0.7, 0.25, 0.0, 0.25])
    for steps in (1, 3, 6):
        support = set(kernel_row(mask, (0,), steps).probs)
        for seed in range(20):
            assert set(simulate_chain(mask, (0,), steps, 2 ** 63 - 1, seed)) <= support


def test_sampler_walks_states_beyond_int64():
    """Anchors are Python ints and the tables hold small cells alone, so a
    start or a mask index past int64 walks like any other."""
    for mask, start in ((C, (2 ** 62 - 1,)), (C, (2 ** 62,)), (C, (-2 ** 62,)), (C, (2 ** 70,)),
                        (translate(C, (2 ** 62,)), (0,)), (translate(C, (2 ** 70,)), (-2 ** 70,))):
        freq = simulate_chain(mask, start, 3, 1000, seed=0)
        assert set(freq) <= set(kernel_row(mask, start, 3).probs)
        assert sum(round(f * 1000) for f in freq.values()) == 1000
    assert sum(kernel_row(C, (2 ** 70,), 2).probs.values()) == 1.0


def test_sampler_is_exactly_shift_equivariant_at_any_size():
    """n steps from s + 2^n k end at the ends from s shifted by k: the draws
    are the same, so the frequencies match exactly, also past int64."""
    k = 3 * 2 ** 70 + 1
    for mask, start, steps in ((C, (5,), 4), (NONDYADIC, (-7,), 3), (BB, (3, -5), 2)):
        shift = (k, -k)[:mask.dim]
        near = simulate_chain(mask, start, steps, 2000, seed=4)
        far = simulate_chain(mask, tuple(s + 2 ** steps * d for s, d in zip(start, shift)),
                             steps, 2000, seed=4)
        assert far == {tuple(j + d for j, d in zip(end, shift)): f for end, f in near.items()}


# edge cases of the sampler's anchor: each class of SKEWED holds a 1e-17 weight
# or a single entry, and the supports, offsets and starts push the anchor far
# from the origin, to either side of it and past int64
SKEWED = make_mask((0,), [0.3, 1.0, 0.7, 0.0, 1e-17])
SKEWED2 = make_mask((0, 0), [[0.25, 1.0, 0.75], [0.5, 1.0, 1e-17], [0.0, 0.0, 0.0],
                             [0.5, 0.0, 0.0]])
TOP = 2 ** 62 - 1


@pytest.mark.parametrize("mask,start,steps,trials", (
    (translate(SKEWED, (7,)), (3,), 9, 1),
    (translate(SKEWED, (-12,)), (-40,), 9, 2 ** 53 + 1),
    (translate(SKEWED, (10 ** 6,)), (-10 ** 6,), 5, 37),
    (translate(SKEWED, (-2 ** 61,)), (TOP,), 9, 2 ** 63 - 1),
    (translate(SKEWED, (2 ** 61,)), (-TOP,), 3, 2 ** 53 + 1),
    (translate(SKEWED2, (-10 ** 6, 2 ** 61)), (TOP, -TOP), 9, 300),
    (translate(SKEWED2, (2 ** 61, 5)), (-3, 7), 4, 200),
    (translate(tensor_power(SKEWED, 3), (-2 ** 61, 10 ** 6, 3)), (-TOP, 2, TOP), 6, 250),
    (translate(tensor_power(C, 3), (4, -9, 2 ** 61)), (0, 0, 0), 9, 40),
    (translate(SKEWED, (2 ** 70,)), (-2 ** 70 + 3,), 9, 2 ** 63 - 1),
    (SKEWED, (-2 ** 63 - 5,), 9, 300),
    (translate(SKEWED2, (-2 ** 70, 2 ** 64)), (2 ** 70 - 1, -2 ** 64 + 2), 6, 300),
), ids=("lo>0", "hi<0", "offset+1e6", "offset-2^61-top-start", "offset+2^61-bottom-start",
        "2d-mixed-far", "2d-offset+2^61", "3d-skewed-far", "3d-chaikin-one-sided",
        "offset+2^70", "start-beyond-2^63", "2d-mixed-2^70-2^64"))
def test_sampler_anchor_edge_cases_equal_the_splitting_oracle(mask, start, steps, trials):
    assert (simulate_chain(mask, start, steps, trials, seed=33)
            == splitting_chain(mask, start, steps, trials, seed=33))


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("mask,start,steps", (
    (C, (0,), 5),
    (NONDYADIC, (-7,), 4),
    (translate(SKEWED, (7,)), (3,), 6),
), ids=("dyadic", "nondyadic", "weight-1e-17"))
def test_sampler_law_is_the_kernel_row(mask, start, steps, seed):
    """10^7 trials land within the TV radius that an empirical law of that
    many independent draws exceeds with probability 1e-9."""
    exact = kernel_row(mask, start, steps).probs
    freq = simulate_chain(mask, start, steps, 10 ** 7, seed)
    assert set(freq) <= set(exact)
    assert tv(freq, exact) <= bhc_tv_radius(10 ** 7, len(exact))


def test_sampler_refuses_tables_beyond_the_support_cap():
    """Each parity class of 4096 coefficients 1/2048 sums to exactly 1, and the
    tables would hold 2 * (4095 + 2) * 2048 slots, four times the cap: the
    sampler refuses before it builds them, and the exact row still works."""
    mask = make_mask((0,), [1 / 2048] * 4096)
    begin = time.perf_counter()
    with pytest.raises(ResourceError, match=f"cap {ITERATED_SUPPORT_CAP}"):
        simulate_chain(mask, (0,), 1, 10, seed=0)
    assert time.perf_counter() - begin < 0.1
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            simulate_chain(mask, (0,), 1, 10, seed=0)
        assert tracemalloc.get_traced_memory()[1] < 8 * 2 ** 20  # one parity's nxt: 64 MiB
    finally:
        tracemalloc.stop()
    row = kernel_row(mask, (5,), 1).probs
    assert len(row) == 2048 and set(row.values()) == {1 / 2048}
    assert sum(kernel_row(mask, (5,), 2).probs.values()) == 1.0


# -- nested vs one-shot barycenters --------------------------------------------------------

def witness_grid():
    pts = [tripod_point(2, 2.0), tripod_point(1, 0.5), tripod_point(0, 2.0)]
    return grid_from_points(TRI, (-1,), (1,), pts)


def test_nonassociativity_witness_frozen():
    # two nested Chaikin steps against the one-shot two-step barycenter:
    # the nested route reaches (leg 2, 1/16) while the one-shot row
    # {3/16, 12/16, 1/16} lands at the glue point; gap exactly 1/16
    gap = nonassociativity_gap(C, witness_grid(), (4,), 2)
    assert gap == pytest.approx(0.0625, abs=1e-12)


def test_hat_mask_never_witnesses_on_this_window():
    # every n-step hat row on this window has at most two states, so both
    # routes stay on one geodesic and commute
    x = witness_grid()
    for n in (1, 2):
        boxes = check_interior_depth(B, (-1,), (1,), n)
        for i in box_indices(*boxes[n]):
            assert nonassociativity_gap(B, x, i, n) <= 1e-12


def test_gap_vanishes_on_euclidean_data():
    desc = SpaceDescriptor("euclidean", 2)
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng([11, trial])
        mask = (B, C)[trial % 2]
        n = 1 + trial % 2
        pts = [euclidean_point(rng.random(2)) for _ in range(3)]
        x = grid_from_points(desc, (-1,), (1,), pts)
        boxes = check_interior_depth(mask, (-1,), (1,), n)
        for i in box_indices(*boxes[n]):
            worst = max(worst, nonassociativity_gap(mask, x, i, n))
    assert worst <= 1e-10


def test_gap_raises_the_failure_of_its_one_shot_barycenter(monkeypatch):
    """Nested Chaikin rows are 2-point geodesics, which need no iteration;
    the one-shot two-step row has 3 points, on which one evaluation does not
    converge for random spd data: the gap raises that barycenter's
    SolverError, with its iterate and residual."""
    monkeypatch.setattr(spaces, "BARYCENTER_MAX_ITER", 1)
    x = random_grid(SpaceDescriptor("spd", 2), (-1,), (1,), np.random.default_rng(3))
    probs = kernel_row(C, (4,), 2).probs
    total = sum(probs.values())
    problem = BarycenterProblem([x.get(j) for j in probs], [w / total for w in probs.values()])
    with pytest.raises(SolverError, match="did not converge") as want:
        weighted_barycenter(problem)
    with pytest.raises(SolverError) as got:
        nonassociativity_gap(C, x, (4,), 2)
    assert str(got.value) == str(want.value) and got.value.residual == want.value.residual
    assert np.array_equal(got.value.last_iterate.payload, want.value.last_iterate.payload)


def test_gap_requires_an_interior_index():
    with pytest.raises(DomainError):
        nonassociativity_gap(C, witness_grid(), (5,), 2)
    assert nonassociativity_gap(C, witness_grid(), (0,), 0) == 0.0
