"""Linear cascade, refinable samples, certificates, convergence fits."""

from itertools import islice, product

import numpy as np
import pytest

from npcsubdiv import (DomainError, SpaceDescriptor, StructuralError,
                       bspline_mask, cascade, chaikin_mask,
                       contractivity_certificate, d_inf, empirical_gamma,
                       euclidean_point, fit_gamma, make_mask,
                       partition_of_unity_residual, tensor_product)
from npcsubdiv.grid import grid_from_points
from npcsubdiv.linear import _alpha
from npcsubdiv.masks import (convergence_level, default_gauge, ladder, mask_from_json, recenter,
                             translate)
from npcsubdiv.subdivision import CONVERGENCE_MARGIN
from oracles import alpha_loop, dense_interlevel, hat, linear_refine, partition_of_unity_loop

EU = SpaceDescriptor("euclidean", 1)
B = bspline_mask()
C = chaikin_mask()
GAPPED = make_mask((0,), [1.0, 0.0, 0.0, 1.0])
CUBIC = make_mask((-2,), [0.125, 0.5, 0.75, 0.5, 0.125])
NONDYADIC = make_mask((0,), [0.2, 0.7, 0.8, 0.3])


def euclid_grid(values, lo=0):
    pts = [euclidean_point([float(v)]) for v in values]
    return grid_from_points(EU, (lo,), (lo + len(values) - 1,), pts)


# -- one linear step ---------------------------------------------------------------

def test_delta_data_reproduces_the_mask_row():
    x = euclid_grid([0, 0, 0, 0, 1, 0, 0, 0, 0], lo=-4)
    for mask in (B, C):
        out = linear_refine(mask, x)
        for i in range(-6, 7):
            assert out[(i,)][0] == mask.value((i,))


def test_midpoint_rule_on_a_ramp():
    x = euclid_grid(range(5))
    out = linear_refine(B, x)
    for i in range(0, 8):
        assert out[(i,)][0] == pytest.approx(i / 2, abs=1e-15)


def test_constants_are_reproduced():
    x = euclid_grid([2.5] * 7)
    for mask in (B, C, GAPPED):
        out = linear_refine(mask, x)
        assert all(v[0] == pytest.approx(2.5, abs=1e-14) for v in out.values())


# -- cascade -------------------------------------------------------------------------

def test_hat_cascade_is_exact_at_every_level():
    for n in range(0, 11):
        samples = cascade(B, n)
        assert samples.eps_n == 0.0
        assert samples.support == ((-(2 ** n) + 1,), (2 ** n - 1,))
        lo, hi = samples.support
        for i in range(lo[0] - 2, hi[0] + 3):
            assert samples.value((i,)) == hat(i, n)


@pytest.mark.parametrize("mask", (B, C, GAPPED), ids=("bspline", "chaikin", "gapped"))
def test_cascade_residual_matches_the_dense_oracle(mask):
    for n in range(1, 6):
        got = cascade(mask, n).eps_n
        want = dense_interlevel(mask.coeffs.tolist(), mask.offset[0], n)
        assert got == pytest.approx(want, abs=1e-15)


def test_chaikin_cascade_residuals_decay():
    eps = [cascade(C, n).eps_n for n in range(1, 7)]
    assert all(b < a for a, b in zip(eps, eps[1:]))
    assert eps[5] < eps[0] / 10
    assert eps[0] == 0.6875  # dyadic, exact


def test_gapped_mask_residual_stays_at_one():
    assert [cascade(GAPPED, n).eps_n for n in range(1, 7)] == [1.0] * 6


def test_partition_of_unity_residuals():
    assert partition_of_unity_residual(cascade(B, 3)) == 0.0
    assert partition_of_unity_residual(cascade(C, 4)) == 0.0
    assert partition_of_unity_residual(cascade(make_mask((0,), [1.0]), 2)) == 1.0
    # [1.0, 0.5]: level-2 residue masses are (1, 1/2, 1/2, 1/4), worst gap 3/4
    assert partition_of_unity_residual(cascade(make_mask((0,), [1.0, 0.5]), 2)) == pytest.approx(0.75)


def mask_json(k, dim, dyadic=False):
    """Mask JSON of dimension dim from default_rng([dim, k]): 1-4, 1-4 or 1-2
    entries per axis, translated by -12..12, with coefficients j / 8 (j in 0..8)
    or, unless dyadic, half the time 0, 0.1, 1/3, 0.7 or a float in [1e-3, 3];
    zeros pad the edges and leave gaps inside, and one entry is nonzero."""
    rng = np.random.default_rng([dim, k])
    shape = tuple(rng.integers(1, (5, 5, 3)[dim - 1], dim).tolist())
    if dyadic or rng.random() < 0.5:
        coeffs, nonzero = rng.integers(0, 9, shape) / 8, rng.integers(1, 9) / 8
    else:
        coeffs = np.where(rng.random(shape) < 0.5, rng.choice([0.0, 0.1, 1 / 3, 0.7], shape),
                          rng.uniform(1e-3, 3.0, shape))
        nonzero = rng.uniform(1e-3, 3.0)
    coeffs.flat[rng.integers(coeffs.size)] = nonzero
    return {"dim": dim, "offset": rng.integers(-12, 13, dim).tolist(), "coeffs": coeffs.tolist()}


def mask_json_edges(dim):
    """(mask JSON, level) edges: one entry of 1 at offset -12 and level 0, one of
    1e-3 at offset 12 and level 4, and at level 4 the largest array of 1/3, the
    largest of 0, 1/8, ..., 1, 0, 1/8, ... and a 3.0 with zeros on every side."""
    one, largest = (1,) * dim, ((4,), (4, 4), (2, 2, 2))[dim - 1]
    eighths = (np.arange(np.prod(largest)) % 9 / 8).reshape(largest)
    arrays = [(-12, np.ones(one), 0), (12, np.full(one, 1e-3), 4), (0, np.full(largest, 1 / 3), 4),
              (0, eighths, 4), (0, np.pad(np.full(one, 3.0), 1), 4)]
    return [({"dim": dim, "offset": [o] * dim, "coeffs": c.tolist()}, n) for o, c, n in arrays]


# per dimension, (mask JSON, level) cases of the cascade properties
MASK_JSON_CASES = {dim: mask_json_edges(dim) + [(mask_json(k, dim), k % 5) for k in range(40)]
                   for dim in (1, 2, 3)}


@pytest.mark.parametrize("dim", (1, 2))
def test_partition_of_unity_residual_matches_the_coset_loop(dim):
    # sums of eighths are exact, so the two summation orders agree bit for bit
    edges = [(obj, n) for obj, n in mask_json_edges(dim)
             if (np.array(obj["coeffs"]) * 8 % 1 == 0).all()]
    for obj, n in edges + [(mask_json(k, dim, dyadic=True), k % 5) for k in range(40)]:
        samples = cascade(mask_from_json(obj), n)
        assert partition_of_unity_residual(samples) == partition_of_unity_loop(samples), obj


# -- certificates ----------------------------------------------------------------------

def test_certificate_for_the_hat_mask_frozen():
    cert = contractivity_certificate(B, 3)
    assert cert.found and cert.n0 == 1 and cert.level == 1
    assert cert.alpha_n == 0.5   # hand check: min_u sum_i phi(u/2-i) phi((u+w)/2-i)
    assert cert.eps_n == 0.0
    assert cert.M == 3           # unit box: |[t-1, t+1] cap Z| = 3
    assert cert.gamma_n == 0.5
    assert cert.gauge.half_widths.tolist() == [1.0]


def test_certificate_for_chaikin_frozen():
    cert = contractivity_certificate(C, 8)
    assert cert.found and cert.n0 == 3
    assert cert.alpha_n == 0.4306640625
    assert cert.eps_n == 0.0625
    assert cert.M == 5           # half-width 2: |[t-2, t+2] cap Z| = 5
    assert cert.gamma_n == 0.7919921875
    assert cert.gauge.half_widths.tolist() == [2.0]


def test_certificate_overlap_count_in_two_dimensions():
    cert = contractivity_certificate(tensor_product(B, C), 1)
    assert cert.gauge.half_widths.tolist() == [1.0, 2.0]
    assert cert.M == 15          # per axis |[t-c, t+c] cap Z| = 2c + 1: 3 * 5


@pytest.mark.parametrize("mask,cap", ((B, 3), (C, 8)), ids=("bspline", "chaikin"))
def test_certificate_identity_reverified(mask, cap):
    cert = contractivity_certificate(mask, cap)
    rebuilt = 1.0 - cert.alpha_n + 2.0 * cert.eps_n + cert.M ** 2 * cert.eps_n ** 2
    assert cert.gamma_n == pytest.approx(rebuilt, abs=1e-15)
    assert cert.gamma_n < 1.0


def test_certificate_not_found_for_the_gapped_mask():
    cert = contractivity_certificate(GAPPED, 8)
    assert not cert.found and cert.n0 is None and cert.level == 8
    assert cert.eps_n >= 0.5      # residual stays bounded away from zero
    assert cert.gamma_n >= 1.0


def assert_alpha_sweep_matches_the_loop(mask, cap):
    """_alpha == alpha_loop bit for bit at levels 1..cap, on the recentred
    mask that the certificate sweeps and on the mask as given."""
    for m in (recenter(mask)[0], mask):
        gauge = default_gauge(m)
        for n, level in enumerate(islice(ladder(m), 1, cap + 1), 1):
            assert _alpha(level, n, gauge) == alpha_loop(level, n, gauge), n


@pytest.mark.parametrize("mask,cap", (
    (B, 9), (C, 9), (CUBIC, 8), (GAPPED, 9), (tensor_product(B, B), 4),
    (translate(C, (5,)), 9), (translate(C, (2 ** 70,)), 5), (NONDYADIC, 6),
    (tensor_product(B, C), 3),
), ids=("hat", "chaikin", "cubic", "gapped", "tensor-hat", "translated-chaikin",
        "far-chaikin", "nondyadic", "hat-x-chaikin"))
def test_alpha_sweep_is_bit_identical_to_the_coset_loop(mask, cap):
    assert_alpha_sweep_matches_the_loop(mask, cap)


def test_certificate_validation():
    with pytest.raises(DomainError):
        contractivity_certificate(B, 0)
    with pytest.raises(StructuralError):
        contractivity_certificate(make_mask((0,), [1.0, 0.5]), 2)


# -- randomized convergence fits ----------------------------------------------------------

def test_fit_on_the_hat_mask():
    est = empirical_gamma(B, EU, trials=3, n_max=6, seed=0)
    assert convergence_level(B) == 1
    assert est.gamma_hat == pytest.approx(0.5, abs=1e-3)
    assert all(g == pytest.approx(0.5, abs=1e-3) for g in est.per_trial_gamma)
    assert est.C_hat == pytest.approx(1.0, abs=1e-3)


def test_fit_on_chaikin():
    est = empirical_gamma(C, EU, trials=3, n_max=6, seed=0)
    assert convergence_level(C) == 2
    assert all(g < 1.0 - CONVERGENCE_MARGIN for g in est.per_trial_gamma)
    assert est.gamma_hat <= 0.75


def test_fit_flags_the_gapped_mask():
    est = empirical_gamma(GAPPED, EU, trials=3, n_max=6, seed=0)
    assert convergence_level(GAPPED) is None
    assert not all(g < 1.0 - CONVERGENCE_MARGIN for g in est.per_trial_gamma)
    assert est.gamma_hat >= 0.99


def test_fit_gamma_edge_cases():
    assert fit_gamma([(n, 2.0 ** -n) for n in range(1, 8)]) == pytest.approx(0.5, abs=1e-12)
    assert fit_gamma([(n, 3.0 * 0.8 ** n) for n in range(1, 8)]) == pytest.approx(0.8, abs=1e-12)
    assert fit_gamma([(1, 0.0), (2, 0.0)]) == 0.0
    assert fit_gamma([(1, 1.0)]) == 0.0


@pytest.mark.parametrize("n_max", (0, 1, 2))
@pytest.mark.parametrize("mask", (B, GAPPED), ids=("hat", "gapped"))
def test_empirical_gamma_refuses_a_fit_of_one_level(mask, n_max):
    """The fit starts at level 2, so n_max <= 2 leaves fit_gamma one point or
    none, and a rate of 0.0 even where the data never contract."""
    with pytest.raises(DomainError, match=r"^n_max must be >= 3$"):
        empirical_gamma(mask, EU, trials=1, n_max=n_max, seed=0)


def test_d_inf_respects_the_box():
    x = euclid_grid([0.0, 0.1, 0.2, 9.0])
    assert d_inf(x) == pytest.approx(8.8)
    assert d_inf(x, ((0,), (2,))) == pytest.approx(0.1)


# -- properties over random admissible masks -------------------------------------------

def sum_rule_mask(weights, offset):
    """The mask of the nonnegative weights at offset, each parity coset divided
    by its own sum, so dyadic or not; a coset with no weight gets a 1 on its
    first entry."""
    weights = np.array(weights, dtype=float)
    for parity in product((0, 1), repeat=weights.ndim):
        cls = weights[tuple(slice((p - o) % 2, None, 2) for p, o in zip(parity, offset))]
        if not cls.any():
            cls.flat[0] = 1.0
        cls /= cls.sum()
    return make_mask(offset, weights)


def seeded_mask(k, tail=(1, 1)):
    """The univariate sum-rule mask of default_rng(k): 2 to 5 weights 0..4 and
    then tail, so 4 to 7 entries by default, at offset -2..2."""
    rng = np.random.default_rng(k)
    weights = np.append(rng.integers(0, 5, rng.integers(2, 6)), tail)
    return sum_rule_mask(weights, (int(rng.integers(-2, 3)),))


# edges: no weight, the largest weights at both end offsets, an empty coset, the
# shortest, and the widest with and without weight before the tail
ADMISSIBLE_EDGES = [sum_rule_mask([0, 0], (0,)), sum_rule_mask([4] * 5, (-2,)),
                    sum_rule_mask([4] * 5, (2,)), sum_rule_mask([0, 0, 0, 0, 4], (1,)),
                    sum_rule_mask([1, 1], (2,)), sum_rule_mask([4] * 5 + [1, 1], (-2,)),
                    sum_rule_mask([0] * 5 + [1, 1], (2,))]
# 2 to 7 entries: the draws with the tail and without it
ADMISSIBLE = ADMISSIBLE_EDGES + [seeded_mask(k, tail) for tail in ((1, 1), ()) for k in range(40)]


def test_random_masks_reproduce_constants():
    x = euclid_grid([1.75] * 9, lo=-4)
    for mask in ADMISSIBLE:
        out = linear_refine(mask, x)
        assert all(abs(v[0] - 1.75) <= 1e-12 for v in out.values()), mask


@pytest.mark.parametrize("k", range(40))
def test_random_mask_alpha_sweeps_match_the_coset_loop(k):
    assert_alpha_sweep_matches_the_loop(seeded_mask(k), 1 + k % 5)


@pytest.mark.parametrize("k", range(40))
def test_random_tensor_mask_alpha_sweeps_match_the_coset_loop(k):
    assert_alpha_sweep_matches_the_loop(tensor_product(seeded_mask(k), B), 2)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_random_mask_residuals_match_the_dense_oracle(n):
    for mask in ADMISSIBLE:
        got = cascade(mask, n).eps_n
        want = dense_interlevel(mask.coeffs.tolist(), mask.offset[0], n)
        assert got == pytest.approx(want, abs=1e-12), mask
