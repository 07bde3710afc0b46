"""Mask validation, iteration, gauges, stencils, and products."""

from itertools import islice, product

import numpy as np
import pytest

from npcsubdiv import (NumericError, ResourceError, SpaceDescriptor, StructuralError,
                       bspline_mask, chaikin_mask, contractivity_certificate,
                       default_gauge, euclidean_point, gauge_value, iterated_mask,
                       make_mask, tensor_power, tensor_product, validate_mask)
from npcsubdiv import masks
from npcsubdiv.grid import grid_from_points
from npcsubdiv.linear import _alpha, fit_gamma
from npcsubdiv.masks import (BoxGauge, Mask, convergence_level, coset, coset_sums,
                             gauge_offsets, ladder, mask_from_json, mask_to_json,
                             next_iterate, recenter, require_sum_rule, stencil, translate,
                             unit_gauge)
from npcsubdiv.subdivision import CONVERGENCE_MARGIN, FIT_FIRST_LEVEL
from oracles import dense_iterated, hat, linear_refine, offset_level_search, overlap_level_loop
from test_linear import ADMISSIBLE, sum_rule_mask

B = bspline_mask()
C = chaikin_mask()
GAPPED = make_mask((0,), [1.0, 0.0, 0.0, 1.0])  # sum rule holds, never converges


def mask_dict(mask):
    return dict(mask.nonzero_items())


# -- construction and validation ---------------------------------------------------

def test_reference_masks_satisfy_the_sum_rule_exactly():
    assert coset_sums(B) == {(0,): 1.0, (1,): 1.0}
    assert coset_sums(C) == {(0,): 1.0, (1,): 1.0}
    assert coset_sums(GAPPED) == {(0,): 1.0, (1,): 1.0}
    for mask in (B, C, GAPPED, tensor_power(B, 2)):
        report = validate_mask(mask)
        assert report.sum_rule_ok and report.residual == 0.0
        assert report.nonnegative_ok


def test_sum_rule_violation_is_reported_then_raised():
    lopsided = make_mask((0,), [1.0, 0.5])
    report = validate_mask(lopsided)
    assert not report.sum_rule_ok
    assert report.residual == pytest.approx(0.5)
    assert report.coset_residuals[(1,)] == pytest.approx(0.5)
    with pytest.raises(StructuralError):
        require_sum_rule(lopsided)


def test_mask_constructor_rejects_bad_coefficients():
    with pytest.raises(StructuralError):
        make_mask((0,), [0.5, -0.1])
    with pytest.raises(StructuralError):
        make_mask((0,), [0.0, 0.0])
    with pytest.raises(StructuralError):
        make_mask((0,), [])
    with pytest.raises(NumericError):
        make_mask((0,), [1.0, np.nan])
    with pytest.raises(StructuralError):
        make_mask((0, 0), [1.0, 1.0])  # offset length vs 1-d coeffs
    with pytest.raises(StructuralError, match="^coeffs must be 2-dimensional, got 1$"):
        Mask(2, (0, 0), [1.0, 1.0])


def test_support_box_value_and_translate():
    assert B.support_box() == ((-1,), (1,))
    assert B.value((-1,)) == 0.5 and B.value(5) == 0.0
    shifted = translate(B, (5,))
    assert shifted.support_box() == ((4,), (6,))
    assert shifted.value((4,)) == 0.5


def nonzero_box(coeffs, offset):
    """The support box from every nonzero entry; None if there is none."""
    nz = np.nonzero(coeffs)
    if nz[0].size:
        return (tuple(int(ix.min()) + o for ix, o in zip(nz, offset)),
                tuple(int(ix.max()) + o for ix, o in zip(nz, offset)))


FAR = (2 ** 70, -2 ** 63 - 5)  # offsets beyond int64


def sparse_array(k):
    """(coeffs, offset) from default_rng(k): 1-3 axes of 1-6 entries, mostly
    zeros so that whole rows, columns and interior runs vanish; each offset
    -4..4 or, one time in four, beyond int64."""
    rng = np.random.default_rng(k)
    shape = tuple(rng.integers(1, 7, rng.integers(1, 4)).tolist())
    coeffs = rng.choice([0.0, 0.0, 0.0, 0.25, 1.0], shape)
    return coeffs, tuple(FAR[rng.integers(2)] if rng.random() < 0.25 else int(rng.integers(-4, 5))
                         for _ in shape)


def assert_trimmed_to_the_box(coeffs, offset):
    want = nonzero_box(coeffs, offset)
    assert masks._nonzero_box(coeffs, offset) == want
    if want is None:  # reaches Mask whole, which refuses it
        with pytest.raises(StructuralError):
            masks._trimmed(coeffs.ndim, offset, coeffs)
        return
    assert all(type(c) is int for corner in want for c in corner)
    assert Mask(coeffs.ndim, offset, coeffs).support_box() == want
    trimmed = masks._trimmed(coeffs.ndim, offset, coeffs)
    assert trimmed.offset == want[0]
    assert trimmed.support_box() == want
    lo = [l - o for l, o in zip(want[0], offset)]
    assert np.array_equal(trimmed.coeffs,
                          coeffs[tuple(slice(l, l + n) for l, n in zip(lo, trimmed.coeffs.shape))])


# edges: single zeros in 1 and 2 axes, all zeros beyond int64 on both sides, a full
# row at the far offset, and one nonzero in the last corner of the largest array
SPARSE_EDGES = [(np.zeros(1), (0,)), (np.zeros((1, 1)), (0, 0)),
                (np.zeros((1, 3, 1)), (FAR[1], 3, FAR[0])), (np.ones(6), (FAR[0],)),
                (np.pad(np.full((1, 1, 1), 0.25), (5, 0)), (-4, 4, FAR[1]))]


def test_support_boxes_match_the_nonzero_oracle():
    for coeffs, offset in SPARSE_EDGES + [sparse_array(k) for k in range(40)]:
        assert_trimmed_to_the_box(coeffs, offset)


@pytest.mark.parametrize("coeffs,offset", (
    (GAPPED.coeffs, (3,)),
    (np.pad(GAPPED.coeffs, (2, 1)), (2 ** 70,)),  # a zero-padded user mask
    (np.pad(tensor_power(B, 2).coeffs, ((0, 2), (1, 0))), (-1, -2 ** 63 - 5)),
    (np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5]]), (0, 0)),
    (np.zeros((3, 2)), (0, 0)), (np.zeros(0), (0,))),
    ids=("gapped", "padded-gapped", "padded-tensor-hat", "interior-gaps", "zeros", "empty"))
def test_support_boxes_of_gapped_padded_and_empty_arrays(coeffs, offset):
    assert_trimmed_to_the_box(coeffs, offset)


@pytest.mark.parametrize("offset", ((2 ** 70,), (-2 ** 63 - 5,), (2 ** 64 + 3, -2 ** 70)),
                         ids=("beyond-int64", "below-int64", "bivariate"))
def test_nonzero_items_keep_exact_indices_beyond_int64(offset):
    mask = translate(C if len(offset) == 1 else tensor_power(B, 2), offset)
    items = mask.nonzero_items()
    box = product(*(range(o, o + n) for o, n in zip(mask.offset, mask.coeffs.shape)))
    want = [(i, mask.value(i)) for i in box if mask.value(i) > 0.0]
    assert items == want == sorted(want)
    assert all(type(c) is int for i, _ in items for c in i)


# -- iteration against the dense convolution oracle ---------------------------------

@pytest.mark.parametrize("mask", (B, C, GAPPED), ids=("bspline", "chaikin", "gapped"))
def test_iterated_mask_matches_dense_convolutions(mask):
    coeffs = mask.coeffs.tolist()
    off = mask.offset[0]
    for n in range(0, 7):
        got = {i[0]: v for i, v in iterated_mask(mask, n).nonzero_items()}
        assert got == dense_iterated(coeffs, off, n)


def test_iterated_mask_semigroup_identity():
    # a^(m+n)_i = sum_j a^(m)_{i - 2^m j} a^(n)_j
    for mask in (B, C, GAPPED):
        for m, n in ((1, 2), (2, 1), (2, 3)):
            am = iterated_mask(mask, m)
            an = iterated_mask(mask, n)
            total = iterated_mask(mask, m + n)
            scale = 2 ** m
            lo, hi = total.support_box()
            for i in range(lo[0], hi[0] + 1):
                composed = sum(am.value((i - scale * j[0],)) * w
                               for j, w in an.nonzero_items())
                assert composed == pytest.approx(total.value((i,)), abs=1e-12)


def test_hat_iterates_have_the_closed_form():
    for n in range(0, 7):
        level = iterated_mask(B, n)
        lo, hi = level.support_box()
        assert (lo, hi) == ((-(2 ** n) + 1,), (2 ** n - 1,))
        for i in range(lo[0] - 2, hi[0] + 3):
            assert level.value((i,)) == hat(i, n)


def test_frozen_second_iterates():
    assert mask_dict(iterated_mask(B, 2)) == {
        (-3,): 0.25, (-2,): 0.5, (-1,): 0.75, (0,): 1.0,
        (1,): 0.75, (2,): 0.5, (3,): 0.25,
    }
    sixteenths = (1, 3, 6, 10, 12, 12, 10, 6, 3, 1)
    assert mask_dict(iterated_mask(C, 2)) == {
        (i,): v / 16 for i, v in enumerate(sixteenths)
    }


def test_iterates_preserve_residue_class_mass():
    for mask in (B, C, tensor_power(B, 2)):
        for n in range(1, 5):
            level = iterated_mask(mask, n)
            stride = 2 ** n
            sums = {}
            for idx, w in level.nonzero_items():
                r = tuple(i % stride for i in idx)
                sums[r] = sums.get(r, 0.0) + w
            assert len(sums) == stride ** mask.dim
            assert all(abs(s - 1.0) <= 1e-12 for s in sums.values())


def test_iterated_mask_support_cap():
    wide = np.zeros(2 ** 21 + 1)
    wide[0] = wide[-1] = 1.0
    with pytest.raises(ResourceError,
                       match=r"^iterated mask support 6291457 exceeds cap 4194304$"):
        iterated_mask(make_mask((0,), wide), 2)
    with pytest.raises(StructuralError):
        iterated_mask(B, -1)


def test_a_ladder_step_builds_one_mask(monkeypatch):
    """A step trims one array into one Mask and re-runs none of the input
    checks that its parents passed; it keeps the finiteness check.  A mask
    finds its support box once."""
    trim = masks._trimmed
    for mask in (B, C, GAPPED, tensor_power(B, 2)):
        current = iterated_mask(mask, 2)
        built = []
        with monkeypatch.context() as m:
            m.setattr(masks, "_trimmed", lambda *args: built.append(trim(*args)) or built[-1])
            m.setattr(Mask, "__post_init__", lambda self: pytest.fail("input checks re-ran"))
            level = next_iterate(mask, current)
            m.setattr(masks, "_nonzero_box", None)  # each box was found once, when built
            boxes = level.support_box(), mask.support_box()
        assert built == [level] and not level.coeffs.flags.writeable
        assert boxes == (masks._nonzero_box(level.coeffs, level.offset),
                         masks._nonzero_box(mask.coeffs, mask.offset))
        assert mask_dict(level) == mask_dict(Mask(mask.dim, level.offset, level.coeffs))
    with pytest.raises(NumericError, match="^the next iterated mask level leaves the float range$"):
        iterated_mask(make_mask((0,), [1e300, 1e300]), 2)


def test_an_iterate_that_underflows_to_zero_is_refused():
    with pytest.raises(StructuralError, match="at least one positive"):
        iterated_mask(make_mask((0,), [1e-200]), 2)


def test_require_sum_rule_builds_no_report(monkeypatch):
    monkeypatch.setattr(masks, "validate_mask", None)
    monkeypatch.setattr(masks, "MaskReport", None)
    require_sum_rule(C)
    with pytest.raises(StructuralError,
                       match=r"^mask violates the sum rule \(residual 2\.500e-01\)$"):
        require_sum_rule(make_mask((0,), [1.0, 0.75]))


# -- the exact convergence decision ----------------------------------------------------

CUBIC = make_mask((-2,), [0.125, 0.5, 0.75, 0.5, 0.125])
HAAR = make_mask((0,), [1.0, 1.0])
EU = SpaceDescriptor("euclidean", 1)


@pytest.mark.parametrize("mask,level", (
    (B, 1), (C, 2), (CUBIC, 1), (tensor_power(B, 2), 1), (tensor_power(C, 2), 2),
    (translate(C, (5,)), 2), (translate(tensor_power(B, 2), (-3, 8)), 1), (GAPPED, None),
), ids=("hat", "chaikin", "cubic", "tensor-hat", "tensor-chaikin", "translated-chaikin",
        "translated-tensor-hat", "gapped"))
def test_convergence_levels_of_the_reference_masks(mask, level):
    assert convergence_level(mask) == level


@pytest.mark.parametrize("mask", (
    GAPPED, HAAR, tensor_product(B, HAAR), tensor_power(HAAR, 2),
    make_mask((0,), [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
), ids=("gapped", "haar", "hat-x-haar", "tensor-haar", "gap-of-four"))
def test_masks_that_never_converge(mask):
    """Each has a start whose rows stay apart: no level, no certificate."""
    assert convergence_level(mask) is None
    assert overlap_level_loop(mask, 5 if mask.dim == 1 else 3) is None
    assert not contractivity_certificate(mask, 5 if mask.dim == 1 else 3).found


FACTORS = {"level-3": (make_mask((0,), [0.5, 0.0, 0.0, 1.0, 0.5]), 3), "chaikin": (C, 2),
           "cubic": (CUBIC, 1), "skew": (make_mask((-1,), [0.25, 0.5, 0.75, 0.5]), 2),
           "gapped": (GAPPED, None), "haar": (HAAR, None)}  # 1-D mask, level


@pytest.mark.parametrize("names", (
    ("cubic", "cubic", "cubic"), ("chaikin", "cubic", "skew"), ("level-3", "skew", "skew"),
    ("chaikin", "gapped", "cubic"), ("haar", "cubic", "skew"), ("level-3", "haar", "gapped"),
    ("skew", "chaikin", "haar"), ("haar", "level-3", "chaikin"),
), ids="-x-".join)
def test_the_level_of_a_3d_product_is_the_max_of_its_factors(names):
    """The rows of a product chain meet iff they meet on every axis, and the
    default gauge of a product is the product box: so a*b*c converges at the
    largest of its factors' levels, and never if one factor never does.  Each
    factor's level is checked against the overlap loop (gapped and Haar never
    converge, see above)."""
    (a, la), (b, lb), (c, lc) = factors = [FACTORS[name] for name in names]
    for mask, level in factors:
        assert overlap_level_loop(mask, 5) == level
    want = None if None in (la, lb, lc) else max(la, lb, lc)
    assert convergence_level(tensor_product(tensor_product(a, b), c)) == want


def level_battery_mask(case: int):
    """Sum-rule mask number `case` of the level battery: dims 1-3 in turn,
    boxes of 2-6 (1-D), 3-4 (2-D) or 3 (3-D) per axis, each parity class
    spreading 2^m units over its entries by a multinomial draw (m = 0 gives a
    one-entry class, and zero holes are common), offsets in -3..3, and every
    fourth one moved by +-2^70."""
    rng = np.random.default_rng([7, case])
    dim = 1 + case % 3
    shape = tuple(int(n) for n in rng.integers((2, 3, 3)[dim - 1], (7, 5, 4)[dim - 1], size=dim))
    coeffs = np.zeros(shape)
    for r in product((0, 1), repeat=dim):
        cls = tuple(slice(b, None, 2) for b in r)
        size, m = coeffs[cls].size, int(rng.integers(0, 7))
        coeffs[cls] = rng.multinomial(2 ** m, np.full(size, 1 / size)).reshape(
            coeffs[cls].shape) / 2 ** m
    offset = [int(o) for o in rng.integers(-3, 4, size=dim)]
    if case % 4 == 1:
        offset[0] += (-1) ** case * 2 ** 70
    return make_mask(offset, coeffs)


@pytest.mark.parametrize("mask", [level_battery_mask(case) for case in range(60)] + [
    GAPPED, HAAR, tensor_product(B, HAAR), translate(GAPPED, (-2 ** 70,)),
    tensor_product(tensor_product(C, GAPPED), B), translate(tensor_power(C, 2), (2 ** 70, -5)),
], ids=[f"random-{case}" for case in range(60)] + [
    "gapped", "haar", "hat-x-haar", "far-gapped", "chaikin-x-gapped-x-hat", "far-tensor-chaikin"])
def test_the_cell_search_matches_the_offset_search(mask):
    """The search over cell ids of the chain's tables gives the level of the
    search over lattice offsets, convergent or not, in dims 1-3."""
    assert convergence_level(mask) == offset_level_search(mask)


def test_a_search_past_the_cap_is_refused(monkeypatch):
    """Tables past the cap are refused before the search (cubic^5: 32 classes
    x 7776 cells x 243 bins), and so is a search whose visited states x cells
    pass it: Chaikin^2 has 25 cells and visits 39 states to answer 2."""
    with pytest.raises(ResourceError, match=r"^convergence search tables exceed cap 4194304$"):
        convergence_level(tensor_power(CUBIC, 5))
    monkeypatch.setattr(masks, "ITERATED_SUPPORT_CAP", 39 * 25 - 1)
    with pytest.raises(ResourceError,
                       match=r"^convergence search of 39 states x 25 cells exceeds cap 974$"):
        convergence_level(tensor_power(C, 2))
    monkeypatch.setattr(masks, "ITERATED_SUPPORT_CAP", 39 * 25)
    assert convergence_level(tensor_power(C, 2)) == 2


def test_convergence_level_needs_the_sum_rule():
    with pytest.raises(StructuralError,
                       match=r"^mask violates the sum rule \(residual 5\.000e-01\)$"):
        convergence_level(make_mask((0,), [1.0, 0.5]))


@pytest.mark.parametrize("mask", (make_mask((0,), [1.0]), make_mask((0,), [1.0, 0.0, 1.0]),
                                  make_mask((0, 0), [[1.0]]), make_mask((0,), [1.0, 0.5])),
                         ids=("delta", "odd-class-empty", "delta-2d", "lopsided"))
def test_the_cell_tables_check_the_sum_rule_first(mask):
    """A parity class with no weight has no row in the chain's tables: `_cells`
    refuses the mask with the sum rule's error before it builds them."""
    with pytest.raises(StructuralError, match=r"^mask violates the sum rule \(residual "):
        masks._cells(mask)


def test_validate_reports_the_level_only_under_the_sum_rule():
    assert validate_mask(B).convergence_level == 1
    assert validate_mask(C).convergence_level == 2
    assert validate_mask(tensor_power(B, 2)).convergence_level == 1
    assert validate_mask(GAPPED).convergence_level is None
    lopsided = validate_mask(make_mask((0,), [1.0, 0.5]))
    assert not lopsided.sum_rule_ok and lopsided.convergence_level is None
    for mask in (B, GAPPED, tensor_power(B, 2)):
        assert not any("screen" in note for note in validate_mask(mask).notes)


def seeded_sum_rule_mask(k, dims=(1, 2)):
    """The sum-rule mask of default_rng(k): 1-D of 2-6 entries or 2-D of 3-4
    entries per axis (a side of width 2 never converges; see above), integer
    weights 1..4 with one in four set to 0 (padding the edges, leaving gaps),
    translated by -9..9."""
    rng = np.random.default_rng(k)
    dim = int(rng.choice(dims))
    low, high = ((2, 6), (3, 4))[dim - 1]
    shape = tuple(rng.integers(low, high + 1, dim).tolist())
    weights = rng.integers(1, 5, shape) * (rng.integers(0, 4, shape) > 0)
    return sum_rule_mask(weights, tuple(rng.integers(-9, 10, dim).tolist()))


# edges: the narrowest and widest masks with no weight at both end offsets, the
# widest of the largest weight, and the 2-D extremes
SUM_RULE_EDGES_1D = [sum_rule_mask(np.zeros(2), (-9,)), sum_rule_mask(np.zeros(6), (9,)),
                     sum_rule_mask(np.full(6, 4), (0,)), sum_rule_mask([0, 0, 0, 1, 1, 0], (-1,))]
SUM_RULE_EDGES = SUM_RULE_EDGES_1D + [sum_rule_mask(np.zeros((3, 3)), (-9, 9)),
                                      sum_rule_mask(np.full((4, 4), 4), (9, -9))]


def test_convergence_level_matches_the_overlap_loop():
    """The level is the first overlap level of the loop (levels past 5, or
    none, read as None there); alpha_n > 0 exactly from the level on; and the
    certificate, which needs alpha_n > 0, is not found below the level, nor
    up to level 5 when there is none."""
    cap = 5
    for mask in SUM_RULE_EDGES + [seeded_sum_rule_mask(k) for k in range(40)]:
        level = convergence_level(mask)
        assert overlap_level_loop(mask, cap) == (level if level is not None and level <= cap
                                                 else None), mask
        centered, _ = recenter(mask)
        gauge = default_gauge(centered)
        for n, a_n in enumerate(islice(ladder(centered), 1, cap + 1), 1):
            assert (_alpha(a_n, n, gauge) > 0) == (level is not None and n >= level), (mask, n)
        below = cap if level is None else min(level - 1, cap)
        assert below == 0 or not contractivity_certificate(mask, below).found, mask


def worst_d_inf_series(mask, levels):
    """[D_0, ..., D_levels] of a 1-D mask, D_n = sup of d_inf(S^n x) over data
    |x| <= 1 under the linear rule: by linearity the max over residues r of
    sum_{i = r (mod 2^n)} |v_i - v_{i+1}| for v = S^n delta, the level-n rows.
    Each level is one `linear_refine` step of the last on a window whose
    edges are zero, so the extension past them is zero too."""
    lo, hi = mask.support_box()
    first = min(lo[0], 0) - 1
    values = [float(i == 0) for i in range(first, max(hi[0], 0) + 2)]
    series = []
    for n in range(levels + 1):
        if n:
            out = linear_refine(mask, grid_from_points(
                EU, (first,), (first + len(values) - 1,), [euclidean_point([v]) for v in values]))
            first, values = 2 * first, [out[(2 * first + k,)][0]
                                        for k in range(2 * len(values) - 1)]
        gaps = {}
        for k, (v, w) in enumerate(zip(values, values[1:])):
            gaps[(first + k) % 2 ** n] = gaps.get((first + k) % 2 ** n, 0.0) + abs(w - v)
        series.append(max(gaps.values()))
    return series


def test_convergence_level_agrees_with_the_worst_linear_decay():
    """Against `linear_refine`: a scheme with a level contracts d_inf over all
    data |x| <= 1 (a fitted rate below 1 - margin); one without keeps rows u,
    u + e with |e| < 2c disjoint at every level, so the |e| <= 2c - 1 unit
    steps between them carry a total gap of 2, and one carries 2 / (2c - 1)."""
    for mask in SUM_RULE_EDGES_1D + [seeded_sum_rule_mask(k, (1,)) for k in range(40)]:
        level = convergence_level(mask)
        series = worst_d_inf_series(recenter(mask)[0], 4)  # D_n does not see translation
        if level is None:
            c = default_gauge(mask).half_widths[0]
            assert min(series) >= 2.0 / (2 * c - 1) - 1e-12, mask
        else:
            rate = fit_gamma([(n, d) for n, d in enumerate(series) if n >= FIT_FIRST_LEVEL])
            assert rate < 1.0 - CONVERGENCE_MARGIN, mask


# -- stencils -------------------------------------------------------------------------

@pytest.mark.parametrize("mask", (B, C), ids=("bspline", "chaikin"))
def test_stencil_enumerates_exactly_the_positive_coefficients(mask):
    for i in range(-3, 6):
        got = dict(stencil(mask, (i,)))
        want = {}
        for j in range(-6, 7):
            w = mask.value((i - 2 * j,))
            if w > 0.0:
                want[(j,)] = w
        assert got == want


@pytest.mark.parametrize("mask", (C, GAPPED, tensor_power(B, 2), translate(C, (3,))),
                         ids=("chaikin", "gapped", "tensor-hat", "shifted"))
def test_coset_is_the_residue_class_read_entry_by_entry(mask):
    for level in range(4):
        step = 2 ** level
        for r in product(range(-step, step + 2), repeat=mask.dim):
            want = {}
            for idx, w in mask.nonzero_items():
                if all((rk - ik) % step == 0 for rk, ik in zip(r, idx)):
                    want[tuple((rk - ik) // step for rk, ik in zip(r, idx))] = w
            assert coset(mask, level, r) == list(want.items())
        # dyadic entries, so each sum is exact in any order
        assert coset_sums(mask, level) == {r: sum(w for _, w in coset(mask, level, r))
                                           for r in product(range(step), repeat=mask.dim)}


def test_stencil_bivariate():
    bb = tensor_power(B, 2)
    got = dict(stencil(bb, (0, 1)))
    assert got == {(0, 0): 0.5, (0, 1): 0.5}


# -- gauges ---------------------------------------------------------------------------

def test_default_gauges_and_recentring():
    assert default_gauge(B).half_widths.tolist() == [1.0]
    assert default_gauge(C).half_widths.tolist() == [2.0]
    assert default_gauge(tensor_power(C, 2)).half_widths.tolist() == [2.0, 2.0]
    centered, shift = recenter(C)
    assert shift == (-1,)
    assert centered.support_box() == ((-1,), (2,))
    assert "recenters" in " ".join(validate_mask(C).notes)
    assert "recenters" not in " ".join(validate_mask(B).notes)


def test_gauge_value_and_validation():
    g = default_gauge(C)
    assert gauge_value(g, (2,)) == 1.0
    assert gauge_value(g, (-3,)) == 1.5
    assert gauge_value(unit_gauge(2), (1, -2)) == 2.0
    assert gauge_value(g, (2 ** 70,)) == 2.0 ** 69  # divided exactly, past int64
    assert gauge_value(unit_gauge(2), (np.int64(3), -2 ** 70)) == 2.0 ** 70
    assert gauge_value(g, 10 ** 400) == np.inf
    with pytest.raises(StructuralError):
        gauge_value(g, (1, 1))
    for v in ((0.5,), 2.0, np.array([1.0]), (True,)):  # lattice points only
        with pytest.raises(StructuralError, match="^gauge argument coordinate must be"):
            gauge_value(g, v)
    with pytest.raises(StructuralError):
        BoxGauge(np.array([1.0, 0.0]))
    with pytest.raises(StructuralError, match="^half widths must form a nonempty vector$"):
        BoxGauge(np.array([]))


@pytest.mark.parametrize("c", ([1.0], [2.0], [0.75], [3.3], [1.0, 1.0], [2.0, 1.5],
                               [1.0, 2.0, 0.5]), ids=str)
def test_gauge_offsets_are_the_candidates_of_gauge_value_below_2(c):
    """The array expression keeps the offsets, and their row-major order, of
    a loop over the candidate box through gauge_value."""
    g = BoxGauge(c)
    box = product(*(range(-int(np.ceil(2 * ck)), int(np.ceil(2 * ck)) + 1) for ck in c))
    assert gauge_offsets(g) == [e for e in box if gauge_value(g, e) < 2.0]


# -- products -------------------------------------------------------------------------

def test_tensor_product_is_the_outer_product():
    bc = tensor_product(B, C)
    assert bc.dim == 2
    assert bc.offset == (-1, 0)
    for i in range(-2, 3):
        for j in range(-1, 5):
            assert bc.value((i, j)) == B.value((i,)) * C.value((j,))
    assert validate_mask(bc).sum_rule_ok


def test_tensor_power_dimensions():
    assert tensor_power(B, 1).dim == 1
    assert tensor_power(B, 3).dim == 3
    assert tensor_power(B, 2).value((0, 0)) == 1.0


# -- JSON -----------------------------------------------------------------------------

@pytest.mark.parametrize("mask", (B, C, tensor_power(B, 2)),
                         ids=("bspline", "chaikin", "bspline2d"))
def test_mask_json_roundtrip(mask):
    back = mask_from_json(mask_to_json(mask))
    assert back.dim == mask.dim and back.offset == mask.offset
    assert mask_dict(back) == mask_dict(mask)


def test_mask_json_rejects_malformed_objects():
    with pytest.raises(StructuralError):
        mask_from_json({"offset": [0]})
    with pytest.raises(StructuralError):
        mask_from_json({"dim": 1, "offset": [0], "coeffs": None})


# -- properties over random admissible masks -------------------------------------------

@pytest.mark.parametrize("n", range(5))
def test_random_mask_iterates_match_the_oracle(n):
    for mask in ADMISSIBLE:
        got = {i[0]: v for i, v in iterated_mask(mask, n).nonzero_items()}
        want = dense_iterated(mask.coeffs.tolist(), mask.offset[0], n)
        assert set(got) == set(want), mask
        assert all(abs(got[k] - want[k]) <= 1e-12 for k in got), mask


def test_random_mask_cosets_survive_iteration():
    for mask in ADMISSIBLE:
        sums = {}
        for idx, w in iterated_mask(mask, 3).nonzero_items():
            sums[idx[0] % 8] = sums.get(idx[0] % 8, 0.0) + w
        assert len(sums) == 8, mask
        assert all(abs(s - 1.0) <= 1e-9 for s in sums.values()), mask
