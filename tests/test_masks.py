"""Mask validation, iteration, gauges, stencils, and products."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from npcsubdiv import (NumericError, ResourceError, StructuralError,
                       bspline_mask, chaikin_mask, default_gauge, gauge_value,
                       iterated_mask, make_mask, tensor_power, tensor_product,
                       validate_mask)
from npcsubdiv import masks
from npcsubdiv.masks import (BoxGauge, Mask, coset, coset_sums, gauge_offsets, mask_from_json,
                             mask_to_json, next_iterate, recenter, require_sum_rule, stencil,
                             translate, unit_gauge)
from oracles import dense_iterated, hat

B = bspline_mask()
C = chaikin_mask()
GAPPED = make_mask((0,), [1.0, 0.0, 0.0, 1.0])  # sum rule holds, gcd screen fails


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


@st.composite
def sparse_arrays(draw):
    """(coeffs, offset): 1-3 axes, mostly zeros so that whole rows, columns and
    interior runs vanish; offsets near 0 or beyond int64."""
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim)))
    size = int(np.prod(shape))
    flat = draw(st.lists(st.sampled_from((0.0, 0.0, 0.0, 0.25, 1.0)),
                         min_size=size, max_size=size))
    offset = draw(st.lists(st.integers(-4, 4) | st.sampled_from((2 ** 70, -2 ** 63 - 5)),
                           min_size=dim, max_size=dim))
    return np.array(flat).reshape(shape), tuple(offset)


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


@given(case=sparse_arrays())
def test_support_boxes_match_the_nonzero_oracle(case):
    assert_trimmed_to_the_box(*case)


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
    built = []
    check = Mask.__post_init__
    monkeypatch.setattr(Mask, "__post_init__", lambda self: built.append(self) or check(self))
    for mask in (B, C, GAPPED, tensor_power(B, 2)):
        current = iterated_mask(mask, 2)
        built.clear()
        assert built == [next_iterate(mask, current)]


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


# -- univariate convergence screens --------------------------------------------------

def test_screens_for_the_reference_masks():
    zb = validate_mask(B).univariate_zhou
    assert zb.support_gcd_ok and zb.endpoint_ok and not zb.endpoint_literal_ok
    zc = validate_mask(C).univariate_zhou
    assert zc.support_gcd_ok and zc.endpoint_ok and zc.endpoint_literal_ok
    zg = validate_mask(GAPPED).univariate_zhou
    assert not zg.support_gcd_ok and not zg.endpoint_ok and not zg.endpoint_literal_ok
    assert validate_mask(tensor_power(B, 2)).univariate_zhou is None


def test_screen_disagreement_is_noted():
    notes = " ".join(validate_mask(B).notes)
    assert "endpoint screens disagree" in notes


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
    with pytest.raises(StructuralError):
        gauge_value(g, (1, 1))
    with pytest.raises(StructuralError):
        BoxGauge(np.array([1.0, 0.0]))


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

@st.composite
def admissible_masks(draw):
    """Univariate nonnegative masks normalized to unit mass per parity coset."""
    vals = draw(st.lists(st.integers(0, 4), min_size=2, max_size=5))
    off = draw(st.integers(-2, 2))
    even = sum(v for k, v in enumerate(vals) if (k + off) % 2 == 0)
    odd = sum(v for k, v in enumerate(vals) if (k + off) % 2 == 1)
    if even == 0 or odd == 0:
        vals = vals + [1, 1]
        even += 1 if (len(vals) - 2 + off) % 2 == 0 else 0
        odd += 1 if (len(vals) - 2 + off) % 2 == 1 else 0
        even += 1 if (len(vals) - 1 + off) % 2 == 0 else 0
        odd += 1 if (len(vals) - 1 + off) % 2 == 1 else 0
    coeffs = [v / (even if (k + off) % 2 == 0 else odd)
              for k, v in enumerate(vals)]
    return make_mask((off,), coeffs)


@given(mask=admissible_masks(), n=st.integers(0, 4))
def test_random_mask_iterates_match_the_oracle(mask, n):
    got = {i[0]: v for i, v in iterated_mask(mask, n).nonzero_items()}
    want = dense_iterated(mask.coeffs.tolist(), mask.offset[0], n)
    assert set(got) == set(want)
    assert all(abs(got[k] - want[k]) <= 1e-12 for k in got)


@given(mask=admissible_masks())
def test_random_mask_cosets_survive_iteration(mask):
    level = iterated_mask(mask, 3)
    sums = {}
    for idx, w in level.nonzero_items():
        sums[idx[0] % 8] = sums.get(idx[0] % 8, 0.0) + w
    assert len(sums) == 8
    assert all(abs(s - 1.0) <= 1e-9 for s in sums.values())
