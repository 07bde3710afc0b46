"""Nonnegative subdivision masks on the integer grid.

A mask is a finitely supported array of nonnegative coefficients indexed by
Z^s.  This module validates the basic sum rule (unit mass on every parity
coset), iterates masks under the dyadic refinement recursion, builds box
gauges from the support and the characteristic chain's one move table
(`_cells`, which `markov` and `convergence_level` walk), and forms tensor
products.

All residue arithmetic lives in `coset(mask, level, residue)`: the entries
a_idx with idx = residue (mod 2^level), read as one strided slice and keyed
by j = (residue - idx) / 2^level.  A stencil is the level-1 coset of a mask
and a stationary vector a level-n coset of the iterated mask a^(n), whose
ladder builds each level once, skipping every input check but finiteness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import islice, product

import numpy as np

from .errors import NumericError, ResourceError, StructuralError, integer, \
    lattice_point, numbers

SUM_RULE_TOL = 1e-12
ITERATED_SUPPORT_CAP = 2 ** 22


@dataclass(eq=False)
class Mask:
    """Coefficients a_i >= 0 on the box offset + [0, shape); dim = s."""

    dim: int
    offset: tuple
    coeffs: np.ndarray

    def __post_init__(self):
        self.dim = integer(self.dim, "mask dim")
        if self.dim < 1:
            raise StructuralError(f"mask dim must be >= 1, got {self.dim}")
        arr = numbers(self.coeffs, "mask coefficients")
        if arr.ndim != self.dim:
            raise StructuralError(
                f"coeffs must be {self.dim}-dimensional, got {arr.ndim}")
        if arr.size == 0:
            raise StructuralError("mask must not be empty")
        if not np.all(np.isfinite(arr)):
            raise NumericError("mask coefficients must be finite")
        if arr.min() < 0.0:
            raise StructuralError("mask coefficients must be nonnegative")
        if arr.max() <= 0.0:
            raise StructuralError("mask needs at least one positive coefficient")
        arr.flags.writeable = False
        self.coeffs = arr
        self.offset = lattice_point(self.offset, self.dim, "mask offset")
        self._box = _nonzero_box(arr, self.offset)

    def support_box(self):
        """Bounding box (lo, hi) of the nonzero coefficients, inclusive, found once."""
        return self._box

    def value(self, index) -> float:
        local = tuple(i - o for i, o in zip(lattice_point(index, self.dim, "mask index"),
                                            self.offset))
        if any(l < 0 or l >= n for l, n in zip(local, self.coeffs.shape)):
            return 0.0
        return float(self.coeffs[local])

    def nonzero_items(self) -> list:
        """(index tuple, coefficient) pairs of the support, row-major, in Python ints."""
        local = np.nonzero(self.coeffs)
        axes = [[l + o for l in ix.tolist()] for ix, o in zip(local, self.offset)]
        return list(zip(zip(*axes), self.coeffs[local].tolist()))


def make_mask(offset, coeffs) -> Mask:
    arr = numbers(coeffs, "mask coefficients")
    return Mask(arr.ndim, offset, arr)


def _nonzero_box(coeffs: np.ndarray, offset):
    """Inclusive box (lo, hi) of the nonzero entries of coeffs at offset, in
    Python ints, from one `any` per axis; None if every entry is zero."""
    spans = [np.flatnonzero(coeffs.any(axis=tuple(a for a in range(coeffs.ndim) if a != k)))
             for k in range(coeffs.ndim)]
    if spans[0].size:
        return tuple(zip(*((int(s[0]) + o, int(s[-1]) + o) for s, o in zip(spans, offset))))


def _trimmed(dim: int, offset, coeffs) -> Mask:
    """The mask of coeffs at offset, cut to the box of its nonzero entries,
    without Mask's input checks, which the masks it derives from passed."""
    box = _nonzero_box(coeffs, offset)
    if box is None:
        raise StructuralError("mask needs at least one positive coefficient")
    out = Mask.__new__(Mask)
    out.dim, out.offset, out._box = dim, box[0], box
    out.coeffs = coeffs[tuple(slice(l - o, h - o + 1) for l, h, o in zip(*box, offset))]
    out.coeffs.flags.writeable = False
    return out


def translate(mask: Mask, shift) -> Mask:
    shift = lattice_point(shift, mask.dim, "shift")
    return Mask(mask.dim, tuple(o + s for o, s in zip(mask.offset, shift)), mask.coeffs)


# -- reference masks ----------------------------------------------------------

def bspline_mask() -> Mask:
    """Midpoint mask (1/2, 1, 1/2) at offset -1; generates the hat function."""
    return make_mask((-1,), [0.5, 1.0, 0.5])


def chaikin_mask() -> Mask:
    """Corner-cutting mask (1/4, 3/4, 3/4, 1/4) at offset 0."""
    return make_mask((0,), [0.25, 0.75, 0.75, 0.25])


def delta_mask(dim: int = 1) -> Mask:
    return Mask(dim, (0,) * dim, np.ones((1,) * dim))


def tensor_power(mask: Mask, s: int) -> Mask:
    out = mask
    for _ in range(s - 1):
        out = tensor_product(out, mask)
    return out


# -- validation ----------------------------------------------------------------

@dataclass
class MaskReport:
    sum_rule_ok: bool
    coset_residuals: dict
    residual: float
    nonnegative_ok: bool
    support_box: tuple
    convergence_level: int | None = None
    notes: list = field(default_factory=list)


def _coset_view(mask: Mask, level: int, residue: tuple):
    """Strided view of the coefficients at idx = residue (mod 2^level), and
    the lattice index of its first entry."""
    step = 2 ** level
    first = tuple(o + (r - o) % step for r, o in zip(residue, mask.offset))
    view = mask.coeffs[tuple(slice(f - o, None, step)
                             for f, o in zip(first, mask.offset))]
    return view, first


def coset(mask: Mask, level: int, residue) -> list:
    """(j, a_idx) pairs over the nonzero a_idx with idx = residue (mod 2^level).

    j = (residue - idx) / 2^level.  Pairs come in row-major order of idx, so
    j runs backwards.
    """
    residue = lattice_point(residue, mask.dim, "residue")
    step = 2 ** level
    view, first = _coset_view(mask, level, residue)
    top = tuple((r - f) // step for r, f in zip(residue, first))
    return [(tuple(t - int(l) for t, l in zip(top, local)), float(view[local]))
            for local in zip(*np.nonzero(view))]


def coset_sums(mask: Mask, level: int = 1) -> dict:
    """Sum of coefficients on each residue class of Z^s mod 2^level."""
    return {residue: float(_coset_view(mask, level, residue)[0].sum())
            for residue in product(range(2 ** level), repeat=mask.dim)}


def support_radius(mask: Mask) -> float:
    """Largest Euclidean norm of an index in the support."""
    return max(math.sqrt(sum(ik * ik for ik in idx))
               for idx, _ in mask.nonzero_items())


def center_translation(mask: Mask):
    """Integer shift minimizing the per-axis half-width of the support box."""
    lo, hi = mask.support_box()
    return tuple(-((l + h) // 2) for l, h in zip(lo, hi))


def recenter(mask: Mask):
    """Translated copy whose support straddles the origin, plus the shift."""
    t = center_translation(mask)
    return _trimmed(mask.dim, tuple(o + s for o, s in zip(mask.offset, t)), mask.coeffs), t


def validate_mask(mask: Mask) -> MaskReport:
    residuals = {p: abs(s - 1.0) for p, s in coset_sums(mask).items()}
    residual = max(residuals.values())
    sum_rule_ok = residual <= SUM_RULE_TOL
    t = center_translation(mask)
    notes = [f"default gauge recenters support by translation {t}"] if any(t) else []
    return MaskReport(sum_rule_ok=sum_rule_ok, coset_residuals=residuals, residual=residual,
                      nonnegative_ok=True,  # Mask refuses negative coefficients
                      support_box=mask.support_box(), notes=notes,
                      convergence_level=convergence_level(mask) if sum_rule_ok else None)


def require_sum_rule(mask: Mask):
    """Raises unless every parity coset sums to 1 within tolerance."""
    residual = max(abs(s - 1.0) for s in coset_sums(mask).values())
    if residual > SUM_RULE_TOL:
        raise StructuralError(f"mask violates the sum rule (residual {residual:.3e})")


def stencil(mask: Mask, index):
    """(j, weight) pairs with weight = a_{index - 2j} > 0, in row-major order of j."""
    return coset(mask, 1, index)[::-1]


# -- iteration -----------------------------------------------------------------

def next_iterate(mask: Mask, current: Mask) -> Mask:
    """a^(n+1)_i = sum_j a_{i-2j} a^(n)_j from current = a^(n): each nonzero
    a_l adds a_l a^(n) onto the strided positions l + 2j, one pass per a_l."""
    shape = tuple(na + 2 * nc - 2 for na, nc in zip(mask.coeffs.shape, current.coeffs.shape))
    if math.prod(shape) > ITERATED_SUPPORT_CAP:
        raise ResourceError(
            f"iterated mask support {math.prod(shape)} exceeds cap {ITERATED_SUPPORT_CAP}")
    out = np.zeros(shape)
    with np.errstate(over="ignore"):  # an overflow is refused below, as a NumericError
        for local in zip(*np.nonzero(mask.coeffs)):
            out[tuple(slice(l, l + 2 * n - 1, 2) for l, n in zip(local, current.coeffs.shape))] \
                += mask.coeffs[local] * current.coeffs
    if not np.isfinite(out).all():
        raise NumericError("the next iterated mask level leaves the float range")
    offset = tuple(oa + 2 * oc for oa, oc in zip(mask.offset, current.offset))
    return _trimmed(mask.dim, offset, out)


def ladder(mask: Mask):
    """Yields a^(0) = delta, a^(1), ...; each level is built when asked for."""
    level = delta_mask(mask.dim)
    while True:
        yield level
        level = next_iterate(mask, level)


def iterated_mask(mask: Mask, n: int) -> Mask:
    """n-fold mask iteration from a^(0) = delta."""
    n = integer(n, "iteration level")
    if n < 0:
        raise StructuralError("iteration level must be >= 0")
    return next(islice(ladder(mask), n, None))


# -- gauges --------------------------------------------------------------------

@dataclass(eq=False)
class BoxGauge:
    """Minkowski functional of the box prod_k [-c_k, c_k]."""

    half_widths: np.ndarray

    def __post_init__(self):
        c = numbers(self.half_widths, "half widths")
        if c.ndim != 1 or c.size == 0:
            raise StructuralError("half widths must form a nonempty vector")
        if not np.all(np.isfinite(c)) or c.min() <= 0.0:
            raise StructuralError("half widths must be positive and finite")
        c.flags.writeable = False
        self.half_widths = c


def gauge_value(gauge: BoxGauge, v) -> float:
    """max_k |v_k| / c_k of a lattice point v, divided exactly at any size and
    rounded once, to inf past the float range."""
    v = lattice_point(v, gauge.half_widths.size, "gauge argument")
    q = max(Fraction(abs(x)) / Fraction(w) for x, w in zip(v, gauge.half_widths.tolist()))
    return math.inf if q > np.finfo(float).max else float(q)


def gauge_offsets(gauge: BoxGauge) -> list:
    """Integer offsets e with gauge(e) < 2, in row-major order: the product of the
    e_k with |e_k| / c_k < 2 on each axis."""
    return list(product(*([x for x in range(-math.ceil(2.0 * w), math.ceil(2.0 * w) + 1)
                           if abs(x) / w < 2.0] for w in gauge.half_widths.tolist())))


def unit_gauge(dim: int) -> BoxGauge:
    return BoxGauge(np.ones(dim))


def default_gauge(mask: Mask) -> BoxGauge:
    """Smallest origin-centered integer box containing the recentred support (unchecked)."""
    gauge = BoxGauge.__new__(BoxGauge)
    gauge.half_widths = np.array([max(abs(l + t), abs(h + t), 1) for l, h, t in zip(
        *mask.support_box(), center_translation(mask))], dtype=float)
    gauge.half_widths.flags.writeable = False
    return gauge


# -- the characteristic chain's cells, and convergence -------------------------

def _cells(mask: Mask):
    """The chain's tables, or None past `ITERATED_SUPPORT_CAP` slots: lo, the offset
    d of each cell, the start cell, the classes' raw weights (padded with 0 in front,
    so a class's last bin is live), and per anchor parity each cell's class and the
    cell each (cell, bin) leads to: d -> (d + m + lo + b) >> 1, b = (c - lo) & 1.
    Raises unless the mask keeps the sum rule, which gives every parity class a weight."""
    require_sum_rule(mask)
    lo, hi = mask.support_box()
    parities = list(product((0, 1), repeat=mask.dim))
    classes = [stencil(mask, r) for r in parities]
    width = max(map(len, classes))
    shape = tuple(h - l + 2 for l, h in zip(lo, hi))
    if len(classes) * math.prod(shape) * width > ITERATED_SUPPORT_CAP:
        return None
    weights = np.zeros((len(classes), width))
    moves = np.zeros((len(classes), width, mask.dim), dtype=np.int64)  # m + hi >= 0
    for c, (r, pairs) in enumerate(zip(parities, classes)):
        weights[c, -len(pairs):] = [w for _, w in pairs]
        moves[c, -len(pairs):] = [[2 * a - b + h for a, b, h in zip(j, r, hi)] for j, _ in pairs]
    grid = np.indices(shape).reshape(mask.dim, -1).T
    cell_odd = np.array([[(b + l - h) & 1 for b, l, h in zip(r, lo, hi)] for r in parities])
    lo_odd = np.array([[(b - l) & 1 for b, l in zip(r, lo)] for r in parities])  # b per parity
    cls = ((grid + cell_odd[:, None]) & 1) @ (1 << np.arange(mask.dim)[::-1])
    strides = np.array([math.prod(shape[a + 1:]) for a in range(mask.dim)])
    nxt = ((grid[:, None] + moves[cls] + lo_odd[:, None, None]) >> 1) @ strides
    return (lo, grid + [l - h for l, h in zip(lo, hi)], (np.array(shape) - 2) @ strides,
            weights, dict(zip(parities, zip(cls, nxt))))


def convergence_level(mask: Mask) -> int | None:
    """First level n at which, for every state u and gauge offset e of the
    recentred mask, the n-step chain rows from u and u + e share a coarse
    state (alpha_n > 0 in `linear._alpha`); None if no level ever does.

    The rows live on one anchor plus two sets (G, H) of cells in the box
    [lo - hi, 1] of `_cells`, from the cells 1 - max(e, 0) and 1 + min(e, 0)
    (e > 0 by symmetry; |e_k| <= 2 c_k - 1 <= hi - lo + 1).  Each parity word
    is some anchor's, so the search steps (G, H) under every anchor parity
    and drops a child whose sets meet.  A cycle keeps rows apart at every
    level (tau_n = 1, the scheme diverges); else the level is 1 + the longest
    unmet run, and tau_n -> 0.  In 1-D this is the support criterion of
    Micchelli & Prautzsch (LAA 1989) and Melkman (1997).  Tables, or visited
    states x cells, past `ITERATED_SUPPORT_CAP` are a `ResourceError`.
    """
    centered, _ = recenter(mask)
    if (tables := _cells(centered)) is None:
        raise ResourceError(f"convergence search tables exceed cap {ITERATED_SUPPORT_CAP}")
    _, offsets, _, weights, moves = tables
    step = [list(map(frozenset, np.where(weights[cls] > 0, nxt, nxt[:, -1:]).tolist()))
            for cls, nxt in moves.values()]  # front padding (weight 0) repeats the live last bin

    @cache
    def image(cells):  # the cells one step on, per anchor parity
        return [frozenset().union(*map(s.__getitem__, cells)) for s in step]

    def children(state):  # the unmet (G, H) one step on
        return [(G, H) for G, H in zip(*map(image, state)) if G.isdisjoint(H)]

    at = {d: frozenset({i}) for i, d in enumerate(map(tuple, offsets.tolist()))}  # by offset
    starts = [(at[tuple(1 - max(x, 0) for x in e)], at[tuple(1 + min(x, 0) for x in e)])
              for e in gauge_offsets(default_gauge(centered)) if e > (0,) * mask.dim]
    known = {}  # (G, H) -> levels until every word meets; None while open
    for start in starts:
        path, known[start] = [(start, iter(children(start)))], None
        while path:
            if len(known) * len(offsets) > ITERATED_SUPPORT_CAP:
                raise ResourceError(f"convergence search of {len(known)} states x "
                                    f"{len(offsets)} cells exceeds cap {ITERATED_SUPPORT_CAP}")
            state, todo = path[-1]
            child = next(todo, None)
            if child is None:
                known[state] = 1 + max((known[k] for k in children(state)), default=0)
                path.pop()
            elif child not in known:
                known[child] = None
                path.append((child, iter(children(child))))
            elif known[child] is None:
                return None
    return max(known[start] for start in starts)


# -- products ------------------------------------------------------------------

def tensor_product(a: Mask, b: Mask) -> Mask:
    coeffs = np.multiply.outer(a.coeffs, b.coeffs)
    return Mask(a.dim + b.dim, a.offset + b.offset, coeffs)


# -- JSON ----------------------------------------------------------------------

def mask_to_json(mask: Mask) -> dict:
    return {"dim": mask.dim,
            "offset": list(mask.offset),
            "coeffs": mask.coeffs.tolist()}


def mask_from_json(obj: dict) -> Mask:
    try:
        return Mask(obj["dim"], obj["offset"], obj["coeffs"])
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"bad mask object: {obj!r}") from exc
