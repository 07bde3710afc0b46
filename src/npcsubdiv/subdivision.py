"""Barycentric subdivision of grid data in nonpositively curved spaces.

One refinement step replaces each output index i by the weighted Frechet mean
of its stencil {x_j : a_{i-2j} > 0}.  On euclidean data this reduces to the linear
rule; on the other backends it is the genuinely metric construction whose contraction
behaviour the diagnostics below measure.  A run builds the stencils once (`_plan`), solves
a level in one barycenter call per stencil shape and sweeps all its levels' distances at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from .errors import DomainError, ResourceError, SolverError, StructuralError, \
    integer, number
from .grid import GridData, box_array, check_interior_depth, _refined, _stacked_grid, random_grid, \
    refined_window
from .linear import fit_gamma
from .masks import ITERATED_SUPPORT_CAP, BoxGauge, Mask, convergence_level, default_gauge, \
    gauge_offsets, require_sum_rule, stencil, support_radius, unit_gauge
from .spaces import SpaceDescriptor, _apply, distances, geodesic_points, geodesic_sampler

__all__ = [
    "GridData", "IterateTrace", "subdivide", "iterate", "contractivity_D",
    "d_inf", "empirical_gamma", "GammaEstimate", "bspline_comparison",
    "convergence_diagnostic", "ConvergenceDiagnostic", "approximation_error",
    "ApproximationCheck", "geodesic_sampler", "trial_grid",
]

FIT_FIRST_LEVEL = 2
CONVERGENCE_MARGIN = 1e-3  # a fitted rate below 1 - margin counts as contracting
# payload floats per level that one stack of `_diagnoses` trials may hold, so that
# a stack of deep trials, which gains little from stacking, holds no more than one
STACK_FLOATS = 2 ** 18


def subdivide(mask: Mask, x: GridData) -> GridData:
    """One barycentric refinement step onto the doubled window.

    Output i = r + 2m of parity class r is the barycenter of the inputs
    x_{m+j} under the weights a_{r-2j}, so the classes of one stencil shape
    are one batch of problems.  When nodes fail, the error of the first
    failing node in row-major order is raised, as a node-by-node loop would.
    """
    out, first = _refine(_plan(mask, x), _stack([x]))
    if first:
        raise first[1]
    return _refined(out, out.payloads[0], out.window())


def _stack(grids) -> GridData:
    """Grids on one window as one grid whose payloads carry a leading trial axis."""
    return _refined(grids[0], np.stack([g.payloads for g in grids]), grids[0].window())


def _plan(mask: Mask, x: GridData) -> list:
    """The parity classes r of the mask in groups that pose one barycenter problem:
    (weights, a (2,) * dim table of the r it holds, a (2,) * dim + (k, dim) table of their
    stencils' offsets j), the dimensions and the sum rule checked and the stencils built once
    per run.  It reads x for its dimension alone: a 2-point stencil lists its heavier point
    first, on which no backend's result depends, so classes of mirrored weights merge."""
    if x.dim != mask.dim:
        raise StructuralError("mask and data dimension disagree")
    require_sum_rule(mask)
    groups = {}
    for r in product((0, 1), repeat=x.dim):
        pairs = stencil(mask, r)
        if len(pairs) == 2 and pairs[1][1] > pairs[0][1]:
            pairs = pairs[::-1]
        holds, offsets = groups.setdefault(tuple(w for _, w in pairs), (
            np.zeros((2,) * x.dim, bool), np.zeros((2,) * x.dim + (len(pairs), x.dim), np.int64)))
        holds[r] = True  # |j| > 2^62 reads what 2^62 reads: clipped, m + j fits int64
        offsets[r] = [[min(max(jk, -2 ** 62), 2 ** 62) for jk in j] for j, _ in pairs]
    return [(np.array(w), holds, offsets) for w, (holds, offsets) in groups.items()]


def _refine(plan: list, x: GridData):
    """`subdivide` of each trial of the stacked grid x by a mask's `_plan`, one barycenter
    call per group for all trials, its rows in (trial, row-major node) order.  Returns the
    refined stack and the first failure ((trial, node), error) in that order, or None;
    rows of trials above a failing one are undefined."""
    lo, hi = refined_window(x.lo, x.hi)
    if max(map(abs, lo + hi)) >= 2 ** 63:
        raise DomainError(f"the level refined from the window {x.lo}..{x.hi} would span "
                          f"{lo}..{hi}, past the refined-corner bound |c| < 2^63 (int64)")
    data, solver = x.payloads, x.descriptor.backend
    core = data.shape[1 + x.dim:]
    shape = tuple(2 * n - 1 for n in data.shape[1:1 + x.dim])
    out = np.empty(data.shape[:1] + shape + core)
    first = None  # ((trial, output index), error) of the first failing node
    for weights, holds, offsets in plan:
        # the group's output nodes i = r + 2m in row-major order, as local positions
        at = np.nonzero(holds[np.ix_(*(np.arange(n) % 2 for n in shape))])
        js = offsets[tuple(a % 2 for a in at)]  # |m| < 2^62 by the bound above
        index = tuple(l + a[:, None] // 2 + js[..., k] for k, (l, a) in enumerate(zip(x.lo, at)))
        points = data[(slice(None),) + x.local(index)].reshape((-1, len(weights)) + core)
        if len(weights) == 1:
            values, failure = points[:, 0], None
        else:
            with np.errstate(all="ignore"):  # `_plan` has checked the weights
                values, failure = solver.barycenters(x.descriptor, points, weights)
        out[(slice(None),) + at] = values.reshape((len(data), len(at[0])) + core)
        if failure:
            # rows run trial by trial in row-major output order, so the
            # group's first failing row is its first failing node
            t, k = divmod(failure[0], len(at[0]))
            node = (t,) + tuple(l + int(a[k]) for l, a in zip(lo, at))
            if first is None or node < first[0]:
                first = (node, failure[1])
    return _refined(x, out), first


@dataclass(eq=False)
class IterateTrace:
    """Levels 0..n with interior boxes; the contraction series are computed on
    first read, from one distance sweep of all levels over the offsets of `gauge`
    (half-widths >= 1): the gauge sup is its max, d_inf that over |e|_inf <= 1."""

    mask: Mask
    levels: list
    interiors: list
    gauge: BoxGauge
    d_inf_series = property(lambda self: self._sups[0])
    gauge_series = property(lambda self: self._sups[1])

    @cached_property
    def _sups(self):
        sweeps = _pair_distances(self.levels, self.gauge, self.interiors)
        return [_max(d[:, near]) for d, near in sweeps], [_max(d) for d, _ in sweeps]


def _pair_distances(levels, gauge: BoxGauge, boxes):
    """Per level x and its box, d(x_i, x_{i+e}) over the pairs in the box with
    e > 0 and gauge(e) < 2 (i in row-major order, then e), one row per trial of
    stacked levels (one row for grids), and whether |e|_inf <= 1 for each; one
    distance call for all levels reads each x_i once (spd: one eigenframe)."""
    desc, dim = levels[0].descriptor, levels[0].dim
    if gauge.half_widths.size != dim:
        raise StructuralError("gauge and data dimension disagree")
    # one offset per symmetric pair; e > 0 also drops e = 0
    offsets = np.array([e for e in gauge_offsets(gauge) if e > (0,) * dim],
                       dtype=int).reshape(-1, dim)
    heads, ats, tails, nears, nodes = [], [], [], [], 0
    for x, (lo, hi) in zip(levels, boxes):
        i = box_array(lo, hi)
        j = i[:, None, :] + offsets
        inside = np.all((j >= lo) & (j <= hi), axis=-1)
        nears.append(np.broadcast_to(np.abs(offsets).max(axis=1) <= 1, inside.shape)[inside])
        ats.append(np.broadcast_to(nodes + np.arange(len(i))[:, None], inside.shape)[inside])
        nodes += len(i)
        data = x.payloads.reshape((-1,) + tuple(h - l + 1 for l, h in zip(x.lo, x.hi))
                                  + desc.payload_shape)
        heads.append(data[(slice(None),) + x.local(i.T)])
        tails.append(data[(slice(None),) + x.local(j[inside].T)])
    d = _apply(desc.backend.dist_at, np.concatenate(heads, axis=1), np.concatenate(ats),
               np.concatenate(tails, axis=1))
    return list(zip(np.split(d, np.cumsum([len(a) for a in ats])[:-1], axis=1), nears))


def contractivity_D(x: GridData, gauge: BoxGauge, box=None) -> float:
    """sup d(x_i, x_j) over pairs with gauge(i - j) < 2 inside the box."""
    return _max(_pair_distances([x], gauge, [box or x.window()])[0][0])


def d_inf(x: GridData, box=None) -> float:
    """Unit-gauge specialization: neighbors within sup-distance 1."""
    return contractivity_D(x, unit_gauge(x.dim), box)


def _max(dists) -> float:
    """sup of a stack of distances; 0.0 when empty."""
    return float(np.max(dists, initial=0.0))


def iterate(mask: Mask, x: GridData, n: int) -> IterateTrace:
    """n refinement steps with interior tracking, and the contraction series
    on demand; an n whose finest level would pass ITERATED_SUPPORT_CAP payload
    floats is refused."""
    levels, boxes = _iterate(mask, _stack([x]), n)
    levels = [x] + [_refined(lv, lv.payloads[0], lv.window()) for lv in levels[1:]]
    return IterateTrace(mask=mask, levels=levels, interiors=boxes, gauge=default_gauge(mask))


def _iterate(mask: Mask, x: GridData, n):
    """`iterate` of each trial of the stacked grid x, one `_refine` per level.
    Returns the stacked levels and the interior boxes, or raises the error that
    trial by trial runs raise first: after a failure in trial b the trials below
    b run on as they would alone, and the lowest failing trial's error is raised."""
    n = integer(n, "level count", 0)
    if _finest_floats(x, n) > ITERATED_SUPPORT_CAP:
        raise ResourceError(
            f"{n} levels of the window {x.lo}..{x.hi} exceed the cap of "
            f"{ITERATED_SUPPORT_CAP} payload floats on the finest level")
    plan = _plan(mask, x)  # checks the dimensions and the sum rule before any box arithmetic
    boxes = check_interior_depth(mask, x.lo, x.hi, n)
    levels, failure = [x], None
    for _ in range(n):
        out, first = _refine(plan, levels[-1])
        levels.append(out)
        if first:
            failure = first[1]
            levels = [_refined(lv, lv.payloads[:first[0][0]], lv.window()) for lv in levels]
    if failure:
        raise failure
    return levels, boxes


def _finest_floats(x: GridData, n) -> int:
    """Payload floats of one trial's level n >= 0, which spans 2^n (hi - lo) + 1
    nodes per axis; a shift by 64 already puts any axis of positive width past
    every cap, so a huge n costs nothing."""
    n = min(integer(n, "level count"), 64)
    return math.prod(((h - l) << n) + 1 for l, h in zip(x.lo, x.hi)) * \
        math.prod(x.descriptor.payload_shape)


@dataclass
class GammaEstimate:
    gamma_hat: float
    C_hat: float
    per_trial_gamma: list = field(default_factory=list)


def trial_grid(mask: Mask, space: SpaceDescriptor, rng) -> GridData:
    """Random data for one trial run of a mask: the cube 0..w with w the
    widest side of the support box plus 6, wide enough for a few levels."""
    mlo, mhi = mask.support_box()
    width = max(mh - ml for ml, mh in zip(mlo, mhi)) + 6
    return random_grid(space, (0,) * mask.dim, (width,) * mask.dim, rng)


def empirical_gamma(mask: Mask, space: SpaceDescriptor, trials: int, n_max: int,
                    seed: int) -> GammaEstimate:
    """Fits contraction rates of d_inf over random data; max over trials.
    The fit starts at level FIT_FIRST_LEVEL and needs two levels.  Trial t
    draws from default_rng([seed, t]), again on degenerate data or a solver
    failure, up to 3 draws, and keeps its last series that ran; the trials
    run one after another, each draw as one `_iterate` and one d_inf sweep."""
    seed, trials = integer(seed, "seed", 0), integer(trials, "trials", 1)
    if integer(n_max, "n_max") < FIT_FIRST_LEVEL + 1:
        raise DomainError(f"n_max must be >= {FIT_FIRST_LEVEL + 1}")
    gammas, c_hat = [], 0.0
    for t in range(trials):
        rng, d = np.random.default_rng([seed, t]), None
        for _ in range(3):
            try:
                levels, boxes = _iterate(mask, _stack([trial_grid(mask, space, rng)]), n_max)
            except SolverError:
                continue
            d = [_max(s) for s, _ in _pair_distances(levels, unit_gauge(mask.dim), boxes)]
            if d[0] > 1e-9:
                break
        if d is None:
            raise SolverError(f"trial {t} failed after 3 resamples")
        gammas.append(fit_gamma([(k, v) for k, v in enumerate(d) if k >= FIT_FIRST_LEVEL]))
        ref = max(gammas[-1], 1e-12)
        c_hat = max([c_hat] + [v / (ref ** k * d[0]) for k, v in enumerate(d) if k])
    return GammaEstimate(gamma_hat=max(gammas), C_hat=c_hat, per_trial_gamma=gammas)


# -- comparison scheme ----------------------------------------------------------

def bspline_comparison(x: GridData) -> GridData:
    """Tensor midpoint scheme: per axis, copy even nodes and insert geodesic
    midpoints at odd nodes.  Coincides with the degree-1 tensor-mask scheme on
    euclidean data and for dim 1 on every backend."""
    data = x.payloads
    last = data.ndim - len(x.descriptor.payload_shape)  # a stacked grid's trial axis comes first
    for axis in range(last - x.dim, last):
        lead = (slice(None),) * axis
        out = np.empty(data.shape[:axis] + (2 * data.shape[axis] - 1,) + data.shape[axis + 1:])
        out[lead + (slice(None, None, 2),)] = data
        out[lead + (slice(1, None, 2),)] = geodesic_points(
            x.descriptor, data[lead + (slice(None, -1),)], data[lead + (slice(1, None),)], 0.5)
        data = out
    return _refined(x, data)


@dataclass
class ConvergenceDiagnostic:
    cauchy_series: list
    verdict: str  # "converging" | "inconclusive"


def convergence_diagnostic(mask: Mask, x: GridData, n_max: int) -> ConvergenceDiagnostic:
    """Inter-level Cauchy test: compares the midpoint comparison scheme applied
    to level n against level n+1 on the shared interior.  A mask without a
    `convergence_level` diverges on some data, so its verdict is "inconclusive"."""
    return _diagnoses(mask, [x], n_max)[0]


def _diagnoses(mask: Mask, grids, n_max: int) -> list:
    """`convergence_diagnostic` of each of the grids, which share a window, in
    one stacked run; raises the error that trial by trial runs raise first."""
    if integer(n_max, "n_max") < 2:
        raise DomainError("n_max must be >= 2")
    size = max(1, STACK_FLOATS // _finest_floats(grids[0], n_max))
    if len(grids) > size:  # one stack after another, in trial order
        return [r for k in range(0, len(grids), size)
                for r in _diagnoses(mask, grids[k:k + size], n_max)]
    levels, boxes = _iterate(mask, _stack(grids), n_max)
    pairs = []  # per level n + 1, its interior nodes and the comparison's, for one sweep
    for n in range(n_max):
        comparison, level = bspline_comparison(levels[n]), levels[n + 1]
        nodes = (slice(None),) + level.local(box_array(*boxes[n + 1]).T)
        pairs.append((comparison.payloads[nodes], level.payloads[nodes]))
    d = distances(levels[0].descriptor, *(np.concatenate(side, axis=1) for side in zip(*pairs)))
    sups = [part.max(axis=1, initial=0.0)
            for part in np.split(d, np.cumsum([a.shape[1] for a, _ in pairs])[:-1], axis=1)]
    diverges = convergence_level(mask) is None
    reports = []
    for series in np.array(sups).T.tolist():
        floor = 1e-13 * (1.0 + max(series))
        start = len(series) // 2
        tail = [(start + k, max(v, floor)) for k, v in enumerate(series[start:])]
        converging = not diverges and (all(v <= floor for _, v in tail)
                                       or fit_gamma(tail) < 1.0 - CONVERGENCE_MARGIN)
        reports.append(ConvergenceDiagnostic(
            cauchy_series=series, verdict="converging" if converging else "inconclusive"))
    return reports


# -- approximation --------------------------------------------------------------

@dataclass
class ApproximationCheck:
    sup_err: float
    bound: float
    ok: bool
    h: float
    level: int


def approximation_error(mask: Mask, descriptor: SpaceDescriptor, f, lipschitz: float,
                        h: float, n: int) -> ApproximationCheck:
    """Compares n-level subdivision of samples x_i = f(h*i), i in the cube
    -4..4, against f on the level-n dyadic grid; bound = R * lipschitz * h
    with R the support radius of the mask, for finite h > 0 and lipschitz >= 0.
    f is a batched sampler on `descriptor` (see `geodesic_sampler`), called once
    on the coarse grid, whose payloads GridData checks, and once on the level-n interior."""
    return _approximations(mask, descriptor, f, lipschitz, (h,), n)[0]


def _approximations(mask: Mask, descriptor: SpaceDescriptor, f, lipschitz, hs, n) -> list:
    """`approximation_error` for each h of hs in one stacked run: f is called
    once on all the coarse grids and once on all the level-n interiors."""
    hs, lipschitz = [number(h, "h") for h in hs], number(lipschitz, "lipschitz")
    for h in hs:
        if not 0.0 < h < math.inf:
            raise DomainError(f"h must be finite and > 0, got {h}")
    if not 0.0 <= lipschitz < math.inf:
        raise DomainError(f"lipschitz must be finite and >= 0, got {lipschitz}")
    lo, hi = (-4,) * mask.dim, (4,) * mask.dim
    coarse = f(np.concatenate([h * box_array(lo, hi) for h in hs]))
    levels, boxes = _iterate(mask, _stack([_stacked_grid(descriptor, lo, hi, rows)
                                           for rows in np.split(coarse, len(hs))]), n)
    level, nodes = levels[n], box_array(*boxes[n])
    exact = f(np.concatenate([(h / 2 ** n) * nodes for h in hs]))
    errors = distances(descriptor, level.payloads[(slice(None),) + level.local(nodes.T)],
                       exact.reshape((len(hs), len(nodes)) + exact.shape[1:]))
    bounds = [support_radius(mask) * lipschitz * h for h in hs]
    return [ApproximationCheck(sup_err=e, bound=b, ok=e <= b + 1e-8, h=h, level=n)
            for e, b, h in zip(errors.max(axis=1, initial=0.0).tolist(), bounds, hs)]
