"""Barycentric subdivision of grid data in nonpositively curved spaces.

One refinement step replaces each output index i by the weighted Frechet mean
of its stencil {x_j : a_{i-2j} > 0}.  On euclidean data this reduces to the
linear rule; on the other backends it is the genuinely metric construction
whose contraction behaviour the diagnostics below measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DomainError, SolverError, StructuralError
from .grid import GridData, box_array, box_intersect, check_interior_depth, \
    grid_from_function, random_grid, refined_window
from .linear import contractivity_certificate, fit_gamma
from .masks import BoxGauge, Mask, default_gauge, gauge_offsets, require_sum_rule, \
    stencil, support_radius, unit_gauge
from .spaces import EUCLIDEAN, TRIPOD, SpaceDescriptor, barycenters, \
    distance, distances, exp_map, geodesic_points, log_map, random_point, \
    stack_payloads, tripod_point

__all__ = [
    "GridData", "IterateTrace", "subdivide", "iterate", "contractivity_D",
    "d_inf", "empirical_gamma", "GammaEstimate", "linear_convergence_test",
    "ConvergenceTestResult", "bspline_comparison",
    "convergence_diagnostic", "ConvergenceDiagnostic", "approximation_error",
    "ApproximationCheck", "geodesic_sampler", "trial_grid",
]

DIAGNOSTIC_MARGIN = 1e-3
FIT_FIRST_LEVEL = 2
CONVERGENCE_MARGIN = 1e-3


def subdivide(mask: Mask, x: GridData) -> GridData:
    """One barycentric refinement step onto the doubled window.

    Output i = r + 2m of parity class r is the barycenter of the inputs
    x_{m+j} under the weights a_{r-2j}, so each class is one batch of
    problems that share a stencil.  When nodes fail, the error of the first
    failing node in row-major order is raised, as a node-by-node loop would.
    """
    if x.dim != mask.dim:
        raise StructuralError("mask and data dimension disagree")
    require_sum_rule(mask)
    data = x.payloads
    core = data.shape[x.dim:]
    out = np.empty(tuple(2 * n - 1 for n in data.shape[:x.dim]) + core)
    first = None  # (output index, error) of the first failing node
    for r in product((0, 1), repeat=x.dim):
        pairs = stencil(mask, r)
        js = np.array([j for j, _ in pairs])
        # m runs over lo..hi - r on each axis; the stencil axis comes last
        ms = np.ix_(*(np.arange(l, h + 1 - rk) for l, h, rk in zip(x.lo, x.hi, r)))
        shape = tuple(m.size for m in ms)
        index = tuple(m[..., None] + js[:, a] for a, m in enumerate(ms))
        points = data[x.local(index)].reshape((-1, len(pairs)) + core)
        if len(pairs) == 1:
            values, failure = points[:, 0], None
        else:
            values, failure = barycenters(x.descriptor, points,
                                          np.array([w for _, w in pairs]))
        out[tuple(slice(rk, None, 2) for rk in r)] = values.reshape(shape + core)
        if failure:
            # rows run in row-major output order, so a class's first failing
            # row is its first failing node
            m = np.unravel_index(failure[0], shape)
            node = tuple(rk + 2 * (l + int(mk)) for rk, l, mk in zip(r, x.lo, m))
            if first is None or node < first[0]:
                first = (node, failure[1])
    if first:
        raise first[1]
    lo, hi = refined_window(x.lo, x.hi)
    return GridData(x.descriptor, lo, hi, out, x.extension)


@dataclass(eq=False)
class IterateTrace:
    """Levels 0..n with per-level interior boxes and contraction series."""

    mask: Mask
    levels: list
    interiors: list
    d_inf_series: list
    gauge_series: list
    gauge: BoxGauge


def contractivity_D(x: GridData, gauge: BoxGauge, box=None) -> float:
    """sup d(x_i, x_j) over pairs with gauge(i - j) < 2 inside the box."""
    if gauge.half_widths.size != x.dim:
        raise StructuralError("gauge and data dimension disagree")
    lo, hi = box if box is not None else x.window()
    # one offset per symmetric pair; e > 0 also drops e = 0
    offsets = np.array([e for e in gauge_offsets(gauge) if e > (0,) * x.dim],
                       dtype=int).reshape(-1, x.dim)
    i = box_array(lo, hi)
    j = i[:, None, :] + offsets
    inside = np.all((j >= lo) & (j <= hi), axis=-1)
    data = x.payloads
    return _sup(x.descriptor, data[x.local(np.broadcast_to(i[:, None, :], j.shape)[inside].T)],
                data[x.local(j[inside].T)])


def d_inf(x: GridData, box=None) -> float:
    """Unit-gauge specialization: neighbors within sup-distance 1."""
    return contractivity_D(x, unit_gauge(x.dim), box)


def _sup(descriptor: SpaceDescriptor, p, q) -> float:
    """sup of the distances between two stacks of payloads; 0.0 when empty."""
    return float(np.max(distances(descriptor, p, q), initial=0.0))


def iterate(mask: Mask, x: GridData, n: int) -> IterateTrace:
    """n refinement steps with interior tracking and contraction series."""
    if n < 0:
        raise DomainError(f"level count must be >= 0, got {n}")
    boxes = check_interior_depth(mask, x.lo, x.hi, n)
    gauge = default_gauge(mask)
    levels = [x]
    for _ in range(n):
        levels.append(subdivide(mask, levels[-1]))
    d_series = [contractivity_D(lv, unit_gauge(x.dim), b)
                for lv, b in zip(levels, boxes)]
    g_series = [contractivity_D(lv, gauge, b) for lv, b in zip(levels, boxes)]
    return IterateTrace(mask=mask, levels=levels, interiors=boxes,
                        d_inf_series=d_series, gauge_series=g_series, gauge=gauge)


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
    """Fits contraction rates of d_inf over random data; max over trials."""
    gammas = []
    c_hat = 0.0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        trace = None
        for _ in range(3):  # resample on degenerate data or solver failure
            data = trial_grid(mask, space, rng)
            try:
                trace = iterate(mask, data, n_max)
            except SolverError:
                continue
            if trace.d_inf_series[0] > 1e-9:
                break
        if trace is None:
            raise SolverError(f"trial {t} failed after 3 resamples")
        series = list(enumerate(trace.d_inf_series))
        gamma_t = fit_gamma([p for p in series if p[0] >= FIT_FIRST_LEVEL])
        gammas.append(gamma_t)
        ref = max(gamma_t, 1e-12)
        d0 = trace.d_inf_series[0]
        for nn, v in series[1:]:
            c_hat = max(c_hat, v / (ref ** nn * d0))
    return GammaEstimate(gamma_hat=max(gammas), C_hat=c_hat, per_trial_gamma=gammas)


@dataclass
class ConvergenceTestResult:
    converges: bool
    C: float
    gamma: float
    certificate_found: bool
    per_trial_gamma: list = field(default_factory=list)


def linear_convergence_test(mask: Mask, trials: int, n_max: int,
                            seed: int) -> ConvergenceTestResult:
    """empirical_gamma on random scalar data, next to the certificate search."""
    if n_max < FIT_FIRST_LEVEL + 1:
        raise DomainError(f"n_max must be >= {FIT_FIRST_LEVEL + 1}")
    require_sum_rule(mask)
    fit = empirical_gamma(mask, SpaceDescriptor(EUCLIDEAN, 1), trials, n_max, seed)
    cert = contractivity_certificate(mask, min(n_max, 8))
    return ConvergenceTestResult(
        converges=all(g < 1.0 - CONVERGENCE_MARGIN for g in fit.per_trial_gamma),
        C=fit.C_hat, gamma=fit.gamma_hat, certificate_found=cert.found,
        per_trial_gamma=fit.per_trial_gamma)


# -- comparison scheme ----------------------------------------------------------

def bspline_comparison(x: GridData) -> GridData:
    """Tensor midpoint scheme: per axis, copy even nodes and insert geodesic
    midpoints at odd nodes.  Coincides with the degree-1 tensor-mask scheme on
    euclidean data and for dim 1 on every backend."""
    data = x.payloads
    for axis in range(x.dim):
        def along(sl):
            return data[(slice(None),) * axis + (sl,)]

        shape = list(data.shape)
        shape[axis] = 2 * shape[axis] - 1
        out = np.empty(shape)
        out[(slice(None),) * axis + (slice(None, None, 2),)] = data
        out[(slice(None),) * axis + (slice(1, None, 2),)] = geodesic_points(
            x.descriptor, along(slice(None, -1)), along(slice(1, None)), 0.5)
        data = out
    lo, hi = refined_window(x.lo, x.hi)
    return GridData(x.descriptor, lo, hi, data, x.extension)


@dataclass
class ConvergenceDiagnostic:
    cauchy_series: list
    verdict: str  # "converging" | "inconclusive"


def convergence_diagnostic(mask: Mask, x: GridData, n_max: int) -> ConvergenceDiagnostic:
    """Inter-level Cauchy test: compares the midpoint comparison scheme applied
    to level n against level n+1 on the shared interior."""
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    trace = iterate(mask, x, n_max)
    series = []
    for n in range(n_max):
        comparison = bspline_comparison(trace.levels[n])
        shared = box_intersect(refined_window(*trace.interiors[n]),
                               trace.interiors[n + 1])
        level = trace.levels[n + 1]
        nodes = box_array(*shared).T
        series.append(_sup(x.descriptor, comparison.payloads[comparison.local(nodes)],
                           level.payloads[level.local(nodes)]))
    scale = max(series) if series else 0.0
    floor = 1e-13 * (1.0 + scale)
    tail = series[len(series) // 2:]
    if all(v <= floor for v in tail):
        verdict = "converging"
    else:
        start = len(series) // 2
        ratio = fit_gamma([(start + k, max(v, floor)) for k, v in enumerate(tail)])
        verdict = "converging" if ratio < 1.0 - DIAGNOSTIC_MARGIN else "inconclusive"
    return ConvergenceDiagnostic(cauchy_series=series, verdict=verdict)


# -- approximation --------------------------------------------------------------

@dataclass
class ApproximationCheck:
    sup_err: float
    bound: float
    ok: bool
    h: float
    level: int


def geodesic_sampler(descriptor: SpaceDescriptor, seed: int = 0):
    """Unit-speed geodesic t -> gamma(t), so Lipschitz constant exactly 1.

    The direction runs toward a random second point; on the tripod the line
    runs through the glue point along legs 1 and 2.
    """
    if descriptor.kind == TRIPOD:
        return lambda t: tripod_point(1 if t[0] >= 0 else 2, abs(float(t[0])))
    rng = np.random.default_rng(seed)
    base = random_point(descriptor, rng)
    speed = 0.0
    while speed < 1e-9:  # resample the second point if the two coincide
        other = random_point(descriptor, rng)
        speed = distance(base, other)  # the length of log_base(other)
    unit = log_map(base, other) / speed

    def f(t):
        return exp_map(base, float(t[0]) * unit)

    return f


def approximation_error(mask: Mask, f, lipschitz: float, h: float,
                        n: int) -> ApproximationCheck:
    """Compares n-level subdivision of samples x_i = f(h*i), i in the cube
    -4..4, against f on the level-n dyadic grid; bound = R * lipschitz * h
    with R the support radius of the mask."""
    if h <= 0.0:
        raise DomainError("h must be positive")
    lo, hi = (-4,) * mask.dim, (4,) * mask.dim
    sample0 = f(tuple(h * i for i in lo))
    data = grid_from_function(sample0.descriptor, lo, hi,
                              lambda idx: f(tuple(h * i for i in idx)))
    trace = iterate(mask, data, n)
    scale = h / 2 ** n
    level = trace.levels[n]
    nodes = box_array(*trace.interiors[n])
    targets = [f(tuple(scale * ik for ik in i)) for i in nodes.tolist()]
    sup_err = _sup(level.descriptor, level.payloads[level.local(nodes.T)],
                   stack_payloads(targets, level.descriptor))
    bound = support_radius(mask) * lipschitz * h
    return ApproximationCheck(sup_err=sup_err, bound=bound,
                              ok=sup_err <= bound + 1e-8, h=h, level=n)
