"""Characteristic Markov chain of a nonnegative mask.

The chain lives on the integer lattice: one step from state i lands on j
with probability a_{i-2j}, and n steps land on j with the iterated-mask
weight a^(n)_{i-2^n j}; the stationary vector read off the cascade is the
coset of a^(n) at residue 0.  A state is an exact Python-int anchor, run from
the start by c -> (c - lo) >> 1 (lo the low corner of the support box), plus
an offset cell in lo - hi .. 1, and one table per anchor parity, from
`masks._cells`, serves every step.  Rows, L^p curves and ball checks push the
law over the cells, one `bincount` a step, and past `ITERATED_SUPPORT_CAP`
slots read a^(n) off one ladder walk.  The sampler moves all trials as one
count per cell, split each step by one `multinomial` call over the occupied
cells from a generator keyed by the seed, so its cost does not grow with trials.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DomainError, NumericError, ResourceError, integer, lattice_point, number
from .grid import GridData
from .linear import RefinableSamples
from .masks import (ITERATED_SUPPORT_CAP, Mask, _cells, coset, default_gauge, gauge_value,
                    ladder, recenter, require_sum_rule, stencil)
from .spaces import barycenters, distances
from .subdivision import iterate

__all__ = [
    "KernelRow",
    "kernel_row",
    "simulate_chain",
    "StationaryReport",
    "stationary_from_refinable",
    "lp_moment",
    "lp_curve",
    "dispersion_gap",
    "BallConfinement",
    "ball_confinement",
    "nonassociativity_gap",
]

INTERPOLATORY_TOL = 1e-9
BALL_GAUGE_TOL = 1e-12


def _check_exponent(p) -> float:
    """p as a float; moment exponents are finite and >= 1, NaN and inf not."""
    p = number(p, "p")
    if not 1.0 <= p < math.inf:
        raise DomainError(f"p must be finite and >= 1, got {p}")
    return p


@dataclass(eq=False)
class KernelRow:
    """Exact n-step transition probabilities out of a single state."""

    start: tuple
    steps: int
    probs: dict  # j -> a^(n)_{start - 2^n j}


def _checked(mask: Mask, start, steps) -> tuple:
    """start and steps read, steps >= 0, once the mask keeps the sum rule (stochastic rows)."""
    start = lattice_point(start, mask.dim, "chain state")
    steps = integer(steps, "steps")
    if steps < 0:
        raise DomainError("steps must be >= 0")
    require_sum_rule(mask)
    return start, steps


def _rows(mask: Mask, tables, start, first: int, steps: int):
    """The rows out of start after first..steps steps, in `coset` order: one `bincount` a
    step pushes the law over the cells, or past the cap (tables None) one ladder is read."""
    if tables is None:
        levels = islice(enumerate(ladder(mask)), first, steps + 1)
        yield from (coset(level, n, start) for n, level in levels)
        return
    lo, offsets, cell, weights, moves = tables
    law = (np.arange(len(offsets)) == cell) * 1.0
    for n in range(steps + 1):
        if n >= first:
            keys = np.flatnonzero(law)[::-1]
            yield [(tuple(map(operator.add, start, d)), w)
                   for d, w in zip(offsets[keys].tolist(), law[keys].tolist())]
        if n < steps:
            cls, nxt = moves[tuple(c & 1 for c in start)]
            law = np.bincount(nxt.ravel(), (law[:, None] * weights[cls]).ravel(), len(law))
            start = tuple((c - l) >> 1 for c, l in zip(start, lo))


def kernel_row(mask: Mask, start, steps: int) -> KernelRow:
    """Marginal of the chain after `steps` steps from `start`.

    Rows are stochastic because the iterated mask inherits the sum rule on
    the residue classes mod 2^steps, and they compose: splitting `steps` as
    m + n and chaining the two rows reproduces the joint row exactly.
    """
    start, steps = _checked(mask, start, steps)
    return KernelRow(start, steps, dict(next(_rows(mask, _cells(mask), start, steps, steps))))


def simulate_chain(mask: Mask, start, steps: int, trials: int, seed) -> dict:
    """Empirical marginal of X_steps over `trials` independent trajectories.

    The trials move as one int64 count per cell (so trials < 2^63).  Each step
    is one `multinomial` call of `np.random.default_rng(seed)`, in which every
    occupied cell, in cell order (the row-major order of the states), splits
    its count c by multinomial(c, w / fsum(w)) over its class's bins, the law of
    c separate steps; the zero padding in front of a short class draws nothing.
    Returns a map from the final state to its frequency.
    """
    start, steps = _checked(mask, start, steps)
    trials, seed = integer(trials, "trials"), integer(seed, "seed", 0)
    if not 1 <= trials < 2 ** 63:
        raise DomainError(f"trials must be >= 1 and < 2^63 (int64 counts), got {trials}")
    if steps == 0:
        return {start: 1.0}
    if (tables := _cells(mask)) is None:
        raise ResourceError(f"Monte Carlo tables exceed cap {ITERATED_SUPPORT_CAP}")
    lo, offsets, cell, weights, moves = tables
    probs = weights / np.array([[math.fsum(w)] for w in weights.tolist()])
    rng = np.random.default_rng(seed)
    counts = (np.arange(len(offsets)) == cell) * trials
    for _ in range(steps):
        cls, nxt = moves[tuple(c & 1 for c in start)]
        occupied = np.flatnonzero(counts)
        split = rng.multinomial(counts[occupied], probs[cls[occupied]])
        counts = np.zeros_like(counts)
        np.add.at(counts, nxt[occupied], split)
        start = tuple((c - l) >> 1 for c, l in zip(start, lo))
    keys = np.flatnonzero(counts)
    return {tuple(map(operator.add, start, d)): k / trials
            for d, k in zip(offsets[keys].tolist(), counts[keys].tolist())}


@dataclass(eq=False)
class StationaryReport:
    """Stationary distribution candidate read off refinable samples."""

    pi: dict  # j -> pi_j
    interpolatory: tuple | None  # lattice point k with pi ~ delta_k, if any
    residual: float  # sup-norm defect of one exact kernel application


def stationary_from_refinable(samples: RefinableSamples) -> StationaryReport:
    """Builds pi_j = (level-n sample at integer -j) and checks stationarity.

    The residual applies the one-step kernel once: pi'_j = sum_i pi_i a_{i-2j},
    and reports sup_j |pi_j - pi'_j|.  This equals the gap between the
    integer samples at cascade levels n and n+1, so it vanishes only as fast
    as the cascade converges at the integers.
    """
    if samples.level < 1:
        raise DomainError("cascade level must be >= 1")
    require_sum_rule(samples.mask)
    pi = dict(coset(samples.values, samples.level, (0,) * samples.mask.dim))
    image = {}
    for i, wi in pi.items():
        for j, a in stencil(samples.mask, i):
            image[j] = image.get(j, 0.0) + wi * a
    residual = max(abs(pi.get(j, 0.0) - image.get(j, 0.0))
                   for j in set(pi) | set(image))

    interpolatory = None
    for j, w in pi.items():
        if w >= 1.0 - INTERPOLATORY_TOL:
            interpolatory = j
    return StationaryReport(pi=pi, interpolatory=interpolatory, residual=residual)


def lp_curve(mask: Mask, ell, steps: int, p: float, k) -> list:
    """[E_ell ||X_n - k||^p for n = 0..steps], exactly, from one pass of `_rows`."""
    p = _check_exponent(p)
    k = lattice_point(k, mask.dim, "moment centre")
    ell, steps = _checked(mask, ell, steps)
    return [_moment([(w, j, k) for j, w in row], p, n)
            for n, row in enumerate(_rows(mask, _cells(mask), ell, 0, steps))]


def _moment(terms, p: float, n: int) -> float:
    """sum of w ||j - k||^p over the (w, j, k) in terms, offsets taken in exact ints."""
    try:
        total = sum(w * math.hypot(*map(operator.sub, j, k)) ** p for w, j, k in terms)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise NumericError(f"the L^p moment at p = {p}, n = {n} overflows a float")
    return total


def lp_moment(mask: Mask, ell, steps: int, p: float, k) -> float:
    """E_ell ||X_steps - k||^p, exactly, with the Euclidean norm on Z^s."""
    return lp_curve(mask, ell, steps, p, k)[-1]


def dispersion_gap(mask: Mask, ell, steps: int, p: float) -> float:
    """E_ell ||X_{2n} - X_n||^p via two exact n-step hops (n = steps).

    Interpolatory masks drive this to 0 as n grows; masks whose stationary
    distribution charges two distinct states keep it bounded away from 0.
    """
    p = _check_exponent(p)
    ell, steps = _checked(mask, ell, steps)
    tables = _cells(mask)
    return _moment([(wj * wi, i, j) for j, wj in next(_rows(mask, tables, ell, steps, steps))
                    for i, wi in next(_rows(mask, tables, j, steps, steps))], p, steps)


@dataclass(eq=False)
class BallConfinement:
    confined: bool
    gauge_radius: float


def ball_confinement(mask: Mask, start, steps: int) -> BallConfinement:
    """Checks the trap property of the doubled gauge ball.

    The mask is recentred so its support sits inside the gauge body; when the
    start satisfies gauge(start) <= 2^steps, every reachable state after
    `steps` steps (and after the two following step counts, the "thereafter"
    clause) must have gauge value <= 2.  gauge_radius is the largest gauge
    value seen over the checked steps.
    """
    start, steps = _checked(mask, start, steps)
    centred, _ = recenter(mask)
    gauge = default_gauge(mask)
    radius = max(gauge_value(gauge, j) for row in _rows(centred, _cells(centred), start, steps,
                                                         steps + 2) for j, _ in row)
    return BallConfinement(confined=radius <= 2.0 + BALL_GAUGE_TOL, gauge_radius=radius)


def nonassociativity_gap(mask: Mask, x: GridData, index, steps: int) -> float:
    """Distance between nested and one-shot barycenters at one output node.

    Nested: the level-`steps` subdivision value at `index`.  One-shot: the
    barycenter of the original data under the n-step kernel weights.  The two
    use identical weights, so the gap is 0 on euclidean data; on curved
    backends conditioning does not associate and the gap can be positive.
    """
    index = lattice_point(index, mask.dim, "grid index")
    trace = iterate(mask, x, steps)
    lo, hi = trace.interiors[steps]
    if any(i < l or i > h for i, l, h in zip(index, lo, hi)):
        raise DomainError(f"index {index} is not interior at level {steps}")
    level = trace.levels[steps]

    probs = kernel_row(mask, index, steps).probs
    total = sum(probs.values())
    points = x.payloads[x.local(np.array(list(probs)).T)]
    one_shot, failure = barycenters(x.descriptor, points[None], [w / total for w in probs.values()])
    if failure:
        raise failure[1]
    return float(distances(x.descriptor, level.payloads[level.local(index)], one_shot[0]))
