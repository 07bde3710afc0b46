"""Cascade iterates and contractivity certificates of a mask.

Cascading from a delta produces samples of the refinable limit function,
which are the iterated mask a^(n) itself; those samples feed the
contractivity certificate gamma_n = 1 - alpha_n + 2*eps_n + M^2*eps_n^2.
Integer translates of the samples are level-n cosets of a^(n)
(`masks.coset`), and the interlevel residual eps_n compares dense, padded
copies of a^(n) and a^(n+1) slice by slice; both walk one `masks.ladder`.
The linear rule out_i = sum_j a_{i-2j} x_j, to which the barycentric scheme
reduces on euclidean data, lives in `tests/oracles.py::linear_refine` as the
reference the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, pairwise, product

import numpy as np

from .errors import DomainError, ResourceError, StructuralError, integer
from .masks import ITERATED_SUPPORT_CAP, BoxGauge, Mask, coset_sums, default_gauge, \
    gauge_offsets, ladder, recenter, require_sum_rule


# -- cascade -------------------------------------------------------------------

@dataclass(eq=False)
class RefinableSamples:
    """Level-n samples of the refinable limit: values(i) approximates phi(i/2^n)."""

    mask: Mask
    level: int
    values: Mask  # the iterated mask, reused as a sparse array
    eps_n: float
    support: tuple

    def value(self, index) -> float:
        return self.values.value(index)


def _dense(mask: Mask, lo, shape) -> np.ndarray:
    """Zero-padded copy of the support of mask on the box lo + [0, shape)."""
    out = np.zeros(shape)
    mlo, mhi = mask.support_box()
    out[tuple(slice(l - b, h - b + 1) for l, h, b in zip(mlo, mhi, lo))] = \
        mask.coeffs[tuple(slice(l - o, h - o + 1)
                          for l, h, o in zip(mlo, mhi, mask.offset))]
    return out


def _interlevel_residual(cur: Mask, nxt: Mask) -> float:
    """Cauchy term sup_i |a^(n)_i - a^(n+1)_{2i}| plus the worst midpoint
    deviation of a^(n+1) at odd nodes against multilinear interpolation,
    over the box lo..hi of i (one node beyond both supports).  A box of more
    than ITERATED_SUPPORT_CAP nodes (a far-translated mask) is refused."""
    lo_c, hi_c = cur.support_box()
    lo_n, hi_n = nxt.support_box()
    lo = tuple(min(lc - 1, ln // 2 - 1) for lc, ln in zip(lo_c, lo_n))
    hi = tuple(max(hc + 1, hn // 2 + 1) for hc, hn in zip(hi_c, hi_n))
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    if math.prod(shape) > ITERATED_SUPPORT_CAP:
        raise ResourceError(f"interlevel residual box of {math.prod(shape)} nodes "
                            f"exceeds cap {ITERATED_SUPPORT_CAP}")
    coarse = _dense(cur, lo, tuple(n + 1 for n in shape))  # i + c reaches hi + 1
    fine = _dense(nxt, tuple(2 * l for l in lo), tuple(2 * n for n in shape))
    corners = list(product((0, 1), repeat=cur.dim))
    gaps = []  # corner e = 0 is the Cauchy term
    for e in corners:
        sub = [c for c in corners if all(ck <= ek for ck, ek in zip(c, e))]
        interp = sum(coarse[tuple(slice(ck, ck + n) for ck, n in zip(c, shape))]
                     for c in sub) / len(sub)
        gaps.append(float(np.abs(fine[tuple(slice(ek, None, 2) for ek in e)]
                                 - interp).max()))
    return gaps[0] + max(gaps[1:])


def cascade(mask: Mask, n: int) -> RefinableSamples:
    """Level-n cascade from the delta; exact dyadic arithmetic throughout.

    Runs for any nonnegative mask so that diagnostics (e.g. the partition of
    unity residual) can flag non-sum-rule masks rather than refuse them.
    """
    n = integer(n, "iteration level")
    if n < 0:
        raise StructuralError("iteration level must be >= 0")
    cur, nxt = islice(ladder(mask), n, n + 2)
    eps = _interlevel_residual(cur, nxt)
    return RefinableSamples(mask=mask, level=n, values=cur, eps_n=eps,
                            support=cur.support_box())


def partition_of_unity_residual(samples: RefinableSamples) -> float:
    """max over residues r of |sum_j values(r + 2^n j) - 1|."""
    return max(abs(s - 1.0) for s in coset_sums(samples.values, samples.level).values())


# -- contractivity certificate ---------------------------------------------------

@dataclass
class ContractivityCertificate:
    """gamma_n = 1 - alpha_n + 2 eps_n + M^2 eps_n^2 at the reported level."""

    alpha_n: float
    eps_n: float
    M: int
    gamma_n: float
    n0: int | None
    found: bool
    level: int
    gauge: BoxGauge


def _overlap_count(gauge: BoxGauge) -> int:
    """M = sup_t |Z^s cap (t + Omega)|, exactly.

    Per axis, the closed interval [t - c, t + c] holds at most floor(2c) + 1
    integers, and a shift t that puts an integer at its left end attains that
    count; the axes shift independently, so the counts multiply.
    """
    return math.prod(math.floor(2 * ck) + 1 for ck in gauge.half_widths)


def _alpha(samples: Mask, n: int, gauge: BoxGauge) -> float:
    """min of psi(s,t) = sum_i phi(t-i) phi(s-i) over near-diagonal dyadic pairs.

    Dyadic points at resolution 2^-n are sample indices; integer shifts of phi
    step by 2^n.  Shift invariance reduces the sweep to one period cell: the
    residues u in [0, 2^n)^s, each against u + e for the gauge offsets e.
    Every (u, e) sum adds a[u - 2^n i] a[u + e - 2^n i] over the steps i in
    row-major order, all pairs at once; steps off the support add exact zeros.
    """
    step = 2 ** n
    offsets = np.array(gauge_offsets(gauge))
    reach = np.abs(offsets).max(axis=0).tolist()
    lo, hi = samples.support_box()
    first = [-(h // step) for h in hi]  # the steps i that put u - 2^n i on
    last = [(step - 1 - l) // step for l in lo]  # the support for some u
    box_lo = [-step * t - r for t, r in zip(last, reach)]
    shape = [step * (t - f + 1) + 2 * r for f, t, r in zip(first, last, reach)]
    flat = _dense(samples, box_lo, shape).ravel()
    strides = [math.prod(shape[k + 1:]) for k in range(samples.dim)]
    residues = np.indices((step,) * samples.dim).reshape(samples.dim, -1).T
    base = (residues + reach) @ strides  # where u - 2^n last sits in flat
    pair = base[:, None] + offsets @ strides
    total = np.zeros(pair.shape)
    for i in product(*(range(f, t + 1) for f, t in zip(first, last))):
        shift = step * sum((t - ik) * st for t, ik, st in zip(last, i, strides))
        total += flat[base + shift][:, None] * flat[pair + shift]
    return float(total.min())


def contractivity_certificate(mask: Mask, level_cap: int) -> ContractivityCertificate:
    """Searches levels 1..level_cap for gamma_n < 1 on the recentred mask."""
    if integer(level_cap, "level cap") < 1:
        raise DomainError("level cap must be >= 1")
    require_sum_rule(mask)
    centered, _ = recenter(mask)
    gauge = default_gauge(centered)
    m_count = _overlap_count(gauge)
    levels = islice(pairwise(ladder(centered)), 1, level_cap + 1)
    for n, (cur, nxt) in enumerate(levels, 1):
        eps = _interlevel_residual(cur, nxt)
        alpha = _alpha(cur, n, gauge)
        gamma = 1.0 - alpha + 2.0 * eps + m_count ** 2 * eps * eps
        if gamma < 1.0:
            break
    found = gamma < 1.0
    return ContractivityCertificate(alpha_n=alpha, eps_n=eps, M=m_count,
                                    gamma_n=gamma, n0=n if found else None,
                                    found=found, level=n, gauge=gauge)


# -- rate fits -------------------------------------------------------------------

def fit_gamma(series):
    """exp(slope) of a least-squares line through log values; ignores zeros."""
    pts = [(n, math.log(v)) for n, v in series if v > 0.0]
    if len(pts) < 2:
        return 0.0
    ns = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = np.polyfit(ns, ys, 1)[0]
    return float(np.exp(slope))
