"""Independent reference computations the tests compare against.

Everything here is written from the defining recursions with plain
numpy/stdlib primitives instead of calling back into the package's own
iteration or composition code, so a disagreement points at the
implementation rather than at a shared helper.  Reading single mask
coefficients (Mask.value) is treated as ground truth.  `linear_refine` is
the linear rule out_i = sum_j a_{i-2j} x_j that the barycentric scheme must
reproduce on euclidean data.  `pointwise_refine` and `pairwise_sup` are the
node-by-node loops that the batched refinement and contraction sups must
reproduce bit for bit.  `alpha_loop` is the residue-by-residue sweep
that the certificate's array sweep must reproduce bit for bit.
`karcher_gradient_norm` checks a barycenter by its stationarity, in 50-digit
mpmath, and `exact_tripod_barycenter` solves the tripod's in `Fraction`s.
`points_equal` compares two points payload by payload.
"""

import math
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np

from npcsubdiv import BarycenterProblem, distance, tripod_point, weighted_barycenter
from npcsubdiv.masks import coset, gauge_offsets


def hat(i, n):
    """Level-n sample of the piecewise linear hat: max(0, 1 - |i| / 2^n)."""
    return max(0.0, 1.0 - abs(i) / 2 ** n)


def dense_iterated(coeffs, offset, n):
    """Univariate a^(n) as {index: value} via dense numpy convolutions.

    a^(0) = delta and a^(k+1) = a * up2(a^(k)), with up2 inserting one zero
    between neighbors; offsets follow off_{k+1} = offset + 2*off_k.
    """
    base = np.asarray(coeffs, dtype=float)
    cur = np.array([1.0])
    cur_off = 0
    for _ in range(n):
        up = np.zeros(2 * (cur.size - 1) + 1)
        up[::2] = cur
        cur = np.convolve(base, up)
        cur_off = offset + 2 * cur_off
    return {cur_off + k: float(v) for k, v in enumerate(cur) if v != 0.0}


def dense_interlevel(coeffs, offset, n):
    """Cauchy residual between dense level n and n+1 iterates.

    sup_i |a^(n)_i - a^(n+1)_{2i}| plus the worst odd-node deviation of
    a^(n+1) from the average of the two flanking level-n values.
    """
    cur = dense_iterated(coeffs, offset, n)
    nxt = dense_iterated(coeffs, offset, n + 1)
    lo = min(min(cur), min(nxt) // 2) - 1
    hi = max(max(cur), max(nxt) // 2) + 1
    cauchy = max(abs(cur.get(i, 0.0) - nxt.get(2 * i, 0.0))
                 for i in range(lo, hi + 1))
    dev = max(abs(nxt.get(2 * i + 1, 0.0)
                  - 0.5 * (cur.get(i, 0.0) + cur.get(i + 1, 0.0)))
              for i in range(lo, hi + 1))
    return cauchy + dev


def one_step_row(mask, state):
    """{j: a_{state - 2j}} over all j with a positive coefficient."""
    lo, hi = mask.support_box()
    ranges = [range(-(-(v - h) // 2), (v - l) // 2 + 1)
              for v, l, h in zip(state, lo, hi)]
    out = {}
    for j in product(*ranges):
        w = mask.value(tuple(v - 2 * jj for v, jj in zip(state, j)))
        if w > 0.0:
            out[j] = w
    return out


def linear_refine(mask, x):
    """One linear refinement step of euclidean grid data x, as {i: vector}
    over the doubled window 2*lo..2*hi: out_i = sum_j a_{i-2j} x_j, with x_j
    read through x.get (the window's extension supplies j outside it)."""
    window = product(*(range(2 * l, 2 * h + 1) for l, h in zip(x.lo, x.hi)))
    return {i: sum(w * x.get(j).payload for j, w in one_step_row(mask, i).items())
            for i in window}


def pointwise_refine(mask, x):
    """One barycentric refinement step computed node by node, as {i: point}
    over the doubled window: out_i is the scalar weighted barycenter of the
    points x.get(j) under the weights of one_step_row(mask, i), in that
    row's order; a lone point is copied.  A failing node raises at once."""
    window = product(*(range(2 * l, 2 * h + 1) for l, h in zip(x.lo, x.hi)))
    out = {}
    for i in window:
        row = one_step_row(mask, i)
        points = [x.get(j) for j in row]
        if len(points) == 1:
            out[i] = points[0]
        else:
            problem = BarycenterProblem(points, np.array(list(row.values())))
            out[i] = weighted_barycenter(problem)
    return out


def pairwise_sup(x, gauge, box):
    """max(0, d(x_i, x_j)) over i in the box and j = i + e in the box, for
    the offsets e > 0 (lexicographically) with max_k |e_k| / c_k < 2."""
    c = [float(v) for v in gauge.half_widths]
    reach = [range(-math.ceil(2 * ck), math.ceil(2 * ck) + 1) for ck in c]
    offsets = [e for e in product(*reach)
               if e > (0,) * len(c) and max(abs(ek) / ck for ek, ck in zip(e, c)) < 2.0]
    lo, hi = box
    best = 0.0
    for i in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        for e in offsets:
            j = tuple(ik + ek for ik, ek in zip(i, e))
            if all(l <= jk <= h for jk, l, h in zip(j, lo, hi)):
                best = max(best, distance(x.get(i), x.get(j)))
    return best


def alpha_loop(samples, n, gauge):
    """min over residues u in [0, 2^n)^s and gauge offsets e of
    sum_i a[u - 2^n i] a[u + e - 2^n i], one level-n coset pair at a time;
    each sum runs over the nonzero a[u - 2^n i] in row-major order of i."""
    offsets = gauge_offsets(gauge)
    alpha = math.inf
    for u in product(range(2 ** n), repeat=samples.dim):
        base = coset(samples, n, u)[::-1]  # coset yields i backwards
        for off in offsets:
            row = dict(coset(samples, n, tuple(uk + ok for uk, ok in zip(u, off))))
            total = 0.0
            for i, w in base:
                total += w * row.get(i, 0.0)
            alpha = min(alpha, total)
    return alpha


def forward_row(mask, start, steps):
    """n-step marginal by repeated one-step distribution pushforward."""
    dist = {tuple(int(v) for v in start): 1.0}
    for _ in range(steps):
        nxt = {}
        for state, w in dist.items():
            for j, p in one_step_row(mask, state).items():
                nxt[j] = nxt.get(j, 0.0) + w * p
        dist = nxt
    return dist


def tv(p, q):
    """Total variation distance between two finitely supported measures."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def scan_tripod_barycenter(points, weights, steps=4096):
    """Frechet minimizer on the tripod by dense per-leg parameter scan, with
    the tripod metric written out: |t - s| on one leg, t + s across legs."""
    t_max = max(p.payload[1] for p in points) + 1.0
    best = None
    for leg in range(3):
        for t in np.linspace(0.0, t_max, steps + 1).tolist():
            f = sum(w * (abs(t - s) if pleg == leg else t + s) ** 2
                    for w, (pleg, s) in zip(weights, (p.payload for p in points)))
            if best is None or f < best[0]:
                best = (f, tripod_point(leg, t))
    return best


def exact_tripod_barycenter(rows, weights):
    """The Frechet minimizer of (leg, t) rows on the tripod, as (leg, s) in
    exact `Fraction`s of the float inputs.  On each leg the Frechet function
    is the quadratic sum_i w_i (s - c_i)^2, with c_i = t_i on that leg and
    -t_i off it; each is minimized over s >= 0 on its own, and the leg of
    least value wins (the glue point s = 0 counts as leg 0)."""
    w = [Fraction(x) for x in weights]
    best = None
    for leg in range(3):
        c = [Fraction(t) if on == leg else -Fraction(t) for on, t in rows]
        s = max(sum(a * b for a, b in zip(w, c)) / sum(w), Fraction(0))
        value = sum(a * (s - b) ** 2 for a, b in zip(w, c))
        if best is None or value < best[0]:
            best = (value, leg if s else 0, s)
    return best[1:]


def frechet_value(y, points, weights):
    return sum(w * distance(y, p) ** 2 for w, p in zip(weights, points))


def _hyperboloid_gradient(y, points, weights):
    def lift(p):  # the point over the spatial coordinates
        s = [mpmath.mpf(float(c)) for c in p[1:]]
        return [mpmath.sqrt(1 + sum(c * c for c in s))] + s

    def mink(a, b):
        return sum(x * z for x, z in zip(a[1:], b[1:])) - a[0] * b[0]

    def log(base, x):  # (log_base(x), d(base, x))
        alpha = -mink(base, x)
        if alpha <= 1:
            return [mpmath.mpf(0)] * len(base), mpmath.mpf(0)
        d = mpmath.acosh(alpha)
        return [d / mpmath.sinh(d) * (xc - alpha * bc) for xc, bc in zip(x, base)], d

    ys, xs = lift(y), [lift(p) for p in points]
    v = [mpmath.mpf(0)] * len(ys)
    for w, x in zip(weights, xs):
        v = [a + mpmath.mpf(float(w)) * b for a, b in zip(v, log(ys, x)[0])]
    diam = max(log(xs[i], xs[j])[1] for i in range(len(xs)) for j in range(i))
    return mpmath.sqrt(max(mink(v, v), 0)), diam


def _spd_gradient(y, points, weights):
    def lift(p):
        return mpmath.matrix([[mpmath.mpf(float(c)) for c in row] for row in p])

    def inverse_sqrt(m):
        lam, q = mpmath.eigsy(m)
        return q * mpmath.diag([1 / mpmath.sqrt(v) for v in lam]) * q.T

    def whitened_log(si, x):  # base^-1/2 log_base(x) base^-1/2, with si = base^-1/2
        lam, q = mpmath.eigsy(si * x * si)
        return q * mpmath.diag([mpmath.log(v) for v in lam]) * q.T

    xs = [lift(p) for p in points]
    si_y = inverse_sqrt(lift(y))
    v = mpmath.zeros(len(y))
    for w, x in zip(weights, xs):
        v += whitened_log(si_y, x) * mpmath.mpf(float(w))
    # d(a, b) = |logm(a^-1/2 b a^-1/2)|_F
    diam = max(mpmath.mnorm(whitened_log(inverse_sqrt(xs[i]), xs[j]), "f")
               for i in range(len(xs)) for j in range(i))
    return mpmath.mnorm(v, "f"), diam


def karcher_gradient_norm(kind, y, points, weights, digits=50):
    """(|sum_i w_i log_y(x_i)|, data diameter) at the payload y, in mpmath at
    `digits` digits from the defining formulas.  The Frechet function is
    1-strongly convex on a Hadamard space, so the norm bounds d(y, y*).

    hyperboloid: a payload stands for the point over its spatial coordinates
    s (time coordinate sqrt(1 + |s|^2)); cosh d(x, y) = -<x, y>_M,
    log_y(x) = d / sinh(d) * (x - cosh(d) y), normed by sqrt(<v, v>_M).
    spd: in the affine-invariant metric, log_y(x) = y^1/2 logm(y^-1/2 x y^-1/2) y^1/2
    has norm |logm(y^-1/2 x y^-1/2)|_F.
    """
    with mpmath.workdps(digits):
        norm, diam = {"hyperboloid": _hyperboloid_gradient, "spd": _spd_gradient}[kind](
            y, points, weights)
        return float(norm), float(diam)


def points_equal(p, q, tol=1e-9):
    """Same descriptor, and payloads within tol entry by entry; tripod points
    (leg, t) within tol along the tree."""
    if p.descriptor != q.descriptor:
        return False
    if p.descriptor.kind == "tripod":
        (leg_p, t_p), (leg_q, t_q) = p.payload, q.payload
        return (abs(t_p - t_q) if leg_p == leg_q else t_p + t_q) <= tol
    return bool(np.all(np.abs(p.payload - q.payload) <= tol))
