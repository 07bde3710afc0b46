"""Independent reference computations the tests compare against.

Everything here is written from the defining recursions with plain
numpy/stdlib primitives instead of calling back into the package's own
iteration or composition code, so a disagreement points at the
implementation rather than at a shared helper.  Reading single mask
coefficients (Mask.value) is treated as ground truth.  `linear_refine` is
the linear rule out_i = sum_j a_{i-2j} x_j that the barycentric scheme must
reproduce on euclidean data.  `pointwise_refine` and `pairwise_sup` are the
node-by-node loops that the batched refinement and contraction sups must
reproduce bit for bit, and `pointwise_failures` lists the nodes that fail
node by node.  `alpha_loop` is the residue-by-residue sweep
that the certificate's array sweep must reproduce bit for bit.
`frechet_value` and `tripod_distance` write the tripod metric out.
`karcher_gradient_norm` checks a barycenter by its stationarity, in 50-digit
mpmath, against a tolerance that `data_diameter` scales, `frechet_hessian` differentiates the Frechet function twice along
geodesics, in mpmath, for the Newton step, and `exact_tripod_barycenter`
solves the tripod's barycenter in `Fraction`s.
`points_equal` compares two points payload by payload.  `hyperboloid_log` is
the hyperboloid log map in 50-digit mpmath, and `partition_of_unity_loop` the
residue-by-residue sum of a cascade's level-n cosets, and `fraction_row` the
n-step chain row as an exact sum over paths in `Fraction`s.  `overlap_level_loop`
finds the first level whose chain rows overlap, residue by residue, from the
supports of `dense_iterated`, and `offset_level_search` walks the pairs of
row supports as lattice offsets from the digit-shifted start, for the exact
convergence decision on the chain's cells to match.
`splitting_chain` runs the Monte Carlo chain as counts per state, one scalar
multinomial draw per state, for the sampler to match on the same stream.
`diagnose_loop` and `approx_loop` run the stacked callers trial by trial on
public `iterate`, node by node, for the stacked runs to match bit for bit,
errors included; `empirical_gamma_loop` runs the draws of `empirical_gamma`
on public `iterate`, for its one-trial runs to match likewise.
"""

import math
from fractions import Fraction
from functools import cache
from itertools import product

import mpmath
import numpy as np

from npcsubdiv import (BarycenterProblem, DomainError, GridData, NumericError, SolverError,
                       bspline_comparison, distance, fit_gamma, iterate, tripod_point,
                       weighted_barycenter)
from npcsubdiv.masks import (convergence_level, coset, default_gauge, gauge_offsets, recenter,
                             require_sum_rule, stencil)
from npcsubdiv.spaces import distances
from npcsubdiv.subdivision import trial_grid


def hat(i, n):
    """Level-n sample of the piecewise linear hat: max(0, 1 - |i| / 2^n)."""
    return max(0.0, 1.0 - abs(i) / 2 ** n)


def dense_iterated(coeffs, offset, n):
    """a^(n) as {index: value} via dense convolutions, in any dimension.

    a^(0) = delta and a^(k+1) = a * up2(a^(k)), with up2 inserting one zero
    between neighbors along every axis; offsets follow off_{k+1} = offset +
    2*off_k.  The convolution adds a_l times the shifted up2(a^(k)) tap by tap
    over every l in row-major order, so each float sum runs in the order of
    the definition.  A univariate mask (a scalar offset) gives int keys, an
    s-variate one (an offset tuple) gives index tuples.
    """
    base = np.asarray(coeffs, dtype=float)
    univariate = np.ndim(offset) == 0
    offset = (offset,) if univariate else tuple(offset)
    cur = np.ones((1,) * base.ndim)
    cur_off = (0,) * base.ndim
    for _ in range(n):
        up = np.zeros(tuple(2 * k - 1 for k in cur.shape))
        up[(slice(None, None, 2),) * base.ndim] = cur
        cur = np.zeros(tuple(a + u - 1 for a, u in zip(base.shape, up.shape)))
        for l in np.ndindex(base.shape):
            cur[tuple(slice(k, k + u) for k, u in zip(l, up.shape))] += base[l] * up
        cur_off = tuple(o + 2 * c for o, c in zip(offset, cur_off))
    out = {}
    for local in np.ndindex(cur.shape):
        if cur[local] != 0.0:
            index = tuple(o + k for o, k in zip(cur_off, local))
            out[index[0] if univariate else index] = float(cur[local])
    return out


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


def splitting_chain(mask, start, steps, trials, seed):
    """End-state frequencies of `trials` walks from start, moved as one count
    per state on the sampler's documented stream: one generator keyed by the
    seed; at each step each occupied state, in sorted order, splits its count
    by one scalar multinomial(count, w / fsum(w)) over its one-step row w."""
    rng = np.random.default_rng(seed)
    counts = {tuple(start): trials}
    for _ in range(steps):
        moved = {}
        for i in sorted(counts):
            row = one_step_row(mask, i)
            total = math.fsum(row.values())
            shares = rng.multinomial(counts[i], [w / total for w in row.values()])
            for j, c in zip(row, shares.tolist()):
                moved[j] = moved.get(j, 0) + c
        counts = {j: c for j, c in moved.items() if c}
    assert sum(counts.values()) == trials
    return {j: c / trials for j, c in counts.items()}


def linear_refine(mask, x):
    """One linear refinement step of euclidean grid data x, as {i: vector}
    over the doubled window 2*lo..2*hi: out_i = sum_j a_{i-2j} x_j, with x_j
    read through x.get (the nearest stored node stands for j outside it)."""
    window = product(*(range(2 * l, 2 * h + 1) for l, h in zip(x.lo, x.hi)))
    return {i: sum(w * x.get(j).payload for j, w in one_step_row(mask, i).items())
            for i in window}


def pointwise_refine(mask, x):
    """One barycentric refinement step computed node by node, as {i: point}
    over the doubled window: out_i is the scalar weighted barycenter of the
    points x.get(j) under the weights of one_step_row(mask, i), in that
    row's order; a lone point is copied.  A failing node raises at once."""
    window = product(*(range(2 * l, 2 * h + 1) for l, h in zip(x.lo, x.hi)))
    return {i: _pointwise_node(mask, x, i) for i in window}


def _pointwise_node(mask, x, i):
    row = one_step_row(mask, i)
    points = [x.get(j) for j in row]
    if len(points) == 1:
        return points[0]
    return weighted_barycenter(BarycenterProblem(points, np.array(list(row.values()))))


def pointwise_failures(mask, x):
    """{i: error} over the output nodes of `pointwise_refine` whose barycenter
    fails, each node computed on its own, in row-major order."""
    failures = {}
    for i in product(*(range(2 * l, 2 * h + 1) for l, h in zip(x.lo, x.hi))):
        try:
            _pointwise_node(mask, x, i)
        except (DomainError, NumericError, SolverError) as exc:
            failures[i] = exc
    return failures


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
    step = 2 ** n  # the coset of c + step q is c's, its keys i shifted by q
    cosets = {u: coset(samples, n, u) for u in product(range(step), repeat=samples.dim)}
    for u, pairs in cosets.items():
        base = pairs[::-1]  # coset yields i backwards
        for off in offsets:
            v = [uk + ok for uk, ok in zip(u, off)]
            q = [vk // step for vk in v]
            row = {tuple(ik + qk for ik, qk in zip(i, q)): w
                   for i, w in cosets[tuple(vk % step for vk in v)]}
            total = 0.0
            for i, w in base:
                total += w * row.get(i, 0.0)
            alpha = min(alpha, total)
    return alpha


def overlap_level_loop(mask, n_max):
    """First level n <= n_max at which, for every residue u in [0, 2^n)^s and
    every gauge offset e of the recentred mask, the level-n rows
    {i : a^(n)_{u - 2^n i} > 0} at u and at u + e share an index i; None when
    no n <= n_max does.  The recentring shift -floor((lo + hi) / 2), the
    half-widths c_k = max(|lo_k|, |hi_k|, 1) and the offsets |e_k| < 2 c_k are
    written out; a row is read off the support of `dense_iterated`, which
    lies in (2^n - 1) [lo, hi] after the shift, one candidate i at a time."""
    lo, hi = mask.support_box()
    shift = [-((l + h) // 2) for l, h in zip(lo, hi)]
    half = [max(abs(l + t), abs(h + t), 1) for l, h, t in zip(lo, hi, shift)]
    offsets = list(product(*(range(1 - 2 * c, 2 * c) for c in half)))
    offset = tuple(o + t for o, t in zip(mask.offset, shift))
    for n in range(1, n_max + 1):
        step = 2 ** n
        support = set(dense_iterated(mask.coeffs, offset, n))
        box = [((step - 1) * (l + t), (step - 1) * (h + t)) for l, h, t in zip(lo, hi, shift)]

        @cache
        def row(u):
            return {i for i in product(*(range(-((b - uk) // step), (uk - a) // step + 1)
                                         for uk, (a, b) in zip(u, box)))
                    if tuple(uk - step * ik for uk, ik in zip(u, i)) in support}

        if all(row(u) & row(tuple(uk + ek for uk, ek in zip(u, e)))
               for u in product(range(step), repeat=mask.dim) for e in offsets):
            return n
    return None


def offset_level_search(mask):
    """The convergence level by a depth-first walk over the pairs (G, H) of
    offsets, relative to sigma^k(u), that the k-step rows from u and from
    u + e reach, from ({0}, {e}) for the gauge offsets e > 0 of the recentred
    mask.  Under the digit v of u an offset g moves to x // 2 + j for
    x = v + g and j in the stencil of the parity of x, offsets as tuples of
    ints with no cell table; a pair whose sets meet is dropped.  A cycle
    gives None, else the level is 1 + the longest unmet run."""
    require_sum_rule(mask)
    centered, _ = recenter(mask)
    zero = (0,) * mask.dim
    steps = {r: [j for j, _ in stencil(centered, r)] for r in product((0, 1), repeat=mask.dim)}

    @cache
    def moves(g, v):
        x = tuple(vk + gk for vk, gk in zip(v, g))
        return frozenset(tuple(xk // 2 + jk for xk, jk in zip(x, j))
                         for j in steps[tuple(xk % 2 for xk in x)])

    @cache
    def children(state):
        pairs = [[frozenset().union(*(moves(g, v) for g in gs)) for gs in state] for v in steps]
        return [(G, H) for G, H in pairs if G.isdisjoint(H)]

    starts = [(frozenset({zero}), frozenset({e}))
              for e in gauge_offsets(default_gauge(centered)) if e > zero]
    known = {}
    for start in starts:
        path, known[start] = [(start, iter(children(start)))], None
        while path:
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


def partition_of_unity_loop(samples):
    """max over residues r in [0, 2^n)^s of |sum_j values(r + 2^n j) - 1|, one
    level-n `coset` list per residue, summed in its order."""
    n = samples.level
    return max(abs(sum(w for _, w in coset(samples.values, n, r)) - 1.0)
               for r in product(range(2 ** n), repeat=samples.values.dim))


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


def fraction_row(mask, start, steps):
    """n-step law as {j: Fraction}: every path's weight summed exactly, one
    step at a time over the nonzero a_l with l = i (mod 2), j = (i - l) / 2."""
    items = [(l, Fraction(w)) for l, w in mask.nonzero_items()]
    law = {tuple(start): Fraction(1)}
    for _ in range(steps):
        nxt = {}
        for i, w in law.items():
            for l, a in items:
                if all((ik - lk) % 2 == 0 for ik, lk in zip(i, l)):
                    j = tuple((ik - lk) // 2 for ik, lk in zip(i, l))
                    nxt[j] = nxt.get(j, 0) + w * a
        law = nxt
    return law


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


def tripod_distance(p, q):
    """The tripod metric written out: |t - s| on one leg, t + s across legs."""
    (leg_p, t), (leg_q, s) = p.payload, q.payload
    return abs(t - s) if leg_p == leg_q else t + s


def frechet_value(y, points, weights):
    """sum_i w_i d(y, x_i)^2 on the tripod, with `tripod_distance`."""
    return sum(w * tripod_distance(y, p) ** 2 for w, p in zip(weights, points))


def _hyp_lift(p):  # the hyperboloid point over the spatial coordinates of p
    s = [mpmath.mpf(float(c)) for c in p[1:]]
    return [mpmath.sqrt(1 + sum(c * c for c in s))] + s


def _mink(a, b):
    return sum(x * z for x, z in zip(a[1:], b[1:])) - a[0] * b[0]


def _hyp_log(base, x):  # (log_base(x), d(base, x))
    alpha = -_mink(base, x)
    if alpha <= 1:
        return [mpmath.mpf(0)] * len(base), mpmath.mpf(0)
    d = mpmath.acosh(alpha)
    return [d / mpmath.sinh(d) * (xc - alpha * bc) for xc, bc in zip(x, base)], d


def hyperboloid_log(base, x, digits=50):
    """log_base(x) of two hyperboloid payloads, read over their spatial
    coordinates, in mpmath at `digits` digits from the acosh definition."""
    with mpmath.workdps(digits):
        return np.array([float(c) for c in _hyp_log(_hyp_lift(base), _hyp_lift(x))[0]])


def _hyperboloid_gradient(y, points, weights):
    ys = _hyp_lift(y)
    v = [mpmath.mpf(0)] * len(ys)
    for w, p in zip(weights, points):
        v = [a + mpmath.mpf(float(w)) * b for a, b in zip(v, _hyp_log(ys, _hyp_lift(p))[0])]
    return mpmath.sqrt(max(_mink(v, v), 0))


def _hyperboloid_diameter(points):
    xs = [_hyp_lift(p) for p in points]
    return max(_hyp_log(xs[i], xs[j])[1] for i in range(len(xs)) for j in range(i))


def _spd_lift(p):
    return mpmath.matrix([[mpmath.mpf(float(c)) for c in row] for row in p])


def _spd_power(m, f):  # f applied to the eigenvalues of the symmetric m
    lam, q = mpmath.eigsy(m)
    return q * mpmath.diag([f(v) for v in lam]) * q.T


def _spd_inverse_sqrt(m):
    return _spd_power(m, lambda v: 1 / mpmath.sqrt(v))


def _spd_gradient(y, points, weights):
    si_y = _spd_inverse_sqrt(_spd_lift(y))
    v = mpmath.zeros(len(y))
    for w, p in zip(weights, points):
        x = _spd_lift(p)  # base^-1/2 log_base(x) base^-1/2, with si = base^-1/2
        v += _spd_power(si_y * x * si_y, mpmath.log) * mpmath.mpf(float(w))
    return mpmath.mnorm(v, "f")


def _spd_diameter(points):
    def log_norm(si, x):  # d(a, b) = |logm(a^-1/2 b a^-1/2)|_F, from eigenvalues alone
        lam = mpmath.eigsy(si * x * si, eigvals_only=True)
        return mpmath.sqrt(sum(mpmath.log(v) ** 2 for v in lam))

    xs = [_spd_lift(p) for p in points]
    si_xs = [_spd_inverse_sqrt(x) for x in xs]
    return max(log_norm(si_xs[i], xs[j]) for i in range(len(xs)) for j in range(i))


def _hyperboloid_chart(y, points):
    """(walk, value, log) at the payload y: walk(c, t) is exp_y(t c) for
    coordinates c in a Minkowski-orthonormal basis of the tangent space at
    y (Gram-Schmidt on the projected spatial axes), value(z) is the list of
    d(z, x_i)^2 with cosh d = -<z, x>_M, and log(z) the coordinates of
    log_y(z)."""
    ys, xs = _hyp_lift(y), [_hyp_lift(p) for p in points]
    basis = []
    for j in range(1, len(ys)):
        t = [mpmath.mpf(int(i == j)) for i in range(len(ys))]
        t = [a + _mink(t, ys) * b for a, b in zip(t, ys)]  # onto <y, .>_M = 0
        for e in basis:
            t = [a - _mink(t, e) * b for a, b in zip(t, e)]
        basis.append([a / mpmath.sqrt(_mink(t, t)) for a in t])

    def walk(c, t):
        v = [sum(ci * e[i] for ci, e in zip(c, basis)) for i in range(len(ys))]
        r = mpmath.sqrt(sum(ci * ci for ci in c))
        return [mpmath.cosh(r * t) * a + mpmath.sinh(r * t) / r * b for a, b in zip(ys, v)]

    def value(z):
        return [mpmath.acosh(-_mink(z, x)) ** 2 if -_mink(z, x) > 1 else mpmath.mpf(0)
                for x in xs]

    return walk, value, lambda z: [_mink(_hyp_log(ys, _hyp_lift(z))[0], e) for e in basis]


def _spd_chart(y, points):
    """(walk, value, log) as in `_hyperboloid_chart`, in the frame whitened by
    y, where y is the identity, the metric is Frobenius and exp_y(S) is
    expm(S); the basis is E_ii and (E_ij + E_ji) / sqrt 2, i < j, and
    d(z, x)^2 is the sum of the squared logs of the eigenvalues of
    z^-1/2 x z^-1/2."""
    n = len(y)
    si = _spd_power(_spd_lift(y), lambda v: 1 / mpmath.sqrt(v))
    xs = [si * _spd_lift(p) * si for p in points]
    basis = []
    for i in range(n):
        for j in range(i, n):
            e = mpmath.zeros(n)
            e[i, j] = e[j, i] = 1 if i == j else 1 / mpmath.sqrt(2)
            basis.append(e)

    def walk(c, t):  # returns exp(-t S / 2), the whitening of exp_y(t S)
        return _spd_power(sum((ci * e for ci, e in zip(c, basis)), mpmath.zeros(n)),
                          lambda v: mpmath.exp(-t * v / 2))

    def value(half):
        return [sum(mpmath.log(v) ** 2 for v in mpmath.eigsy(half * x * half)[0]) for x in xs]

    def log(z):
        s = _spd_power(si * _spd_lift(z) * si, mpmath.log)
        return [sum(s[i, j] * e[i, j] for i in range(n) for j in range(n)) for e in basis]

    return walk, value, log


def frechet_hessian(kind, y, points, weights, digits=50, h=1e-15):
    """(H, g, log) of f = 1/2 sum_i w_i d(., x_i)^2 at the payload y, in an
    orthonormal basis of the tangent space at y, from the definition: with
    D(c) = (f(exp_y(h c)) - 2 f(y) + f(exp_y(-h c))) / h^2, the second
    derivative of f along the geodesic with initial velocity c,
    H_pp = D(e_p) and H_pq = (D(e_p + e_q) - D(e_p) - D(e_q)) / 2, and
    g_p = (f(exp_y(h e_p)) - f(exp_y(-h e_p))) / 2h.  log(z) gives the
    coordinates of log_y(z).  Everything is mpmath at `digits` digits, with
    distances from their defining formulas (see `karcher_gradient_norm`);
    the differences are exact up to O(h^2) and 10^-digits / h^2."""
    with mpmath.workdps(digits):
        walk, value, log = {"hyperboloid": _hyperboloid_chart, "spd": _spd_chart}[kind](
            y, points)
        w = [mpmath.mpf(float(a)) for a in weights]
        h = mpmath.mpf(h)

        def f(c, t):
            return sum(a * b for a, b in zip(w, value(walk(c, t)))) / 2

        m = len(y) - 1 if kind == "hyperboloid" else len(y) * (len(y) + 1) // 2
        unit = [[int(i == p) for i in range(m)] for p in range(m)]
        f0 = f(unit[0], 0)
        ends = [(f(e, h), f(e, -h)) for e in unit]
        hess = [[(a - 2 * f0 + b) / h ** 2 if p == q else None for q in range(m)]
                for p, (a, b) in enumerate(ends)]
        for p in range(m):
            for q in range(p + 1, m):
                c = [a + b for a, b in zip(unit[p], unit[q])]
                both = (f(c, h) - 2 * f0 + f(c, -h)) / h ** 2
                hess[p][q] = hess[q][p] = (both - hess[p][p] - hess[q][q]) / 2
        grad = [(a - b) / (2 * h) for a, b in ends]

        def coords(z):
            with mpmath.workdps(digits):
                return [float(c) for c in log(z)]

        return [[float(c) for c in row] for row in hess], [float(c) for c in grad], coords


def karcher_gradient_norm(kind, y, points, weights, digits=50):
    """|sum_i w_i log_y(x_i)| at the payload y, in mpmath at `digits` digits
    from the defining formulas.  The Frechet function is 1-strongly convex on
    a Hadamard space, so the norm bounds d(y, y*).

    hyperboloid: a payload stands for the point over its spatial coordinates
    s (time coordinate sqrt(1 + |s|^2)); cosh d(x, y) = -<x, y>_M,
    log_y(x) = d / sinh(d) * (x - cosh(d) y), normed by sqrt(<v, v>_M).
    spd: in the affine-invariant metric, log_y(x) = y^1/2 logm(y^-1/2 x y^-1/2) y^1/2
    has norm |logm(y^-1/2 x y^-1/2)|_F.
    """
    with mpmath.workdps(digits):
        return float({"hyperboloid": _hyperboloid_gradient, "spd": _spd_gradient}[kind](
            y, points, weights))


def data_diameter(kind, points, digits=50):
    """max d(x_i, x_j) over the payloads, in mpmath at `digits` digits from the
    formulas of `karcher_gradient_norm`."""
    with mpmath.workdps(digits):
        return float({"hyperboloid": _hyperboloid_diameter, "spd": _spd_diameter}[kind](points))


def points_equal(p, q, tol=1e-9):
    """Same descriptor, and payloads within tol entry by entry; tripod points
    (leg, t) within tol along the tree."""
    if p.descriptor != q.descriptor:
        return False
    if p.descriptor.kind == "tripod":
        return tripod_distance(p, q) <= tol
    return bool(np.all(np.abs(p.payload - q.payload) <= tol))


# -- the stacked callers, trial by trial -----------------------------------------

def _box(lo, hi):
    return np.array(list(product(*(range(l, h + 1) for l, h in zip(lo, hi))))).T


def diagnose_loop(mask, grids, n_max):
    """(Cauchy series, verdict) per grid, one `iterate` after another: the
    midpoint comparison of level n against level n + 1 on their shared
    interior, and a fit of the series' second half, never "converging" for a
    mask without a convergence level.  Raises what the first failing grid raises."""
    out = []
    for x in grids:
        trace = iterate(mask, x, n_max)
        series = []
        for n in range(n_max):
            comparison, level = bspline_comparison(trace.levels[n]), trace.levels[n + 1]
            (lo, hi), (lo1, hi1) = trace.interiors[n], trace.interiors[n + 1]
            nodes = level.local(_box([max(2 * a, b) for a, b in zip(lo, lo1)],
                                     [min(2 * a, b) for a, b in zip(hi, hi1)]))
            series.append(float(np.max(distances(x.descriptor, comparison.payloads[nodes],
                                                 level.payloads[nodes]), initial=0.0)))
        floor = 1e-13 * (1.0 + max(series))
        tail = [(k, max(v, floor)) for k, v in enumerate(series) if k >= n_max // 2]
        converging = convergence_level(mask) is not None and (
            all(v <= floor for _, v in tail) or fit_gamma(tail) < 1.0 - 1e-3)
        out.append((series, "converging" if converging else "inconclusive"))
    return out


def approx_loop(mask, desc, f, hs, n):
    """The sup error of n levels from the samples f(h i), i in the cube -4..4,
    against f on the level-n interior, for one h after another."""
    out = []
    for h in hs:
        window = (-4,) * mask.dim, (4,) * mask.dim
        coarse = f(h * _box(*window).T).reshape((9,) * mask.dim + desc.payload_shape)
        x = GridData(desc, *window, coarse)
        trace = iterate(mask, x, n)
        nodes = _box(*trace.interiors[n])
        level = trace.levels[n]
        exact = f((h / 2 ** n) * nodes.T)
        out.append(float(np.max(distances(desc, level.payloads[level.local(nodes)], exact),
                                initial=0.0)))
    return out


def empirical_gamma_loop(mask, space, trials, n_max, seed):
    """(per-trial gammas, C_hat) of `empirical_gamma`, one trial after another:
    up to 3 draws from default_rng([seed, t]), the next one after a SolverError
    or while d_inf at level 0 is at most 1e-9."""
    gammas, c_hat = [], 0.0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        trace = None
        for _ in range(3):
            data = trial_grid(mask, space, rng)
            try:
                trace = iterate(mask, data, n_max)
            except SolverError:
                continue
            if trace.d_inf_series[0] > 1e-9:
                break
        if trace is None:
            raise SolverError(f"trial {t} failed after 3 resamples")
        d = trace.d_inf_series
        gammas.append(fit_gamma([(k, v) for k, v in enumerate(d) if k >= 2]))
        ref = max(gammas[-1], 1e-12)
        c_hat = max([c_hat] + [v / (ref ** k * d[0]) for k, v in enumerate(d) if k])
    return gammas, c_hat
