"""Metric-space backends with nonpositive curvature.

Four backends share one interface: euclidean vectors, symmetric positive-definite
matrices with the affine-invariant metric, the hyperboloid model of hyperbolic space,
and the tripod (three rays glued at their endpoints).  Each backend works on payloads
stacked along leading axes: membership, distance, geodesics, a weighted Frechet-mean
(barycenter) solver, in closed form on the tripod, 2-point and euclidean rows, exp/log
maps on the smooth backends, sampling and the JSON codec; 2 x 2 eigenproblems are closed
forms too.  The functions on single `SpacePoint`s are the one-point case of that batched code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError, NumericError, SolverError, StructuralError, \
    integer, number, numbers, parse_int

EUCLIDEAN = "euclidean"
SPD = "spd"
HYPERBOLOID = "hyperboloid"
TRIPOD = "tripod"
KINDS = (EUCLIDEAN, SPD, HYPERBOLOID, TRIPOD)

HYPERBOLOID_TOL = 1e-10     # |<p,p>_M + 1| bound for membership, times p0^2
BARYCENTER_TOL = 1e-10      # scaled by (1 + largest distance from the start)
BARYCENTER_MAX_ITER = 500
_PAIRS = cache(lambda n: np.nonzero(np.arange(n)[:, None] < np.arange(n)))  # i < j, once per n


@dataclass(frozen=True)
class SpaceDescriptor:
    """Identifies a backend; dim is the vector/matrix dimension, or the backend's `fixed_dim`
    (tripod: 1).  `backend`, the kind's registry entry, and `payload_shape` are not fields."""

    kind: str
    dim: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise StructuralError(f"unknown space kind {self.kind!r}")
        backend, dim = _BACKENDS[self.kind], integer(self.dim, "space dim")
        if (dim := backend.fixed_dim or dim) < 1:
            raise StructuralError(f"dim must be >= 1, got {dim}")
        self.__dict__.update(dim=dim, backend=backend, payload_shape=backend.shape(dim))

    def __reduce__(self):  # copies and unpickled descriptors resolve the registry's backend
        return SpaceDescriptor, (self.kind, self.dim)


@dataclass(eq=False)
class SpacePoint:
    """A point of one backend; payload layout depends on descriptor.kind.

    euclidean: (dim,) vector; spd: (dim, dim) matrix; hyperboloid: (dim+1,)
    Minkowski coordinates; tripod: (leg, t) with leg in {0,1,2} and t >= 0.
    """

    descriptor: SpaceDescriptor
    payload: object


def _member(desc: SpaceDescriptor, payload: np.ndarray) -> SpacePoint:
    """The point of one payload, checked by its backend's batched membership test."""
    return desc.backend.point(desc, desc.backend.members(payload[None])[0])


def euclidean_point(v) -> SpacePoint:
    v = np.atleast_1d(numbers(v, "euclidean payload"))
    if v.ndim != 1:
        raise StructuralError("euclidean payload must be a vector")
    return _member(SpaceDescriptor(EUCLIDEAN, v.shape[0]), v)


def spd_point(m) -> SpacePoint:
    m = numbers(m, "spd payload")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructuralError("spd payload must be a square matrix")
    return _member(SpaceDescriptor(SPD, m.shape[0]), m)


def hyperboloid_point(p) -> SpacePoint:
    p = np.atleast_1d(numbers(p, "hyperboloid payload"))
    if p.ndim != 1 or p.shape[0] < 2:
        raise StructuralError("hyperboloid payload must have length dim+1 >= 2")
    return _member(SpaceDescriptor(HYPERBOLOID, p.shape[0] - 1), p)


def hyperboloid_from_spatial(v) -> SpacePoint:
    """Lift spatial coordinates v onto the hyperboloid sheet."""
    v = np.atleast_1d(numbers(v, "spatial coordinates"))
    return hyperboloid_point(np.concatenate(([math.sqrt(1.0 + float(v @ v))], v)))


def tripod_point(leg: int, t: float) -> SpacePoint:
    """The point (leg, t), read as the JSON point object {"leg": leg, "t": t}."""
    return point_from_json(SpaceDescriptor(TRIPOD), {"leg": leg, "t": t})


def _check_same(p: SpacePoint, q: SpacePoint) -> SpaceDescriptor:
    if p.descriptor != q.descriptor:
        raise StructuralError(
            f"descriptor mismatch: {p.descriptor} vs {q.descriptor}")
    return p.descriptor


# -- batched arithmetic ---------------------------------------------------------
#
# Payloads are stacked along leading axes: (..., dim) vectors, (..., dim, dim)
# matrices, (..., dim+1) Minkowski vectors, (..., 2) tripod rows (leg, t).
# Every reduction runs within one element in a fixed order, so an element's
# result does not depend on the batch it sits in: row dot products go through
# matmul's vector-vector path, norms are the square root of that dot over the
# raveled block, and weighted sums accumulate left to right.  An element of a
# result fails when any of its entries is not finite: every value of the scheme
# is a finite point, so a non-finite one can only be a numerical failure.

def _dot(a, b):
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _rows(a, core: int):
    """a with its last `core` axes raveled into one."""
    lead = a.ndim - core
    return a.reshape(a.shape[:lead] + (math.prod(a.shape[lead:]),))


def _finite(a, core: int):
    """Per element of the stack a, whether all its entries are finite."""
    return np.isfinite(_rows(a, core)).all(axis=-1)


def _norm(a, core: int):
    a = _rows(a, core)
    return np.sqrt(_dot(a, a))


def _weighted_sum(weights, terms, core: int):
    """sum_k w_k terms[..., k, <core>] in the order of the weights."""
    tail = (slice(None),) * core
    return sum(w * terms[(..., k) + tail] for k, w in enumerate(weights))


def _failure() -> NumericError:
    return NumericError("non-finite result")


def _T(m):
    return m.swapaxes(-1, -2)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + _T(m))


def _eigh(m, vectors=True):
    """Ascending eigenvalues and eigenvectors (None unless `vectors`) of the symmetric
    parts of a stack of matrices, 2 x 2 ones in closed form.  A matrix with a non-finite
    entry gets NaN eigenvalues; it is factored as the identity, since LAPACK may raise
    on it or return finite eigenvalues for it."""
    m = _sym(m)
    finite = None
    if not np.isfinite(m).all():
        finite = _finite(m, 2)[..., None]
        m = np.where(finite[..., None], m, np.eye(m.shape[-1]))
    if m.shape[-1] == 2:
        w, v = _eigh2(m[..., 0, 0], m[..., 1, 1], m[..., 0, 1], vectors)
    else:
        w, v = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)
    return (w, v) if finite is None else (np.where(finite, w, np.nan), v)


def _eigh2(a, c, b, vectors):
    """`_eigh` of [[a, b], [b, c]] by one Jacobi rotation (Golub & Van Loan 8.5):
    hi = (a + c) / 2 + r, r = hypot((a - c) / 2, b), on (cos t, sin t) with
    t = atan2(b, (a - c) / 2) / 2, and lo on (-sin t, cos t); for hi > 0,
    lo = det / hi keeps its accuracy where lo << hi, its products scaled by hi
    so that they cannot overflow on spd data, and no larger than hi."""
    h, mean = 0.5 * (a - c), 0.5 * (a + c)
    r = np.hypot(h, b)
    w = np.empty(a.shape + (2,))
    w[..., 1] = hi = mean + r
    d = np.where(hi > 0.0, hi, np.inf)
    w[..., 0] = np.where(hi > 0.0, np.minimum((a / d) * c - (b / d) * b, hi), mean - r)
    if not vectors:
        return w, None
    t = 0.5 * np.arctan2(b, h)
    v = np.empty(a.shape + (2, 2))
    v[..., 1, 0] = v[..., 0, 1] = np.cos(t)
    v[..., 1, 1] = sin = np.sin(t)
    v[..., 0, 0] = -sin
    return w, v


def _positive(w):
    """Eigenvalues w of matrices that should be positive definite; a matrix
    with one <= 0 or NaN gets NaN ones, so that whatever is built from them
    fails."""
    if w.min(initial=np.inf) > 0.0:  # an empty stack has nothing to check
        return w
    return np.where(w.min(axis=-1, keepdims=True) > 0.0, w, np.nan)


def _spectral(f, m):
    """V f(L) V^T for the symmetric m = V L V^T."""
    w, v = _eigh(m)
    return _sym((v * f(w)[..., None, :]) @ _T(v))


# SPD matrices q are whitened by a base point p = V diag(r)^2 V^T in its
# eigenframe, diag(r)^-1 V^T q V diag(r)^-1: the scaling rounds each entry of
# V^T q V on its own.  The product p^-1/2 q p^-1/2 spreads the rounding of the
# largest entries of p^-1/2 over every entry, which past log-spread 10 costs
# more than the barycenter tolerance.

def _frame(p):
    """(V, r) with p = V diag(r)^2 V^T."""
    w, v = _eigh(p)
    return v, np.sqrt(_positive(w))


def _whiten(frame, q):
    v, r = frame
    return (_T(v) @ q @ v) / (r[..., :, None] * r[..., None, :])


def _unwhiten(frame, m):
    v, r = frame
    return _sym(v @ (m * (r[..., :, None] * r[..., None, :])) @ _T(v))


def _hyp_renorm(p):
    # project back onto the sheet to damp drift
    q = p.copy()
    q[..., 0] = np.sqrt(1.0 + _dot(q[..., 1:], q[..., 1:]))
    return q


def _bounded(kappa, weights, dists, v):
    """The fallback step: the Karcher update v from y scaled by 2 / (1 + c), where
    c = 1 + sum_i w_i (s_i coth(s_i) - 1), s_i = kappa^1/2 d_i, bounds the Hessian of
    the Frechet function for curvature >= -kappa (Afsari, Tron & Manton 2013), so the
    step contracts by (c - 1) / (c + 1), the least any step guarantees."""
    s = math.sqrt(kappa) * dists
    c = 1.0 + _weighted_sum(weights, np.where(s > 0.0, s / np.tanh(s) - 1.0, 0.0), 0)
    h = 2.0 / (1.0 + c)
    return h.reshape(h.shape + (1,) * (v.ndim - h.ndim)) * v


def _newton_bound(kappa, weights, dists, step):
    """L |s|^2 / 2, a bound of the residual at exp_y(s) for a Newton step s (H s = v):
    moved to y the gradient there is g + H s + int_0^1 (H(t) - H) s dt, |H(t) - H| <= L t |s|
    for L >= |nabla H| on the step (Absil, Mahony & Sepulchre 2008, 6.3), taken at
    sigma_i = kappa^1/2 (d_i + |s|) > 0, as the bound rises in sigma_i.  On curvature
    -kappa, H_i = I + (a_i - 1)(I - u u^T), a = sigma coth sigma, a' <= kappa^1/2 and u turns
    at <= kappa^1/2 coth sigma, so L <= kappa^1/2 sum_i w_i [1 + (a_i - 1) coth sigma_i]."""
    sigma = math.sqrt(kappa) * (dists + step[:, None])
    coth = 1.0 / np.tanh(sigma)
    return 0.5 * math.sqrt(kappa) * _weighted_sum(weights, 1.0 + (sigma * coth - 1.0) * coth, 0) \
        * step * step


def _solve(h, b):
    """h^-1 b over a stack; NaN where h is not finite, on which LAPACK may raise."""
    ok = _finite(h, 2)
    x = np.linalg.solve(np.where(ok[..., None, None], h, np.eye(h.shape[-1])), b[..., None])
    return np.where(ok[..., None], x[..., 0], np.nan)


def _inv(m):
    """m^-1 over a stack; NaN where m is not finite or singular to LU, on which LAPACK raises."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:  # the sign, as the determinant can underflow to 0
        ok = (_finite(m, 2) & (np.linalg.slogdet(m)[0] != 0.0))[..., None, None]
        return np.where(ok, np.linalg.inv(np.where(ok, m, np.eye(m.shape[-1]))), np.nan)


def _karcher_step(backend, y, points, weights):
    """One evaluation of a batch at its iterates y: (residual norms, distances
    from y to the points, Karcher updates, the parts of it, stacked by row,
    that the backend's `candidate` reads for a row's Newton candidate)."""
    return backend.step(y, points, weights)


# -- backends -------------------------------------------------------------------
#
# One class per kind owns its rules, and the registry `_BACKENDS` holds one
# instance of each; `core` counts the payload axes, `shape(dim)` is a payload's
# shape, `kappa` bounds the curvature from below by -kappa, `key` names the
# payload in JSON, and `fixed_dim` is the one dim of a kind that has one.
# `barycenters` gives a 2-point row of unequal weights the same bits in either
# order of its points, so `subdivision._plan` lists the heavier point first on
# every backend.  Methods work over any leading axes.  The base class holds the
# Karcher solver, whose `start`, `step`, `candidate` and `move` spd and the
# hyperboloid supply.

class _Backend:
    core = 1
    kappa = 0.0
    fixed_dim = None
    shape = staticmethod(lambda dim: (dim,))

    def parse(self, kind, dim, text):
        """The descriptor spelled text, 'kind:dim'; a kind with a fixed dim may leave out ':dim'."""
        if dim == "" and self.fixed_dim:
            return SpaceDescriptor(kind, self.fixed_dim)
        return SpaceDescriptor(kind, parse_int(dim, f"space {text!r}; expected kind:dim, dim"))

    def members(self, rows):
        """rows, a stack of payloads, as points of this space (the tripod's glue
        point on leg 0); raises the error of the first check that a row fails."""
        if not np.isfinite(rows).all():
            raise NumericError("non-finite payload")
        return rows

    def point(self, desc, payload):
        """The point of one checked payload, which becomes read-only."""
        payload.flags.writeable = False
        return SpacePoint(desc, payload)

    def to_json(self, payloads):
        return [{self.key: row} for row in payloads.tolist()]

    def from_json(self, objs):
        # a bare number is a 1-vector, as in `euclidean_point`; other shapes refuse it
        values = [obj[self.key] for obj in objs]
        return numbers([v if np.iterable(v) else [v] for v in values], "point payloads")

    def tangent(self, p, v):
        """Refuses a vector v that is not tangent at p."""

    def resolution(self, points):
        """Per row of points (N, k, payload), the smallest distance their
        coordinates resolve: the float spacing of the largest coordinate (on
        the hyperboloid the time coordinate, about e^R / 2 at radius R)."""
        return np.spacing(np.abs(_rows(points, 1 + self.core)).max(axis=-1))

    def dist_at(self, p, at, q):  # d(p[:, at], q); spd takes one eigenframe per row of p
        return self.dist(p[:, at], q)

    def sampler(self, desc, seed):
        """A unit-speed geodesic toward a random second point, as one batched exp."""
        rng = np.random.default_rng(seed)
        p = self.random(desc, rng, 1)[0]
        speed = 0.0
        while speed < 1e-9:  # resample the second point if the two coincide
            other = self.random(desc, rng, 1)[0]
            speed = _apply(self.dist, p, other)  # the length of log_p(other)
        unit = _apply(self.log, p, other) / speed
        self.tangent(p, unit)  # the test of exp_map, which scales with t
        return lambda t: _apply(self.exp, p, t[:, 0].reshape((-1,) + (1,) * self.core) * unit)

    def barycenters(self, desc, points, weights):
        """The smooth solver of `barycenters`."""
        heaviest = int(np.argmax(weights))
        # a row whose tolerance is finer than its coordinates resolve fails
        # before any work; the tolerance is at least BARYCENTER_TOL
        first = None
        floor = self.resolution(points)
        if (floor > BARYCENTER_TOL).any():
            dists = self.dist(points[:, heaviest, None], points)
            tol = BARYCENTER_TOL * (1.0 + dists.max(axis=-1))
            coarse = np.flatnonzero(tol < floor)
            if coarse.size:
                r = int(coarse[0])
                first = (r, DomainError(
                    f"ill-conditioned barycenter: the data's coordinates resolve "
                    f"only {floor[r]:.3g}, coarser than the tolerance {tol[r]:.3g}"))
        limit = len(points) if first is None else first[0]  # rows that can fail first
        y, k = points[:, heaviest], points.shape[1]
        if k == 2 or not self.kappa:  # a geodesic point, or on flat rows the exact Newton step
            out = self.geodesic(y, points[:, 1 - heaviest], weights[1 - heaviest]) if k == 2 \
                else y + _weighted_sum(weights, self.log(y[:, None], points), 1)
            bad = np.flatnonzero(~_finite(out[:limit], self.core))
            return out, (int(bad[0]), _failure()) if bad.size else first
        out = y.copy()
        if not limit:  # no rows, or the first one fails
            return out, first
        points, floor = points[:limit], floor[:limit]
        y = self.start(points, weights)
        rows = np.arange(limit)  # live rows, ascending
        tol, last = None, np.inf
        trial = np.zeros(limit, bool)  # rows whose y is an untested Newton candidate
        for _ in range(BARYCENTER_MAX_ITER):
            residual, dists, v, parts = _karcher_step(self, y, points, weights)
            if tol is None:  # the largest distance from the start, about the data's radius
                tol = BARYCENTER_TOL * (1.0 + dists.max(axis=-1))
            back = trial & ~(residual < last)  # NaN does not lower the residual either
            if back.any():  # a reverted row was live at its last evaluation
                for a, old in ((y, prev_y), (residual, last), (dists, prev_dists), (v, prev_v)):
                    a[back] = old[back]
            failed = ~(np.isfinite(residual) & _finite(dists, 1))
            done = ~failed & (residual <= tol)
            trial = ~(failed | done | back)  # the rows that build a Newton candidate
            if trial.all():  # every live row builds one, as at the first evaluation
                nxt, bound = self.candidate(y, weights, v, parts)
            else:
                nxt, bound = y.copy(), np.full(len(y), np.inf)
                if trial.any():
                    nxt[trial], bound[trial] = self.candidate(y[trial], weights, v[trial],
                                                              [a[trial] for a in parts])
            sure = bound + floor <= 0.5 * tol  # NaN certifies none
            ok = _finite(nxt, self.core)
            fall = back | (trial & ~ok)
            if fall.any():
                nxt[fall] = self.move(y[fall], _bounded(self.kappa, weights, dists[fall], v[fall]))
                ok = _finite(nxt, self.core)
            failed |= ~ok
            trial &= ~fall
            sure &= trial  # a certified candidate is the answer, without another evaluation
            out[rows[done]] = y[done]
            out[rows[sure]] = nxt[sure]
            live = ~(failed | done | sure)
            if failed.any():
                r = np.flatnonzero(failed)[0]  # live rows lie below any earlier failure
                first = (int(rows[r]), _failure())
                live &= rows < first[0]
            if not live.any():
                return out, first
            if not live.all():
                rows, nxt, points, floor, tol, residual, y, dists, v, trial = (
                    a[live] for a in (rows, nxt, points, floor, tol, residual, y, dists, v, trial))
            prev_y, last, prev_dists, prev_v, y = y, residual, dists, v, nxt
        return out, (int(rows[0]), SolverError("barycenter iteration did not converge",
                                               last_iterate=self.point(desc, prev_y[0]),
                                               residual=float(last[0])))


class _Euclidean(_Backend):
    key = "v"

    def dist(self, p, q):
        return _norm(p - q, 1)

    def geodesic(self, p, q, t):
        return (1.0 - t) * p + t * q

    def log(self, p, q):
        return q - p

    def exp(self, p, v):
        return p + v

    def random(self, desc, rng, n):
        return rng.random((n, desc.dim))


class _SPD(_Backend):
    core = 2
    kappa = 0.5
    key = "m"
    shape = staticmethod(lambda dim: (dim, dim))

    def members(self, rows):
        rows = super().members(rows)
        scale = 1.0 + np.abs(rows).max(axis=(-2, -1))
        if (np.abs(rows - _T(rows)).max(axis=(-2, -1)) > 1e-9 * scale).any():
            raise StructuralError("spd payload must be symmetric")
        if (np.linalg.eigvalsh(rows) <= 0.0).any():
            raise StructuralError("spd payload must be positive definite")
        return rows

    def resolution(self, points):
        # the metric is invariant under congruence, so the scale of the
        # entries costs no resolution
        return np.zeros(len(points))

    def dist(self, p, q, frame=None):
        w, _ = _eigh(_whiten(_frame(p) if frame is None else frame, q), vectors=False)
        return _norm(np.log(_positive(w)), 1)

    def dist_at(self, p, at, q):
        return self.dist(None, q, [a[:, at] for a in _frame(p)])

    def geodesic(self, p, q, t):
        frame = _frame(p)
        w, v = _eigh(_whiten(frame, q))
        return _unwhiten(frame, (v * np.power(_positive(w), t)[..., None, :]) @ _T(v))

    def log(self, p, q):
        frame = _frame(p)
        return _unwhiten(frame, _spectral(lambda w: np.log(_positive(w)), _whiten(frame, q)))

    def exp(self, p, v):
        frame = _frame(p)
        return _unwhiten(frame, _spectral(np.exp, _whiten(frame, v)))

    def step(self, y, points, weights):
        # logs are taken in the frame whitened by y, where the metric is Frobenius
        v_y, r_y = _frame(y)
        w, q = _eigh(_whiten((v_y[..., None, :, :], r_y[..., None, :]), points))
        l = np.log(_positive(w))  # the eigenpairs of the log, kept for the Hessian
        logs = _sym((q * l[..., None, :]) @ _T(q))
        v = _weighted_sum(weights, logs, 2)
        return _norm(v, 2), _norm(logs, 2), v, (v_y, r_y, q, l)

    def start(self, points, weights):
        """sym((A + H) / 2) of the arithmetic and harmonic means A = sum_i w_i x_i and
        H = (sum_i w_i x_i^-1)^-1, third order in the diameter (Bini & Iannazzo 2013)."""
        harmonic = _inv(_weighted_sum(weights, _inv(points), 2))
        return _sym(0.5 * (_weighted_sum(weights, points, 2) + harmonic))

    def candidate(self, y, weights, v, parts):
        v_y, r_y, q, l = parts
        # Newton: the Hessian maps S to sum_k w_k Q_k (g(l_i - l_j) o Q_k^T S Q_k) Q_k^T,
        # g(z) = (z/2) coth(z/2) >= 1.  On all n x n matrices it is H = A diag(w g) A^T,
        # A = [kron(Q_1, Q_1) ... kron(Q_k, Q_k)]: positive definite and commuting with
        # transposition, so the symmetric v solves to a symmetric S
        t = _T(q)  # A^T[(k, c, d), (a, b)] = Q_k[a, c] Q_k[b, d]
        at = (t[..., :, None, :, None] * t[..., None, :, None, :]).reshape(len(y), -1, v[0].size)
        z = 0.5 * (l[..., :, None] - l[..., None, :])
        g = weights[:, None] * _rows(np.where(z == 0.0, 1.0, z / np.tanh(z)), 2)
        s = _solve(_T(at) @ (_rows(g, 2)[..., None] * at), _rows(v, 2))
        # `_newton_bound` on spd (kappa = 1/2): H_i = F(A), F(mu) = mu^1/2 coth mu^1/2 with
        # F' <= 1/3, A = -R(., v)v, v = log_y(x_i), R(X, Y)Z = -[[X, Y], Z] / 4 whitened.  R is
        # parallel and v moves by -H gamma', so A moves by <= d sigma coth sigma (|[X, Y]| <=
        # 2^1/2 |X| |Y|), m^1/2 that in Hilbert-Schmidt norm (m = n(n + 1) / 2), where F(A) moves
        # by <= 1/3 of it (Daleckii & Krein): L <= (2m)^1/2 / 3 sum_i w_i sigma_i^2 coth sigma_i
        # as d = 2^1/2 sigma.  Whitened eigenvalues round off by about eps e^(max l - min l).
        step, n = _norm(s, 1), y.shape[-1]
        sigma = math.sqrt(self.kappa) * (_norm(l, 1) + step[:, None])
        lip = _weighted_sum(weights, sigma * sigma / np.tanh(sigma), 0) * math.sqrt(n * n + n) / 3
        floor = 4.0 * np.finfo(float).eps * np.exp(np.ptp(l, axis=(-2, -1)))
        nxt = _unwhiten((v_y, r_y), _spectral(np.exp, s.reshape(v.shape)))
        return nxt, 0.5 * lip * step * step + floor

    def move(self, y, v):
        return _unwhiten(_frame(y), _spectral(np.exp, v))

    def random(self, desc, rng, n):
        return _spectral(np.exp, rng.uniform(-1.0, 1.0, (n, desc.dim, desc.dim)))


def _mink(p, q):
    # Minkowski form: -p0*q0 + sum_k pk*qk
    return _dot(p[..., 1:], q[..., 1:]) - p[..., 0] * q[..., 0]


def _wedge2(a, b):
    """|a ^ b|^2 = sum_{i<j} (a_i b_j - a_j b_i)^2 over the last axis."""
    i, j = _PAIRS(a.shape[-1])
    wedge = a[..., i] * b[..., j] - a[..., j] * b[..., i]
    return _dot(wedge, wedge)


def _cosh_minus_1(p, q):
    """cosh d(p, q) - 1 = -<p,q>_M - 1 as a sum of nonnegative terms.  With
    e = q_s - p_s and <p_s, q_s> >= 0 it is
    (|e|^2 + |p_s ^ e|^2) / (1 + p0 q0 + <p_s, q_s>), where p_s ^ e = p_s ^ q_s;
    otherwise a b + a + b - <p_s, q_s> with a = p0 - 1 = |p_s|^2 / (1 + p0) and
    b likewise.  -<p,q>_M itself rounds off about p0 q0, which swamps
    cosh d - 1 for nearby points far from the origin."""
    ps, qs = p[..., 1:], q[..., 1:]
    dot = _dot(ps, qs)
    e = qs - ps
    same = (_dot(e, e) + _wedge2(ps, e)) / (1.0 + p[..., 0] * q[..., 0] + dot)
    a = _dot(ps, ps) / (1.0 + p[..., 0])
    b = _dot(qs, qs) / (1.0 + q[..., 0])
    return np.where(dot >= 0.0, same, a * b + a + b - dot)


class _Hyperboloid(_Backend):
    kappa = 1.0
    key = "p"
    shape = staticmethod(lambda dim: (dim + 1,))

    def members(self, rows):
        rows = super().members(rows)
        p0 = rows[..., 0]
        if (p0 <= 0.0).any():
            raise StructuralError("hyperboloid payload needs positive time coordinate")
        with np.errstate(over="ignore", invalid="ignore"):  # <p,p>_M squares the coordinates
            form = _mink(rows, rows)
        if not np.isfinite(form).all():
            raise NumericError("hyperboloid payload leaves the float range")
        # round-off in <p,p>_M grows like p0^2, and p0 >= 1 on the sheet
        if (np.abs(form + 1.0) > HYPERBOLOID_TOL * p0 * p0).any():
            raise StructuralError("payload is not on the unit hyperboloid")
        return rows

    def tangent(self, p, v):
        # |<p, v>_M| up to the round-off a computed tangent carries
        if not abs(_mink(p, v)) <= HYPERBOLOID_TOL * p[0] * p[0] * _norm(v, 1):
            raise DomainError("vector is not tangent to the hyperboloid at base")

    def norm(self, y, v):
        """sqrt(<v,v>_M) for v tangent at y, in the form that cannot cancel:
        <v,v>_M = (|v_s|^2 + |y_s ^ v_s|^2) / y0^2 over the spatial
        coordinates, since y0 v0 = <y_s, v_s> and y0^2 = 1 + |y_s|^2."""
        ys, vs = y[..., 1:], v[..., 1:]
        return np.sqrt(_dot(vs, vs) + _wedge2(ys, vs)) / y[..., 0]

    def step(self, y, points, weights):
        logs = self.log(y[:, None], points)
        v = _weighted_sum(weights, logs, self.core)
        norms = self.norm(y[:, None], logs)
        return self.norm(y, v), norms, v, (logs, norms)

    def start(self, points, weights):
        """The centroid m = c / (-<c, c>_M)^1/2 of c = sum_i w_i x_i, then one Karcher fixed-point
        step, as log_m x = (d / sinh d)(x - cosh d m): the centroid with weights w_i d_i / sinh d_i,
        d_i = d(m, x_i).  Fifth order in the row's diameter; far out -<c, c>_M rounds off about
        eps c0^2, which Newton mends."""
        c = weights @ points
        d = self.dist(_hyp_renorm(c / np.sqrt(-_mink(c, c))[..., None])[:, None], points)
        c = (weights * np.where(d > 0.0, d / np.sinh(d), 1.0))[:, None] @ points
        return _hyp_renorm(c / np.sqrt(-_mink(c, c))[..., None])[:, 0]

    def candidate(self, y, weights, v, parts):
        """exp_y(H^-1 v) and its `_newton_bound`, H = sum_i w_i [u_i u_i^T + a_i (I - u_i u_i^T)],
        u_i = log_y(x_i) / d_i, a_i = d_i coth d_i, solved in an orthonormal tangent frame
        (ambient coordinates are singular far out): for the Householder P that swaps e_1 and
        -+y_s / |y_s|, a tangent t has the coordinates P t_s, the first divided by y0."""
        (logs, dists), y0, ys, eye = parts, y[:, 0], y[:, 1:], np.eye(y.shape[-1] - 1)
        h = np.where((n := np.sqrt(_dot(ys, ys))[:, None]) > 0.0, ys / n, 0.0)  # origin: any frame
        h[:, 0] += np.copysign(1.0, h[:, 0])
        p = eye - 2.0 * h[:, :, None] * h[:, None, :] / _dot(h, h)[:, None, None]
        c = logs[..., 1:] @ p
        c[..., 0] /= y0[:, None]
        a = np.where(dists > 0.0, dists / np.tanh(dists), 1.0)
        wb = weights * np.where(dists > 0.0, (1.0 - a) / (dists * dists), 0.0)
        s = _solve(_T(c) @ (wb[..., None] * c) + _dot(a, weights)[:, None, None] * eye,
                   weights @ c)
        step = np.sqrt(_dot(s, s))  # the frame is orthonormal
        s[:, 0] *= y0
        s = (s[:, None] @ p)[:, 0]
        return (self.exp(y, np.concatenate(((_dot(ys, s) / y0)[:, None], s), axis=-1)),
                _newton_bound(self.kappa, weights, dists, step))

    def dist(self, p, q):
        # cosh d - 1 = 2 sinh^2(d / 2)
        return 2.0 * np.arcsinh(np.sqrt(0.5 * _cosh_minus_1(p, q)))

    def log(self, p, q):
        # (d / sinh d)(q - (1 + t) p), t = cosh d - 1: d = 2 asinh(sqrt(t / 2)) as in
        # `dist` and sinh d = sqrt(t (t + 2)) keep their relative accuracy as t -> 0
        t = _cosh_minus_1(p, q)[..., None]
        scale = 2.0 * np.arcsinh(np.sqrt(0.5 * t)) / np.sqrt(t * (t + 2.0))
        return np.where(t <= 0.0, 0.0, scale * (q - (1.0 + t) * p))

    def exp(self, p, v):
        n = self.norm(p, v)  # v is zero where n is
        return _hyp_renorm(np.cosh(n)[..., None] * p
                           + (np.sinh(n) / np.where(n > 0.0, n, 1.0))[..., None] * v)

    move = exp  # the point an update v of `step` leads to from y

    def geodesic(self, p, q, t):
        # (sinh((1 - t) d) p + sinh(t d) q) / sinh(d): no term outgrows the
        # endpoints, where exp(p, t log(p, q)) cancels terms of size e^(t d) p0
        d = self.dist(p, q)[..., None]
        still = d == 0.0
        s = np.where(still, 1.0, np.sinh(d))
        a = np.where(still, 1.0 - t, np.sinh((1.0 - t) * d) / s)
        b = np.where(still, t, np.sinh(t * d) / s)
        return _hyp_renorm(a * p + b * q)

    def random(self, desc, rng, n):
        # per node a normal direction, then a radius unless it is 0 (the origin)
        v = np.zeros((n, desc.dim + 1))
        for row in v:
            u = rng.standard_normal(desc.dim)
            norm = float(np.linalg.norm(u))
            if norm >= 1e-12:
                row[1:] = (rng.random() ** (1.0 / desc.dim) / norm) * u
        return self.exp(np.eye(1, desc.dim + 1)[0], v)


def _tripod_rows(leg, t):
    """(leg, t) rows; the glue point t = 0 is canonically on leg 0."""
    return np.stack([np.where(t == 0.0, 0.0, leg), t], axis=-1)


class _Tripod(_Backend):
    fixed_dim = 1
    shape = staticmethod(lambda dim: (2,))  # the row (leg, t)

    def members(self, rows):
        legs, t = np.moveaxis(rows, -1, 0)
        if not np.isin(legs, (0.0, 1.0, 2.0)).all():
            raise StructuralError("tripod leg must be 0, 1 or 2")
        super().members(rows)
        if (t < 0.0).any():
            raise DomainError("tripod coordinate must be >= 0")
        return _tripod_rows(legs, t)

    def point(self, desc, payload):
        leg, t = payload.tolist()
        return SpacePoint(desc, (int(leg), t))

    def to_json(self, payloads):
        return [{"leg": int(leg), "t": t} for leg, t in payloads.tolist()]

    def from_json(self, objs):
        # a leg outside 0..2 stays outside at any size, and stays a float
        rows = [(min(max(integer(obj["leg"], "tripod leg"), -1), 3), obj["t"]) for obj in objs]
        t = numbers([t for _, t in rows], "tripod coordinate")
        if t.shape != (len(rows),):
            raise StructuralError("tripod coordinate must be one number")
        return np.column_stack([[leg for leg, _ in rows], t])

    def dist(self, p, q):
        return np.where(p[..., 0] == q[..., 0], np.abs(p[..., 1] - q[..., 1]),
                        p[..., 1] + q[..., 1])

    def geodesic(self, p, q, t):
        (leg_p, t_p), (leg_q, t_q) = np.moveaxis(p, -1, 0), np.moveaxis(q, -1, 0)
        along = t * (t_p + t_q)  # a path between legs runs through the glue point
        first = along <= t_p
        same = leg_p == leg_q
        value = np.where(same, (1.0 - t) * t_p + t * t_q,
                         np.where(first, t_p - along, along - t_p))
        return _tripod_rows(np.where(same | first, leg_p, leg_q), value)

    def log(self, p, q):
        raise DomainError("tripod backend has no exp/log maps")

    exp = log

    def random(self, desc, rng, n):
        # per node its leg, then its coordinate
        rows = np.array([(rng.integers(3), rng.random()) for _ in range(n)], dtype=float)
        return _tripod_rows(*rows.reshape(n, 2).T)

    def sampler(self, desc, seed):
        """The line through the glue point along legs 1 and 2."""
        return lambda t: _tripod_rows(np.where(t[:, 0] >= 0.0, 1.0, 2.0), np.abs(t[:, 0]))

    def barycenters(self, desc, points, weights):
        """The exact closed form.  With the pull u_l = sum_{on l} w t - sum_{off l} w t,
        leg l's least Frechet value is the glue point's minus u_l^2, at s = u_l.
        Two pulls sum to minus twice the weighted t of the third leg, so at most
        one is positive: the minimizer is the argmax leg at max(u, 0)."""
        legs, ts = points[..., None, :, 0], points[..., None, :, 1]
        pulls = _weighted_sum(weights, np.where(legs == np.arange(3.0)[:, None], ts, -ts), 0)
        out = _tripod_rows(pulls.argmax(axis=-1), np.maximum(pulls.max(axis=-1), 0.0))
        bad = np.flatnonzero(~_finite(out, 1))
        return out, (int(bad[0]), _failure()) if bad.size else None


_BACKENDS = {EUCLIDEAN: _Euclidean(), SPD: _SPD(), HYPERBOLOID: _Hyperboloid(),
             TRIPOD: _Tripod()}


def _apply(method, p, *args):
    """The bound backend method over the stacked payloads p (and args); raises
    NumericError when an element of the result fails."""
    with np.errstate(all="ignore"):
        out = method(p, *args)
    if not np.isfinite(out).all():
        raise _failure()
    return out


# -- stacking ---------------------------------------------------------------------

def stack_payloads(points, descriptor: SpaceDescriptor) -> np.ndarray:
    """Payloads of a sequence of points, stacked along a new first axis; a
    tripod point becomes the row (leg, t)."""
    for pt in points:
        if pt.descriptor is not descriptor and pt.descriptor != descriptor:
            raise StructuralError(
                f"descriptor mismatch: {descriptor} vs {pt.descriptor}")
    return np.array([pt.payload for pt in points], dtype=float)


def _payload(p: SpacePoint) -> np.ndarray:
    return np.asarray(p.payload, dtype=float)


# -- batched operations -----------------------------------------------------------

def distances(desc: SpaceDescriptor, p, q) -> np.ndarray:
    """d(p, q) over the leading axes of two stacks of payloads, trusted as points
    (`_Backend.members` checks them).  On spd the eigenvalues of p^-1/2 q p^-1/2
    resolve to about 2.2e-16 of the largest, so the distance holds up to condition
    numbers of about 1e15; a singular q may get a finite distance near 35-38."""
    return _apply(desc.backend.dist, p, q)


def geodesic_points(desc: SpaceDescriptor, p, q, t: float) -> np.ndarray:
    """Geodesic points at parameter t over the leading axes of two stacks."""
    return _apply(desc.backend.geodesic, p, q, t)


def _check_weights(weights, count: int) -> np.ndarray:
    w = numbers(weights, "weights")
    if w.shape != (count,):
        raise StructuralError("one weight per point required")
    if not np.all(np.isfinite(w)):
        raise NumericError("non-finite weights")
    if w.min() < 0.0:
        raise StructuralError("weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise StructuralError("weights must sum to 1 within 1e-12")
    return w


def barycenters(desc: SpaceDescriptor, points, weights):
    """argmin of sum_j w_j d(x_j, .)^2 for each row of points (N, k, payload),
    all rows sharing one weight vector.

    Returns the stacked minimizers and the first failing row as (row, error),
    or None.  A row fails with NumericError when its start or a step gives it a
    non-finite value, and before any step with DomainError when its tolerance
    (below) is finer than the float spacing of its coordinates.  Rows above a
    failed row stop, since they cannot change which failure comes first; once a
    row fails the values are undefined.  The tripod uses its exact closed form.
    On a smooth backend a 2-point row is the geodesic point walked from its
    heavier point (ties: the first), a longer euclidean row the exact Newton step
    y + sum_j w_j (x_j - y) from its heaviest point y, and a longer curved row runs
    a safeguarded Newton iteration from the backend's `start`, of third order in
    the row's diameter or higher, until the Karcher update norm (the residual)
    falls below the tolerance 1e-10 * (1 + largest distance from the start), and
    returns the iterate where it does.  A row that moves on builds a Newton
    candidate, and returns it at once when `_newton_bound` plus the row's
    rounding floor is within half the tolerance: the point one more evaluation
    would accept.  Otherwise it keeps the candidate if the residual there is
    lower than before; if not, or if it is not finite, the row takes
    `_bounded`'s step instead.
    """
    points = np.asarray(points, dtype=float)
    try:
        weights = _check_weights(weights, points.shape[1])
    except (StructuralError, NumericError) as exc:
        return points[:, 0], (0, exc)
    with np.errstate(all="ignore"):
        return desc.backend.barycenters(desc, points, weights)


# -- one-point operations ---------------------------------------------------------

def log_map(base: SpacePoint, x: SpacePoint) -> np.ndarray:
    """Tangent vector at base pointing to x (euclidean, spd, hyperboloid)."""
    return _apply(_check_same(base, x).backend.log, _payload(base), _payload(x))


def exp_map(base: SpacePoint, v: np.ndarray) -> SpacePoint:
    """Exponential map at base (euclidean, spd, hyperboloid).  On the
    hyperboloid v must be tangent at base: |<base, v>_M| at most
    HYPERBOLOID_TOL * base0^2 * |v|, the round-off a computed tangent carries."""
    desc = base.descriptor
    p, v = _payload(base), numbers(v, "tangent vector")
    if v.shape != p.shape:
        raise StructuralError(f"tangent vector must have shape {p.shape}, got {v.shape}")
    desc.backend.tangent(p, v)
    return desc.backend.point(desc, _apply(desc.backend.exp, p, v))


def distance(p: SpacePoint, q: SpacePoint) -> float:
    return float(distances(_check_same(p, q), _payload(p), _payload(q)))


def geodesic_point(p: SpacePoint, q: SpacePoint, t: float) -> SpacePoint:
    """Point at parameter t in [0,1] on the unique geodesic from p to q."""
    desc = _check_same(p, q)
    t = number(t, "geodesic parameter")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"geodesic parameter must lie in [0,1], got {t}")
    if t == 0.0:
        return p
    if t == 1.0:
        return q
    return desc.backend.point(desc, geodesic_points(desc, _payload(p), _payload(q), t))


@dataclass(eq=False)
class BarycenterProblem:
    """Points with nonnegative weights summing to 1 (tolerance 1e-12)."""

    points: list
    weights: np.ndarray

    def __post_init__(self):
        if len(self.points) == 0:
            raise StructuralError("barycenter problem needs at least one point")
        desc = self.points[0].descriptor
        for pt in self.points[1:]:
            if pt.descriptor != desc:
                raise StructuralError("barycenter points must share a descriptor")
        self.weights = _check_weights(self.weights, len(self.points))


def weighted_barycenter(problem: BarycenterProblem) -> SpacePoint:
    """argmin of sum_j w_j d(x_j, .)^2: the one-row case of `barycenters`."""
    desc = problem.points[0].descriptor
    with np.errstate(all="ignore"):  # the problem has read its weights
        out, failure = desc.backend.barycenters(
            desc, stack_payloads(problem.points, desc)[None], problem.weights)
    if failure:
        raise failure[1]
    return desc.backend.point(desc, out[0])


def npc_residual(x0: SpacePoint, x1: SpacePoint, z: SpacePoint) -> float:
    """d(z,m)^2 - [d(z,x0)^2/2 + d(z,x1)^2/2 - d(x0,x1)^2/4] for the midpoint m.

    Nonpositive on any space of nonpositive curvature.
    """
    m = geodesic_point(x0, x1, 0.5)  # it and distance(z, m) check the descriptors
    return (distance(z, m) ** 2
            - 0.5 * distance(z, x0) ** 2
            - 0.5 * distance(z, x1) ** 2
            + 0.25 * distance(x0, x1) ** 2)


# -- random data --------------------------------------------------------------

def random_point(descriptor: SpaceDescriptor, rng: np.random.Generator) -> SpacePoint:
    """One random point, the one-row case of the batched draw that `random_grid`
    makes per grid: euclidean uniform on [0,1)^dim, spd the exp of a symmetric
    matrix with entries in [-1,1), hyperboloid within distance 1 of the origin,
    tripod a uniform leg with t in [0,1)."""
    return descriptor.backend.point(descriptor, descriptor.backend.random(descriptor, rng, 1)[0])


def geodesic_sampler(descriptor: SpaceDescriptor, seed: int = 0):
    """Unit-speed geodesic (Lipschitz constant exactly 1) as a batched map from an
    (N, dim) array t to the (N, *payload_shape) payloads gamma(t[:, 0]); the
    direction runs toward a random second point, and on the tripod the line
    runs through the glue point along legs 1 (t >= 0) and 2 (t < 0)."""
    return descriptor.backend.sampler(descriptor, integer(seed, "seed", 0))


# -- descriptors as text and JSON ---------------------------------------------

def parse_space(text: str) -> SpaceDescriptor:
    """A descriptor as the command line spells it, read by its backend's `parse`."""
    kind, _, dim = text.partition(":")
    if kind not in KINDS:
        raise DomainError(f"unknown space kind {kind!r}; expected one of {KINDS}")
    return _BACKENDS[kind].parse(kind, dim, text)


def descriptor_to_json(desc: SpaceDescriptor) -> dict:
    return {"kind": desc.kind, "dim": desc.dim}


def descriptor_from_json(obj: dict) -> SpaceDescriptor:
    try:
        return SpaceDescriptor(obj["kind"], obj.get("dim", 1))
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"bad descriptor object: {obj!r}") from exc


def point_to_json(p: SpacePoint) -> dict:
    return payloads_to_json(p.descriptor, np.asarray(p.payload, dtype=float)[None])[0]


def payloads_to_json(desc: SpaceDescriptor, payloads: np.ndarray) -> list:
    """The point objects of a stack of payloads, one per leading row, without
    building the points; a tripod row (leg, t) writes leg as an int."""
    return desc.backend.to_json(payloads)


def payloads_from_json(desc: SpaceDescriptor, objs) -> np.ndarray:
    """The payloads of a list of point objects, stacked along a new first axis and
    read for nesting and shape only (`_Backend.members` makes them points)."""
    try:
        rows = desc.backend.from_json(objs)
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"bad point object for {desc.kind}: {exc!r}") from exc
    if rows.shape[1:] != desc.payload_shape:
        raise StructuralError(f"point payloads {rows.shape[1:]} do not match {desc}")
    return rows


def point_from_json(desc: SpaceDescriptor, obj: dict) -> SpacePoint:
    """The one-object case of `payloads_from_json`, checked as a point."""
    return _member(desc, payloads_from_json(desc, [obj])[0])
