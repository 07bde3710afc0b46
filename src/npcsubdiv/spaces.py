"""Metric-space backends with nonpositive curvature.

Four backends share one interface: euclidean vectors, symmetric
positive-definite matrices with the affine-invariant metric, the hyperboloid
model of hyperbolic space, and the tripod (three rays glued at their
endpoints).  Each backend works on payloads stacked along leading axes:
distance, geodesics, a weighted Frechet-mean (barycenter) solver, and on the
smooth backends exp/log maps.  The functions on single `SpacePoint`s are the
one-point case of that batched code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, SolverError, StructuralError

EUCLIDEAN = "euclidean"
SPD = "spd"
HYPERBOLOID = "hyperboloid"
TRIPOD = "tripod"
KINDS = (EUCLIDEAN, SPD, HYPERBOLOID, TRIPOD)

POINT_TOL = 1e-9            # payload-wise equality tolerance
HYPERBOLOID_TOL = 1e-10     # |<p,p>_M + 1| bound for membership, times p0^2
BARYCENTER_TOL = 1e-10      # scaled by (1 + data diameter)
BARYCENTER_MAX_ITER = 500


@dataclass(frozen=True)
class SpaceDescriptor:
    """Identifies a backend; dim is the vector/matrix dimension (tripod: ignored)."""

    kind: str
    dim: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise StructuralError(f"unknown space kind {self.kind!r}")
        if self.kind == TRIPOD:
            object.__setattr__(self, "dim", 1)
        elif self.dim < 1:
            raise StructuralError(f"dim must be >= 1, got {self.dim}")

    @property
    def payload_shape(self) -> tuple:
        """Shape of one stacked payload; a tripod point is the row (leg, t)."""
        return {EUCLIDEAN: (self.dim,), SPD: (self.dim, self.dim),
                HYPERBOLOID: (self.dim + 1,), TRIPOD: (2,)}[self.kind]


@dataclass(eq=False)
class SpacePoint:
    """A point of one backend; payload layout depends on descriptor.kind.

    euclidean: (dim,) vector; spd: (dim, dim) matrix; hyperboloid: (dim+1,)
    Minkowski coordinates; tripod: (leg, t) with leg in {0,1,2} and t >= 0.
    """

    descriptor: SpaceDescriptor
    payload: object


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NumericError("non-finite payload")
    a.flags.writeable = False
    return a


def euclidean_point(v) -> SpacePoint:
    v = _readonly(np.atleast_1d(v))
    if v.ndim != 1:
        raise StructuralError("euclidean payload must be a vector")
    return SpacePoint(SpaceDescriptor(EUCLIDEAN, v.shape[0]), v)


def spd_point(m) -> SpacePoint:
    m = _readonly(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructuralError("spd payload must be a square matrix")
    scale = 1.0 + float(np.abs(m).max())
    if float(np.abs(m - m.T).max()) > 1e-9 * scale:
        raise StructuralError("spd payload must be symmetric")
    if float(np.linalg.eigvalsh(m).min()) <= 0.0:
        raise StructuralError("spd payload must be positive definite")
    return SpacePoint(SpaceDescriptor(SPD, m.shape[0]), m)


def hyperboloid_point(p) -> SpacePoint:
    p = _readonly(np.atleast_1d(p))
    if p.ndim != 1 or p.shape[0] < 2:
        raise StructuralError("hyperboloid payload must have length dim+1 >= 2")
    if p[0] <= 0.0:
        raise StructuralError("hyperboloid payload needs positive time coordinate")
    # round-off in <p,p>_M grows like p0^2, and p0 >= 1 on the sheet
    if abs(_mink(p, p) + 1.0) > HYPERBOLOID_TOL * p[0] * p[0]:
        raise StructuralError("payload is not on the unit hyperboloid")
    return SpacePoint(SpaceDescriptor(HYPERBOLOID, p.shape[0] - 1), p)


def hyperboloid_from_spatial(v) -> SpacePoint:
    """Lift spatial coordinates v onto the hyperboloid sheet."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    p = np.concatenate(([math.sqrt(1.0 + float(v @ v))], v))
    return hyperboloid_point(p)


def tripod_point(leg: int, t: float) -> SpacePoint:
    leg = int(leg)
    t = float(t)
    if leg not in (0, 1, 2):
        raise StructuralError("tripod leg must be 0, 1 or 2")
    if not math.isfinite(t):
        raise NumericError("non-finite payload")
    if t < 0.0:
        raise DomainError("tripod coordinate must be >= 0")
    if t == 0.0:
        leg = 0  # canonical representation of the glue point
    return SpacePoint(SpaceDescriptor(TRIPOD), (leg, t))


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


def _clip0(x):
    return np.maximum(x, 0.0)  # as max(x, 0.0): NaN stays NaN


def _failure() -> NumericError:
    return NumericError("non-finite result")


def _T(m):
    return m.swapaxes(-1, -2)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + _T(m))


def _eigh(m, vectors=True):
    """Eigenvalues and eigenvectors (None unless `vectors`) of the symmetric
    parts of a stack of matrices.  A matrix with a non-finite entry gets NaN
    eigenvalues; it is factored as the identity, since LAPACK may raise on it
    or return finite eigenvalues for it."""
    m = _sym(m)
    finite = None
    if not np.isfinite(m).all():
        finite = _finite(m, 2)[..., None]
        m = np.where(finite[..., None], m, np.eye(m.shape[-1]))
    w, v = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)
    return (w, v) if finite is None else (np.where(finite, w, np.nan), v)


def _positive(w):
    """Eigenvalues w of matrices that should be positive definite; a matrix
    with one <= 0 or NaN gets NaN ones, so that whatever is built from them
    fails."""
    if w.min(initial=np.inf) > 0.0:  # an empty stack has nothing to check
        return w
    return np.where(w.min(axis=-1, keepdims=True) > 0.0, w, np.nan)


def _logm(m):
    w, v = _eigh(m)
    return _sym((v * np.log(_positive(w))[..., None, :]) @ _T(v))


def _expm(m):
    w, v = _eigh(m)
    return _sym((v * np.exp(w)[..., None, :]) @ _T(v))


def _sqrt_pair(m):
    w, v = _eigh(m)
    s = np.sqrt(_positive(w))
    return _sym((v * s[..., None, :]) @ _T(v)), _sym((v / s[..., None, :]) @ _T(v))


def _hyp_renorm(p):
    # project back onto the sheet to damp drift
    q = p.copy()
    q[..., 0] = np.sqrt(1.0 + _dot(q[..., 1:], q[..., 1:]))
    return q


# -- backends -------------------------------------------------------------------
#
# One class per kind; `core` counts the payload axes.  Methods take stacked
# payloads and work over any leading axes.

class _Euclidean:
    core = 1

    def dist(self, p, q):
        return _norm(p - q, 1)

    def geodesic(self, p, q, t):
        return (1.0 - t) * p + t * q

    def log(self, p, q):
        return q - p

    def exp(self, p, v):
        return p + v

    def step(self, y, points, weights):
        logs = points - y[..., None, :]
        v = _weighted_sum(weights, logs, 1)
        return _norm(v, 1), _norm(logs, 1), y + v


class _SPD:
    core = 2

    def dist(self, p, q):
        _, si = _sqrt_pair(p)
        w, _ = _eigh(si @ q @ si, vectors=False)
        return _norm(np.log(_positive(w)), 1)

    def geodesic(self, p, q, t):
        s, si = _sqrt_pair(p)
        w, v = _eigh(si @ q @ si)
        mid = _sym((v * np.power(_positive(w), t)[..., None, :]) @ _T(v))
        return _sym(s @ mid @ s)

    def log(self, p, q):
        s, si = _sqrt_pair(p)
        return _sym(s @ _logm(si @ q @ si) @ s)

    def exp(self, p, v):
        s, si = _sqrt_pair(p)
        return _sym(s @ _expm(si @ v @ si) @ s)

    def step(self, y, points, weights):
        # logs are taken in the frame whitened by y, where the metric is Frobenius
        s, si = _sqrt_pair(y)
        si_k = si[..., None, :, :]
        logs = _logm(si_k @ points @ si_k)
        v = _weighted_sum(weights, logs, 2)
        return _norm(v, 2), _norm(logs, 2), _sym(s @ _expm(v) @ s)


def _mink(p, q):
    # Minkowski form: -p0*q0 + sum_k pk*qk
    return _dot(p[..., 1:], q[..., 1:]) - p[..., 0] * q[..., 0]


class _Hyperboloid:
    core = 1

    def dist(self, p, q):
        # chordal form avoids cancellation for nearby points
        d = q - p
        return 2.0 * np.arcsinh(0.5 * np.sqrt(_clip0(_mink(d, d))))

    def log(self, p, q):
        alpha = -_mink(p, q)
        t = alpha - 1.0
        u = q - alpha[..., None] * p
        near = t < 1e-8
        far = np.where(near, 2.0, alpha)  # acosh only where the series is not used
        scale = np.where(near, np.sqrt(2.0 / (alpha + 1.0)) * (1.0 - t / 12.0),
                         np.arccosh(far) / np.sqrt(far * far - 1.0))
        return np.where((t <= 0.0)[..., None], 0.0, scale[..., None] * u)

    def exp(self, p, v):
        n = np.sqrt(_clip0(_mink(v, v)))
        tiny = n < 1e-16  # exp_p(v) = p; the ratio below is not used
        q = _hyp_renorm(np.cosh(n)[..., None] * p
                        + (np.sinh(n) / np.where(tiny, 1.0, n))[..., None] * v)
        return np.where(tiny[..., None], p, q)

    def geodesic(self, p, q, t):
        return self.exp(p, t * self.log(p, q))

    def step(self, y, points, weights):
        logs = self.log(y[..., None, :], points)
        v = _weighted_sum(weights, logs, 1)
        norms = np.sqrt(_clip0(_mink(logs, logs)))
        return np.sqrt(_clip0(_mink(v, v))), norms, self.exp(y, v)


def _tripod_rows(leg, t):
    """(leg, t) rows; the glue point t = 0 is canonically on leg 0."""
    return np.stack([np.where(t == 0.0, 0.0, leg), t], axis=-1)


class _Tripod:
    core = 1

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

    def barycenter(self, points, weights):
        # per-leg constrained quadratic; d((L,u), (leg,s)) = |u-s| or u+s
        legs, ts = np.moveaxis(points, -1, 0)
        best = None
        for leg in range(3):
            signed = np.where(legs == leg, ts, -ts)
            u = _dot(weights, signed)
            u = np.where(u > 0.0, u, 0.0)  # max(0.0, u)
            value = _dot(weights, (u[..., None] - signed) ** 2)
            if best is None:
                best = (value, np.zeros_like(u), u)
                continue
            better = value < best[0] - 1e-15
            best = tuple(np.where(better, new, old)
                         for new, old in zip((value, np.full_like(u, leg), u), best))
        return _tripod_rows(best[1], best[2])


_BACKENDS = {EUCLIDEAN: _Euclidean(), SPD: _SPD(), HYPERBOLOID: _Hyperboloid(),
             TRIPOD: _Tripod()}


def _apply(desc: SpaceDescriptor, name: str, p, *args):
    """Backend method `name` over the stacked payloads p (and args); raises
    NumericError when an element of the result fails."""
    with np.errstate(all="ignore"):
        out = getattr(_BACKENDS[desc.kind], name)(p, *args)
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


def _point(desc: SpaceDescriptor, payload: np.ndarray) -> SpacePoint:
    """The point of one checked payload, which becomes read-only."""
    if desc.kind == TRIPOD:
        leg, t = payload.tolist()
        return SpacePoint(desc, (int(leg), t))
    payload.flags.writeable = False
    return SpacePoint(desc, payload)


# -- batched operations -----------------------------------------------------------

def distances(desc: SpaceDescriptor, p, q) -> np.ndarray:
    """d(p, q) over the leading axes of two stacks of payloads."""
    return _apply(desc, "dist", p, q)


def geodesic_points(desc: SpaceDescriptor, p, q, t: float) -> np.ndarray:
    """Geodesic points at parameter t over the leading axes of two stacks."""
    return _apply(desc, "geodesic", p, q, t)


def _check_weights(weights, count: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (count,):
        raise StructuralError("one weight per point required")
    if not np.all(np.isfinite(w)):
        raise NumericError("non-finite weights")
    if w.min() < 0.0:
        raise StructuralError("weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise StructuralError("weights must sum to 1 within 1e-12")
    return w


def _karcher_step(backend, y, points, weights):
    """One fixed-point update of a batch: (residual norms, distances from y
    to the points, next iterates)."""
    return backend.step(y, points, weights)


def barycenters(desc: SpaceDescriptor, points, weights):
    """argmin of sum_j w_j d(x_j, .)^2 for each row of points (N, k, payload),
    all rows sharing one weight vector.

    Returns the stacked minimizers and the first failing row as (row, error),
    or None when no row fails.  A row fails with NumericError when a step
    gives it a non-finite residual, distance or iterate.  Rows above a failed
    row stop iterating, since they cannot change which failure comes first;
    once a row fails the values are undefined.  Smooth backends run the
    fixed-point Karcher iteration per row, started at the point of largest
    weight (ties: lowest index) and stopped once the tangent update norm falls
    below 1e-10 * (1 + largest first-step distance); a row returns the iterate
    before its last update.  The tripod uses the exact per-leg closed form.
    """
    backend = _BACKENDS[desc.kind]
    points = np.asarray(points, dtype=float)
    try:
        weights = _check_weights(weights, points.shape[1])
    except (StructuralError, NumericError) as exc:
        return points[:, 0], (0, exc)
    with np.errstate(all="ignore"):
        if desc.kind == TRIPOD:
            out = backend.barycenter(points, weights)
            bad = np.flatnonzero(~_finite(out, 1))
            return out, (int(bad[0]), _failure()) if bad.size else None
        y = points[:, int(np.argmax(weights))]
        out = y.copy()
        rows = np.arange(len(points))  # live rows, ascending
        first = None
        tol = None
        for _ in range(BARYCENTER_MAX_ITER):
            if not rows.size:
                return out, first
            residual, dists, nxt = _karcher_step(backend, y, points, weights)
            if tol is None:
                # start points are data points, so max distance <= data diameter
                tol = BARYCENTER_TOL * (1.0 + dists.max(axis=-1))
            failed = ~(np.isfinite(residual) & _finite(dists, 1)
                       & _finite(nxt, backend.core))
            done = ~failed & (residual <= tol)
            out[rows[done]] = y[done]
            live = ~failed & ~done
            if failed.any():
                r = np.flatnonzero(failed)[0]  # live rows lie below any earlier failure
                first = (int(rows[r]), _failure())
                live &= rows < first[0]
            if not live.all():
                rows, nxt, points, tol, residual = (
                    a[live] for a in (rows, nxt, points, tol, residual))
            y = nxt
    if not rows.size:
        return out, first
    return out, (int(rows[0]), SolverError("barycenter iteration did not converge",
                                           last_iterate=_point(desc, y[0]),
                                           residual=float(residual[0])))


# -- one-point operations ---------------------------------------------------------

def log_map(base: SpacePoint, x: SpacePoint) -> np.ndarray:
    """Tangent vector at base pointing to x (euclidean, spd, hyperboloid)."""
    return _apply(_check_same(base, x), "log", _payload(base), _payload(x))


def exp_map(base: SpacePoint, v: np.ndarray) -> SpacePoint:
    """Exponential map at base (euclidean, spd, hyperboloid)."""
    desc = base.descriptor
    return _point(desc, _apply(desc, "exp", _payload(base), np.asarray(v, dtype=float)))


def distance(p: SpacePoint, q: SpacePoint) -> float:
    return float(distances(_check_same(p, q), _payload(p), _payload(q)))


def geodesic_point(p: SpacePoint, q: SpacePoint, t: float) -> SpacePoint:
    """Point at parameter t in [0,1] on the unique geodesic from p to q."""
    desc = _check_same(p, q)
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"geodesic parameter must lie in [0,1], got {t}")
    if t == 0.0:
        return p
    if t == 1.0:
        return q
    return _point(desc, geodesic_points(desc, _payload(p), _payload(q), t))


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
    out, failure = barycenters(desc, stack_payloads(problem.points, desc)[None],
                               problem.weights)
    if failure:
        raise failure[1]
    return _point(desc, out[0])


def npc_residual(x0: SpacePoint, x1: SpacePoint, z: SpacePoint) -> float:
    """d(z,m)^2 - [d(z,x0)^2/2 + d(z,x1)^2/2 - d(x0,x1)^2/4] for the midpoint m.

    Nonpositive on any space of nonpositive curvature.
    """
    _check_same(x0, x1)
    _check_same(x0, z)
    m = geodesic_point(x0, x1, 0.5)
    return (distance(z, m) ** 2
            - 0.5 * distance(z, x0) ** 2
            - 0.5 * distance(z, x1) ** 2
            + 0.25 * distance(x0, x1) ** 2)


def points_equal(p: SpacePoint, q: SpacePoint, tol: float = POINT_TOL) -> bool:
    if p.descriptor != q.descriptor:
        return False
    if p.descriptor.kind == TRIPOD:
        return distance(p, q) <= tol
    return bool(np.all(np.abs(p.payload - q.payload) <= tol))


# -- random data --------------------------------------------------------------

def random_point(descriptor: SpaceDescriptor, rng: np.random.Generator) -> SpacePoint:
    """Sampler used by randomized trials; bounded-diameter data per backend."""
    kind = descriptor.kind
    if kind == EUCLIDEAN:
        return euclidean_point(rng.random(descriptor.dim))
    if kind == SPD:
        a = rng.uniform(-1.0, 1.0, (descriptor.dim, descriptor.dim))
        return spd_point(_expm(_sym(a)))
    if kind == HYPERBOLOID:
        d = descriptor.dim
        u = rng.standard_normal(d)
        norm = float(np.linalg.norm(u))
        if norm < 1e-12:
            return hyperboloid_from_spatial(np.zeros(d))
        radius = rng.random() ** (1.0 / d)
        v = np.concatenate(([0.0], (radius / norm) * u))
        return exp_map(hyperboloid_from_spatial(np.zeros(d)), v)
    return tripod_point(int(rng.integers(3)), float(rng.random()))


# -- JSON encodings -----------------------------------------------------------

def descriptor_to_json(desc: SpaceDescriptor) -> dict:
    return {"kind": desc.kind, "dim": desc.dim}


def descriptor_from_json(obj: dict) -> SpaceDescriptor:
    try:
        return SpaceDescriptor(str(obj["kind"]), int(obj.get("dim", 1)))
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"bad descriptor object: {obj!r}") from exc


def point_to_json(p: SpacePoint) -> dict:
    return payloads_to_json(p.descriptor, np.asarray(p.payload, dtype=float)[None])[0]


def payloads_to_json(desc: SpaceDescriptor, payloads: np.ndarray) -> list:
    """The point objects of a stack of payloads, one per leading row, without
    building the points; a tripod row (leg, t) writes leg as an int."""
    if desc.kind == TRIPOD:
        return [{"leg": int(leg), "t": t} for leg, t in payloads.tolist()]
    key = {EUCLIDEAN: "v", SPD: "m", HYPERBOLOID: "p"}[desc.kind]
    return [{key: row} for row in payloads.tolist()]


def point_from_json(desc: SpaceDescriptor, obj: dict) -> SpacePoint:
    try:
        if desc.kind == EUCLIDEAN:
            pt = euclidean_point(obj["v"])
        elif desc.kind == SPD:
            pt = spd_point(obj["m"])
        elif desc.kind == HYPERBOLOID:
            pt = hyperboloid_point(obj["p"])
        else:
            pt = tripod_point(obj["leg"], obj["t"])
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"bad point object for {desc.kind}: {obj!r}") from exc
    if pt.descriptor != desc:
        raise StructuralError(
            f"point does not match descriptor {desc}: {obj!r}")
    return pt
