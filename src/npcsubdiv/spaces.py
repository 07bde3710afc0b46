"""Metric-space backends with nonpositive curvature.

Four backends share one interface: euclidean vectors, symmetric
positive-definite matrices with the affine-invariant metric, the hyperboloid
model of hyperbolic space, and the tripod (three rays glued at their
endpoints).  Each supplies distance, geodesics, and a weighted Frechet-mean
(barycenter) solver; the smooth backends also expose exp/log maps.
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


def _mink(p, q) -> float:
    # Minkowski form: -p0*q0 + sum_k pk*qk
    return float(p[1:] @ q[1:] - p[0] * q[0])


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


# -- spd helpers: all matrix functions go through eigenvalues ----------------

def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _eigh_fn(m: np.ndarray, fn) -> np.ndarray:
    w, v = np.linalg.eigh(_sym(m))
    return _sym((v * fn(w)) @ v.T)


def _logm(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(_sym(m))
    if w.min() <= 0.0:
        raise NumericError("matrix log of a non positive definite argument")
    return _sym((v * np.log(w)) @ v.T)


def _expm(m: np.ndarray) -> np.ndarray:
    return _eigh_fn(m, np.exp)


def _sqrt_pair(m: np.ndarray):
    w, v = np.linalg.eigh(_sym(m))
    if w.min() <= 0.0:
        raise NumericError("matrix sqrt of a non positive definite argument")
    s = np.sqrt(w)
    return _sym((v * s) @ v.T), _sym((v / s) @ v.T)


# -- hyperboloid helpers ------------------------------------------------------

def _hyp_renorm(p: np.ndarray) -> np.ndarray:
    # project back onto the sheet to damp drift
    q = p.copy()
    q[0] = math.sqrt(1.0 + float(q[1:] @ q[1:]))
    return q


def _hyp_dist(p: np.ndarray, q: np.ndarray) -> float:
    # chordal form avoids cancellation for nearby points
    d = q - p
    s = max(_mink(d, d), 0.0)
    return 2.0 * math.asinh(0.5 * math.sqrt(s))


def _hyp_log(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    alpha = -_mink(p, q)
    t = alpha - 1.0
    if t <= 0.0:
        return np.zeros_like(p)
    u = q - alpha * p
    if t < 1e-8:
        scale = math.sqrt(2.0 / (alpha + 1.0)) * (1.0 - t / 12.0)
    else:
        scale = math.acosh(alpha) / math.sqrt(alpha * alpha - 1.0)
    return scale * u


def _hyp_exp(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    n = math.sqrt(max(_mink(v, v), 0.0))
    if n < 1e-16:
        return p
    return _hyp_renorm(math.cosh(n) * p + (math.sinh(n) / n) * v)


# -- public exp/log (smooth backends) ----------------------------------------

def log_map(base: SpacePoint, x: SpacePoint) -> np.ndarray:
    """Tangent vector at base pointing to x (euclidean, spd, hyperboloid)."""
    desc = _check_same(base, x)
    if desc.kind == EUCLIDEAN:
        return x.payload - base.payload
    if desc.kind == SPD:
        s, si = _sqrt_pair(base.payload)
        return _sym(s @ _logm(si @ x.payload @ si) @ s)
    if desc.kind == HYPERBOLOID:
        return _hyp_log(base.payload, x.payload)
    raise DomainError("tripod backend has no exp/log maps")


def exp_map(base: SpacePoint, v: np.ndarray) -> SpacePoint:
    """Exponential map at base (euclidean, spd, hyperboloid)."""
    desc = base.descriptor
    if desc.kind == EUCLIDEAN:
        return SpacePoint(desc, _readonly(base.payload + v))
    if desc.kind == SPD:
        s, si = _sqrt_pair(base.payload)
        return SpacePoint(desc, _readonly(_sym(s @ _expm(_sym(si @ v @ si)) @ s)))
    if desc.kind == HYPERBOLOID:
        return SpacePoint(desc, _readonly(_hyp_exp(base.payload, np.asarray(v))))
    raise DomainError("tripod backend has no exp/log maps")


# -- core operations ----------------------------------------------------------

def distance(p: SpacePoint, q: SpacePoint) -> float:
    kind = _check_same(p, q).kind
    if kind == EUCLIDEAN:
        return float(np.linalg.norm(p.payload - q.payload))
    if kind == SPD:
        _, si = _sqrt_pair(p.payload)
        w = np.linalg.eigvalsh(_sym(si @ q.payload @ si))
        if w.min() <= 0.0:
            raise NumericError("degenerate spd pair")
        return float(np.linalg.norm(np.log(w)))
    if kind == HYPERBOLOID:
        return _hyp_dist(p.payload, q.payload)
    leg_p, t_p = p.payload
    leg_q, t_q = q.payload
    if leg_p == leg_q:
        return abs(t_p - t_q)
    return t_p + t_q


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
    kind = desc.kind
    if kind == EUCLIDEAN:
        return SpacePoint(desc, _readonly((1.0 - t) * p.payload + t * q.payload))
    if kind == SPD:
        s, si = _sqrt_pair(p.payload)
        w, v = np.linalg.eigh(_sym(si @ q.payload @ si))
        if w.min() <= 0.0:
            raise NumericError("degenerate spd pair")
        mid = _sym((v * np.power(w, t)) @ v.T)
        return SpacePoint(desc, _readonly(_sym(s @ mid @ s)))
    if kind == HYPERBOLOID:
        return SpacePoint(desc, _readonly(_hyp_exp(p.payload, t * _hyp_log(p.payload, q.payload))))
    leg_p, t_p = p.payload
    leg_q, t_q = q.payload
    if leg_p == leg_q:
        return tripod_point(leg_p, (1.0 - t) * t_p + t * t_q)
    # path runs through the glue point
    along = t * (t_p + t_q)
    if along <= t_p:
        return tripod_point(leg_p, t_p - along)
    return tripod_point(leg_q, along - t_p)


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
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.points),):
            raise StructuralError("one weight per point required")
        if not np.all(np.isfinite(w)):
            raise NumericError("non-finite weights")
        if w.min() < 0.0:
            raise StructuralError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise StructuralError("weights must sum to 1 within 1e-12")
        self.weights = w


def _tripod_barycenter(points, weights) -> SpacePoint:
    # per-leg constrained quadratic; d((L,u), (leg,s)) = |u-s| or u+s
    legs = np.array([pt.payload[0] for pt in points])
    ts = np.array([pt.payload[1] for pt in points])
    best = None
    for leg in range(3):
        signed = np.where(legs == leg, ts, -ts)
        u = max(0.0, float(weights @ signed))
        value = float(weights @ (u - signed) ** 2)
        if best is None or value < best[0] - 1e-15:
            best = (value, leg, u)
    return tripod_point(best[1], best[2])


def _karcher_step(y: SpacePoint, points, weights):
    """One fixed-point update; returns (residual norm, distances, next point)."""
    kind = y.descriptor.kind
    if kind == EUCLIDEAN:
        logs = [pt.payload - y.payload for pt in points]
        v = sum(w * l for w, l in zip(weights, logs))
        dists = [float(np.linalg.norm(l)) for l in logs]
        return float(np.linalg.norm(v)), dists, SpacePoint(y.descriptor, _readonly(y.payload + v))
    if kind == SPD:
        s, si = _sqrt_pair(y.payload)
        logs = [_logm(_sym(si @ pt.payload @ si)) for pt in points]
        v = sum(w * l for w, l in zip(weights, logs))
        dists = [float(np.linalg.norm(l)) for l in logs]  # affine-invariant norm
        nxt = SpacePoint(y.descriptor, _readonly(_sym(s @ _expm(v) @ s)))
        return float(np.linalg.norm(v)), dists, nxt
    # hyperboloid
    logs = [_hyp_log(y.payload, pt.payload) for pt in points]
    v = sum(w * l for w, l in zip(weights, logs))
    dists = [math.sqrt(max(_mink(l, l), 0.0)) for l in logs]
    res = math.sqrt(max(_mink(v, v), 0.0))
    return res, dists, SpacePoint(y.descriptor, _readonly(_hyp_exp(y.payload, v)))


def weighted_barycenter(problem: BarycenterProblem) -> SpacePoint:
    """argmin of sum_j w_j d(x_j, .)^2.

    Smooth backends use the fixed-point Karcher iteration started at the
    point of largest weight (ties: lowest index), stopping once the tangent
    update norm falls below 1e-10 * (1 + data diameter).  The tripod uses the
    exact per-leg closed form.
    """
    points, weights = problem.points, problem.weights
    desc = points[0].descriptor
    if desc.kind == TRIPOD:
        return _tripod_barycenter(points, weights)
    y = points[int(np.argmax(weights))]
    residual = 0.0
    tol = None
    for _ in range(BARYCENTER_MAX_ITER):
        residual, dists, nxt = _karcher_step(y, points, weights)
        if tol is None:
            # start point is a data point, so max distance <= data diameter
            tol = BARYCENTER_TOL * (1.0 + max(dists, default=0.0))
        if residual <= tol:
            return y
        y = nxt
    raise SolverError("barycenter iteration did not converge",
                      last_iterate=y, residual=residual)


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
    kind = p.descriptor.kind
    if kind == EUCLIDEAN:
        return {"v": p.payload.tolist()}
    if kind == SPD:
        return {"m": p.payload.tolist()}
    if kind == HYPERBOLOID:
        return {"p": p.payload.tolist()}
    leg, t = p.payload
    return {"leg": leg, "t": t}


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
