"""Bench-side output checks that do not call the package under test.

Every check raises CheckError with a short reason.  The oracles work on the
JSON the CLI wrote and on the inputs the bench generated, with numpy and the
standard library only.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9      # relative slack for floating-point membership tests
SUM_TOL = 1e-12     # partition of unity and row sums
TV_DELTA = 1e-9     # false-alarm probability of one Monte Carlo check


class CheckError(Exception):
    """A job's output failed its bench-side check."""


def require(cond: bool, reason: str):
    if not cond:
        raise CheckError(reason)


# -- masks ---------------------------------------------------------------------

def mask_items(mask: dict):
    """(index tuple, coefficient) over the nonzero entries of a mask JSON."""
    coeffs = np.asarray(mask["coeffs"], dtype=float)
    offset = mask["offset"]
    return [(tuple(int(l) + o for l, o in zip(local, offset)), float(coeffs[local]))
            for local in zip(*np.nonzero(coeffs))]


def support_box(mask: dict):
    idx = [i for i, _ in mask_items(mask)]
    dim = mask["dim"]
    return ([min(i[k] for i in idx) for k in range(dim)],
            [max(i[k] for i in idx) for k in range(dim)])


def support_radius(mask: dict) -> float:
    return max(math.sqrt(sum(k * k for k in i)) for i, _ in mask_items(mask))


def pushforward(mask: dict, start, steps: int) -> dict:
    """Exact n-step law of the chain i -> j with probability a_{i-2j}.

    Dyadic masks keep every product and partial sum exact in binary floating
    point, so the result can be compared with the CLI's rows bit for bit.
    """
    items = mask_items(mask)
    law = {tuple(start): 1.0}
    for _ in range(steps):
        nxt = {}
        for i, p in law.items():
            for m, w in items:
                num = [ik - mk for ik, mk in zip(i, m)]
                if any(t % 2 for t in num):
                    continue
                j = tuple(t // 2 for t in num)
                nxt[j] = nxt.get(j, 0.0) + p * w
        law = nxt
    return law


# -- points --------------------------------------------------------------------

def spd_eigs(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    scale = 1.0 + float(np.abs(a).max())
    require(a.ndim == 2 and a.shape[0] == a.shape[1], "spd point is not square")
    require(float(np.abs(a - a.T).max()) <= REL_TOL * scale, "spd point not symmetric")
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    require(bool(w.min() > 0.0), "spd point not positive definite")
    return w


def hyperboloid_time(p) -> float:
    a = np.asarray(p, dtype=float)
    require(a.ndim == 1 and a[0] > 0.0, "hyperboloid point off the upper sheet")
    form = float(a[1:] @ a[1:] - a[0] * a[0])
    require(abs(form + 1.0) <= REL_TOL * a[0] * a[0], "hyperboloid point off the sheet")
    return float(a[0])


class Hull:
    """A convex set holding the input data, so every barycenter stays in it.

    spd: eigenvalues within [min, max] of the inputs' eigenvalues (the
    weighted Karcher mean lies between the harmonic and arithmetic means in
    the Loewner order).  hyperboloid: the ball about the origin through the
    farthest input.  tripod: the ball about the glue point.
    """

    def __init__(self, kind: str, points: list):
        self.kind = kind
        if kind == "spd":
            eigs = np.concatenate([spd_eigs(p["m"]) for p in points])
            self.lo, self.hi = float(eigs.min()), float(eigs.max())
        elif kind == "hyperboloid":
            self.hi = max(hyperboloid_time(p["p"]) for p in points)
        else:
            self.hi = max(float(p["t"]) for p in points)

    def check(self, point: dict):
        if self.kind == "spd":
            w = spd_eigs(point["m"])
            require(w.min() >= self.lo * (1.0 - 1e-8) and w.max() <= self.hi * (1.0 + 1e-8),
                    "spd barycenter outside the data's eigenvalue range")
        elif self.kind == "hyperboloid":
            require(hyperboloid_time(point["p"]) <= self.hi * (1.0 + REL_TOL),
                    "hyperboloid barycenter outside the data ball")
        else:
            require(point["leg"] in (0, 1, 2) and 0.0 <= point["t"] <= self.hi * (1.0 + REL_TOL),
                    "tripod barycenter outside the data ball")


def finite_series(series, length: int, name: str):
    require(len(series) == length, f"{name} has length {len(series)}, expected {length}")
    require(all(math.isfinite(v) and v >= 0.0 for v in series), f"{name} not finite and >= 0")


# -- Monte Carlo -----------------------------------------------------------------

def tv_bound(trials: int, support: int) -> float:
    """Bretagnolle-Huber-Carol: P(TV >= eps) <= 2^K exp(-2 N eps^2)."""
    return math.sqrt((support * math.log(2.0) + math.log(1.0 / TV_DELTA)) / (2.0 * trials))
