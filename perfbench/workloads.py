"""Workload definitions: seeded input generation and per-job checks.

A workload is a fixed mix of job classes.  One round runs one job of every
class, in the order listed, and a run is a whole number of rounds.  Job k of
round r draws its inputs from numpy's generator keyed (seed, r, k), and the
generator redraws any input that repeats an earlier job of the run, so no two
jobs of a run are identical.  Round 0 is the warm-up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from oracles import (SUM_TOL, Hull, finite_series, mask_items, pushforward, require,
                     support_box, support_radius, tv_bound)


@dataclass
class Job:
    """One CLI invocation: argv tokens '@name' are replaced by file paths."""

    cls: str
    argv: list
    files: dict
    check: Callable[[dict], None]
    spread: bool = False  # spread-data share: a typed solver failure is allowed
    out: str = ""  # report path, set when the job's inputs are written

    def key(self) -> str:
        return json.dumps([self.cls, self.argv, self.files], sort_keys=True)


@dataclass
class Workload:
    name: str
    classes: list  # (class name, function taking an rng and returning a Job)
    round_s: float  # nominal seconds per untraced round on the reference box
    tail_pct: int   # highest percentile with >= 10 jobs beyond it in a normal run

    def make_round(self, seed: int, r: int, seen: set) -> list:
        jobs = []
        for k, (cls, build) in enumerate(self.classes):
            rng = np.random.default_rng([seed, r, k])
            for _ in range(100):
                # the first measured round carries the README witness itself
                job = witness(0, (0, 1, 2)) if build is gap_witness and r == 1 else build(rng)
                if job.key() not in seen:
                    break
            else:
                raise RuntimeError(f"{cls}: could not draw a fresh input")
            seen.add(job.key())
            job.cls = cls
            jobs.append(job)
        return jobs


# -- masks (bench-side copies, so inputs do not depend on the package) -----------

def _mask(offset, coeffs) -> dict:
    arr = np.asarray(coeffs, dtype=float)
    return {"dim": arr.ndim, "offset": list(offset), "coeffs": arr.tolist()}


HAT = _mask([-1], [0.5, 1.0, 0.5])
CHAIKIN = _mask([0], [0.25, 0.75, 0.75, 0.25])
CUBIC = _mask([-2], [0.125, 0.5, 0.75, 0.5, 0.125])
GAPPED = _mask([0], [1.0, 0.0, 0.0, 1.0])
TENSOR_HAT = _mask([-1, -1], np.multiply.outer([0.5, 1.0, 0.5], [0.5, 1.0, 0.5]))
HAT_FAMILY = (HAT, TENSOR_HAT)  # cascades with the closed form prod max(0, 1-|i|/2^n)
CENTRED = (HAT, CUBIC, TENSOR_HAT)  # approx error <= h on these


def translate(mask: dict, shift) -> dict:
    return dict(mask, offset=[o + s for o, s in zip(mask["offset"], shift)])


def _shift(rng, dim: int, span: int = 10 ** 6) -> list:
    return [int(v) for v in rng.integers(-span, span + 1, size=dim)]


def _lattice_arg(v) -> str:
    return ",".join(str(int(c)) for c in v)


# -- data ------------------------------------------------------------------------

def spd_gen(d: int, spread: float):
    """Random rotation with log-eigenvalues uniform in [-spread, spread]."""
    def gen(rng):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        m = (q * np.exp(rng.uniform(-spread, spread, d))) @ q.T
        return {"m": (0.5 * (m + m.T)).tolist()}
    return gen


def hyp_gen(d: int, rmin: float, rmax: float):
    """Random direction at geodesic distance in [rmin, rmax] from the origin."""
    def gen(rng):
        u = rng.standard_normal(d)
        v = math.sinh(rng.uniform(rmin, rmax)) * u / np.linalg.norm(u)
        return {"p": [math.sqrt(1.0 + float(v @ v))] + v.tolist()}
    return gen


def tripod_gen(rng):
    return {"leg": int(rng.integers(3)), "t": float(rng.uniform(0.0, 2.0))}


def _grid(kind: str, d: int, lo, hi, points) -> dict:
    return {"descriptor": {"kind": kind, "dim": d},
            "window": {"lo": list(lo), "hi": list(hi)},
            "extension": "constant_nearest", "points": points}


def _random_grid(rng, kind, d, shape, gen) -> dict:
    points = [gen(rng) for _ in range(math.prod(shape))]
    return _grid(kind, d, [0] * len(shape), [n - 1 for n in shape], points)


# -- curved_refine jobs ----------------------------------------------------------

def _check_refined(grid: dict, levels: int, out: dict):
    hull = Hull(grid["descriptor"]["kind"], grid["points"])
    scale = 2 ** levels
    lo = [scale * v for v in grid["window"]["lo"]]
    hi = [scale * v for v in grid["window"]["hi"]]
    require(out["descriptor"] == grid["descriptor"], "descriptor changed")
    require(out["window"] == {"lo": lo, "hi": hi}, "refined window is not the doubled box")
    require(len(out["points"]) == math.prod(h - l + 1 for l, h in zip(lo, hi)),
            "refined grid has the wrong number of points")
    for p in out["points"]:
        hull.check(p)


def subdivide(mask, kind, d, shape, levels, gen, spread=False):
    def build(rng):
        grid = _random_grid(rng, kind, d, shape, gen)

        def check(payload):
            require(payload["levels"] == levels, "wrong level count")
            finite_series(payload["d_inf_series"], levels + 1, "d_inf_series")
            finite_series(payload["gauge_series"], levels + 1, "gauge_series")
            _check_refined(grid, levels, payload["final"])

        return Job("", ["subdivide", "--mask", "@mask", "--data", "@data",
                        "--levels", str(levels)],
                   {"mask": mask, "data": grid}, check, spread)
    return build


def _check_diagnosis(payload, levels, trials):
    require(payload["n_max"] == levels and payload["trials"] == trials,
            "diagnosis echoes the wrong size")
    require(len(payload["verdicts"]) == trials
            and set(payload["verdicts"]) <= {"converging", "inconclusive"},
            "bad verdict list")
    for series in payload["cauchy_series"]:
        finite_series(series, levels, "cauchy_series")
    overall = ("converging" if all(v == "converging" for v in payload["verdicts"])
               else "inconclusive")
    require(payload["verdict"] == overall, "overall verdict disagrees with trials")


def diagnose_data(mask, kind, d, shape, levels, gen):
    def build(rng):
        grid = _random_grid(rng, kind, d, shape, gen)
        return Job("", ["diagnose", "--mask", "@mask", "--data", "@data",
                        "--levels", str(levels)],
                   {"mask": mask, "data": grid},
                   lambda payload: _check_diagnosis(payload, levels, 1))
    return build


def diagnose_space(mask, space, trials, levels):
    def build(rng):
        seed = int(rng.integers(2 ** 31))
        return Job("", ["diagnose", "--mask", "@mask", "--space", space,
                        "--trials", str(trials), "--levels", str(levels),
                        "--seed", str(seed)],
                   {"mask": mask},
                   lambda payload: _check_diagnosis(payload, levels, trials))
    return build


def approx(mask, space, levels):
    radius = support_radius(mask)
    centred = mask in CENTRED

    def check(payload):
        hs = [c["h"] for c in payload["checks"]]
        require(hs == [0.2, 0.1, 0.05], "unexpected h sweep")
        for c in payload["checks"]:
            require(abs(c["bound"] - radius * c["h"]) <= 1e-12, "bound is not R*L*h")
            require(c["ok"] and c["sup_err"] <= radius * c["h"] + 1e-8,
                    "sup_err exceeds the R*L*h bound")
            if centred:
                require(c["sup_err"] <= c["h"] + 1e-8, "sup_err exceeds h")

    def build(rng):
        seed = int(rng.integers(2 ** 31))
        return Job("", ["approx", "--mask", "@mask", "--space", space,
                        "--levels", str(levels), "--seed", str(seed)],
                   {"mask": mask}, check)
    return build


WITNESS = [{"leg": 2, "t": 2.0}, {"leg": 1, "t": 0.5}, {"leg": 0, "t": 2.0}]
WITNESS_GAP = 0.0625


def witness(shift: int, legs) -> Job:
    """The README tripod witness moved by a lattice shift and a relabelling
    of the legs; both are isometries of the problem, so the gap stays 1/16."""
    points = [{"leg": int(legs[p["leg"]]), "t": p["t"]} for p in WITNESS]
    grid = _grid("tripod", 1, [shift - 1], [shift + 1], points)

    def check(payload):
        require(abs(payload["gap"] - WITNESS_GAP) <= 1e-12,
                f"tripod witness gap {payload['gap']} != {WITNESS_GAP}")

    return Job("", ["gap", "--mask", "@mask", "--data", "@data",
                    f"--index={4 + 4 * shift}", "--steps", "2"],
               {"mask": CHAIKIN, "data": grid}, check)


def gap_witness(rng):
    return witness(int(rng.integers(-10 ** 6, 10 ** 6)), rng.permutation(3))


def gap(mask, kind, d, length, steps, gen):
    lo_m, hi_m = support_box(mask)
    # interior after `steps` levels, from the grid module's documented rule
    lo, hi = 0, length - 1
    for _ in range(steps):
        lo, hi = 2 * lo + max(hi_m[0] - 1, 0), 2 * hi + min(lo_m[0] + 1, 0)

    def build(rng):
        grid = _random_grid(rng, kind, d, (length,), gen)
        hull = Hull(kind, grid["points"])
        index = int(rng.integers(lo, hi + 1))

        def check(payload):
            g = payload["gap"]
            require(math.isfinite(g) and 0.0 <= g <= 2.0 * math.acosh(hull.hi) + 1e-9,
                    "gap outside [0, data diameter]")

        return Job("", ["gap", "--mask", "@mask", "--data", "@data",
                        "--index", str(index), "--steps", str(steps)],
                   {"mask": mask, "data": grid}, check)
    return build


# -- lattice_exact jobs ------------------------------------------------------------

def validate(base):
    def build(rng):
        mask = translate(base, _shift(rng, base["dim"]))
        lo, hi = support_box(mask)
        items = mask_items(mask)

        def check(payload):
            require(payload["sum_rule_ok"] and payload["nonnegative_ok"], "mask rejected")
            require(payload["support_box"] == {"lo": lo, "hi": hi}, "wrong support box")
            for entry in payload["coset_residuals"]:
                mass = sum(w for i, w in items
                           if all((ik - pk) % 2 == 0 for ik, pk in zip(i, entry["parity"])))
                require(abs(entry["residual"] - abs(mass - 1.0)) <= 1e-15,
                        "coset residual disagrees")
            require(payload["residual"] <= SUM_TOL, "sum-rule residual too large")

        return Job("", ["validate", "--mask", "@mask"], {"mask": mask}, check)
    return build


def cascade(base, levels):
    def build(rng):
        # small shifts only: the interlevel residual scans a box that grows
        # with the shift, and the hat's closed form moves to (2^n - 1) * shift
        shift = _shift(rng, base["dim"], span=16)
        mask = translate(base, shift)
        scale = 2 ** levels

        def check(payload):
            require(payload["level"] == levels, "wrong level")
            require(math.isfinite(payload["eps_n"]) and payload["eps_n"] >= 0.0, "bad eps_n")
            samples = payload["samples"]
            idx = [s["index"] for s in samples]
            dim = base["dim"]
            require(payload["support"] == {"lo": [min(i[k] for i in idx) for k in range(dim)],
                                           "hi": [max(i[k] for i in idx) for k in range(dim)]},
                    "support box disagrees with the samples")
            if base in HAT_FAMILY:
                centre = [(scale - 1) * s for s in shift]
                require(len(samples) == (2 * scale - 1) ** dim, "hat support size")
                for s in samples:
                    value = 1.0
                    for i, c in zip(s["index"], centre):
                        value *= max(0.0, (scale - abs(i - c)) / scale)
                    require(s["value"] == value, f"hat sample at {s['index']} is not exact")
                return
            sums = {}
            for s in samples:
                r = tuple(i % scale for i in s["index"])
                sums[r] = sums.get(r, 0.0) + s["value"]
            require(len(sums) == scale ** dim, "a residue class is missing")
            require(max(abs(v - 1.0) for v in sums.values()) <= SUM_TOL,
                    "partition of unity fails")

        return Job("", ["cascade", "--mask", "@mask", "--levels", str(levels)],
                   {"mask": mask}, check)
    return build


def certify(base, cap, found):
    def build(rng):
        mask = translate(base, _shift(rng, base["dim"]))

        def check(p):
            gamma = 1.0 - p["alpha_n"] + 2.0 * p["eps_n"] + p["M"] ** 2 * p["eps_n"] * p["eps_n"]
            require(p["gamma_n"] == gamma, "gamma identity does not hold exactly")
            require(p["found"] is found, f"found={p['found']}, expected {found}")
            if found:
                require(p["gamma_n"] < 1.0 and p["n0"] == p["level"] and 1 <= p["level"] <= cap,
                        "certificate level inconsistent")
            else:
                require(p["gamma_n"] >= 1.0 and p["n0"] is None and p["level"] == cap,
                        "failed search must stop at the cap")

        return Job("", ["certify", "--mask", "@mask", "--cap", str(cap)],
                   {"mask": mask}, check)
    return build


def _law(entries, key) -> dict:
    return {tuple(e["j"]): e[key] for e in entries}


def chain_exact(base, steps):
    def build(rng):
        shift = _shift(rng, base["dim"])
        mask = translate(base, shift)
        start = [-s + int(v) for s, v in zip(shift, rng.integers(-1000, 1001, base["dim"]))]

        def check(payload):
            probs = _law(payload["probs"], "p")
            require(abs(sum(probs.values()) - 1.0) <= SUM_TOL, "row does not sum to 1")
            require(probs == pushforward(mask, start, steps),
                    "row differs from the bench pushforward")

        return Job("", ["chain", "--mask", "@mask", f"--start={_lattice_arg(start)}",
                        "--steps", str(steps)], {"mask": mask}, check)
    return build


def lp_hat(steps):
    """Hat chain around its fixed point -t: E|X_n + t| = (start + t) / 2^n."""
    def build(rng):
        shift = _shift(rng, 1)
        mask = translate(HAT, shift)
        centre = -shift[0]
        m = int(rng.integers(1, 1001))

        def check(payload):
            moments = [c["moment"] for c in payload["curve"]]
            require(moments == [m / 2 ** n for n in range(1, steps + 1)],
                    "hat moments are not exactly m * 2^-n")

        return Job("", ["lp", "--mask", "@mask", f"--start={centre + m}",
                        f"--index={centre}", "--p", "1", "--max-steps", str(steps)],
                   {"mask": mask}, check)
    return build


def lp(base, steps, p):
    def build(rng):
        shift = _shift(rng, 1)
        mask = translate(base, shift)
        start = -shift[0] + int(rng.integers(-1000, 1001))
        centre = -shift[0] + int(rng.integers(-5, 6))

        def check(payload):
            for c in payload["curve"]:
                law = pushforward(mask, [start], c["n"])
                want = sum(w * abs(j[0] - centre) ** p for j, w in law.items())
                require(abs(c["moment"] - want) <= 1e-12 * max(1.0, want),
                        f"moment at n={c['n']} differs from the pushforward")

        return Job("", ["lp", "--mask", "@mask", f"--start={start}", f"--index={centre}",
                        "--p", str(p), "--max-steps", str(steps)], {"mask": mask}, check)
    return build


# -- chain_mc jobs -----------------------------------------------------------------

def chain_mc(base, steps, trials):
    def build(rng):
        shift = _shift(rng, base["dim"])
        mask = translate(base, shift)
        start = [-s + int(v) for s, v in zip(shift, rng.integers(-50, 51, base["dim"]))]
        seed = int(rng.integers(2 ** 31))

        def check(payload):
            freq = _law(payload["freq"], "p")
            exact = pushforward(mask, start, steps)
            require(abs(sum(freq.values()) - 1.0) <= SUM_TOL, "frequencies do not sum to 1")
            require(set(freq) <= set(exact), "Monte Carlo reached an impossible state")
            tv = 0.5 * sum(abs(freq.get(j, 0.0) - w) for j, w in exact.items())
            require(tv <= tv_bound(trials, len(exact)),
                    f"TV {tv:.4f} above the {trials}-trial bound")

        return Job("", ["chain", "--mask", "@mask", f"--start={_lattice_arg(start)}",
                        "--steps", str(steps), "--mc", f"trials={trials}",
                        "--seed", str(seed)], {"mask": mask}, check)
    return build


# -- the workloads -----------------------------------------------------------------

CURVED_REFINE = Workload(
    name="curved_refine",
    classes=[
        ("subdivide.chaikin.spd2.1d", subdivide(CHAIKIN, "spd", 2, (10,), 6, spd_gen(2, 1.0))),
        ("subdivide.chaikin.spd3.1d", subdivide(CHAIKIN, "spd", 3, (8,), 5, spd_gen(3, 1.0))),
        ("subdivide.cubic.hyp2.1d", subdivide(CUBIC, "hyperboloid", 2, (10,), 6,
                                              hyp_gen(2, 0.0, 1.0))),
        ("subdivide.cubic.hyp3.1d", subdivide(CUBIC, "hyperboloid", 3, (10,), 5,
                                              hyp_gen(3, 0.0, 1.0))),
        ("subdivide.cubic.spd3.1d", subdivide(CUBIC, "spd", 3, (8,), 5, spd_gen(3, 1.0))),
        ("subdivide.tensorhat.spd2.2d", subdivide(TENSOR_HAT, "spd", 2, (5, 5), 3,
                                                  spd_gen(2, 1.0))),
        ("subdivide.tensorhat.hyp3.2d", subdivide(TENSOR_HAT, "hyperboloid", 3, (5, 5), 2,
                                                  hyp_gen(3, 0.0, 1.0))),
        ("subdivide.chaikin.tripod.1d", subdivide(CHAIKIN, "tripod", 1, (10,), 6, tripod_gen)),
        ("diagnose.chaikin.hyp2.data", diagnose_data(CHAIKIN, "hyperboloid", 2, (10,), 5,
                                                     hyp_gen(2, 0.0, 1.0))),
        ("diagnose.cubic.spd2.space", diagnose_space(CUBIC, "spd:2", 2, 4)),
        ("diagnose.tensorhat.hyp2.space", diagnose_space(TENSOR_HAT, "hyperboloid:2", 1, 2)),
        ("approx.chaikin.hyp3", approx(CHAIKIN, "hyperboloid:3", 5)),
        ("approx.cubic.spd2", approx(CUBIC, "spd:2", 4)),
        ("gap.chaikin.tripod.witness", gap_witness),
        ("gap.cubic.hyp2", gap(CUBIC, "hyperboloid", 2, 10, 3, hyp_gen(2, 0.0, 1.0))),
        # spread data (ROADMAP item 2): hyperboloid radius in [3, 4], spd
        # log-eigenvalues in [-4, 4]; the 2-point Chaikin case never fails
        ("subdivide.cubic.hyp2.spread", subdivide(CUBIC, "hyperboloid", 2, (10,), 5,
                                                  hyp_gen(2, 3.0, 4.0), spread=True)),
        ("subdivide.cubic.spd3.spread", subdivide(CUBIC, "spd", 3, (8,), 5,
                                                  spd_gen(3, 4.0), spread=True)),
        ("subdivide.tensorhat.spd2.spread", subdivide(TENSOR_HAT, "spd", 2, (5, 5), 2,
                                                      spd_gen(2, 4.0), spread=True)),
        ("subdivide.chaikin.hyp3.spread", subdivide(CHAIKIN, "hyperboloid", 3, (10,), 6,
                                                    hyp_gen(3, 3.0, 4.0), spread=True)),
    ],
    round_s=6.3,
    tail_pct=85,
)

LATTICE_EXACT = Workload(
    name="lattice_exact",
    classes=[
        # eight cheap classes below the two exact-row classes keep the median
        # inside their block; two tensor-hat level-5 cascades give p90 a block
        ("validate.chaikin", validate(CHAIKIN)),
        ("validate.cubic", validate(CUBIC)),
        ("validate.gapped", validate(GAPPED)),
        ("cascade.hat.L11", cascade(HAT, 11)),
        ("cascade.chaikin.L10", cascade(CHAIKIN, 10)),
        ("cascade.cubic.L10", cascade(CUBIC, 10)),
        ("cascade.tensorhat.L5.a", cascade(TENSOR_HAT, 5)),
        ("cascade.tensorhat.L5.b", cascade(TENSOR_HAT, 5)),
        ("cascade.tensorhat.L6", cascade(TENSOR_HAT, 6)),
        ("certify.hat.cap10", certify(HAT, 10, True)),
        ("certify.chaikin.cap9", certify(CHAIKIN, 9, True)),
        ("certify.cubic.cap8", certify(CUBIC, 8, True)),
        ("certify.gapped.cap9", certify(GAPPED, 9, False)),
        ("chain.chaikin.exact14", chain_exact(CHAIKIN, 14)),
        ("chain.cubic.exact12", chain_exact(CUBIC, 12)),
        ("chain.hat.exact13", chain_exact(HAT, 13)),
        ("lp.hat.p1", lp_hat(10)),
        ("lp.chaikin.p2", lp(CHAIKIN, 12, 2.0)),
        ("lp.cubic.p1.5", lp(CUBIC, 10, 1.5)),
    ],
    round_s=4.2,
    tail_pct=90,
)

CHAIN_MC = Workload(
    name="chain_mc",
    classes=[
        # cost tiers by trial count (1e4, 2e4, 3e4, 1e5), so the median falls in the
        # middle of the 2e4 tier and p75 inside the 3e4 tier
        ("mc.hat.s1.n1e4", chain_mc(HAT, 1, 10000)),
        ("mc.chaikin.s2.n1e4", chain_mc(CHAIKIN, 2, 10000)),
        ("mc.tensorhat.s3.n1e4", chain_mc(TENSOR_HAT, 3, 10000)),
        ("mc.hat.s4.n2e4", chain_mc(HAT, 4, 20000)),
        ("mc.chaikin.s5.n2e4", chain_mc(CHAIKIN, 5, 20000)),
        ("mc.tensorhat.s2.n2e4", chain_mc(TENSOR_HAT, 2, 20000)),
        ("mc.hat.s6.n3e4", chain_mc(HAT, 6, 30000)),
        ("mc.tensorhat.s6.n3e4", chain_mc(TENSOR_HAT, 6, 30000)),
        ("mc.chaikin.s4.n1e5", chain_mc(CHAIKIN, 4, 100000)),
    ],
    round_s=5.0,
    tail_pct=75,
)

WORKLOADS = {w.name: w for w in (CURVED_REFINE, LATTICE_EXACT, CHAIN_MC)}

__all__ = ["Job", "Workload", "WORKLOADS"]
