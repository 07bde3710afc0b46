"""Acceptance battery: twelve end-to-end checks at fixed tolerances.

Every test prints exactly one [acceptance] line with PASS/FAIL, a short
numeric detail, and its runtime against the budget, so the pytest report
doubles as a release checklist.  Run with -rP (the repo default) to see the
lines for passing tests too.
"""

import math
import time

import numpy as np

from npcsubdiv import (SpaceDescriptor, ball_confinement, bspline_mask,
                       cascade, chaikin_mask, contractivity_certificate,
                       default_gauge, distance, empirical_gamma, gauge_value,
                       geodesic_sampler, approximation_error, iterate,
                       kernel_row, lp_moment, make_mask,
                       nonassociativity_gap, npc_residual, random_point,
                       simulate_chain, stationary_from_refinable, subdivide,
                       dispersion_gap, tensor_power, tripod_point)
from npcsubdiv.grid import (box_indices, check_interior_depth,
                            grid_from_points, random_grid)
from oracles import linear_refine, tv

B = bspline_mask()
C = chaikin_mask()
BB = tensor_power(B, 2)
GAPPED = make_mask((0,), [1.0, 0.0, 0.0, 1.0])

EUC2 = SpaceDescriptor("euclidean", 2)
TRI = SpaceDescriptor("tripod")
BACKENDS = (SpaceDescriptor("euclidean", 3), SpaceDescriptor("spd", 2),
            SpaceDescriptor("spd", 3), SpaceDescriptor("hyperboloid", 2),
            SpaceDescriptor("hyperboloid", 3), TRI)


def crit(num, name, budget_s, body):
    started = time.perf_counter()
    ok, detail = body()
    elapsed = time.perf_counter() - started
    verdict = "PASS" if (ok and elapsed < budget_s) else "FAIL"
    line = (f"[acceptance] criterion {num:02d} {name}: {verdict} "
            f"({detail}; {elapsed:.2f}s, budget {budget_s:.0f}s)")
    print(line)
    assert ok and elapsed < budget_s, line


def test_criterion_01_linear_equivalence():
    def body():
        worst = 0.0
        for mi, (mask, dim) in enumerate(((B, 1), (C, 1), (BB, 2))):
            for trial in range(50):
                rng = np.random.default_rng([101, mi, trial])
                x = random_grid(EUC2, (0,) * dim, (4,) * dim, rng)
                lhs = subdivide(mask, x)
                rhs = linear_refine(mask, x)
                worst = max(worst, max(
                    float(np.max(np.abs(lhs.get(i).payload - rhs[i])))
                    for i in lhs.indices()))
        return worst <= 1e-12, f"worst gap {worst:.2e} over 150 instances"

    crit(1, "barycentric agrees with the linear scheme on euclidean data",
         10.0, body)


def test_criterion_02_npc_backend_soundness():
    def body():
        worst = -math.inf
        for bi, desc in enumerate(BACKENDS):
            for trial in range(500):
                rng = np.random.default_rng([202, bi, trial])
                x0 = random_point(desc, rng)
                x1 = random_point(desc, rng)
                z = random_point(desc, rng)
                worst = max(worst, npc_residual(x0, x1, z))
        return worst <= 1e-9, f"max residual {worst:.2e} over 3000 triples"

    crit(2, "midpoints satisfy the NPC inequality on every backend", 30.0, body)


def test_criterion_03_hat_function_exactness():
    def body():
        for n in range(1, 11):
            samples = cascade(B, n)
            if samples.eps_n != 0.0:
                return False, f"eps_{n} = {samples.eps_n}"
            scale = 2.0 ** n
            for i, v in samples.values.nonzero_items():
                if v != max(0.0, 1.0 - abs(i[0]) / scale):
                    return False, f"level {n} index {i}: {v}"
        return True, "levels 1..10 exact, eps_n = 0 throughout"

    crit(3, "cascade of the hat mask reproduces the hat function exactly",
         5.0, body)


def test_criterion_04_contractivity_certificates():
    def body():
        cb = contractivity_certificate(B, 8)
        cc = contractivity_certificate(C, 8)
        cg = contractivity_certificate(GAPPED, 8)
        ok = cb.found and cb.n0 <= 8 and cc.found and cc.n0 <= 8
        for cert in (cb, cc):
            ok = ok and cert.gamma_n == (1.0 - cert.alpha_n + 2.0 * cert.eps_n
                                         + (cert.M * cert.eps_n) ** 2)
            ok = ok and cert.gamma_n < 1.0
        ok = ok and not cg.found and cg.level == 8
        detail = (f"b: n0={cb.n0} gamma={cb.gamma_n}; chaikin: n0={cc.n0} "
                  f"gamma={cc.gamma_n}; gapped: found={cg.found}")
        return ok, detail

    crit(4, "weak-contraction certificates with the gamma identity", 20.0, body)


def test_criterion_05_geometric_decay_on_curved_data():
    def body():
        spaces = (SpaceDescriptor("spd", 2), SpaceDescriptor("hyperboloid", 2))
        rates = {}
        ok = True
        for desc in spaces:
            gb = empirical_gamma(B, desc, trials=20, n_max=6, seed=5)
            gc = empirical_gamma(C, desc, trials=20, n_max=6, seed=5)
            rates[desc.kind] = (gb.gamma_hat, gc.gamma_hat)
            ok = ok and gb.gamma_hat <= 0.55 and gc.gamma_hat < 1.0 - 1e-2
        detail = "; ".join(f"{k}: b {v[0]:.3f}, chaikin {v[1]:.3f}"
                           for k, v in rates.items())
        return ok, detail

    crit(5, "interlevel distances decay geometrically on spd and hyperboloid",
         180.0, body)


def test_criterion_06_conditional_jensen_inequality():
    def body():
        worst = -math.inf
        checks = 0
        for trial in range(200):
            rng = np.random.default_rng([606, trial])
            mask = (B, C)[trial % 2]
            desc = BACKENDS[trial % len(BACKENDS)]
            n = 1 + trial % 3
            x = random_grid(desc, (-2,), (2,), rng)
            z = random_point(desc, rng)
            trace = iterate(mask, x, n)
            lo, hi = trace.interiors[n]
            for i in box_indices(lo, hi):
                lhs = distance(trace.levels[n].get(i), z)
                rhs = sum(w * distance(x.get(k), z)
                          for k, w in kernel_row(mask, i, n).probs.items())
                worst = max(worst, lhs - rhs)
                checks += 1
        return worst <= 1e-8, f"max slack {worst:.2e} over {checks} checks"

    crit(6, "n-step values obey the conditional Jensen inequality", 120.0, body)


def test_criterion_07_kernel_laws():
    def body():
        starts = {id(B): ((0,), (1,), (3,)), id(C): ((0,), (1,), (3,)),
                  id(BB): ((1, 1), (0, 1))}
        worst_sum = 0.0
        worst_ck = 0.0
        for mask in (B, C, BB):
            for start in starts[id(mask)]:
                for n in range(1, 7):
                    full = kernel_row(mask, start, n).probs
                    worst_sum = max(worst_sum, abs(sum(full.values()) - 1.0))
                    for m in range(1, n):
                        composed = {}
                        for j, wj in kernel_row(mask, start, m).probs.items():
                            row = kernel_row(mask, j, n - m).probs
                            for i, wi in row.items():
                                composed[i] = composed.get(i, 0.0) + wj * wi
                        keys = set(full) | set(composed)
                        worst_ck = max(worst_ck, max(
                            abs(full.get(i, 0.0) - composed.get(i, 0.0))
                            for i in keys))
        ok = worst_sum <= 1e-12 and worst_ck <= 1e-12
        return ok, f"sum defect {worst_sum:.2e}, CK defect {worst_ck:.2e}"

    crit(7, "rows are stochastic and satisfy Chapman-Kolmogorov", 10.0, body)


def test_criterion_08_lp_dichotomy():
    def body():
        for n in range(1, 11):
            if lp_moment(B, (1,), n, 1.0, (0,)) != 2.0 ** -n:
                return False, f"hat moment off at n={n}"
        gaps = [dispersion_gap(C, (0,), n, 1.0) for n in range(4, 9)]
        if min(gaps) < 0.1:
            return False, f"chaikin dispersion collapsed: {min(gaps):.3f}"
        flag_b = stationary_from_refinable(cascade(B, 4)).interpolatory
        flag_bb = stationary_from_refinable(cascade(BB, 3)).interpolatory
        flag_c = stationary_from_refinable(cascade(C, 6)).interpolatory
        ok = flag_b == (0,) and flag_bb == (0, 0) and flag_c is None
        detail = (f"hat exact to n=10, chaikin dispersion >= {min(gaps):.3f}, "
                  f"flags {flag_b}/{flag_bb}/{flag_c}")
        return ok, detail

    crit(8, "L^p moments separate interpolatory from non-interpolatory",
         30.0, body)


def test_criterion_09_ball_confinement():
    def body():
        checked = 0
        radius = 0.0
        for mask in (B, C):
            gauge = default_gauge(mask)
            for n in range(1, 5):
                bound = 2 ** n
                s = 0
                while gauge_value(gauge, (s,)) <= bound:
                    for start in ((s,),) if s == 0 else ((s,), (-s,)):
                        r = ball_confinement(mask, start, n)
                        checked += 1
                        radius = max(radius, r.gauge_radius)
                        if not r.confined:
                            return False, f"{start} escapes at n={n}"
                    s += 1
        return radius <= 2.0, f"{checked} starts confined, max gauge {radius}"

    crit(9, "the doubled gauge ball traps the chain", 10.0, body)


def test_criterion_10_approximation_bound():
    def body():
        hyp2 = SpaceDescriptor("hyperboloid", 2)
        f = geodesic_sampler(hyp2, seed=0)
        checks = [approximation_error(B, hyp2, f, lipschitz=1.0, h=h, n=5)
                  for h in (0.2, 0.1, 0.05)]
        ok = all(c.ok and c.sup_err <= c.h + 1e-8 for c in checks)
        for coarse, fine in zip(checks, checks[1:]):
            ok = ok and fine.sup_err <= 0.5 * coarse.sup_err + 1e-8
        detail = ", ".join(f"h={c.h}: sup {c.sup_err:.2e}" for c in checks)
        return ok, detail

    crit(10, "sampled geodesics meet the Lipschitz approximation bound",
         60.0, body)


def test_criterion_11_nonassociativity_witness():
    def search(descriptor, seed, cap, point_of):
        rng = np.random.default_rng(seed)
        tvals = (0.25, 0.5, 1.0, 2.0)
        best = (0.0, None)
        for config in range(cap):
            mask = (B, C)[int(rng.integers(2))]
            n = 1 + int(rng.integers(2))
            pts = [point_of(rng, tvals) for _ in range(3)]
            x = grid_from_points(descriptor, (-1,), (1,), pts)
            boxes = check_interior_depth(mask, (-1,), (1,), n)
            for i in box_indices(*boxes[n]):
                gap = nonassociativity_gap(mask, x, i, n)
                if gap > best[0]:
                    best = (gap, config)
            if descriptor.kind == "tripod" and best[0] > 1e-3:
                break
        return best

    def body():
        def tripod_of(rng, tvals):
            return tripod_point(int(rng.integers(3)),
                                float(tvals[rng.integers(len(tvals))]))

        found_gap, found_at = search(TRI, 11, 500, tripod_of)
        control_gap, _ = search(EUC2, 11, 100,
                                lambda rng, _: random_point(EUC2, rng))
        witness = grid_from_points(TRI, (-1,), (1,), [
            tripod_point(2, 2.0), tripod_point(1, 0.5), tripod_point(0, 2.0)])
        frozen = nonassociativity_gap(C, witness, (4,), 2)
        ok = (found_gap > 1e-3 and control_gap <= 1e-10
              and abs(frozen - 0.0625) <= 1e-12)
        detail = (f"tripod gap {found_gap:.4f} at config {found_at}, "
                  f"euclidean max {control_gap:.2e}, frozen witness {frozen}")
        return ok, detail

    crit(11, "conditioning fails to associate on the tripod but not in R^n",
         120.0, body)


def test_criterion_12_monte_carlo_consistency():
    def body():
        worst = 0.0
        for mask, start in ((B, (1,)), (C, (0,))):
            for n in range(1, 5):
                freq = simulate_chain(mask, start, n, 100000, seed=33)
                worst = max(worst, tv(freq, kernel_row(mask, start, n).probs))
        again = simulate_chain(C, (0,), 4, 100000, seed=33)
        repro = again == simulate_chain(C, (0,), 4, 100000, seed=33)
        return worst <= 0.02 and repro, (
            f"max TV {worst:.4f} over 8 runs, seed-stable {repro}")

    crit(12, "Monte Carlo marginals track the exact kernel", 60.0, body)
