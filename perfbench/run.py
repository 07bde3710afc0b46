#!/usr/bin/env python3
"""npcsubdiv benchmark: closed-loop CLI jobs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload curved_refine --seed 1 --seconds 25 --trace 0

One client in one process runs jobs back to back.  Each job is one in-process
call to `npcsubdiv.cli.main(argv)` on JSON inputs generated from the seed, and
writes its report with `--out`; the bench then checks the report with its own
oracles (`oracles.py`), outside the job's timed region.  `--trace 0` prints
the end-to-end metrics, `--trace 1` the per-layer metrics from a separate
traced run.  Job times are reported at reference machine speed (speed.py).
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("curved_refine", "lattice_exact", "chain_mc")
SETUP_REPEATS = 3
SLOW_MACHINE_FACTOR = 2.0  # stop early past this multiple of --seconds
SOLVER_ERRORS = ("SolverError", "NumericError")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="internal: set up once and exit (timed by the parent)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- set-up ----------------------------------------------------------------------

class Bench:
    """Inputs of one run: the job pool on disk and the CLI module."""

    def __init__(self, workload, seed: int, rounds: int):
        from npcsubdiv import cli
        self.cli = cli
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        seen = set()
        self.rounds = [self._write(workload.make_round(seed, r, seen), r)
                       for r in range(rounds + 1)]
        warmup = self.rounds.pop(0)[0]
        self.run_job(warmup)
        # keep the pool out of the collector's view, so collections during a
        # job cost about what they cost in a fresh CLI process
        gc.freeze()

    def _write(self, jobs, r):
        for k, job in enumerate(jobs):
            paths = {}
            for key, obj in job.files.items():
                path = self.dir / f"r{r}-{k}-{key}.json"
                path.write_text(json.dumps(obj))
                paths[key] = str(path.relative_to(ROOT))
            job.argv = [paths[a[1:]] if a.startswith("@") else a for a in job.argv]
            job.out = str((self.dir / f"r{r}-{k}-out.json").relative_to(ROOT))
        return jobs

    def run_job(self, job) -> dict:
        """Times cli.main on one job, then checks its report."""
        import speed
        from oracles import CheckError
        err = io.StringIO()
        rc, crash = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = self.cli.main(job.argv + ["--out", job.out])
        except (Exception, SystemExit):  # job boundary: record and keep running
            crash = traceback.format_exc()
        seconds = time.perf_counter() - t0
        outcome, detail = "ok", ""
        if crash is not None:
            outcome, detail = "wrong", crash.strip()
        elif rc == 0:
            try:
                with open(ROOT / job.out, encoding="utf-8") as fh:
                    job.check(json.load(fh)["payload"])
            except (CheckError, KeyError, TypeError, ValueError) as exc:
                outcome, detail = "wrong", f"{type(exc).__name__}: {exc}"
        else:
            try:
                kind = json.loads(err.getvalue())["error"]["type"]
            except (ValueError, KeyError, TypeError):
                kind = "unparsable error report"
            allowed = job.spread and kind in SOLVER_ERRORS
            outcome, detail = ("failed" if allowed else "wrong"), kind
        with contextlib.suppress(FileNotFoundError):
            (ROOT / job.out).unlink()
        return {"cls": job.cls, "seconds": seconds, "kernel_s": speed.kernel(),
                "outcome": outcome, "detail": detail}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def timed_setups(args) -> list:
    """Fresh processes that start, import, generate and warm up: their wall
    time, and the reference kernel time each measured just before exiting."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe-setup"]
    runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, check=True, timeout=150, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        runs.append({"wall_s": time.perf_counter() - t0,
                     "kernel_s": json.loads(proc.stdout)["kernel_s"]})
    return runs


def pool_rounds(workload, seconds: float, trace: bool) -> int:
    """Rounds in a run: fixed by the arguments, so one seed always runs the
    same jobs; about `seconds` of work on the reference machine."""
    if trace:  # untraced and traced rounds alternate; a traced one costs ~2
        return 2 * max(1, math.floor(seconds / (3.0 * workload.round_s)))
    return max(1, round(seconds / workload.round_s))


# -- measurement -------------------------------------------------------------------

def run_rounds(bench, seconds: float) -> list:
    """All rounds of the pool, unless the machine is far slower than expected."""
    records = []
    t0 = time.perf_counter()
    for jobs in bench.rounds:
        if time.perf_counter() - t0 > SLOW_MACHINE_FACTOR * seconds:
            break
        records += [bench.run_job(job) for job in jobs]
    return records


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def normalized(records) -> list:
    """Job times at reference machine speed (see speed.py)."""
    import speed
    factors = speed.local_factors([r["kernel_s"] for r in records])
    return [r["seconds"] * f for r, f in zip(records, factors)]


def rate(records, times) -> float:
    return sum(r["outcome"] == "ok" for r in records) / math.fsum(times)


def end_to_end(records, setups, workload) -> tuple:
    import speed
    times = normalized(records)
    ok = sum(r["outcome"] == "ok" for r in records)
    tail = percentile(times, workload.tail_pct)
    wall = [r["seconds"] for r in records]
    setup = statistics.median(s["wall_s"] * speed.REFERENCE_S / s["kernel_s"] for s in setups)
    metrics = {
        "setup_s": (setup, "s"),
        "jobs_per_s": (rate(records, times), "jobs/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (tail, "s"),
        "ok_ratio": (ok / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "tail_percentile": workload.tail_pct,
        "jobs_beyond_tail": sum(t > tail for t in times),
        "fail_ratio": 1.0 - ok / len(records),
        "speed_factor": speed.REFERENCE_S / statistics.median(r["kernel_s"] for r in records),
        "wall": {"setup_s": statistics.median(s["wall_s"] for s in setups),
                 "jobs_per_s": rate(records, wall),
                 "job_s.p50": statistics.median(wall),
                 "job_s.tail": percentile(wall, workload.tail_pct)},
    }
    return metrics, extra


def traced_rounds(bench):
    """Alternates untraced and traced rounds; returns (records, tracer)."""
    from tracer import Tracer
    tracer = Tracer()
    records = []
    for r, jobs in enumerate(bench.rounds):
        for job in jobs:
            if r % 2:
                tracer.job_id = len(records)
                tracer.install()
                try:
                    record = bench.run_job(job)
                finally:
                    tracer.uninstall()
            else:
                record = bench.run_job(job)
            record["traced"] = bool(r % 2)
            records.append(record)
    return records, tracer


def per_layer(tracer, summary, records) -> dict:
    """Per-layer metrics; a metric whose traced target is gone is left out."""
    spans = summary["spans"]
    c = tracer.count

    def span(name, field):
        return spans[name][field] if name in spans else None

    def add(*names):
        parts = [span(n, "self_s") for n in names]
        return None if None in parts else sum(parts)

    def given(value, *targets):
        return None if tracer.missing.intersection(targets) else value

    def ratio(num, den):
        return None if num is None or den is None else (num / den if den else 0.0)

    bary = span("spaces.weighted_barycenter", "calls")
    karcher = given(c["karcher_step"], "karcher_step")
    stencil_calls = span("masks.stencil", "calls")
    transitions = given(c["transitions"], "markov.simulate_chain")
    times = normalized(records)

    def jobs_rate(traced: bool) -> float:
        ts = [t for r, t in zip(records, times) if r["traced"] is traced]
        return len(ts) / math.fsum(ts)

    m = {
        "spaces.weighted_barycenter.calls": (bary, "count"),
        "spaces.weighted_barycenter.self_s": (span("spaces.weighted_barycenter", "self_s"), "s"),
        "spaces.weighted_barycenter.failed": (given(tracer.errors["spaces.weighted_barycenter"], "spaces.weighted_barycenter"), "count"),
        "spaces.karcher_steps": (karcher, "count"),
        "spaces.karcher_steps_per_call": (ratio(karcher, bary), "steps/call"),
        "spaces.distance.calls": (span("spaces.distance", "calls"), "count"),
        "spaces.distance.self_s": (span("spaces.distance", "self_s"), "s"),
        "spaces.geodesic_point.calls": (span("spaces.geodesic_point", "calls"), "count"),
        "spaces.geodesic_point.self_s": (span("spaces.geodesic_point", "self_s"), "s"),
        "spaces.exp_log.self_s": (add("spaces.log_map", "spaces.exp_map"), "s"),
        "spaces.codec.self_s": (add("spaces.point_to_json", "spaces.point_from_json"), "s"),
        "subdivision.subdivide.calls": (span("subdivision.subdivide", "calls"), "count"),
        "subdivision.subdivide.self_s": (span("subdivision.subdivide", "self_s"), "s"),
        "subdivision.nodes_refined": (given(c["nodes_refined"], "subdivision.subdivide"), "count"),
        "subdivision.contractivity_D.calls": (span("subdivision.contractivity_D", "calls"), "count"),
        "subdivision.contractivity_D.self_s": (span("subdivision.contractivity_D", "self_s"), "s"),
        "subdivision.contractivity_D.pairs": (given(summary["pairs"], "spaces.distance", "subdivision.contractivity_D"), "count"),
        "subdivision.bspline_comparison.self_s": (span("subdivision.bspline_comparison", "self_s"), "s"),
        "subdivision.iterate.self_s": (span("subdivision.iterate", "self_s"), "s"),
        "grid.GridData.get.calls": (span("grid.GridData.get", "calls"), "count"),
        "grid.GridData.get.self_s": (span("grid.GridData.get", "self_s"), "s"),
        "grid.grid_from_function.self_s": (span("grid.grid_from_function", "self_s"), "s"),
        "grid.nodes_built": (given(c["nodes_built"], "grid.grid_from_function", "grid_from_points"), "count"),
        "grid.json.self_s": (add("grid.grid_to_json", "grid.grid_from_json"), "s"),
        "masks.stencil.calls": (stencil_calls, "count"),
        "masks.stencil.self_s": (span("masks.stencil", "self_s"), "s"),
        "masks.stencil.distinct_ratio": (ratio(len(tracer.stencil_keys), stencil_calls), "ratio"),
        "masks.Mask.value.calls": (span("masks.Mask.value", "calls"), "count"),
        "masks.Mask.value.self_s": (span("masks.Mask.value", "self_s"), "s"),
        "masks.iterated_mask.calls": (span("masks.iterated_mask", "calls"), "count"),
        "masks.iterated_mask.self_s": (span("masks.iterated_mask", "self_s"), "s"),
        "masks.iterated_mask.levels_built": (given(c["levels_built"], "masks.iterated_mask"), "count"),
        "masks.require_sum_rule.calls": (span("masks.require_sum_rule", "calls"), "count"),
        "masks.require_sum_rule.self_s": (span("masks.require_sum_rule", "self_s"), "s"),
        "linear.cascade.calls": (span("linear.cascade", "calls"), "count"),
        "linear.cascade.self_s": (span("linear.cascade", "self_s"), "s"),
        "linear.contractivity_certificate.calls": (span("linear.contractivity_certificate", "calls"), "count"),
        "linear.contractivity_certificate.self_s": (span("linear.contractivity_certificate", "self_s"), "s"),
        "linear.certificate.levels_searched": (given(c["levels_searched"], "linear.contractivity_certificate"), "count"),
        "markov.kernel_row.calls": (span("markov.kernel_row", "calls"), "count"),
        "markov.kernel_row.self_s": (span("markov.kernel_row", "self_s"), "s"),
        "markov.kernel_row.hit_ratio": (given(ratio(c["kernel_row_returned"], c["kernel_row_scanned"]),
                                            "markov.kernel_row", "masks.iterated_mask"), "ratio"),
        "markov.simulate_chain.calls": (span("markov.simulate_chain", "calls"), "count"),
        "markov.simulate_chain.self_s": (span("markov.simulate_chain", "self_s"), "s"),
        "markov.simulate_chain.transitions": (transitions, "count"),
        "markov.simulate_chain.transitions_per_s": (ratio(transitions, span("markov.simulate_chain", "total_s")), "1/s"),
        "markov.lp_moment.self_s": (span("markov.lp_moment", "self_s"), "s"),
        "markov.nonassociativity_gap.self_s": (span("markov.nonassociativity_gap", "self_s"), "s"),
        "cli.main.self_s": (span("cli.main", "self_s"), "s"),
        "cli.render_report.self_s": (span("cli.render_report", "self_s"), "s"),
        "cli.report_bytes": (given(c["report_bytes"], "cli.render_report"), "bytes"),
        "trace.overhead_ratio": (jobs_rate(True) / jobs_rate(False) - 1.0, "ratio"),
    }
    return {k: v for k, v in m.items() if v[0] is not None}


def layer_shares(summary) -> dict:
    """Self-time share of each layer in the traced jobs' wall time."""
    spans = summary["spans"]
    total = spans["cli.main"]["total_s"] if "cli.main" in spans else 0.0
    shares = {}
    for name, row in spans.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + (row["self_s"] / total if total else 0.0)
    return shares


# -- report ------------------------------------------------------------------------

def machine(workload) -> dict:
    import numpy as np
    from npcsubdiv import spaces
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # the build report varies by numpy version
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "platform": platform.platform(),
        "blas": blas, "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "solver": {k: getattr(spaces, k, None) for k in
                   ("BARYCENTER_TOL", "BARYCENTER_MAX_ITER", "HYPERBOLOID_TOL", "POINT_TOL")},
        "workload": workload.name,
    }


def summarize_classes(records) -> dict:
    out = {}
    for r in records:
        row = out.setdefault(r["cls"], {"n": 0, "seconds": [], "outcomes": {}})
        row["n"] += 1
        row["seconds"].append(r["seconds"])
        row["outcomes"][r["outcome"]] = row["outcomes"].get(r["outcome"], 0) + 1
    return {k: {"n": v["n"], "median_s": statistics.median(v["seconds"]),
                "outcomes": v["outcomes"]} for k, v in out.items()}


def emit(records, metrics, extra):
    for r in records:
        if r["outcome"] != "ok":
            print(f"# {r['outcome']}: {r['cls']}: {r['detail']}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    for name, value in extra.items():
        print(f"# {name}: {json.dumps(value)}")
    result = {
        "correct": all(r["outcome"] != "wrong" for r in records),
        "attempted": len(records),
        "failed": sum(r["outcome"] != "ok" for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "npcsubdiv" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads: no BLAS worker threads
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import npcsubdiv
    if Path(npcsubdiv.__file__).resolve().parent != SRC / "npcsubdiv":
        print(f"perfbench: imported npcsubdiv from {npcsubdiv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    rounds = pool_rounds(workload, args.seconds, args.trace == 1)
    if args.probe_setup:
        import speed
        Bench(workload, args.seed, rounds).close()
        print(json.dumps({"kernel_s": statistics.median(speed.kernel() for _ in range(5))}))
        return 0

    setups = timed_setups(args) if args.trace == 0 else []
    bench = Bench(workload, args.seed, rounds)
    try:
        if args.trace == 0:
            records = run_rounds(bench, args.seconds)
            metrics, extra = end_to_end(records, setups, workload)
            extra["setup_runs"] = setups
        else:
            records, tracer = traced_rounds(bench)
            summary = tracer.summary()
            metrics = per_layer(tracer, summary, records)
            extra = {"layer_self_share": layer_shares(summary),
                     "missing": sorted(tracer.missing)}
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"spans-{workload.name}-{args.seed}.npz")
    finally:
        bench.close()
    extra["machine"] = machine(workload)
    extra["classes"] = summarize_classes(records)
    emit(records, metrics, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
