"""Replay the benchmark's jobs in process, and compare two revisions by them.

    PYTHONPATH=src python tests/replay.py --seeds 1 2 3 --rounds 4
    PYTHONPATH=src python tests/replay.py --seeds 1 2 3 --rounds 4 --against HEAD~1
    PYTHONPATH=src python tests/replay.py --seeds 1 --rounds 4 --workloads chain_mc

Builds the jobs of the three benchmark workloads (`perfbench/workloads.py`,
loaded by path and only read), or of those that `--workloads` names, for the
given seeds and rounds 0..rounds-1, runs each through `npcsubdiv.cli.main` in
this process and prints one JSON line per job: its id
(workload/seed/round/class), the exit code, and the report's payload (so no
duration or file path) or the error object from stderr.  A successful
`cascade`, `subdivide` or `lp` job runs once more with `--format csv`, and its
line also holds the sha256 of that text, so a change in how a report is
rendered shows even where the payload is the same.

With `--against REV` the same jobs run twice in child processes, once on this
tree's package and once on REV's (extracted with `git archive` into a temporary
directory), and every job whose line differs is printed with its largest
absolute float difference |a - b| and relative one |a - b| / (1 + |a|), a on
REV, over all its float leaves, and with the first place where anything else
differs (a CSV digest, say); `--workloads` limits both runs alike.
The output ends with one line per job class (the part of the id after the
colon) that has a difference: how many of its jobs differ and its largest
float difference, and then the totals.  The exit code is 1 when a job differs.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_workloads():
    # workloads.py imports the benchmark's own `oracles` module, not tests/oracles.py
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def csv_digest(cli, argv, tmp) -> str:
    """sha256 of the text that the job writes with `--format csv`."""
    out = os.path.join(tmp, "out.csv")
    if cli.main(argv + ["--format", "csv", "--out", out]) != 0:
        raise RuntimeError(f"{argv[0]} ran as JSON but not as CSV: {argv}")
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_jobs(seeds, rounds, workloads):
    """Yields one record per job of every named workload, seed and round."""
    from npcsubdiv import cli
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in load_workloads().items():
            if name not in workloads:
                continue
            for seed in seeds:
                seen = set()
                for r in range(rounds):
                    for k, job in enumerate(workload.make_round(seed, r, seen)):
                        paths = {}
                        for key, obj in job.files.items():
                            paths[key] = os.path.join(tmp, f"{key}.json")
                            with open(paths[key], "w", encoding="utf-8") as fh:
                                json.dump(obj, fh)
                        out = os.path.join(tmp, "out.json")
                        argv = [paths[a[1:]] if a.startswith("@") else a for a in job.argv]
                        err = io.StringIO()
                        with contextlib.redirect_stderr(err):
                            code = cli.main(argv + ["--out", out])
                        record = {"job": f"{name}/{seed}/{r}/{k}:{job.cls}", "exit": code}
                        if code == 0:
                            with open(out, encoding="utf-8") as fh:
                                record["payload"] = json.load(fh)["payload"]
                            if argv[0] in cli.CSV_COMMANDS:
                                record["csv_sha256"] = csv_digest(cli, argv, tmp)
                        else:
                            try:
                                record.update(json.loads(err.getvalue()))  # {"error": {...}}
                            except ValueError:
                                record["stderr"] = err.getvalue()
                        yield record


def line(record) -> str:
    return json.dumps(record, sort_keys=True)


def float_diff(a, b, path="$"):
    """(largest absolute, largest relative, first other difference) over every
    leaf of two JSON values.  Two finite float leaves are measured wherever
    they sit, the relative gap as |a - b| / (1 + |a|), a being the first value;
    the first place, in a's order, where the shapes differ or two other leaves
    (a non-finite float among them) differ is (path, a's value, b's value), or
    None where there is none."""
    if isinstance(a, float) and isinstance(b, float) and math.isfinite(a) and math.isfinite(b):
        gap = abs(a - b)
        return gap, gap / (1.0 + abs(a)), None
    if isinstance(a, dict) and isinstance(b, dict):
        pairs = [(f"{path}.{k}", a[k], b[k]) for k in a if k in b]
        same = a.keys() == b.keys()
    elif isinstance(a, list) and isinstance(b, list):
        pairs = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
        same = len(a) == len(b)
    else:
        same = type(a) is type(b) and (a == b or a != a and b != b)  # NaN matches NaN
        return 0.0, 0.0, (None if same else (path, a, b))
    gap, rel, first = 0.0, 0.0, (None if same else (path, a, b))
    for where, x, y in pairs:
        g, r, f = float_diff(x, y, where)
        gap, rel, first = max(gap, g), max(rel, r), first or f
    return gap, rel, first


def child_lines(src: Path, seeds, rounds, workloads) -> list:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--seeds", *map(str, seeds),
         "--rounds", str(rounds), "--workloads", *workloads],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True)
    return [json.loads(text) for text in proc.stdout.splitlines()]


def compare(rev: str, seeds, rounds, workloads) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        theirs = child_lines(Path(tmp) / "src", seeds, rounds, workloads)
    ours = child_lines(ROOT / "src", seeds, rounds, workloads)
    differ = 0
    worst = (0.0, 0.0)
    classes = {}  # job class -> [jobs, jobs that differ, abs, rel, jobs that differ in shape]
    for old, new in zip(theirs, ours, strict=True):
        row = classes.setdefault(new["job"].partition(":")[2], [0, 0, 0.0, 0.0, 0])
        row[0] += 1
        if line(old) == line(new):
            continue
        differ += 1
        row[1] += 1
        gap, rel, first = float_diff(old, new)
        worst = (max(worst[0], gap), max(worst[1], rel))
        row[2:4] = max(row[2], gap), max(row[3], rel)
        text = f"{new['job']}: abs {gap:.3g} rel {rel:.3g}"
        if first:
            row[4] += 1
            where, *values = first
            theirs_value, ours_value = (json.dumps(v)[:200] for v in values)
            text += f"; differs at {where}: {rev} {theirs_value}, tree {ours_value}"
        print(text)
    for cls, (jobs, n, gap, rel, shape) in sorted(classes.items()):
        if n:
            print(f"# class {cls}: {n} of {jobs} jobs differ, largest float difference "
                  f"abs {gap:.3g} rel {rel:.3g}" + (f"; {shape} beyond floats" if shape else ""))
    print(f"# {len(ours)} jobs, {differ} differ from {rev}; "
          f"largest float difference abs {worst[0]:.3g} rel {worst[1]:.3g}")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--rounds", type=int, required=True, help="rounds 0..ROUNDS-1")
    ap.add_argument("--against", metavar="REV", help="compare with this git revision")
    names = list(load_workloads())
    ap.add_argument("--workloads", nargs="+", metavar="NAME", choices=names, default=names,
                    help="replay only these workloads (default: all)")
    args = ap.parse_args(argv)
    if args.against:
        return compare(args.against, args.seeds, args.rounds, args.workloads)
    for record in run_jobs(args.seeds, args.rounds, args.workloads):
        print(line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
