"""Command-line front end: file I/O, reports, reproducible runs.

One binary with subcommands; every run emits a self-describing report whose
payload is deterministic for a fixed config and seed (timing and version
metadata live outside the payload).  Numeric output keeps full precision so
golden files stay meaningful.  Cascade samples and a subdivide report's final
grid are written by one join inside the json.dumps text of the rest, the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (DomainError, NumericError, ResourceError, SolverError,
                     StructuralError, integer, parse_int)
from .grid import GridData, _grid_header, grid_from_json
from .linear import cascade, contractivity_certificate
from .markov import kernel_row, lp_curve, nonassociativity_gap, simulate_chain
from .masks import Mask, mask_from_json, support_radius, validate_mask
from .spaces import parse_space, payloads_to_json
from .subdivision import _approximations, _diagnoses, geodesic_sampler, iterate, trial_grid

__all__ = ["RunConfig", "Report", "run", "main"]

CSV_COMMANDS = ("cascade", "subdivide", "lp")  # series-valued outputs only
APPROX_H_SWEEP = (0.2, 0.1, 0.05)


@dataclass
class RunConfig:
    """Echoable description of one CLI invocation."""

    command: str
    mask: str | None = None
    data: str | None = None
    space: str | None = None
    levels: int | None = None
    steps: int | None = None
    trials: int | None = None
    seed: int | None = None  # None: no --seed given, and a drawing command uses 0
    p: float | None = None
    start: tuple | None = None
    index: tuple | None = None
    cap: int | None = None
    out: str | None = None
    format: str = "json"
    mode: str | None = None  # chain only: "exact" or "mc"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise DomainError(f"unknown command {self.command!r}")
        if self.format not in ("json", "csv"):
            raise DomainError(f"unknown format {self.format!r}")
        if self.format == "csv" and self.command not in CSV_COMMANDS:
            raise DomainError(
                f"csv output is only available for {', '.join(CSV_COMMANDS)}")
        if self.mode not in ((None, "exact", "mc") if self.command == "chain" else (None,)):
            raise DomainError(f"command {self.command!r} has no mode {self.mode!r}")
        self.seed = None if self.seed is None else integer(self.seed, "seed", 0)
        self.trials = None if self.trials is None else integer(self.trials, "trials", 1)


@dataclass
class Report:
    config: dict
    payload: dict
    versions: dict
    duration_s: float


# -- input parsing ---------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StructuralError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _need(config: RunConfig, attr: str):
    value = getattr(config, attr)
    if value is None:
        raise DomainError(f"command {config.command!r} requires --{attr}")
    return value


def _mask_of(config: RunConfig) -> Mask:
    return mask_from_json(_load_json(_need(config, "mask")))


def _data_of(config: RunConfig) -> GridData:
    return grid_from_json(_load_json(_need(config, "data")))


def parse_float(text: str) -> float:
    """A float as the command line writes it: an optional '-', then Python's
    float syntax in ASCII ('1', '1.5', '2e0', 'inf') with no '+', blank or '_'."""
    body = text[1:] if text.startswith("-") else text
    try:
        if body.isascii() and body == body.strip() and not ("_" in body or body[:1] == "+"):
            return float(text)
    except ValueError:
        pass
    raise DomainError(f"bad number {text!r}")


def parse_lattice(text: str) -> tuple:
    """Comma-separated integers: '1' or '0,-2'."""
    return tuple(parse_int(part, "lattice coordinate") for part in text.split(","))


# -- payload builders ------------------------------------------------------------

def _sorted_probs(probs: dict) -> list:
    return [{"j": list(j), "p": probs[j]} for j in sorted(probs)]


def _box(lo, hi) -> dict:
    return {"lo": list(lo), "hi": list(hi)}


def _cmd_validate(config: RunConfig):
    report = validate_mask(_mask_of(config))
    payload = {
        "sum_rule_ok": report.sum_rule_ok,
        "residual": report.residual,
        "coset_residuals": [{"parity": list(p), "residual": r}
                            for p, r in sorted(report.coset_residuals.items())],
        "nonnegative_ok": report.nonnegative_ok,
        "support_box": _box(*report.support_box),
        "notes": list(report.notes),
    }
    if report.sum_rule_ok:
        payload["convergence_level"] = report.convergence_level
    return payload


def _cmd_cascade(config: RunConfig):
    samples = cascade(_mask_of(config), _need(config, "levels"))
    return {
        "level": samples.level,
        "eps_n": samples.eps_n,
        "support": _box(*samples.support),
        "samples": samples.values,  # the iterated mask: rendered row-major, sorted by index
    }


def _cmd_certify(config: RunConfig):
    cap = config.cap if config.cap is not None else 8
    cert = contractivity_certificate(_mask_of(config), cap)
    return {
        "found": cert.found,
        "level": cert.level,
        "n0": cert.n0,
        "alpha_n": cert.alpha_n,
        "eps_n": cert.eps_n,
        "M": cert.M,
        "gamma_n": cert.gamma_n,
        "gauge_half_widths": [float(c) for c in cert.gauge.half_widths],
    }


def _cmd_subdivide(config: RunConfig):
    trace = iterate(_mask_of(config), _data_of(config), _need(config, "levels"))
    return {
        "levels": len(trace.levels) - 1,
        "interiors": [_box(*b) for b in trace.interiors],
        "d_inf_series": list(trace.d_inf_series),
        "gauge_series": list(trace.gauge_series),
        "final": trace.levels[-1],  # rendered as grid JSON by `_points_text`
    }


def _cmd_diagnose(config: RunConfig):
    mask = _mask_of(config)
    n_max = config.levels if config.levels is not None else 4
    if config.data is not None:
        if (config.space, config.trials, config.seed) != (None, None, None):
            raise DomainError("diagnose --data takes no --space, --trials or --seed")
        runs = [_data_of(config)]
    else:
        descriptor = parse_space(_need(config, "space"))
        trials = config.trials if config.trials is not None else 8
        runs = [trial_grid(mask, descriptor, np.random.default_rng([config.seed or 0, trial]))
                for trial in range(trials)]
    reports = _diagnoses(mask, runs, n_max)
    verdicts = [r.verdict for r in reports]
    return {
        "n_max": n_max,
        "trials": len(runs),
        "verdicts": verdicts,
        "cauchy_series": [list(r.cauchy_series) for r in reports],
        "verdict": ("converging" if all(v == "converging" for v in verdicts)
                    else "inconclusive"),
    }


def _cmd_chain(config: RunConfig):
    mask = _mask_of(config)
    start = _need(config, "start")
    steps = _need(config, "steps")
    if config.mode == "mc":
        trials = config.trials if config.trials is not None else 100000
        seed = config.seed or 0
        freq = simulate_chain(mask, start, steps, trials, seed)
        return {"mode": "mc", "start": list(start), "steps": steps,
                "trials": trials, "seed": seed, "freq": _sorted_probs(freq)}
    if config.seed is not None:
        raise DomainError("exact chain takes no --seed: only --mc draws")
    row = kernel_row(mask, start, steps)
    return {"mode": "exact", "start": list(row.start), "steps": row.steps,
            "probs": _sorted_probs(row.probs)}


def _cmd_lp(config: RunConfig):
    mask = _mask_of(config)
    start = _need(config, "start")
    p = config.p if config.p is not None else 1.0
    center = config.index if config.index is not None else (0,) * mask.dim
    max_steps = config.steps if config.steps is not None else 8
    moments = lp_curve(mask, start, max_steps, p, center)[1:]
    curve = [{"n": n, "moment": m} for n, m in enumerate(moments, 1)]
    return {"start": list(start), "p": p, "center": list(center),
            "curve": curve}


def _cmd_gap(config: RunConfig):
    gap = nonassociativity_gap(_mask_of(config), _data_of(config),
                               _need(config, "index"), _need(config, "steps"))
    return {"index": list(config.index), "steps": config.steps, "gap": gap}


def _cmd_approx(config: RunConfig):
    mask = _mask_of(config)
    descriptor = parse_space(config.space if config.space is not None
                             else "hyperboloid:2")
    level = config.levels if config.levels is not None else 5
    sampler = geodesic_sampler(descriptor, config.seed or 0)
    checks = [{"h": chk.h, "sup_err": chk.sup_err, "bound": chk.bound, "ok": chk.ok}
              for chk in _approximations(mask, descriptor, sampler, 1.0, APPROX_H_SWEEP, level)]
    return {"space": f"{descriptor.kind}:{descriptor.dim}", "level": level,
            "lipschitz": 1.0, "support_radius": support_radius(mask),
            "checks": checks}


# name -> (handler, help text, options): the options are keys of _OPTIONS, in the
# order --help lists them; build_parser adds --out and --format to every command
COMMANDS = {
    "validate": (_cmd_validate, "check a mask: nonnegativity, sum rule, convergence level",
                 ("mask",)),
    "cascade": (_cmd_cascade, "refinable-function samples of a mask", ("mask", "levels")),
    "certify": (_cmd_certify, "contractivity certificate for a mask", ("mask", "cap")),
    "subdivide": (_cmd_subdivide, "run the scheme on grid data", ("mask", "data!", "levels")),
    "diagnose": (_cmd_diagnose, "convergence diagnostic on given or random data",
                 ("mask", "data", "space", "levels", "trials", "seed")),
    "chain": (_cmd_chain, "characteristic-chain marginal, exact or Monte Carlo",
              ("mask", "steps", "start", "seed")),
    "lp": (_cmd_lp, "L^p moment curve of the chain", ("mask", "max-steps", "p", "start", "index")),
    "gap": (_cmd_gap, "nested vs one-shot barycenter gap", ("mask", "data!", "steps", "index")),
    "approx": (_cmd_approx, "sampled-geodesic approximation bound check",
               ("mask", "space", "levels", "seed")),
}

# key -> (flags, reader, argparse keywords), the first flag naming the RunConfig field;
# the reader runs in `config_from_args`, as argparse makes a refused value a usage error
_OPTIONS = {
    "mask": (("--mask",), str, {"required": True, "help": "mask JSON file"}),
    "data": (("--data",), str, {"help": "grid data JSON file"}),
    "data!": (("--data",), str, {"required": True, "help": "grid data JSON file"}),
    "space": (("--space",), str, {"help": "backend as kind:dim, e.g. spd:2"}),
    "levels": (("--levels", "--level"), parse_int, {"help": "refinement depth"}),
    "steps": (("--steps",), parse_int, {"help": "chain step count"}),
    "max-steps": (("--steps", "--max-steps"), parse_int, {"help": "chain step count"}),
    "trials": (("--trials",), parse_int, {"help": "number of trials"}),
    "seed": (("--seed",), parse_int, {"help": "seed of the random draws (default 0)"}),
    "p": (("--p",), parse_float, {"help": "moment exponent (>= 1)"}),
    "start": (("--start",), parse_lattice, {"help": "start state, comma-separated integers"}),
    "index": (("--index",), parse_lattice, {"help": "lattice index, comma-separated integers"}),
    "cap": (("--cap",), parse_int, {"help": "certificate level cap"}),
}


def run(config: RunConfig) -> Report:
    """Dispatches to the owning module; payload is deterministic per config."""
    started = time.perf_counter()
    payload = COMMANDS[config.command][0](config)
    duration = time.perf_counter() - started
    versions = {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    return Report(config=dict(vars(config)), payload=payload,
                  versions=versions, duration_s=duration)


# -- serialization ---------------------------------------------------------------

def _join(columns, first: str, lead: str, seps, last: str) -> str:
    """Rows of text cells in one join, no string built per row: row 0 starts with first,
    the others with lead, seps[a] goes between columns a and a + 1, last ends the text."""
    k, rows = 2 * len(columns), len(columns[0])
    parts = [None] * (k * rows)
    for a, (sep, column) in enumerate(zip([lead, *seps], columns)):
        parts[2 * a::k], parts[2 * a + 1::k] = [sep] * rows, column
    parts[0] = first
    parts.append(last)
    return "".join(parts)


def _sample_text(mask: Mask, first: str, lead: str, sep: str, mid: str, last: str) -> str:
    """The support of mask as text, row-major, in one `_join` for JSON and CSV alike:
    each row is first or lead, its coordinates joined by sep, mid and its value's
    repr.  Each coordinate (a Python int, exact past int64) and each distinct value
    is formatted once."""
    local = np.nonzero(mask.coeffs)
    distinct, which = np.unique(mask.coeffs[local], return_inverse=True)
    columns = [np.array(list(map(str, range(o, o + n))), dtype=object)[ix].tolist()
               for ix, o, n in zip(local, mask.offset, mask.coeffs.shape)]
    columns.append(np.array(list(map(repr, distinct.tolist())), dtype=object)[which].tolist())
    return _join(columns, first, lead, [sep] * (mask.dim - 1) + [mid], last)


def _points_text(x: GridData, head: str, tail: str) -> str:
    """head, x's point objects (row-major) as json.dumps writes `grid_to_json`, and tail,
    in one `_join`: the text around the entries is a zero payload's, repr runs once per
    distinct bit pattern (0.0 is not -0.0), and an int entry (a tripod leg) is str of int."""
    zero = np.zeros((1,) + x.descriptor.payload_shape)
    texts = re.split(r"(0(?:\.0)?)", json.dumps(payloads_to_json(x.descriptor, zero)[0]))
    flat = x.payloads.reshape(-1, zero.size)  # texts: around each entry, and "0" or "0.0"
    distinct, which = np.unique(flat.view(np.uint64), return_inverse=True)
    cells = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    cells = cells[which.reshape(flat.shape)]
    columns = [list(map(str, flat[:, a].astype(int).tolist())) if kind == "0"
               else cells[:, a].tolist() for a, kind in enumerate(texts[1::2])]
    first, end = head + texts[0], texts[-1]
    return _join(columns, first, end + ", " + texts[0], texts[2:-1:2], end + tail)


def _series_rows(command: str, payload: dict):
    """The header and rows of a CSV report as text cells: str of ints, repr of floats."""
    if command == "lp":
        return ("n", "moment"), [(str(e["n"]), repr(e["moment"])) for e in payload["curve"]]
    series = payload["d_inf_series"]  # subdivide: the contraction series
    return ("n", "d_inf", "gauge_D"), zip(map(str, range(len(series))), map(repr, series),
                                          map(repr, payload["gauge_series"]))


def render_report(report: Report, command: str, fmt: str) -> str:
    if command == "cascade" and fmt == "csv":  # an index is its coordinates joined by spaces
        return _sample_text(report.payload["samples"], "index,value\n", "\n", " ", ",", "\n")
    if fmt == "csv":  # no cell holds a comma, quote or newline, so none is quoted
        header, rows = _series_rows(command, report.payload)
        return "\n".join(map(",".join, [header, *rows])) + "\n"
    if command == "cascade":  # the values are finite: repr is their JSON
        payload = {**report.payload, "samples": []}  # the only "samples" key of the report
        text = json.dumps({**vars(report), "payload": payload}, sort_keys=True)
        head, _, tail = text.partition('"samples": []')  # the rows join in between
        return _sample_text(report.payload["samples"], head + '"samples": [{"index": [',
                            '}, {"index": [', ", ", '], "value": ', "}]" + tail + "\n")
    if isinstance(final := report.payload.get("final"), GridData):  # subdivide: one "points"
        payload = {**report.payload, "final": {**_grid_header(final), "points": []}}
        text = json.dumps({**vars(report), "payload": payload}, sort_keys=True)
        head, _, tail = text.partition('"points": []')  # the points join in between
        return _points_text(final, head + '"points": [', "]" + tail + "\n")
    return json.dumps(vars(report), sort_keys=True) + "\n"  # no indent: the C encoder


# -- argument parsing ------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="npcsubdiv",
        description="Barycentric subdivision schemes on Hadamard spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text, options) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for option in options:
            flags, _, keywords = _OPTIONS[option]
            cmd.add_argument(*flags, **keywords)
        cmd.add_argument("--out", help="output file (default: stdout)")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
    mode = sub.choices["chain"].add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="exact kernel row (default)")
    mode.add_argument("--mc", nargs="?", const="", metavar="trials=N",
                      help="Monte Carlo marginal; optional trials=N")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    kwargs = {"out": args.out, "format": args.format}
    for option in COMMANDS[args.command][2]:  # the parsed command's options, no others
        flags, read, _ = _OPTIONS[option]
        value = getattr(args, field := flags[0][2:])
        kwargs[field] = None if value is None else read(value)
    if args.command == "chain":
        kwargs["mode"] = "mc" if args.mc is not None else "exact"
        if args.mc:  # the literal trials=N form
            key, _, value = args.mc.partition("=")
            if key != "trials":
                raise DomainError(f"bad --mc argument {args.mc!r}")
            kwargs["trials"] = parse_int(value, f"--mc argument {args.mc!r}: trials")
    return RunConfig(command=args.command, **kwargs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        report = run(config)
        text = render_report(report, config.command, config.format)
        if config.out is not None:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (StructuralError, DomainError, NumericError, ResourceError,
            SolverError, OSError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error, indent=2), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
