"""Spans and counters recorded from outside the package.

The tracer replaces public functions and methods of each layer with wrappers
for the duration of a traced round.  A function imported elsewhere with
`from ... import` is patched in every module of the package that binds it,
so `subdivision.weighted_barycenter` is traced as well as
`spaces.weighted_barycenter`.  Spans live in compact arrays (name, start,
end, parent, job) and are written out once, at the end of the run.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "npcsubdiv"

# span name -> (module, attribute path); a missing target is reported missing
SPANS = {
    "spaces.weighted_barycenter": ("spaces", "weighted_barycenter"),
    "spaces.distance": ("spaces", "distance"),
    "spaces.geodesic_point": ("spaces", "geodesic_point"),
    "spaces.log_map": ("spaces", "log_map"),
    "spaces.exp_map": ("spaces", "exp_map"),
    "spaces.point_to_json": ("spaces", "point_to_json"),
    "spaces.point_from_json": ("spaces", "point_from_json"),
    "subdivision.subdivide": ("subdivision", "subdivide"),
    "subdivision.contractivity_D": ("subdivision", "contractivity_D"),
    "subdivision.bspline_comparison": ("subdivision", "bspline_comparison"),
    "subdivision.iterate": ("subdivision", "iterate"),
    "grid.GridData.get": ("grid", "GridData.get"),
    "grid.grid_from_function": ("grid", "grid_from_function"),
    "grid.grid_to_json": ("grid", "grid_to_json"),
    "grid.grid_from_json": ("grid", "grid_from_json"),
    "masks.stencil": ("masks", "stencil"),
    "masks.Mask.value": ("masks", "Mask.value"),
    "masks.iterated_mask": ("masks", "iterated_mask"),
    "masks.require_sum_rule": ("masks", "require_sum_rule"),
    "linear.cascade": ("linear", "cascade"),
    "linear.contractivity_certificate": ("linear", "contractivity_certificate"),
    "markov.kernel_row": ("markov", "kernel_row"),
    "markov.simulate_chain": ("markov", "simulate_chain"),
    "markov.lp_moment": ("markov", "lp_moment"),
    "markov.nonassociativity_gap": ("markov", "nonassociativity_gap"),
    "cli.main": ("cli", "main"),
    "cli.render_report": ("cli", "render_report"),
}

# counters without spans: the solver's step helper (the one private name the
# bench touches) and the point-list grid constructor that the JSON codec uses
COUNTERS = {
    "karcher_step": ("spaces", "_karcher_step"),
    "grid_from_points": ("grid", "grid_from_points"),
}


def _resolve(module: str, path: str):
    """(owner, attribute, original) or None when the target is gone."""
    owner = sys.modules.get(f"{PACKAGE}.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self):
        self.names = list(SPANS)
        self.ids = {n: k for k, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = []
        self.job_id = -1
        self.count = Counter()
        self.errors = Counter()
        self.stencil_keys = set()
        self.missing = set()
        self._patches = []

    # -- span store ---------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _span(self, name: str, fn):
        nid = self.ids[name]
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self._close(idx)
            if after is not None:
                after(result, signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    def _counter(self, name: str, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.count[name] += 1
            if name == "grid_from_points":
                self.count["nodes_built"] += result.points.size
            return result
        return counted

    # -- counts attached to spans ---------------------------------------------------

    def _after_subdivision_subdivide(self, result, args):
        self.count["nodes_refined"] += result.points.size

    def _after_grid_grid_from_function(self, result, args):
        self.count["nodes_built"] += result.points.size

    def _after_masks_stencil(self, result, args):
        mask = args["mask"]
        parity = tuple(int(i) % 2 for i in args["index"])
        self.stencil_keys.add((self.job_id, mask.offset, mask.coeffs.tobytes(), parity))

    def _after_masks_iterated_mask(self, result, args):
        self.count["levels_built"] += args["n"]
        parent = self.stack[-1] if self.stack else -1
        if parent >= 0 and self.name[parent] == self.ids["markov.kernel_row"]:
            self.count["kernel_row_scanned"] += int(np.count_nonzero(result.coeffs))

    def _after_markov_kernel_row(self, result, args):
        self.count["kernel_row_returned"] += len(result.probs)

    def _after_markov_simulate_chain(self, result, args):
        self.count["transitions"] += args["steps"] * args["trials"]

    def _after_linear_contractivity_certificate(self, result, args):
        self.count["levels_searched"] += result.level

    def _after_cli_render_report(self, result, args):
        self.count["report_bytes"] += len(result.encode("utf-8"))

    # -- patching -------------------------------------------------------------------

    def install(self):
        """Patches every binding of every target; call uninstall() after."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        targets = [(n, t, self._span) for n, t in SPANS.items()]
        targets += [(n, t, self._counter) for n, t in COUNTERS.items()]
        for name, (module, path), make in targets:
            found = _resolve(module, path)
            if found is None:
                self.missing.add(name)
                continue
            owner, attr, original = found
            wrapper = make(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "job": np.frombuffer(self.job, dtype=np.int32)}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, self seconds, inclusive seconds; plus the
        count of distance spans directly under contractivity_D ("pairs")."""
        a = self.arrays()
        n, k = a["start"].size, len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=dur - children, minlength=k)
        total_s = np.bincount(a["name"], weights=dur, minlength=k)
        under = a["parent"][(a["name"] == self.ids["spaces.distance"]) & has_parent]
        pairs = np.count_nonzero(a["name"][under] == self.ids["subdivision.contractivity_D"])
        spans = {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                        "total_s": float(total_s[i])}
                 for i, name in enumerate(self.names) if name not in self.missing}
        return {"spans": spans, "pairs": int(pairs)}
