"""The benchmark's tracer patches package functions by name and counts nodes
through `GridData.points`; a refactor that moves one of those targets would
silently drop its metrics from traced runs, so the hooks are checked here.

`perfbench/tracer.py` is loaded by path and only read, never changed.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from npcsubdiv import SpaceDescriptor, chaikin_mask, random_grid, subdivide

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_and_counter_target_resolves(tracer):
    targets = {**tracer.SPANS, **tracer.COUNTERS}
    for module, _ in targets.values():  # the tracer looks modules up in sys.modules
        importlib.import_module(f"{tracer.PACKAGE}.{module}")
    missing = [name for name, (module, path) in targets.items()
               if tracer._resolve(module, path) is None]
    assert missing == []


def test_points_size_counts_the_output_nodes():
    x = random_grid(SpaceDescriptor("spd", 2), (0,), (5,), np.random.default_rng(4))
    out = subdivide(chaikin_mask(), x)
    assert out.points.size == 11 == out.payloads.shape[0]
