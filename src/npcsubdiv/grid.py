"""Finite windows of grid-indexed points with one boundary rule.

GridData stores the payloads of one backend over an integer box as one
read-only float array.  A read past the window takes the nearest stored node
(grid JSON must say `"extension": "constant_nearest"`); the box arithmetic
helpers below track which output indices are free of such reads (the interior).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError, lattice_point, numbers
from .masks import Mask
from .spaces import SpaceDescriptor, SpacePoint, descriptor_from_json, \
    descriptor_to_json, payloads_from_json, payloads_to_json, stack_payloads

CONSTANT_NEAREST = "constant_nearest"


@dataclass(eq=False)
class GridData:
    """Points indexed by the integer box lo..hi (inclusive), stored as a
    read-only copy of `payloads`: window shape + descriptor.payload_shape.
    Every row must be a point of the descriptor's space (the test of the
    point constructors, with their errors); a level refined from a grid is
    one by construction and is not tested again (see `_refined`)."""

    descriptor: SpaceDescriptor
    lo: tuple
    hi: tuple
    payloads: np.ndarray

    def __post_init__(self):
        self.lo = lattice_point(self.lo, what="window corner")
        self.hi = lattice_point(self.hi, len(self.lo), "window corner")
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise StructuralError("empty window")
        shape = tuple(h - l + 1 for l, h in zip(self.lo, self.hi))
        shape += self.descriptor.payload_shape
        payloads = numbers(self.payloads, "grid payloads")
        if payloads.shape != shape:
            raise StructuralError(f"payloads shape {payloads.shape} does not match "
                                  f"window + {self.descriptor}: {shape}")
        self.payloads = self.descriptor.backend.members(payloads)
        self.payloads.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def points(self) -> np.ndarray:
        """Object array of the points over the window, built on each access."""
        out = np.empty(self.payloads.shape[:self.dim], dtype=object)
        for i in np.ndindex(out.shape):
            out[i] = self.descriptor.backend.point(self.descriptor, self.payloads[i])
        return out

    def window(self):
        return self.lo, self.hi

    def indices(self):
        return box_indices(self.lo, self.hi)

    def get(self, index) -> SpacePoint:
        """The point at any lattice index: past the window, the nearest stored node."""
        index = lattice_point(index, self.dim, "grid index")
        return self.descriptor.backend.point(self.descriptor, self.payloads[
            tuple(min(max(i, l), h) - l for i, l, h in zip(index, self.lo, self.hi))])

    def local(self, index) -> tuple:
        """Storage positions of int64 index arrays (one per axis): a read
        past the window takes the nearest stored node."""
        return tuple(np.minimum(np.maximum(i, l), h) - l
                     for i, l, h in zip(index, self.lo, self.hi))


def _refined(x: GridData, payloads: np.ndarray, window=None) -> GridData:
    """x's level on its doubled window (or on `window`), read-only and untested: rows from
    `_sym`, `_hyp_renorm` or `_tripod_rows` (spd: positive to cond ~1e15); in `subdivision`
    the payloads may lead with a trial axis, B grids on one window."""
    out = object.__new__(GridData)
    out.descriptor, out.payloads = x.descriptor, payloads
    out.lo, out.hi = window or refined_window(x.lo, x.hi)
    payloads.flags.writeable = False
    return out


def _stacked_grid(descriptor, lo, hi, flat: np.ndarray) -> GridData:
    """Grid of the node payloads stacked row-major in flat; the caller reads the corners."""
    shape = tuple(max(h - l + 1, 0) for l, h in zip(lo, hi))  # GridData rejects empty
    if len(flat) != math.prod(shape):
        raise StructuralError(
            f"{len(flat)} points supplied for window of size {math.prod(shape)}")
    return GridData(descriptor, lo, hi, flat.reshape(shape + flat.shape[1:]))


def grid_from_function(descriptor, lo, hi, fn) -> GridData:
    """Builds a grid whose node i holds fn(i)."""
    lo, hi = lattice_point(lo, what="window corner"), lattice_point(hi, what="window corner")
    flat = stack_payloads([fn(i) for i in box_indices(lo, hi)], descriptor)
    return _stacked_grid(descriptor, lo, hi, flat)


def grid_from_points(descriptor, lo, hi, points) -> GridData:
    """Builds a grid from a row-major flat list of points."""
    lo, hi = lattice_point(lo, what="window corner"), lattice_point(hi, what="window corner")
    return _stacked_grid(descriptor, lo, hi, stack_payloads(list(points), descriptor))


def random_grid(descriptor, lo, hi, rng) -> GridData:
    """A grid drawn in one batched call of the backend: in row-major order its
    nodes are those of as many `random_point` calls, from the same stream."""
    lo, hi = lattice_point(lo, what="window corner"), lattice_point(hi, what="window corner")
    flat = descriptor.backend.random(descriptor, rng, len(box_array(lo, hi)))
    return _stacked_grid(descriptor, lo, hi, flat)


# -- box arithmetic -----------------------------------------------------------

def refined_window(lo, hi):
    """Output window of one subdivision step: the doubled box."""
    return tuple(2 * l for l in lo), tuple(2 * h for h in hi)


def refined_interior(mask: Mask, lo, hi):
    """Output indices whose stencil only reads inside lo..hi and that the
    doubled window actually stores.

    With support box [Mlo, Mhi], output index i needs inputs j in
    [ceil((i-Mhi)/2), floor((i-Mlo)/2)]; requiring that range inside the box
    gives i in [2*lo + Mhi - 1, 2*hi + Mlo + 1].  For one-sided masks that
    range can overrun the doubled box [2*lo, 2*hi], where values are not
    stored, so each side is clamped to it.  May come back empty.
    """
    mlo, mhi = mask.support_box()
    out_lo = tuple(2 * l + max(mh - 1, 0) for l, mh in zip(lo, mhi))
    out_hi = tuple(2 * h + min(ml + 1, 0) for h, ml in zip(hi, mlo))
    return out_lo, out_hi


def box_is_empty(lo, hi) -> bool:
    return any(h < l for l, h in zip(lo, hi))


def box_array(lo, hi) -> np.ndarray:
    """The indices of the box lo..hi as rows of an (n, dim) array, in
    row-major order; empty boxes give no rows."""
    shape = [max(h - l + 1, 0) for l, h in zip(lo, hi)]
    return np.indices(shape).reshape(len(shape), -1).T + np.asarray(lo, dtype=int)


def box_indices(lo, hi):
    """The indices of the box lo..hi as tuples, in row-major order."""
    return map(tuple, box_array(lo, hi).tolist())


def minimal_window_width(mask: Mask, levels: int) -> int:
    """Smallest hi-lo gap whose interior survives the given number of levels.

    Each refinement shrinks the gap by need = max(Mhi-1, 0) - min(Mlo+1, 0)
    (the clamped per-side margins of refined_interior), so the level-n gap is
    2^n*(width - need) + need; solving for >= 0 gives need - floor(need / 2^n).
    """
    mlo, mhi = mask.support_box()
    need = max(max(mh - 1, 0) - min(ml + 1, 0) for ml, mh in zip(mlo, mhi))
    return need - (need >> levels)


def check_interior_depth(mask: Mask, lo, hi, levels: int):
    """Interior boxes for levels 0..levels; raises when one becomes empty."""
    boxes = [(tuple(lo), tuple(hi))]
    for n in range(levels):
        nxt = refined_interior(mask, *boxes[-1])
        if box_is_empty(*nxt):
            raise DomainError(
                f"interior vanishes at level {n + 1}; window needs per-axis "
                f"hi-lo >= {minimal_window_width(mask, levels)}")
        boxes.append(nxt)
    return boxes


# -- JSON ----------------------------------------------------------------------

def grid_to_json(x: GridData) -> dict:
    return {**_grid_header(x), "points": payloads_to_json(x.descriptor, x.payloads.reshape(
        (-1,) + x.descriptor.payload_shape))}


def _grid_header(x: GridData) -> dict:
    """`grid_to_json` of x but for its "points"."""
    return {"descriptor": descriptor_to_json(x.descriptor),
            "window": {"lo": list(x.lo), "hi": list(x.hi)}, "extension": CONSTANT_NEAREST}


def grid_from_json(obj: dict) -> GridData:
    try:
        desc = descriptor_from_json(obj["descriptor"])
        lo, hi = (lattice_point(obj["window"][k], what="window corner") for k in ("lo", "hi"))
        extension, points = obj["extension"], obj["points"]
    except (KeyError, TypeError) as exc:
        raise StructuralError("bad grid object") from exc
    if extension != CONSTANT_NEAREST:
        raise StructuralError(f"unknown extension policy {extension!r}")
    return _stacked_grid(desc, lo, hi, payloads_from_json(desc, points))
