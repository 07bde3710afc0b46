"""Exception types shared across the package, and the readers of outside values.

Every value from outside the package (a JSON file, a CLI option, an argument
of a public constructor) goes through one reader, so one rule decides what an
integer, a lattice point or a number is: ints and numpy ints are integers
(bools, floats such as 2.0 and strings are refused, never truncated or
parsed), and ints and floats in rectangular nesting are numbers (strings,
bools, None and ragged lists are refused).  The readers raise StructuralError; `integer`
raises DomainError below its least value, and `parse_int` (command-line text) on bad text.
"""

import numpy as np


class StructuralError(ValueError):
    """Malformed value: descriptor mismatch, empty mask, bad weights."""


class DomainError(ValueError):
    """Arguments outside an operation's domain."""


class NumericError(ValueError):
    """Non-finite or otherwise unusable numeric payload."""


class ResourceError(RuntimeError):
    """A support or iteration budget was exceeded."""


class SolverError(RuntimeError):
    """An iterative solver failed to reach its tolerance.

    Carries the last iterate the solver evaluated and the residual there so
    callers can inspect or resume.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


def integer(v, what="integer", least=None) -> int:
    """v as a Python int; only ints and numpy ints are accepted, none below least."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise StructuralError(f"{what} must be an integer, got {v!r}")
    if least is not None and v < least:
        raise DomainError(f"{what} must be >= {least}, got {v}")
    return int(v)


def parse_int(text: str, what: str = "integer") -> int:
    """An integer as the command line writes it: an optional '-' and ASCII
    digits, nothing else (no '+', blank, '_' or other digits); DomainError otherwise."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise DomainError(f"bad {what} {text!r}")
    return int(text)


def lattice_point(v, dim=None, what="lattice point") -> tuple:
    """v as a tuple of Python ints; a bare integer stands for a 1-tuple."""
    coords = v if np.iterable(v) and not isinstance(v, str) else (v,)
    coords = tuple(integer(x, f"{what} coordinate") for x in coords)
    if dim is not None and len(coords) != dim:
        raise StructuralError(f"{what} has length {len(coords)}, expected {dim}")
    return coords


def numbers(raw, what="numbers") -> np.ndarray:
    """raw as a new float array; ints and floats only, in rectangular nesting."""
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged nesting
        raise StructuralError(f"{what} must be a rectangular array") from None
    leaves = np.asarray(raw, dtype=object).ravel() if isinstance(raw, (list, tuple)) else ()
    kinds = set(map(type, leaves))  # a 0-d array leaf stays an ndarray of its own dtype
    if arr.dtype.kind not in "iuf" or not {bool, np.bool_}.isdisjoint(kinds) or (
            np.ndarray in kinds and any(x.dtype == bool for x in leaves if type(x) is np.ndarray)):
        raise StructuralError(f"{what} must hold only ints and floats")
    return arr.astype(float)


def number(v, what="number") -> float:
    """v as one Python float, read by `numbers`; arrays are refused."""
    arr = numbers(v, what)
    if arr.ndim:
        raise StructuralError(f"{what} must be one number")
    return float(arr)
