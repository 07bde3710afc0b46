"""The readers of outside values: one rule for lattice integers and numbers."""

import numpy as np
import pytest

from npcsubdiv import (DomainError, SpaceDescriptor, StructuralError, approximation_error,
                       ball_confinement, cascade, chaikin_mask, contractivity_certificate,
                       convergence_diagnostic, dispersion_gap, empirical_gamma,
                       euclidean_point, geodesic_point, geodesic_sampler, iterate,
                       iterated_mask, kernel_row, lp_curve, make_mask, random_grid,
                       simulate_chain, tripod_point)
from npcsubdiv.errors import integer, lattice_point, number, numbers
from npcsubdiv.masks import Mask, mask_from_json
from npcsubdiv.spaces import descriptor_from_json


def test_lattice_point_accepts_python_and_numpy_ints():
    assert lattice_point(np.int64(3)) == (3,)
    assert lattice_point((np.int64(-2), 5), 2) == (-2, 5)
    assert lattice_point(np.array([1, 2]), 2) == (1, 2)
    assert all(type(c) is int for c in lattice_point((np.int32(1), np.uint8(2))))
    assert lattice_point(2 ** 70) == (2 ** 70,)  # no int64 bound here


@pytest.mark.parametrize("bad", (1.5, 2.0, "2", True, np.bool_(True), None,
                                 (1, 2.0), ("1",), "00", ((1,),), [0.0]))
def test_lattice_point_refuses_everything_but_ints(bad):
    with pytest.raises(StructuralError):
        lattice_point(bad)


def test_lattice_point_checks_the_length():
    with pytest.raises(StructuralError, match="length 2, expected 1"):
        lattice_point((0, 0), 1)
    with pytest.raises(StructuralError):
        lattice_point(3, 2)
    assert lattice_point((), 0) == ()


@pytest.mark.parametrize("bad", (2.0, "2", True, None, [2]))
def test_integer_refuses_non_ints(bad):
    with pytest.raises(StructuralError, match="dim must be an integer"):
        integer(bad, "dim")


def test_numbers_returns_a_new_float_array():
    raw = np.array([1, 2, 3])
    out = numbers(raw)
    assert out.dtype == float and out.tolist() == [1.0, 2.0, 3.0]
    src = np.array([0.5, 0.25])
    assert numbers(src) is not src
    assert numbers([[1, 2.5], [3, 4]]).shape == (2, 2)
    assert numbers(7).shape == ()


@pytest.mark.parametrize("bad", ("x", [0.25, "x"], [[1], [1, 2]], [True, False],
                                 np.array([True]), [0.5, True], [[1.0, False]],
                                 None, [1.0, None], {"a": 1}, [1j],
                                 [np.array([True, False]), [1.0, 2.0]],
                                 [np.array(True), 1.0], ([np.array(False), 2.0],)))
def test_numbers_refuses_strings_bools_and_ragged_nesting(bad):
    with pytest.raises(StructuralError):
        numbers(bad, "coeffs")


def test_number_reads_one_int_or_float():
    assert number(2) == 2.0 and type(number(np.int64(2))) is float
    assert number(np.float64(0.25)) == 0.25 and number(np.array(1.5)) == 1.5


@pytest.mark.parametrize("bad", (True, np.bool_(False), "2", None, [2.0],
                                 np.array([0.5]), [[1.0]]))
def test_number_refuses_bools_strings_and_arrays(bad):
    with pytest.raises(StructuralError, match="^p must"):
        number(bad, "p")


@pytest.mark.parametrize("bad", (True, "2", [1.0]))
def test_scalar_arguments_go_through_the_number_reader(bad):
    C, x, eu1 = chaikin_mask(), euclidean_point([0.0]), SpaceDescriptor("euclidean", 1)
    f = geodesic_sampler(eu1)
    for call in (lambda: geodesic_point(x, x, bad),
                 lambda: lp_curve(C, (0,), 2, bad, (0,)),
                 lambda: dispersion_gap(C, (0,), 1, bad),
                 lambda: approximation_error(C, eu1, f, 1.0, bad, 1),
                 lambda: approximation_error(C, eu1, f, bad, 0.1, 1)):
        with pytest.raises(StructuralError):
            call()


def count_calls(count):
    """Every library call that takes a step, trial or level count, given count."""
    C = chaikin_mask()
    x = random_grid(SpaceDescriptor("euclidean", 1), (0,), (3,), np.random.default_rng(1))
    return {"kernel_row": lambda: kernel_row(C, (0,), count),
            "simulate_chain.steps": lambda: simulate_chain(C, (0,), count, 10, 0),
            "simulate_chain.trials": lambda: simulate_chain(C, (0,), 1, count, 0),
            "lp_curve": lambda: lp_curve(C, (0,), count, 1.0, (0,)),
            "dispersion_gap": lambda: dispersion_gap(C, (0,), count, 1.0),
            "ball_confinement": lambda: ball_confinement(C, (0,), count),
            "iterated_mask": lambda: iterated_mask(C, count),
            "cascade": lambda: cascade(C, count),
            "iterate": lambda: iterate(C, x, count)}


@pytest.mark.parametrize("bad", (True, np.bool_(True), 2.0, 2.5, "2", None, [2]))
def test_library_counts_go_through_the_integer_reader(bad):
    for name, call in count_calls(bad).items():
        with pytest.raises(StructuralError, match="must be an integer"):
            call()


def test_negative_counts_keep_their_error_types():
    calls = count_calls(-1)
    for name, call in calls.items():
        error = StructuralError if name in ("iterated_mask", "cascade") else DomainError
        with pytest.raises(error):
            call()
    with pytest.raises(DomainError, match="trials must be >= 1"):
        count_calls(0)["simulate_chain.trials"]()
    row = kernel_row(chaikin_mask(), (0,), np.int64(2))
    assert type(row.steps) is int and row.steps == 2


def seed_and_count_calls():
    """Calls that read a seed, a trial count or a level bound, by argument and value."""
    C, eu1 = chaikin_mask(), SpaceDescriptor("euclidean", 1)
    x = random_grid(eu1, (0,), (3,), np.random.default_rng(1))
    calls = {}
    for seed in (-1, 1.5, True):
        calls[f"simulate_chain.seed={seed}"] = lambda s=seed: simulate_chain(C, (0,), 2, 10, s)
        calls[f"empirical_gamma.seed={seed}"] = lambda s=seed: empirical_gamma(C, eu1, 1, 3, s)
        calls[f"geodesic_sampler.seed={seed}"] = lambda s=seed: geodesic_sampler(eu1, s)
    for trials in (0, -1, 2.0):
        calls[f"empirical_gamma.trials={trials}"] = \
            lambda t=trials: empirical_gamma(C, eu1, t, 3, 0)
    calls["empirical_gamma.n_max=None"] = lambda: empirical_gamma(C, eu1, 1, None, 0)
    calls["convergence_diagnostic.n_max=None"] = lambda: convergence_diagnostic(C, x, None)
    for cap in (None, 2.0, True):
        calls[f"contractivity_certificate.cap={cap}"] = \
            lambda c=cap: contractivity_certificate(C, c)
    return calls


@pytest.mark.parametrize("name,error,message", (
    ("simulate_chain.seed=-1", DomainError, r"^seed must be >= 0, got -1$"),
    ("simulate_chain.seed=1.5", StructuralError, "seed must be an integer"),
    ("simulate_chain.seed=True", StructuralError, "seed must be an integer"),
    ("empirical_gamma.seed=-1", DomainError, r"^seed must be >= 0, got -1$"),
    ("empirical_gamma.seed=1.5", StructuralError, "seed must be an integer"),
    ("empirical_gamma.seed=True", StructuralError, "seed must be an integer"),
    ("geodesic_sampler.seed=-1", DomainError, r"^seed must be >= 0, got -1$"),
    ("geodesic_sampler.seed=1.5", StructuralError, "seed must be an integer"),
    ("geodesic_sampler.seed=True", StructuralError, "seed must be an integer"),
    ("empirical_gamma.trials=0", DomainError, r"^trials must be >= 1, got 0$"),
    ("empirical_gamma.trials=-1", DomainError, r"^trials must be >= 1, got -1$"),
    ("empirical_gamma.trials=2.0", StructuralError, "trials must be an integer"),
    ("empirical_gamma.n_max=None", StructuralError, "n_max must be an integer"),
    ("convergence_diagnostic.n_max=None", StructuralError, "n_max must be an integer"),
    ("contractivity_certificate.cap=None", StructuralError, "level cap must be an integer"),
    ("contractivity_certificate.cap=2.0", StructuralError, "level cap must be an integer"),
    ("contractivity_certificate.cap=True", StructuralError, "level cap must be an integer"),
))
def test_seeds_trials_and_level_bounds_are_read_and_refused_by_type(name, error, message):
    """A bool, a float or None is refused as everywhere else, and a negative seed or
    a trial count below 1 is a DomainError worded as the CLI words it."""
    with pytest.raises(error, match=message):
        seed_and_count_calls()[name]()


# -- the readers behind the constructors and decoders ------------------------------

def test_mask_dim_offset_and_coefficients_go_through_the_readers():
    with pytest.raises(StructuralError):
        Mask(True, (0,), [1.0])
    with pytest.raises(StructuralError):
        Mask(1.0, (0,), [1.0])
    with pytest.raises(StructuralError):
        make_mask((0.5,), [1.0])
    with pytest.raises(StructuralError):
        make_mask(0, [1.0, "x"])
    with pytest.raises(StructuralError):
        make_mask((0,), [np.array(True), 1.0])
    assert make_mask(np.int64(-1), [0.5, 1.0, 0.5]).offset == (-1,)
    for obj in ({"dim": True, "offset": [0], "coeffs": [1.0]},
                {"dim": 2, "offset": "00", "coeffs": [[1.0]]},
                {"dim": 1, "offset": "1", "coeffs": [1.0]},
                {"dim": 1, "offset": [0], "coeffs": [[1], [1, 2]]}):
        with pytest.raises(StructuralError):
            mask_from_json(obj)


@pytest.mark.parametrize("dim", ("2", 2.9, 2.0, True, None))
def test_descriptor_dim_must_be_an_int(dim):
    with pytest.raises(StructuralError):
        descriptor_from_json({"kind": "euclidean", "dim": dim})
    with pytest.raises(StructuralError):
        SpaceDescriptor("spd", dim)


def test_tripod_leg_and_coordinate_are_read_not_cast():
    assert tripod_point(np.int64(2), np.float64(0.5)).payload == (2, 0.5)
    for leg, t in ((1.9, 0.5), (True, 0.5), ("1", 0.5), (1, "0.5"), (1, [0.5])):
        with pytest.raises(StructuralError):
            tripod_point(leg, t)
