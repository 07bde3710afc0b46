"""Golden CLI payloads: exact (dyadic) and seeded runs stay bit-identical.

Each case runs `cli.main` in process and compares the payload with
`tests/golden/<name>.json` as canonical JSON text, so an int written as a
float (2 against 2.0) is a difference.  The exact cases touch no LAPACK and no
libm, so they are exact on any build.  The curved cases (`*_spd2`, `*_hyp2`:
cubic-mask runs with 3-point Karcher rows and 2-point geodesics) go through
LAPACK's eigh and libm's exp, log, sinh and acosh, and the `diagnose --space`
cases pin the seeded `random_point` streams too; their files are exact for
the build they were written on, Python 3.11.7 with numpy 2.4.6 and its bundled
scipy-openblas 0.3.31 (OpenBLAS 0.3.31.188.0, DYNAMIC_ARCH) on x86-64 Linux,
and another build may move their last bits.  The golden files were written by
running this module as a
script (`PYTHONPATH=src python tests/test_golden.py [NAME ...]`) at a commit
whose behaviour they pin; the script rewrites the named cases, or every case
when no name is given.  Rerun it only for an intended change of a payload,
name only the cases that change, and name that change in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from npcsubdiv import (SpaceDescriptor, bspline_mask, chaikin_mask, make_mask,
                       spd_point, tensor_power, tripod_point)
from npcsubdiv.cli import main
from npcsubdiv.grid import grid_from_points, grid_to_json
from npcsubdiv.masks import mask_to_json, translate
from npcsubdiv.spaces import hyperboloid_from_spatial

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    "hat": mask_to_json(bspline_mask()),
    "chaikin": mask_to_json(chaikin_mask()),
    "gapped": mask_to_json(make_mask((0,), [1.0, 0.0, 0.0, 1.0])),
    "tensor_hat": mask_to_json(tensor_power(bspline_mask(), 2)),
    "chaikin_shifted": mask_to_json(translate(chaikin_mask(), (3,))),
    "nondyadic": mask_to_json(make_mask((-1,), [0.2, 0.7, 0.8, 0.3])),
    "witness": grid_to_json(grid_from_points(
        SpaceDescriptor("tripod"), (-1,), (1,),
        [tripod_point(2, 2.0), tripod_point(1, 0.5), tripod_point(0, 2.0)])),
    "cubic": mask_to_json(make_mask((-2,), [0.125, 0.5, 0.75, 0.5, 0.125])),
    # dyadic entries, so the inputs themselves are exact: log-eigenvalues up to
    # about +-2 on spd:2, spatial coordinates up to 1.5 on hyperboloid:2
    "spd2": grid_to_json(grid_from_points(
        SpaceDescriptor("spd", 2), (0,), (6,),
        [spd_point([[2.0 ** (i - 3), (i % 3 - 1) / 4], [(i % 3 - 1) / 4, 2.0 ** (3 - i)]])
         for i in range(7)])),
    "hyp2": grid_to_json(grid_from_points(
        SpaceDescriptor("hyperboloid", 2), (0,), (6,),
        [hyperboloid_from_spatial([i / 2 - 1.5, (i % 3) / 2 - 0.5]) for i in range(7)])),
}

# name -> argv; "@key" stands for the path of INPUTS[key] written as JSON
CASES = {
    "validate_hat": ["validate", "--mask", "@hat"],
    "validate_chaikin": ["validate", "--mask", "@chaikin"],
    "validate_gapped": ["validate", "--mask", "@gapped"],
    "validate_tensor_hat": ["validate", "--mask", "@tensor_hat"],
    "cascade_hat_6": ["cascade", "--mask", "@hat", "--levels", "6"],
    "cascade_chaikin_6": ["cascade", "--mask", "@chaikin", "--levels", "6"],
    "cascade_tensor_hat_3": ["cascade", "--mask", "@tensor_hat", "--levels", "3"],
    "certify_hat_9": ["certify", "--mask", "@hat", "--cap", "9"],
    "certify_chaikin_9": ["certify", "--mask", "@chaikin", "--cap", "9"],
    "certify_gapped_9": ["certify", "--mask", "@gapped", "--cap", "9"],
    "certify_tensor_hat_2": ["certify", "--mask", "@tensor_hat", "--cap", "2"],
    "cascade_nondyadic_5": ["cascade", "--mask", "@nondyadic", "--levels", "5"],
    "certify_nondyadic_6": ["certify", "--mask", "@nondyadic", "--cap", "6"],
    "chain_exact_nondyadic_6": ["chain", "--mask", "@nondyadic", "--start", "3",
                                "--steps", "6"],
    "chain_exact_chaikin_8": ["chain", "--mask", "@chaikin", "--start", "5",
                              "--steps", "8", "--exact"],
    "chain_exact_shifted_5": ["chain", "--mask", "@chaikin_shifted",
                              "--start", "-7", "--steps", "5"],
    "chain_exact_tensor_hat_3": ["chain", "--mask", "@tensor_hat",
                                 "--start", "1,-3", "--steps", "3"],
    "chain_mc_chaikin_2000": ["chain", "--mask", "@chaikin", "--start", "0",
                              "--steps", "3", "--mc", "trials=2000",
                              "--seed", "1"],
    "lp_chaikin_p2": ["lp", "--mask", "@chaikin", "--start", "1", "--p", "2",
                      "--max-steps", "8"],
    "subdivide_witness": ["subdivide", "--mask", "@chaikin", "--data",
                          "@witness", "--levels", "3"],
    "gap_witness": ["gap", "--mask", "@chaikin", "--data", "@witness",
                    "--index", "4", "--steps", "2"],
    "diagnose_chaikin_tripod": ["diagnose", "--mask", "@chaikin", "--space",
                                "tripod", "--trials", "3", "--levels", "3",
                                "--seed", "5"],
    "approx_chaikin_tripod": ["approx", "--mask", "@chaikin", "--space",
                              "tripod", "--levels", "3"],
    "subdivide_cubic_spd2": ["subdivide", "--mask", "@cubic", "--data", "@spd2",
                             "--levels", "3"],
    "subdivide_cubic_hyp2": ["subdivide", "--mask", "@cubic", "--data", "@hyp2",
                             "--levels", "3"],
    "diagnose_cubic_spd2": ["diagnose", "--mask", "@cubic", "--space", "spd:2",
                            "--trials", "2", "--levels", "3", "--seed", "4"],
    "diagnose_cubic_hyp2": ["diagnose", "--mask", "@cubic", "--space",
                            "hyperboloid:2", "--trials", "2", "--levels", "3",
                            "--seed", "4"],
}


def run_case(name, root: Path) -> dict:
    argv = []
    for token in CASES[name]:
        if token.startswith("@"):
            path = root / f"{token[1:]}.json"
            path.write_text(json.dumps(INPUTS[token[1:]]))
            token = str(path)
        argv.append(token)
    out = root / f"{name}.report.json"
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())["payload"]


def canonical(payload) -> str:
    """JSON text with sorted keys: equal text means equal values and types."""
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_matches_golden(name, tmp_path):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert canonical(run_case(name, tmp_path)) == canonical(want)


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden cases: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in names:
            payload = run_case(case, Path(tmp))
            (GOLDEN / f"{case}.json").write_text(
                json.dumps(payload, indent=1, sort_keys=True) + "\n")
            print(case, file=sys.stderr)
