"""End-to-end CLI runs: in-process main(), JSON/CSV payloads, exit codes."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import npcsubdiv
from npcsubdiv import (DomainError, SpaceDescriptor, StructuralError, bspline_mask,
                       chaikin_mask, kernel_row, make_mask, tensor_power, tripod_point)
from npcsubdiv.cli import (COMMANDS, Report, RunConfig, build_parser, config_from_args, main,
                           render_report, run)
from npcsubdiv.grid import GridData, grid_from_json, grid_from_points, grid_to_json, random_grid
from npcsubdiv.masks import (iterated_mask, mask_from_json, mask_to_json, tensor_product,
                             translate)
from oracles import dense_iterated
from test_linear import MASK_JSON_CASES

B = bspline_mask()
C = chaikin_mask()
GAPPED = make_mask((0,), [1.0, 0.0, 0.0, 1.0])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    def dump(name, obj):
        path = root / name
        path.write_text(json.dumps(obj))
        return str(path)

    witness = grid_from_points(
        SpaceDescriptor("tripod"), (-1,), (1,),
        [tripod_point(2, 2.0), tripod_point(1, 0.5), tripod_point(0, 2.0)])
    return {
        "b": dump("b.json", mask_to_json(B)),
        "c": dump("c.json", mask_to_json(C)),
        "gapped": dump("gapped.json", mask_to_json(GAPPED)),
        "bb": dump("bb.json", mask_to_json(tensor_power(B, 2))),
        "witness": dump("witness.json", grid_to_json(witness)),
        "root": root,
    }


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def payload_of(out):
    report = json.loads(out)
    assert set(report) == {"config", "payload", "versions", "duration_s"}
    return report["payload"]


# -- happy paths -----------------------------------------------------------------

def test_validate_reports_sum_rule_and_convergence_level(capsys, files):
    rc, out, _ = run_cli(capsys, ["validate", "--mask", files["b"]])
    payload = payload_of(out)
    assert rc == 0
    assert payload["sum_rule_ok"] and payload["nonnegative_ok"]
    assert payload["residual"] == 0.0
    assert payload["support_box"] == {"lo": [-1], "hi": [1]}
    assert {tuple(e["parity"]): e["residual"]
            for e in payload["coset_residuals"]} == {(0,): 0.0, (1,): 0.0}
    assert payload["convergence_level"] == 1 and payload["notes"] == []

    rc, out, _ = run_cli(capsys, ["validate", "--mask", files["gapped"]])
    payload = payload_of(out)
    assert rc == 0 and payload["sum_rule_ok"]
    assert payload["convergence_level"] is None  # written as null: never converges

    rc, out, _ = run_cli(capsys, ["validate", "--mask", files["bb"]])
    assert payload_of(out)["convergence_level"] == 1  # decided in every dimension

    lopsided = files["root"] / "lopsided.json"
    lopsided.write_text(json.dumps(mask_to_json(make_mask((0,), [1.0, 0.5]))))
    rc, out, _ = run_cli(capsys, ["validate", "--mask", str(lopsided)])
    payload = payload_of(out)
    assert rc == 0 and not payload["sum_rule_ok"]
    assert "convergence_level" not in payload  # no level without the sum rule


def test_cascade_payload_matches_the_hat_function(capsys, files):
    rc, out, _ = run_cli(capsys, ["cascade", "--mask", files["b"],
                                  "--levels", "3"])
    payload = payload_of(out)
    assert rc == 0 and payload["level"] == 3 and payload["eps_n"] == 0.0
    values = {tuple(e["index"]): e["value"] for e in payload["samples"]}
    assert all(v == max(0.0, 1.0 - abs(i[0]) / 8.0) for i, v in values.items())
    assert payload["support"] == {"lo": [-7], "hi": [7]}


def test_certify_payload_satisfies_the_contraction_identity(capsys, files):
    rc, out, _ = run_cli(capsys, ["certify", "--mask", files["c"]])
    payload = payload_of(out)
    assert rc == 0 and payload["found"] and payload["n0"] == 3
    assert payload["M"] == 5 and payload["gauge_half_widths"] == [2.0]
    a, e, m = payload["alpha_n"], payload["eps_n"], payload["M"]
    assert payload["gamma_n"] == 1.0 - a + 2.0 * e + (m * e) ** 2
    assert payload["gamma_n"] < 1.0


def test_subdivide_final_grid_reparses(capsys, files):
    rc, out, _ = run_cli(capsys, ["subdivide", "--mask", files["c"],
                                  "--data", files["witness"], "--levels", "2"])
    payload = payload_of(out)
    assert rc == 0 and payload["levels"] == 2
    assert len(payload["d_inf_series"]) == 3
    assert len(payload["gauge_series"]) == 3
    assert payload["interiors"] == [{"lo": [-1], "hi": [1]},
                                    {"lo": [0], "hi": [2]},
                                    {"lo": [2], "hi": [4]}]
    final = grid_from_json(payload["final"])
    assert final.descriptor.kind == "tripod"
    assert len(payload["final"]["points"]) == 9  # doubled window [-4, 4]
    final.get((3,))


def test_diagnose_is_inconclusive_for_the_gapped_mask(capsys, files):
    rc, out, _ = run_cli(capsys, ["diagnose", "--mask", files["gapped"],
                                  "--space", "euclidean:1", "--levels", "3",
                                  "--trials", "3"])
    payload = payload_of(out)
    assert rc == 0
    assert payload["verdict"] == "inconclusive"
    assert payload["verdicts"] == ["inconclusive"] * 3
    assert len(payload["cauchy_series"]) == 3

    rc, out, _ = run_cli(capsys, ["diagnose", "--mask", files["b"],
                                  "--data", files["witness"], "--levels", "3"])
    payload = payload_of(out)
    assert rc == 0 and payload["verdict"] == "converging"
    assert payload["trials"] == 1


@pytest.mark.parametrize("extra", (("--space", "spd:3"), ("--trials", "5"), ("--seed", "0"),
                                   ("--space", "spd:3", "--trials", "5", "--seed", "9")),
                         ids=("space", "trials", "seed", "both"))
def test_diagnose_refuses_a_space_or_trial_count_next_to_data(capsys, files, extra):
    """Given --data, diagnose runs one trial on the file's data and draws
    nothing, so a space, a trial count or a seed beside it would be echoed but
    not used."""
    rc, out, err = run_cli(capsys, ["diagnose", "--mask", files["b"], "--data", files["witness"],
                                    *extra])
    assert rc == 1 and out == ""
    assert json.loads(err) == {"error": {
        "type": "DomainError", "message": "diagnose --data takes no --space, --trials or --seed"}}


@pytest.mark.parametrize("space", ("euclidean:1", "spd:2"))
def test_diagnose_reads_the_convergence_level_of_a_divergent_mask(capsys, files, space):
    """[1, 0.25, 0, 0.75] at offset -1 has no convergence level, yet random data
    decays on it: the per-trial fit alone called 4 of 8 trials converging on
    euclidean:1.  Every trial verdict is inconclusive, with the series kept."""
    path = files["root"] / "divergent.json"
    path.write_text(json.dumps(mask_to_json(make_mask((-1,), [1.0, 0.25, 0.0, 0.75]))))
    rc, out, _ = run_cli(capsys, ["diagnose", "--mask", str(path), "--space", space,
                                  "--levels", "6", "--trials", "8"])
    payload = payload_of(out)
    assert rc == 0 and payload["verdicts"] == ["inconclusive"] * 8
    assert payload["verdict"] == "inconclusive"
    assert [len(s) for s in payload["cauchy_series"]] == [6] * 8


def test_chain_exact_row_matches_the_library(capsys, files):
    rc, out, _ = run_cli(capsys, ["chain", "--mask", files["c"],
                                  "--start", "4", "--steps", "2"])
    payload = payload_of(out)
    assert rc == 0 and payload["mode"] == "exact"
    probs = {tuple(e["j"]): e["p"] for e in payload["probs"]}
    assert probs == kernel_row(C, (4,), 2).probs
    assert [e["j"] for e in payload["probs"]] == [[-1], [0], [1]]  # sorted


def test_chain_monte_carlo_is_seeded_and_close(capsys, files):
    argv = ["chain", "--mask", files["c"], "--start", "0", "--steps", "2",
            "--mc", "trials=2000", "--seed", "7"]
    rc, out, _ = run_cli(capsys, argv)
    payload = payload_of(out)
    assert rc == 0 and payload["mode"] == "mc"
    assert payload["trials"] == 2000 and payload["seed"] == 7
    freq = {tuple(e["j"]): e["p"] for e in payload["freq"]}
    exact = kernel_row(C, (0,), 2).probs
    tv = 0.5 * sum(abs(freq.get(j, 0.0) - exact.get(j, 0.0))
                   for j in set(freq) | set(exact))
    assert tv <= 0.05

    rc, out, _ = run_cli(capsys, argv)
    assert payload == payload_of(out)  # same seed, byte-identical payload


def test_lp_curve_is_geometric_and_the_alias_agrees(capsys, files):
    rc, out, _ = run_cli(capsys, ["lp", "--mask", files["b"], "--start", "1",
                                  "--max-steps", "6"])
    payload = payload_of(out)
    assert rc == 0
    assert [e["moment"] for e in payload["curve"]] == [2.0 ** -n
                                                       for n in range(1, 7)]
    assert payload["p"] == 1.0 and payload["center"] == [0]

    rc, out, _ = run_cli(capsys, ["lp", "--mask", files["b"], "--start", "1",
                                  "--steps", "6"])
    assert payload == payload_of(out)


def test_gap_reproduces_the_tripod_witness(capsys, files):
    rc, out, _ = run_cli(capsys, ["gap", "--mask", files["c"],
                                  "--data", files["witness"],
                                  "--index", "4", "--steps", "2"])
    payload = payload_of(out)
    assert rc == 0
    assert payload["index"] == [4] and payload["steps"] == 2
    assert payload["gap"] == pytest.approx(0.0625, abs=1e-12)


def test_approx_sweep_passes_on_the_default_backend(capsys, files):
    rc, out, _ = run_cli(capsys, ["approx", "--mask", files["b"],
                                  "--levels", "4"])
    payload = payload_of(out)
    assert rc == 0 and payload["space"] == "hyperboloid:2"
    assert payload["support_radius"] == 1.0
    assert [c["h"] for c in payload["checks"]] == [0.2, 0.1, 0.05]
    assert all(c["ok"] for c in payload["checks"])
    assert all(c["sup_err"] <= c["bound"] for c in payload["checks"])


def test_payloads_are_deterministic_across_runs(capsys, files):
    for argv in (
        ["diagnose", "--mask", files["c"], "--space", "spd:2",
         "--levels", "3", "--trials", "2", "--seed", "5"],
        ["approx", "--mask", files["b"], "--levels", "3", "--seed", "2"],
    ):
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        first = json.dumps(payload_of(out1), sort_keys=True)
        second = json.dumps(payload_of(out2), sort_keys=True)
        assert first == second


def test_out_flag_writes_the_report_to_a_file(capsys, files):
    target = files["root"] / "report.json"
    rc, out, _ = run_cli(capsys, ["validate", "--mask", files["b"],
                                  "--out", str(target)])
    assert rc == 0 and out == ""
    report = json.loads(target.read_text())
    assert report["payload"]["sum_rule_ok"]


# -- CSV -------------------------------------------------------------------------

def test_cascade_csv_round_trips(capsys, files):
    rc, out, _ = run_cli(capsys, ["cascade", "--mask", files["b"],
                                  "--levels", "2", "--format", "csv"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "value"]
    values = {int(r[0]): float(r[1]) for r in rows[1:]}
    assert values[0] == 1.0 and values[2] == 0.5 and values[-3] == 0.25


def writer_csv(header, rows) -> str:
    """The text `csv.writer` gives for the rows, floats written as their repr."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [header, *([repr(c) if isinstance(c, float) else c for c in row] for row in rows)])
    return buf.getvalue()


def test_lp_csv_round_trips(capsys, files):
    argv = ["lp", "--mask", files["b"], "--start", "1", "--max-steps", "4"]
    rc, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "moment"]
    assert [(int(r[0]), float(r[1])) for r in rows[1:]] == [
        (n, 2.0 ** -n) for n in range(1, 5)]
    curve = payload_of(run_cli(capsys, argv)[1])["curve"]
    assert out == writer_csv(("n", "moment"), [(e["n"], e["moment"]) for e in curve])


def test_subdivide_csv_has_both_series(capsys, files):
    argv = ["subdivide", "--mask", files["c"], "--data", files["witness"], "--levels", "2"]
    rc, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "d_inf", "gauge_D"]
    assert len(rows) == 4
    payload = payload_of(run_cli(capsys, argv)[1])
    d_inf, gauge = payload["d_inf_series"], payload["gauge_series"]
    assert out == writer_csv(("n", "d_inf", "gauge_D"), zip(range(len(d_inf)), d_inf, gauge))


# -- failure paths ---------------------------------------------------------------

def expect_error(capsys, argv, error_type):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == error_type
    assert error["message"]
    return error


def test_missing_file_is_a_clean_error(capsys, files):
    expect_error(capsys, ["validate", "--mask", "/nonexistent/mask.json"],
                 "StructuralError")


def test_malformed_mask_file_is_a_clean_error(capsys, files):
    bad = files["root"] / "bad.json"
    bad.write_text("{not json")
    expect_error(capsys, ["validate", "--mask", str(bad)], "StructuralError")


def test_csv_is_rejected_for_scalar_reports(capsys, files):
    expect_error(capsys, ["validate", "--mask", files["b"],
                          "--format", "csv"], "DomainError")


def test_sum_rule_violations_surface_through_the_cli(capsys, files):
    bad = files["root"] / "unbalanced.json"
    bad.write_text(json.dumps(mask_to_json(make_mask((0,), [1.0, 0.5]))))
    expect_error(capsys, ["certify", "--mask", str(bad)], "StructuralError")


@pytest.mark.parametrize("argv", (["subdivide", "--levels", "3"], ["subdivide", "--levels", "0"],
                                  ["gap", "--index", "0", "--steps", "2"], ["diagnose"]),
                         ids=("subdivide-3", "subdivide-0", "gap", "diagnose-data"))
def test_a_mask_of_another_dimension_is_refused_before_the_window_is_read(capsys, files, argv):
    """Chaikin (1-D) on a 2x2 spd:2 grid: the run's plan refuses the pair at
    every level, before the window's depth or a gauge is checked."""
    data = files["root"] / "square.json"
    square = random_grid(SpaceDescriptor("spd", 2), (0, 0), (1, 1), np.random.default_rng(0))
    data.write_text(json.dumps(grid_to_json(square)))
    error = expect_error(capsys, argv[:1] + ["--mask", files["c"], "--data", str(data)] + argv[1:],
                         "StructuralError")
    assert error["message"] == "mask and data dimension disagree"


@pytest.mark.parametrize("argv", (["subdivide", "--data", "@witness", "--levels", "0"],
                                  ["approx", "--levels", "0"]), ids=("subdivide", "approx"))
def test_a_mask_that_breaks_the_sum_rule_is_refused_at_level_0(capsys, files, argv):
    bad = files["root"] / "lopsided.json"
    bad.write_text(json.dumps(mask_to_json(make_mask((0,), [1.0, 0.5]))))
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    error = expect_error(capsys, argv[:1] + ["--mask", str(bad)] + argv[1:], "StructuralError")
    assert error["message"].startswith("mask violates the sum rule")


@pytest.mark.parametrize("argv", (["validate"], ["cascade", "--levels", "1"], ["certify"]))
def test_a_mask_of_dimension_0_is_a_clean_error(capsys, files, argv):
    bad = files["root"] / "dim0.json"
    bad.write_text(json.dumps({"dim": 0, "offset": [], "coeffs": 1.0}))
    expect_error(capsys, argv[:1] + ["--mask", str(bad)] + argv[1:], "StructuralError")


@pytest.mark.parametrize("window", (
    {"lo": [0.7], "hi": [2.9]},
    {"lo": [-1], "hi": ["1"]},
    {"lo": [True], "hi": [3]},
), ids=("float", "string", "bool"))
def test_subdivide_rejects_non_integral_windows(capsys, files, window):
    grid = json.loads((files["root"] / "witness.json").read_text())
    grid["window"] = window
    bad = files["root"] / "bad_window.json"
    bad.write_text(json.dumps(grid))
    expect_error(capsys, ["subdivide", "--mask", files["b"], "--data", str(bad),
                          "--levels", "1"], "StructuralError")


def test_subdivide_refuses_a_periodic_grid(capsys, files):
    """A read past the window takes the nearest stored node; no other rule is read."""
    grid = json.loads((files["root"] / "witness.json").read_text())
    bad = files["root"] / "periodic.json"
    bad.write_text(json.dumps(dict(grid, extension="periodic")))
    rc, out, err = run_cli(capsys, ["subdivide", "--mask", files["b"], "--data", str(bad),
                                    "--levels", "1"])
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == {"type": "StructuralError",
                                        "message": "unknown extension policy 'periodic'"}


def test_render_report_matches_the_asdict_encoding():
    report = Report(config={"command": "subdivide", "start": [0, -1], "seed": 3},
                    payload={"series": [0.5, 1e-300, -0.0], "nested": {"b": (1, 2), "a": None},
                             "rows": [{"j": [1], "p": 0.25}], "tag": "x\u00e9"},
                    versions={"package": "0"}, duration_s=0.125)
    text = render_report(report, "subdivide", "json")
    assert text == json.dumps(dataclasses.asdict(report), sort_keys=True) + "\n"
    pretty = json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True)
    assert json.loads(text) == json.loads(pretty)
    assert text.count("\n") == 1 and text.endswith("\n")


def writer_grids():
    """Grids of every backend: a 2-D euclidean window with -0.0 and 0.0 entries,
    random spd:2 and spd:3 nodes (symmetric entries, written once per bit
    pattern), a hyperboloid:2 node with a -0.0 coordinate, and tripod nodes on
    all three legs, the glue point among them."""
    rng = np.random.default_rng(7)
    eu = rng.standard_normal((3, 2, 2))
    eu[0, 0, 0], eu[1, 1, 1], eu[2, 0] = -0.0, 0.0, 1e-300
    hyp = random_grid(SpaceDescriptor("hyperboloid", 2), (-2,), (2,), rng).payloads.copy()
    hyp[1, 1:] = [-0.0, 0.5]
    hyp[1, 0] = np.sqrt(1.25)
    yield GridData(SpaceDescriptor("euclidean", 2), (0, -1), (2, 0), eu)
    yield random_grid(SpaceDescriptor("spd", 2), (0,), (4,), rng)
    yield random_grid(SpaceDescriptor("spd", 3), (5, 5), (6, 7), rng)
    yield GridData(SpaceDescriptor("hyperboloid", 2), (-2,), (2,), hyp)
    yield GridData(SpaceDescriptor("tripod"), (0,), (4,),
                   [[0, 0.0], [1, 0.5], [2, 2.0], [2, 0.1], [1, 1e-17]])


@pytest.mark.parametrize("grid", list(writer_grids()), ids=lambda g: g.descriptor.kind)
def test_subdivide_reports_write_the_final_level_as_grid_json(grid):
    """A subdivide report holds its final level as a grid; the JSON text is
    json.dumps of the report with `grid_to_json` of that grid in its place,
    and the CSV text does not read it."""
    payload = {"levels": 1, "interiors": [{"lo": [0], "hi": [1]}],
               "d_inf_series": [0.5, -0.0], "gauge_series": [0.75, 0.25], "final": grid}
    report = Report(config={"command": "subdivide", "out": None, "seed": 3}, payload=payload,
                    versions={"package": "0"}, duration_s=0.125)
    encoded = Report(**{**vars(report), "payload": {**payload, "final": grid_to_json(grid)}})
    text = render_report(report, "subdivide", "json")
    assert text == json.dumps(vars(encoded), sort_keys=True) + "\n"
    assert grid_from_json(json.loads(text)["payload"]["final"]).payloads.tobytes() == \
        grid.payloads.tobytes()
    assert render_report(report, "subdivide", "csv") == render_report(encoded, "subdivide", "csv")


def cascade_texts(files, mask_json, level):
    """The JSON and the CSV text that `cascade --out` writes for mask_json."""
    path, out = files["root"] / "cascade_mask.json", files["root"] / "cascade_out"
    path.write_text(json.dumps(mask_json))
    argv = ["cascade", "--mask", str(path), "--levels", str(level), "--out", str(out)]
    texts = []
    for fmt in ("json", "csv"):
        assert main(argv + ["--format", fmt]) == 0
        texts.append(out.read_text(encoding="utf-8"))
    return texts


def assert_cascade_texts(json_text, csv_text, want):
    """json_text is json.dumps of its own report with the oracle's a^(n), want,
    as sorted {"index", "value"} rows in place of the samples; csv_text has one
    `index,value` line per row, the value as its repr."""
    rows = sorted((i if isinstance(i, tuple) else (i,), v) for i, v in want.items())
    report = json.loads(json_text)
    report["payload"]["samples"] = [{"index": list(i), "value": v} for i, v in rows]
    assert json_text == json.dumps(report, sort_keys=True) + "\n"
    assert csv_text == "index,value\n" + "".join(
        f"{' '.join(map(str, i))},{v!r}\n" for i, v in rows)


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_cascade_reports_are_the_json_dumps_of_their_rows(files, dim):
    for mask, level in MASK_JSON_CASES[dim]:
        offset = mask["offset"][0] if dim == 1 else tuple(mask["offset"])
        assert_cascade_texts(*cascade_texts(files, mask, level),
                             dense_iterated(mask["coeffs"], offset, level))


@pytest.mark.parametrize("mask,shift", (
    (C, (2 ** 70,)), (C, (-2 ** 70,)), (tensor_power(B, 2), (3, 2 ** 70)),
    (make_mask((0, 0), [[0.25, 0.0], [0.75, 0.5]]), (-2 ** 70, -2))),
    ids=("1d-above", "1d-below", "2d-above", "2d-below"))
def test_cascade_text_is_exact_beyond_int64(mask, shift):
    """The report of a cascade whose offset lies beyond int64 on one axis
    (built in place: the interlevel residual refuses so far a translation)."""
    far = translate(mask, shift)
    for level in range(4):
        samples = iterated_mask(far, level)
        report = Report(config={"command": "cascade", "levels": level},
                        payload={"level": level, "eps_n": 0.0, "samples": samples,
                                 "support": dict(zip(("lo", "hi"), samples.support_box()))},
                        versions={"package": "0"}, duration_s=0.125)
        offset = far.offset[0] if far.dim == 1 else far.offset
        assert_cascade_texts(render_report(report, "cascade", "json"),
                             render_report(report, "cascade", "csv"),
                             dense_iterated(mask.coeffs.tolist(), offset, level))


@pytest.mark.parametrize("mask", (tensor_power(B, 2), tensor_product(C, B), tensor_power(C, 3)),
                         ids=("hat-hat", "chaikin-hat", "chaikin-cubed"))
def test_cascades_of_tensor_products_format_each_repeated_value_alike(files, mask):
    """Products of levels repeat values many times over; each sample keeps the
    text of its own value."""
    shifted = translate(mask, (2, -3, 1)[:mask.dim])
    for level in range(1, 4):
        want = dense_iterated(mask.coeffs.tolist(), shifted.offset, level)
        assert len(set(want.values())) < len(want)
        assert_cascade_texts(*cascade_texts(files, mask_to_json(shifted), level), want)


@pytest.mark.parametrize("mask,level", (
    (make_mask((4,), [0.5]), 0), (make_mask((4,), [0.5]), 3),
    (make_mask((0, 0, 0), np.reshape([0.25, 0.5, 0.0, 0.125, 0.0, 0.0, 0.0, 0.5, 0.125,
                                      0.0, 0.0, 0.75, 0.5, 0.0, 0.25, 0.0, 0.125, 0.5],
                                     (3, 3, 2)).tolist()), 2),
    (make_mask((-7, -3), [[0.25, 0.5], [0.75, 0.0], [0.5, 0.125]]), 3),
    (make_mask((-1,), [0.1, 1 / 3, 0.7]), 5)),
    ids=("single-level-0", "single-level-3", "3d-interior-zeros", "negative-offsets",
         "exponent-reprs"))
def test_cascade_writer_edge_cases(files, mask, level):
    """The writer's edges, in JSON and CSV: a lone row, 3-D rows with zeros
    inside the box, negative coordinates, and values written in exponent form."""
    text, csv_text = cascade_texts(files, mask_to_json(mask), level)
    offset = mask.offset[0] if mask.dim == 1 else mask.offset
    assert_cascade_texts(text, csv_text, dense_iterated(mask.coeffs.tolist(), offset, level))
    assert (",1.0000000000000004e-05\n" in csv_text) == (level == 5)  # 0.1^5: exponent form


def test_the_reused_parser_carries_no_state_between_calls(capsys, files):
    rc, out, _ = run_cli(capsys, ["chain", "--mask", files["c"], "--start", "0",
                                  "--steps", "2", "--mc", "trials=50"])
    assert rc == 0 and payload_of(out)["mode"] == "mc"
    rc, out, _ = run_cli(capsys, ["chain", "--mask", files["c"], "--start", "0",
                                  "--steps", "2"])
    assert rc == 0 and payload_of(out)["mode"] == "exact"

    rc, out, _ = run_cli(capsys, ["diagnose", "--mask", files["b"], "--data",
                                  files["witness"], "--levels", "2"])
    assert rc == 0 and payload_of(out)["n_max"] == 2
    rc, out, _ = run_cli(capsys, ["diagnose", "--mask", files["b"], "--data",
                                  files["witness"]])
    assert rc == 0 and payload_of(out)["n_max"] == 4


@pytest.mark.parametrize("shift", (10 ** 13, 10 ** 20), ids=("1e13", "1e20"))
def test_cascade_of_a_far_translated_mask_is_a_resource_error(capsys, files, shift):
    far = files["root"] / f"far_{shift}.json"
    far.write_text(json.dumps(mask_to_json(translate(C, (shift,)))))
    expect_error(capsys, ["cascade", "--mask", str(far), "--levels", "2"],
                 "ResourceError")


def test_validate_past_the_search_cap_writes_the_error_object(capsys, files):
    """The cubic B-spline mask in 5-D keeps the sum rule, but its chain's
    tables pass the cap: validate exits 1 with the ResourceError alone."""
    cubic = make_mask((-2,), [0.125, 0.5, 0.75, 0.5, 0.125])
    path = files["root"] / "cubic5.json"
    path.write_text(json.dumps(mask_to_json(tensor_power(cubic, 5))))
    error = expect_error(capsys, ["validate", "--mask", str(path)], "ResourceError")
    assert error["message"] == "convergence search tables exceed cap 4194304"


@pytest.mark.parametrize("mc", ("n=5", "trials=\u00b2", "trials=\u0663", "trials=1_0",
                                "trials= 5", "trials=+5", "trials="))
def test_bad_mc_argument(capsys, files, mc):
    expect_error(capsys, ["chain", "--mask", files["c"], "--start", "0",
                          "--steps", "1", "--mc", mc], "DomainError")


@pytest.mark.parametrize("argv", (
    ["chain", "--mask", "@c", "--start", "0", "--steps", "2", "--mc",
     "--seed", "-1"],
    ["approx", "--mask", "@b", "--levels", "2", "--seed", "-3"],
    ["diagnose", "--mask", "@c", "--space", "spd:2", "--seed", "-1"],
    ["diagnose", "--mask", "@c", "--space", "spd:2", "--trials", "0"],
    ["diagnose", "--mask", "@c", "--space", "spd:2", "--trials", "-2"],
), ids=("chain-mc-seed", "approx-seed", "diagnose-seed", "diagnose-trials-0",
        "diagnose-trials-negative"))
def test_bad_seeds_and_trial_counts_are_domain_errors(capsys, files, argv):
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    expect_error(capsys, argv, "DomainError")


@pytest.mark.parametrize("argv,error_type", (
    (["subdivide", "--mask", "@c", "--data", "@witness", "--levels"], "DomainError"),
    (["approx", "--mask", "@b", "--space", "tripod", "--levels"], "DomainError"),
    (["cascade", "--mask", "@b", "--levels"], "StructuralError"),
    (["lp", "--mask", "@c", "--start", "0", "--max-steps"], "DomainError"),
), ids=("subdivide", "approx", "cascade", "lp"))
def test_negative_level_counts_are_typed_errors(capsys, files, argv,
                                                error_type):
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    expect_error(capsys, argv + ["-1"], error_type)


@pytest.mark.parametrize("start", (2 ** 70, -2 ** 62, 2 ** 62))
def test_monte_carlo_walks_starts_beyond_int64(capsys, files, start):
    """The exact row and the Monte Carlo walk both run from far starts; the
    walk ends only on states of the exact row."""
    argv = ["chain", "--mask", files["c"], f"--start={start}", "--steps", "3"]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    probs = {tuple(e["j"]): e["p"] for e in payload_of(out)["probs"]}
    assert probs == kernel_row(C, (start,), 3).probs
    rc, out, _ = run_cli(capsys, argv + ["--mc", "trials=500"])
    assert rc == 0
    freq = {tuple(e["j"]): e["p"] for e in payload_of(out)["freq"]}
    assert set(freq) <= set(probs)
    assert sum(round(p * 500) for p in freq.values()) == 500


@pytest.mark.parametrize("corner,levels", ((2 ** 70, 1), (2 ** 61, 3), (-2 ** 62, 1)))
def test_grid_windows_beyond_int64_are_domain_errors(capsys, files, corner, levels):
    """A level whose window leaves int64 is refused with that window; the levels
    below it still run."""
    refused = 2 ** 63 if corner == 2 ** 61 else 2 * corner  # the low corner of the refused level
    grid = grid_from_points(SpaceDescriptor("tripod"), (corner,), (corner + 4,),
                            [tripod_point(k % 3, 1.0 + k) for k in range(5)])
    path = files["root"] / "far_grid.json"
    path.write_text(json.dumps(grid_to_json(grid)))
    for command in (["subdivide", "--levels", str(levels)],
                    ["gap", "--steps", str(levels), "--index", str(corner + 2)]):
        rc, out, err = run_cli(capsys, command + ["--mask", files["c"], "--data", str(path)])
        error = json.loads(err)["error"]
        assert rc == 1 and out == "" and error["type"] == "DomainError"
        assert "int64" in error["message"] and f"({refused},)" in error["message"]
    if corner == 2 ** 61:
        rc, out, _ = run_cli(capsys, ["subdivide", "--mask", files["c"], "--data", str(path),
                                      "--levels", "1"])
        assert rc == 0 and payload_of(out)["final"]["window"]["lo"] == [2 ** 62]


@pytest.mark.parametrize("argv", (
    ["chain", "--mask", "@c", "--start", "1_0", "--steps", "2"],
    ["chain", "--mask", "@c", "--start", "0, 1", "--steps", "2"],
    ["chain", "--mask", "@c", "--start", "0", "--steps", " 2"],
    ["cascade", "--mask", "@b", "--levels", "1_0"],
    ["certify", "--mask", "@b", "--cap", "+3"],
    ["diagnose", "--mask", "@c", "--space", "spd:2", "--trials", "\u0663"],
    ["approx", "--mask", "@b", "--seed", "1_0"],
    ["lp", "--mask", "@c", "--start", "0", "--index", "\u0660"],
    ["lp", "--mask", "@c", "--start", "0", "--p", "1_0"],
    ["lp", "--mask", "@c", "--start", "0", "--p", "\u0663"],
    ["lp", "--mask", "@c", "--start", "0", "--p", " 2"],
    ["lp", "--mask", "@c", "--start", "0", "--p", "+3"],
), ids=("start-underscore", "start-blank", "steps-blank", "levels-underscore", "cap-plus",
        "trials-arabic-indic", "seed-underscore", "index-arabic-indic", "p-underscore",
        "p-arabic-indic", "p-blank", "p-plus"))
def test_integer_options_are_a_minus_and_ascii_digits(capsys, files, argv):
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    expect_error(capsys, argv, "DomainError")


@pytest.mark.parametrize("p", ("abc", "", "-", "1e", "1.2.3"),
                         ids=("letters", "empty", "minus", "no-exponent", "two-points"))
def test_p_text_that_float_refuses_is_a_bad_number(capsys, files, p):
    """ASCII text with no blank, '+' or '_' reaches float(), which refuses it."""
    error = expect_error(capsys, ["lp", "--mask", files["c"], "--start", "0", "--p", p],
                         "DomainError")
    assert error["message"] == f"bad number {p!r}"


@pytest.mark.parametrize("p,value", (("1", 1.0), ("1.5", 1.5), ("2e0", 2.0), ("-1", None)))
def test_p_keeps_the_plain_float_syntax(capsys, files, p, value):
    argv = ["lp", "--mask", files["c"], "--start", "0", "--steps", "2", "--p", p]
    if value is None:  # read, then refused by the moment's domain
        expect_error(capsys, argv, "DomainError")
        return
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0 and payload_of(out)["p"] == value


@pytest.mark.parametrize("argv,message", (
    (["--start", "0", "--max-steps", "3", "--p", "1100"], "p = 1100.0, n = 2"),
    # the chain halves the start, so at n = 1 the offset is about 5e399
    (["--start", str(10 ** 400), "--index", str(10 ** 400)], "p = 1.0, n = 1"),
), ids=("p-1100", "start-and-index-1e400"))
def test_lp_moment_overflow_is_a_json_error(capsys, files, argv, message):
    rc, out, err = run_cli(capsys, ["lp", "--mask", files["c"], *argv])
    assert rc == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "NumericError" and message in error["message"]


@pytest.mark.parametrize("space,error_type,message", (
    ("spd:1_0", "DomainError", "expected kind:dim"),
    ("spd: 2", "DomainError", "expected kind:dim"),
    ("spd:\u0662", "DomainError", "expected kind:dim"),
    ("spd:+2", "DomainError", "expected kind:dim"),
    ("spd:", "DomainError", "expected kind:dim"),
    ("spd:0", "StructuralError", "dim must be >= 1"),
    ("hyperboloid:-1", "StructuralError", "dim must be >= 1"),
))
def test_space_dims_are_read_by_the_integer_rule(capsys, files, space, error_type, message):
    rc = main(["approx", "--mask", files["b"], "--space", space, "--levels", "1"])
    error = json.loads(capsys.readouterr().err)["error"]
    assert rc == 1 and error["type"] == error_type and message in error["message"]


def test_missing_required_option_is_reported(capsys, files):
    expect_error(capsys, ["cascade", "--mask", files["b"]], "DomainError")


def test_unknown_command_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ((), ("--mc",), ("--mc", "trials=5")),
                         ids=("default", "mc", "mc-trials"))
def test_chain_refuses_a_trials_option(capsys, files, mode):
    """`chain` spells its trial count only as `--mc trials=N`."""
    with pytest.raises(SystemExit) as exc:
        main(["chain", "--mask", files["c"], "--start", "0", "--steps", "2", *mode,
              "--trials", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trials 7" in capsys.readouterr().err


# one valid run per command and per way of running it; "@name" is files[name]
VALID_ARGVS = {
    "validate": ["validate", "--mask", "@b"],
    "cascade": ["cascade", "--mask", "@b", "--levels", "2"],
    "certify": ["certify", "--mask", "@b"],
    "subdivide": ["subdivide", "--mask", "@c", "--data", "@witness", "--levels", "1"],
    "diagnose-data": ["diagnose", "--mask", "@b", "--data", "@witness", "--levels", "2"],
    "diagnose-space": ["diagnose", "--mask", "@c", "--space", "euclidean:1", "--levels", "2",
                       "--trials", "2"],
    "chain-exact": ["chain", "--mask", "@c", "--start", "0", "--steps", "2"],
    "chain-mc": ["chain", "--mask", "@c", "--start", "0", "--steps", "2", "--mc", "trials=50"],
    "lp": ["lp", "--mask", "@c", "--start", "0", "--steps", "2"],
    "gap": ["gap", "--mask", "@c", "--data", "@witness", "--index", "4", "--steps", "2"],
    "approx": ["approx", "--mask", "@b", "--levels", "2"],
}


def valid_argv(files, name):
    return [files[a[1:]] if a.startswith("@") else a for a in VALID_ARGVS[name]]


@pytest.mark.parametrize("name", VALID_ARGVS)
def test_every_option_a_command_accepts_is_read(files, monkeypatch, name):
    """An option that its command's handler never reads would be echoed in the
    report's config but change nothing.  --out and --format are read by `main`,
    --mc by `config_from_args` and --mask by `run`, which hands the handler the mask."""
    args = build_parser().parse_args(valid_argv(files, name))
    config = config_from_args(args)
    mask = mask_from_json(json.loads(Path(config.mask).read_text()))
    reads = set()

    def recording(self, attr):
        reads.add(attr)
        return object.__getattribute__(self, attr)

    monkeypatch.setattr(RunConfig, "__getattribute__", recording)
    COMMANDS[config.command][0](config, mask)
    monkeypatch.undo()
    accepted = set(vars(args)) - {"command", "out", "format", "mask", "mc"}
    assert accepted <= reads, sorted(accepted - reads)  # validate takes only --mask


@pytest.mark.parametrize("name", ("validate", "cascade", "certify", "subdivide", "lp", "gap"))
def test_commands_that_draw_nothing_take_no_seed(capsys, files, name):
    with pytest.raises(SystemExit) as exc:
        main(valid_argv(files, name) + ["--seed", "9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err


def test_chain_takes_no_exact_option(capsys, files):
    """The exact row is what `chain` runs without --mc, so no option names it."""
    with pytest.raises(SystemExit) as exc:
        main(valid_argv(files, "chain-exact") + ["--exact"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --exact" in capsys.readouterr().err


def test_the_exact_chain_refuses_a_seed(capsys, files):
    """Only `chain --mc` draws, so the exact row refuses a seed it would not read."""
    error = expect_error(capsys, valid_argv(files, "chain-exact") + ["--seed", "3"],
                         "DomainError")
    assert error["message"] == "exact chain takes no --seed: only --mc draws"


# one run per command with only the options argparse requires
REQUIRED_ONLY = {name: [name, "--mask", "@b"] + (["--data", "@witness"] if "data!" in options
                                                 else [])
                 for name, (_, _, options) in COMMANDS.items()}


@pytest.mark.parametrize("argv", [*VALID_ARGVS.values(), *REQUIRED_ONLY.values()],
                         ids=[*VALID_ARGVS, *(f"{name}-bare" for name in REQUIRED_ONLY)])
def test_an_unreadable_mask_is_the_first_error(capsys, files, argv):
    """Each command reads its mask before any other option, so a mask path that
    does not exist is the error reported whether the rest is valid or missing."""
    missing = str(files["root"] / "absent.json")
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    argv[argv.index("--mask") + 1] = missing
    error = expect_error(capsys, argv, "StructuralError")
    assert error["message"].startswith(f"cannot read {missing}: ")


@pytest.mark.parametrize("name", COMMANDS)
def test_run_without_a_mask_names_the_option(name):
    with pytest.raises(DomainError) as info:
        run(RunConfig(name))
    assert str(info.value) == f"command {name!r} requires --mask"


@pytest.mark.parametrize("name", ("diagnose-space", "approx", "chain-mc"))
def test_a_run_without_a_seed_draws_with_seed_0(capsys, files, name):
    """No --seed writes the payload of --seed 0, and a config seed of null."""
    rc, out, _ = run_cli(capsys, valid_argv(files, name))
    rc0, out0, _ = run_cli(capsys, valid_argv(files, name) + ["--seed", "0"])
    assert rc == rc0 == 0
    report, report0 = json.loads(out), json.loads(out0)
    assert (report["config"]["seed"], report0["config"]["seed"]) == (None, 0)
    assert json.dumps(report["payload"]) == json.dumps(report0["payload"])


@pytest.mark.parametrize("fields,message", (
    ({"command": "frobnicate"}, "unknown command 'frobnicate'"),
    ({"command": "validate", "format": "xml"}, "unknown format 'xml'"),
    ({"command": "chain", "mode": "bogus"}, "command 'chain' has no mode 'bogus'"),
    ({"command": "chain", "mode": "MC"}, "command 'chain' has no mode 'MC'"),
    ({"command": "validate", "mode": "mc"}, "command 'validate' has no mode 'mc'"),
    ({"command": "diagnose", "mode": "exact"}, "command 'diagnose' has no mode 'exact'"),
), ids=("command", "format", "mode", "mode-case", "mode-off-chain", "exact-off-chain"))
def test_run_config_refuses_an_unknown_command_or_format(fields, message):
    with pytest.raises(DomainError) as info:
        RunConfig(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize("fields,error,message", (
    ({"command": "chain", "seed": "3"}, StructuralError, "seed must be an integer, got '3'"),
    ({"command": "diagnose", "mask": "m.json", "space": "spd:2", "seed": 1.5}, StructuralError,
     "seed must be an integer, got 1.5"),
    ({"command": "chain", "seed": True}, StructuralError, "seed must be an integer, got True"),
    ({"command": "chain", "seed": -1}, DomainError, "seed must be >= 0, got -1"),
    ({"command": "diagnose", "trials": "8"}, StructuralError, "trials must be an integer, got '8'"),
    ({"command": "diagnose", "trials": 2.0}, StructuralError, "trials must be an integer, got 2.0"),
    ({"command": "diagnose", "trials": 0}, DomainError, "trials must be >= 1, got 0"),
), ids=("seed-str", "seed-float", "seed-bool", "seed-negative", "trials-str", "trials-float",
        "trials-zero"))
def test_run_config_reads_seed_and_trials_as_integers(fields, error, message):
    """A seed or trial count that is not an int is refused where the config is
    built, before `run` hands it to numpy or a bool runs as 1."""
    with pytest.raises(error) as info:
        RunConfig(**fields)
    assert type(info.value) is error and str(info.value) == message


def test_run_config_keeps_numpy_integers_as_ints():
    config = RunConfig(command="diagnose", seed=np.int64(3), trials=np.int32(2))
    assert (config.seed, config.trials) == (3, 2)
    assert type(config.seed) is int and type(config.trials) is int
    assert RunConfig(command="diagnose").trials is None


def test_an_unknown_space_kind_is_a_domain_error(capsys, files):
    rc, out, err = run_cli(capsys, ["diagnose", "--mask", files["c"], "--space", "foo:2"])
    error = json.loads(err)["error"]
    assert rc == 1 and out == "" and error["type"] == "DomainError"
    assert error["message"].startswith("unknown space kind 'foo'; expected one of")


def run_module(argv):
    """`python -m npcsubdiv argv` in a child process, on this package."""
    path = [str(Path(npcsubdiv.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(
        os.pathsep)
    return subprocess.run([sys.executable, "-m", "npcsubdiv", *argv], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))


def test_the_module_entry_point_runs_main(capsys, files):
    """A child `python -m npcsubdiv` exits as `main` does and prints its report
    (all but the duration), or its JSON error on stderr."""
    argv = ["validate", "--mask", files["b"]]
    child = run_module(argv)
    rc, out, err = run_cli(capsys, argv)
    assert child.returncode == rc == 0 and child.stderr == err == ""
    report, want = json.loads(child.stdout), json.loads(out)
    assert report.pop("duration_s") >= 0.0 and want.pop("duration_s") >= 0.0
    assert report == want
    bad = files["root"] / "malformed.json"
    bad.write_text(json.dumps({"dim": 1, "offset": [0]}))
    argv = ["validate", "--mask", str(bad)]
    child = run_module(argv)
    rc, out, err = run_cli(capsys, argv)
    assert child.returncode == rc == 1 and child.stdout == out == ""
    assert json.loads(child.stderr) == json.loads(err)
    assert json.loads(err)["error"]["type"] == "StructuralError"


def test_an_overflowing_ladder_level_writes_the_error_object_alone(capsys, files):
    """Level 2 of [1e300, 1e300] passes the float range: a child `cascade`
    writes the NumericError object to stderr and nothing else, no numpy
    overflow warning ahead of it."""
    path = files["root"] / "overflowing.json"
    path.write_text(json.dumps({"dim": 1, "offset": [0], "coeffs": [1e300, 1e300]}))
    argv = ["cascade", "--mask", str(path), "--levels", "2"]
    child = run_module(argv)
    rc, out, err = run_cli(capsys, argv)
    assert child.returncode == rc == 1 and child.stdout == out == ""
    assert child.stderr == err
    assert json.loads(err) == {"error": {"type": "NumericError",
                                         "message": "the next iterated mask level "
                                                    "leaves the float range"}}
