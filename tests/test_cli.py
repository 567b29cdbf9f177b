import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from geomforce.cli import build_parser, main, parse_length, parse_mass
from geomforce.oplab import build_grid
from geomforce.oplab.identities import circle_anchor_report
from geomforce.reports import canonical_json


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_success(capsys):
    code, out, err = run_cli(["parse", "x^2 + y^2 - 1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["identifiers"] == ["x", "y"]
    assert err == ""


def test_parse_error_reports_json_diag(capsys):
    code, out, err = run_cli(["parse", "x^^2"], capsys)
    assert code == 1
    diag = json.loads(err)
    assert diag["error"] == "NonIntegerExponentError"
    assert "offset 2" in diag["message"]


def test_long_sums_parse_and_integrate(capsys):
    # a flat sum is a tree as deep as it has terms; none is an internal error
    text = " + ".join(["x"] * 5000)
    code, out, _ = run_cli(["parse", text], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == 9999 and payload["unparsed"] == text
    plane = "z" + " + 0*x" * 1199
    code, out, err = run_cli(["classical", "--expr", plane, "--x0", "0,0,0", "--p0", "1,0,0",
                              "--steps", "20"], capsys)
    assert code == 0, err
    assert json.loads(out)["constraint_max"] == 0


def _names_no_function(message):
    """No word of the message is a function or method of the expression module."""
    from geomforce import expr as ex

    names = {name for name, value in [*vars(ex).items(), *vars(ex._Parser).items()]
             if inspect.isfunction(value)}
    return not names & set(re.findall(r"\w+", message))


def test_deep_nesting_and_infinite_literals_are_bad_input(capsys):
    from geomforce.expr import MAX_NESTING as cap

    code, out, _ = run_cli(["parse", "(" * cap + "x" + ")" * cap], capsys)
    assert code == 0 and json.loads(out)["nodes"] == 1
    for text, position in [("(" * (cap + 1) + "x" + ")" * (cap + 1), cap),
                           ("x + " + "-" * (cap + 1) + "x", 4 + cap), ("1e309*x", 0)]:
        code, out, err = run_cli(["parse", text], capsys)
        assert code == 1 and out == ""
        diagnostic = json.loads(err)
        assert diagnostic["error"] == "ParseError"
        assert f"at offset {position}" in diagnostic["message"]
        assert _names_no_function(diagnostic["message"]), diagnostic["message"]


def test_expression_text_beginning_with_a_minus(capsys):
    # argparse reads such text as an option: it is passed after "--" to
    # parse, and as --expr=TEXT to the other commands
    code, out, _ = run_cli(["parse", "--", "-a"], capsys)
    assert code == 0 and json.loads(out)["unparsed"] == "-a"
    code, out, _ = run_cli(["force", "--expr=-z", "--at", "0,0,0", "--mass", "1e-30"], capsys)
    assert code == 0 and json.loads(out)["surface"] == "-z"
    code, out, _ = run_cli(["classical", "--expr=-z", "--x0", "0,0,0", "--p0", "1,0,0",
                            "--steps", "10"], capsys)
    assert code == 0 and json.loads(out)["surface"] == "-z"
    # the bare forms are read as flags: bad input
    for argv in (["parse", "-a"], ["force", "--expr", "-z", "--at", "0,0,0", "--mass", "1e-30"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "") and json.loads(err)["error"] == "CliInputError"


def test_unknown_flag_is_input_error(capsys):
    code, out, err = run_cli(["parse", "x", "--bogus"], capsys)
    assert code == 1
    assert json.loads(err)["exit_code"] == 1


def test_every_subcommand_has_help():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0])))
    for name, sp in sub.choices.items():
        text = sp.format_help()
        assert "--help" in text or "-h" in text
        assert name in sp.prog


def test_unit_literals():
    assert parse_length("10nm") == pytest.approx(1e-8)
    assert parse_length("1e-8m") == pytest.approx(1e-8)
    assert parse_length("2.5") == pytest.approx(2.5)
    assert parse_mass("1e-30kg") == pytest.approx(1e-30)
    assert parse_mass("1e-30") == pytest.approx(1e-30)


def test_force_sphere_is_zero(capsys):
    code, out, _ = run_cli(["force", "--surface", "sphere", "--a", "1e-8m",
                            "--mass", "1e-30"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["magnitude_pN"] == pytest.approx(0.0, abs=1e-12)
    assert payload["length_unit_m"] == pytest.approx(1e-8)


def test_force_generic_reproduces_scale(capsys):
    code, out, _ = run_cli(["force", "--surface", "generic",
                            "--curvature-scale", "1e-8m",
                            "--mass", "1e-30"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["force_scale_pN"] == pytest.approx(1.1e-2, rel=0.02)


def test_force_circle_quantitative(capsys):
    code, out, _ = run_cli(["force", "--surface", "circle", "--a", "10nm",
                            "--mass", "1e-30kg"], capsys)
    payload = json.loads(out)
    # lapM = -1 in model units; |chi| = hbar^2/(4 mu a^3)
    expected = 1.054571817e-34 ** 2 / (4 * 1e-30 * 1e-24) * 1e12
    assert payload["magnitude_pN"] == pytest.approx(expected, rel=1e-9)


def test_force_expr_scales_lengths_like_catalog(capsys):
    torus = "sqrt((sqrt(x^2 + y^2) - R)^2 + z^2) - r"
    code, out, _ = run_cli(["force", "--surface", "torus", "--R", "4", "--r", "2",
                            "--at", "3,0,0", "--mass", "1e-30"], capsys)
    assert code == 0
    catalog = json.loads(out)
    code, out, _ = run_cli(["force", "--expr", torus, "--param", "R=4",
                            "--param", "r=2", "--signed-distance",
                            "--at", "3,0,0", "--mass", "1e-30"], capsys)
    assert code == 0
    expression = json.loads(out)
    assert expression["length_unit_m"] == catalog["length_unit_m"] == 2.0
    assert expression["magnitude_pN"] == pytest.approx(catalog["magnitude_pN"],
                                                       rel=1e-9)


def test_force_expr_keeps_dimensionless_parameters(capsys):
    # ring s*R = 3 and tube 2: the catalog torus R=3, r=2, whatever the unit
    code, out, _ = run_cli(["force", "--surface", "torus", "--R", "3", "--r", "2",
                            "--at", "2.5,0,0", "--mass", "1e-30"], capsys)
    assert code == 0
    catalog = json.loads(out)
    torus = "sqrt((sqrt(x^2 + y^2) - s*R)^2 + z^2) - r"
    outer = repr(5.0 / 0.75)  # R + r in units of the smallest parameter, s
    code, out, _ = run_cli(["force", "--expr", torus, "--param", "s=0.75",
                            "--param", "R=4", "--param", "r=2", "--signed-distance",
                            "--at", f"{outer},0,0", "--mass", "1e-30"], capsys)
    assert code == 0
    expression = json.loads(out)
    assert expression["length_unit_m"] == 0.75
    assert expression["magnitude_pN"] == pytest.approx(catalog["magnitude_pN"],
                                                       rel=1e-9)


def test_force_rejects_a_non_positive_length_unit(capsys):
    code, _, err = run_cli(["force", "--expr", "x^2 + y^2 + z^2 - a^2 + c",
                            "--param", "a=1", "--param", "c=0", "--at", "1,0,0",
                            "--mass", "1e-30"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "CliInputError"


def test_fields_json_deterministic(tmp_path, capsys):
    out1 = tmp_path / "f1.json"
    out2 = tmp_path / "f2.json"
    base = ["fields", "--surface", "torus", "--R", "2", "--r", "1",
            "--sampling", "random", "--count", "5", "--seed", "7"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert len(payload["samples"]) == 5
    assert list(payload["samples"][0].keys()) == [
        "x", "n", "M", "S2", "kappa", "lapM", "lapLB_M", "vg_geom", "chi_geom"]


def test_fields_csv_output(capsys):
    code, out, _ = run_cli(["fields", "--surface", "circle", "--a", "1",
                            "--resolution", "4", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("x0,x1,n0,n1,M,S2")


def test_fields_resolution_pair(capsys):
    code, out, _ = run_cli(["fields", "--surface", "torus", "--R", "2",
                            "--r", "1", "--resolution", "8x1"], capsys)
    assert code == 0
    assert len(json.loads(out)["samples"]) == 8


def test_extrema_subcommand(capsys):
    code, out, _ = run_cli(["extrema", "--surface", "spheroid", "--a", "1",
                            "--b", "2", "--field", "lapM", "--policy", "gn",
                            "--starts", "8", "--seed", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["critical_points"]
    assert payload["by_magnitude"]
    top = payload["by_magnitude"][0]
    assert abs(abs(top["location"][2]) - 2.0) < 1e-6


def test_extrema_records_do_not_depend_on_seed_or_starts(capsys):
    # --starts and --seed are accepted and echoed; the meridian search reads
    # neither, so every record list is the same
    reports = []
    for starts, seed in (("24", "0"), ("24", "5"), ("1", "0"), ("8", "41")):
        code, out, _ = run_cli(["extrema", "--surface", "spheroid", "--a", "2",
                                "--b", "1", "--field", "vg_geom", "--policy", "sd",
                                "--starts", starts, "--seed", seed], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == int(seed)
        reports.append({key: payload[key] for key in ("critical_points", "by_magnitude")})
    assert all(report == reports[0] for report in reports)
    poles = [p for p in reports[0]["critical_points"] if p["location"][:2] == [0.0, 0.0]]
    assert sorted(p["location"][2] for p in poles) == [-1.0, 1.0]


def test_a_failed_search_names_each_root_it_refined(capsys):
    code, out, err = run_cli(["extrema", "--surface", "torus", "--R", "2", "--r", "1",
                              "--field", "lapM", "--policy", "sd", "--tol", "1e-30"], capsys)
    assert (code, out) == (2, "")
    diag = json.loads(err)
    assert diag["error"] == "NoCriticalPointFoundError" and diag["exit_code"] == 2
    roots = diag["diagnostics"]
    assert roots and all(set(root) == {"location", "grad_norm", "value"} for root in roots)
    for root in roots:  # each on the torus meridian at azimuth 0, with |g| above the tol
        rho, y, z = root["location"]
        assert y == 0.0 and (rho - 2.0) ** 2 + z ** 2 == pytest.approx(1.0, abs=1e-12)
        assert 1e-30 <= root["grad_norm"] < 1e-8


def test_classical_subcommand(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    code, out, _ = run_cli(["classical", "--surface", "circle", "--a", "1",
                            "--x0", "1,0", "--p0", "0,1", "--dt", "1e-3",
                            "--steps", "500", "--trajectory", str(traj)],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["energy_drift"] < 1e-12
    assert payload["force_law"]["max"] < 1e-11
    header = traj.read_text().splitlines()[0]
    assert header == "t,x0,x1,p0,p1,energy,f_residual,tangency_residual"


def test_classical_bad_initial_state_is_input_error(capsys):
    code, _, err = run_cli(["classical", "--surface", "circle", "--a", "1",
                            "--x0", "2,0", "--p0", "0,1"], capsys)
    assert code == 1


def test_verify_schema_and_exit_code(tmp_path):
    out = tmp_path / "verdicts.json"
    code = main(["verify", "--surface", "circle", "--a", "1",
                 "--grids", "16,32,64", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    ids = {v["identity"] for v in payload["identities"]}
    assert ids == {"EQ3_MAIN", "EQ8_PP", "EQ10_SCALAR", "EQ11_F_SIMPL",
                   "EQ13_G_SIMPL", "H_FORMS", "HERMITICITY"}
    assert payload["hard_failures"] == []
    assert payload["anchors"]["eigenvalue_defect"] < 1e-10


def test_verify_circle_anchors_read_the_seeded_states(tmp_path):
    out = tmp_path / "seeded.json"
    assert main(["verify", "--surface", "circle", "--a", "1", "--grids", "16,32,64",
                 "--identities", "H_FORMS", "--seed", "41", "--out", str(out)]) == 0
    anchors = json.loads(out.read_text())["anchors"]
    grid = build_grid("circle", {"a": 1.0}, 32)  # the anchors' grid, the second
    assert anchors == circle_anchor_report(grid, seed=41)
    assert anchors != circle_anchor_report(grid, seed=0)


# hbar = 2^k and mu = 2^j scale every action by a power of two, so hbar^2 / mu
# is exactly 2^(2k - j); 1e-100, 1e100 and 1e150 are accepted because only
# hbar^2 / mu must be a normal float; then SI hbar with the electron mass
UNIT_CHOICES = ([(2.0 ** k, 2.0 ** j) for k in (-40, -4, 0, 4, 40) for j in (-8, 0, 8)]
                + [(1e-100, 1.0), (1e100, 1.0), (1e150, 1.0), (100.0, 1.0),
                   (1.054571817e-34, 9.1093837e-31)])
DIMENSIONAL_ANCHORS = ("eigenvalue_defect", "eigenvalue_gap_defect", "geometric_potential")


def _unitless_report(tmp_path, surface, *flags):
    """A verify report without the echoed hbar and mu and the anchors'
    energies, as canonical JSON, and those energies."""
    path = tmp_path / f"{surface}.json"
    assert main(["verify", "--surface", surface, *VERIFY_SURFACES[surface],
                 "--grids", "16,32,64", *flags, "--out", str(path)]) == 0
    report = json.loads(path.read_text())
    del report["hbar"], report["mu"]
    anchors = report.get("anchors", {})
    energies = [anchors.pop(key) for key in DIMENSIONAL_ANCHORS if key in anchors]
    return canonical_json(report), energies


@pytest.fixture(scope="module")
def reduced_reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reduced")
    return {surface: _unitless_report(tmp, surface) for surface in VERIFY_SURFACES}


@pytest.mark.parametrize("surface", ["circle", "torus"])
@pytest.mark.parametrize("hbar, mass", UNIT_CHOICES)
def test_verify_reports_do_not_depend_on_the_units(surface, hbar, mass, reduced_reports,
                                                   tmp_path):
    report, energies = _unitless_report(tmp_path, surface,
                                        "--hbar", repr(hbar), "--mass", repr(mass))
    want, want_energies = reduced_reports[surface]
    assert report == want
    assert len(energies) == (3 if surface == "circle" else 0)
    assert energies == [value * (hbar * hbar / mass) for value in want_energies]


def test_verify_rejects_unsupported_surface(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("surface = sphere\n")
    for argv in (["verify", "--surface", "sphere"], ["--config", str(cfg), "verify"]):
        code, _, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert "--surface" in json.loads(err)["message"], argv


def test_report_merges_outputs(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["parse", "x^2 - 1", "--out", str(a)])
    main(["parse", "y^3 + 1", "--out", str(b)])
    code, out, _ = run_cli(["report", "--inputs", f"{a},{b}"], capsys)
    assert code == 0
    merged = json.loads(out)
    assert len(merged["reports"]) == 2
    assert merged["reports"][0]["path"] == str(a)


def test_config_file_seeds_flags_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("surface = circle\na = 1\nresolution = 4\n# comment\n")
    code, out, _ = run_cli(["--config", str(cfg), "fields"], capsys)
    assert code == 0
    assert len(json.loads(out)["samples"]) == 4
    code, out, _ = run_cli(["--config", str(cfg), "fields",
                            "--resolution", "8"], capsys)
    assert len(json.loads(out)["samples"]) == 8


def test_config_flag_with_equals_seeds_the_same_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("surface = circle\na = 1\nresolution = 4\n")
    reports = []
    for spelling in (["--config", str(cfg)], [f"--config={cfg}"]):
        out = tmp_path / f"fields-{len(reports)}.json"
        assert main(spelling + ["fields", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    # an abbreviation is refused, not skipped
    assert main(["--conf", str(cfg), "fields"]) == 1


@pytest.mark.parametrize("args, flag", [
    (["extrema", "--surface", "torus", "--R", "2", "--r", "1", "--tol", "x"], "--tol"),
    (["force", "--surface", "sphere", "--a", "1", "--mass", "1e-30x"], "--mass"),
    (["force", "--surface", "sphere", "--a", "3xm", "--mass", "1e-30"], "--a"),
    (["force", "--surface", "generic", "--curvature-scale", "1e-8x", "--mass", "1e-30"],
     "--curvature-scale"),
], ids=["tolerance", "mass", "length", "curvature-scale"])
def test_a_non_number_literal_is_input_error_naming_its_flag(args, flag, capsys):
    code, out, err = run_cli(args, capsys)
    diag = json.loads(err)
    assert (code, out, diag["exit_code"], diag["error"]) == (1, "", 1, "CliInputError")
    assert diag["message"].startswith(f"argument {flag}: must be ")
    assert "parse_" not in diag["message"]


@pytest.mark.parametrize("args", [
    ["fields", "--surface", "torus", "--R", "2", "--r", "1", "--sampling", "random",
     "--count", "10"],
    ["verify", "--surface", "circle", "--a", "1", "--grids", "16,32,64"],
    ["extrema", "--surface", "spheroid", "--a", "2", "--b", "1"],
], ids=["fields", "verify", "extrema"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_a_negative_or_non_integer_seed_is_input_error(args, seed, tmp_path, capsys):
    # numpy's generators take no negative seed; extrema, which reads none, refuses it too
    out = tmp_path / "report.json"
    code, _, err = run_cli(args + ["--seed", seed, "--out", str(out)], capsys)
    diag = json.loads(err)
    assert (code, diag["exit_code"], diag["error"]) == (1, 1, "CliInputError")
    assert diag["message"] == f"argument --seed: must be an integer >= 0, got '{seed}'"
    assert not out.exists()


def _unreadable(kind, tmp_path):
    """A path that cannot be read as text: a directory, a file that is not
    UTF-8, or nothing."""
    path = tmp_path / f"{kind}.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b'{"a": "\xff"}\n')
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "not-utf8", "missing"])
def test_unreadable_report_input_is_input_error(kind, tmp_path, capsys):
    a = tmp_path / "a.json"
    main(["parse", "x^2 - 1", "--out", str(a)])
    path = _unreadable(kind, tmp_path)
    code, out, err = run_cli(["report", "--inputs", f"{a},{path}"], capsys)
    diag = json.loads(err)
    assert (code, out, diag["exit_code"]) == (1, "", 1)
    assert "--inputs" in diag["message"] and repr(path) in diag["message"]


@pytest.mark.parametrize("kind", ["directory", "not-utf8", "missing"])
def test_unreadable_config_is_input_error(kind, tmp_path, capsys):
    path = _unreadable(kind, tmp_path)
    code, out, err = run_cli(["--config", path, "fields", "--surface", "sphere",
                              "--a", "1", "--resolution", "4"], capsys)
    diag = json.loads(err)
    assert (code, out, diag["exit_code"]) == (1, "", 1)
    assert "--config" in diag["message"] and repr(path) in diag["message"]


CLASSICAL_SPHERE = ["classical", "--surface", "sphere", "--a", "1", "--x0", "1,0,0",
                    "--p0", "0,1,0", "--steps", "10"]


@pytest.mark.parametrize("args,flag,kind", [
    (["parse", "x^2 - 1"], "--out", "directory"),
    (["fields", "--surface", "sphere", "--a", "1", "--resolution", "4"], "--out", "directory"),
    (["verify", "--surface", "circle", "--a", "1", "--grids", "16,32,64"], "--out", "directory"),
    (CLASSICAL_SPHERE, "--out", "directory"),
    (CLASSICAL_SPHERE, "--trajectory", "directory"),
    (CLASSICAL_SPHERE, "--trajectory", "missing directory"),
    (["parse", "x^2 - 1"], "--out", "under a file"),
    (["parse", "x^2 - 1"], "--out", "missing directory/"),
], ids=["parse", "fields", "verify", "classical", "trajectory", "trajectory-missing-directory",
        "parse-under-a-file", "parse-missing-directory-slash"])
def test_an_output_path_that_is_a_directory_is_input_error(args, flag, kind, tmp_path, capsys):
    # refused before any work, not after it when the temp file cannot be made
    # or cannot replace the path
    out_path = tmp_path / "out"
    if kind == "under a file":
        out_path.write_text("")
        path = out_path / "x.json"
    else:
        out_path.mkdir()
        path = {"directory": str(out_path),
                "missing directory": str(out_path / "missing" / "t.csv"),
                "missing directory/": str(out_path / "missing") + os.sep}[kind]
    code, out, err = run_cli(args + [flag, str(path)], capsys)
    diag = json.loads(err)
    assert (code, out, diag["exit_code"], diag["error"]) == (1, "", 1, "CliInputError")
    assert flag in diag["message"] and repr(str(path)) in diag["message"]
    assert os.listdir(tmp_path) == ["out"]
    assert out_path.read_text() == "" if kind == "under a file" else os.listdir(out_path) == []


def test_missing_surface_is_input_error(capsys):
    code, _, err = run_cli(["fields", "--resolution", "4"], capsys)
    assert code == 1
    assert "surface" in json.loads(err)["message"]


def test_expression_surface_through_cli(capsys):
    code, out, _ = run_cli(["fields", "--expr",
                            "sqrt(x^2 + y^2 + z^2) - c", "--param", "c=1",
                            "--dim", "3", "--signed-distance",
                            "--sampling", "random", "--count", "0"], capsys)
    assert code == 0


def test_internal_value_error_is_not_reported_as_input_error(monkeypatch, capsys):
    from geomforce import geometry as geo

    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(geo, "sample_points", broken)
    code, _, err = run_cli(["fields", "--surface", "circle", "--a", "1",
                            "--resolution", "4"], capsys)
    assert code == 70  # EX_SOFTWARE, never the input-error code 1
    assert "internal bug" in err and "Traceback" in err


@pytest.mark.parametrize("args,error", [
    (["fields", "--surface", "circle", "--a", "1", "--resolution", "4",
      "--policy", "bogus"], "CliInputError"),
    (["fields", "--expr", "x^2 + y^2 - 1", "--dim", "5", "--resolution", "4"],
     "CliInputError"),
    (["fields", "--expr", "x^2 + y^2 + z^2 - 1", "--resolution", "4"],
     "UnknownSurfaceError"),
    (["force", "--surface", "sphere", "--a", "1", "--mass", "1e-30",
      "--at", "1,zero,0"], "CliInputError"),
    (["force", "--surface", "sphere", "--a", "1", "--mass", "1e-30",
      "--at", "1,0"], "CliInputError"),
    (["force", "--surface", "sphere", "--a", "1", "--mass", "1e-30",
      "--at", "2,0,0"], "OffSurfaceError"),
    (["force", "--expr", "x^2 + y^2 - z^2", "--mass", "1e-30", "--at", "0,0,0"],
     "DomainError"),
    (["classical", "--surface", "circle", "--a", "1", "--x0", "1,0",
      "--p0", "0,1", "--dt", "0"], "IntegratorInputError"),
    (["classical", "--surface", "circle", "--a", "1", "--x0", "1,0",
      "--p0", "0,1", "--steps", "0"], "IntegratorInputError"),
    (["verify", "--surface", "circle", "--grids", "16,24,32"], "CliInputError"),
    (["verify", "--surface", "circle", "--grids", "16,32,64", "--hbar", "0"],
     "CliInputError"),
    (["force", "--expr", "x - 1 + 0*y/z", "--at", "1,0,0", "--mass", "1e-30"],
     "OffSurfaceError"),
    (["force", "--expr", "1/(1/(x-1))", "--at", "1,0,0", "--mass", "1e-30"],
     "DivisionByZeroLeadingTerm"),
    (["fields", "--surface", "spheroid", "--a", "1e-200", "--b", "1",
      "--resolution", "4x4"], "InvalidParametersError"),
    (["verify", "--surface", "circle", "--tol", "-1"], "CliInputError"),
    (["verify", "--surface", "circle", "--tol", "0"], "CliInputError"),
    (["verify", "--surface", "circle", "--tol", "nan"], "CliInputError"),
    (["extrema", "--surface", "sphere", "--a", "1", "--tol", "-1"], "CliInputError"),
    (["extrema", "--surface", "sphere", "--a", "1", "--tol", "nan"], "CliInputError"),
    (["classical", "--surface", "sphere", "--a", "1", "--x0", "1,0,0",
      "--p0", "0,1,0", "--mass", "-1"], "IntegratorInputError"),
    (["classical", "--surface", "sphere", "--a", "1", "--x0", "1,0,0",
      "--p0", "0,1,0", "--mass", "0"], "IntegratorInputError"),
    # f is NaN at the start (0*y/z at z = 0), which is not on the surface
    (["classical", "--expr", "x - 1 + 0*y/z", "--x0", "1,0,0", "--p0", "0,1,0",
      "--steps", "5"], "IntegratorInputError"),
    # exponent towers of 2^63 and beyond are rejected before they are built
    (["force", "--expr", "x^2^2^2^2^2 + y^2 + z^2 - 1", "--at", "0,0,1",
      "--mass", "1e-30"], "ParseError"),
    (["force", "--expr", "x^2^70 + y^2 + z^2 - 1", "--at", "0,0,1",
      "--mass", "1e-30"], "ParseError"),
    (["force", "--expr", "x^0^-1 + z - 1", "--at", "0,0,1", "--mass", "1e-30"],
     "NonIntegerExponentError"),
    (["fields", "--expr", "x^2 + y^2 + z^2 - 1", "--sampling", "random", "--count", "5"],
     "UnknownSurfaceError"),
    (["extrema", "--expr", "x^2 + y^2 + z^2 - 1"], "UnknownSurfaceError"),
    (["classical", "--surface", "circle", "--a", "1", "--x0", "1,0", "--p0", "0,0"],
     "ZeroVelocityError"),
    (["classical", "--surface", "circle", "--a", "1", "--x0", "1,0", "--p0", "0,1",
      "--steps", "1"], "TooFewStepsError"),
    (["classical", "--surface", "circle", "--a", "1", "--x0", "1,0", "--p0", "0,1",
      "--mass", "inf"], "IntegratorInputError"),
    (["classical", "--surface", "circle", "--a", "1", "--x0", "1,0", "--p0", "0,1",
      "--dt", "inf"], "IntegratorInputError"),
    # each flag is in range, but mass * length^3 underflows to 0
    (["force", "--surface", "generic", "--curvature-scale", "1e-100", "--mass", "1e-300"],
     "CliInputError"),
    # the meridian search reads no --starts, but the flag is still checked
    (["extrema", "--surface", "sphere", "--a", "1", "--starts", "0"], "CliInputError"),
    (["verify", "--surface", "circle", "--identities", "EQ3"], "UnknownIdentityError"),
    (["verify", "--surface", "circle", "--grids", "16,32,64",
      "--identities", "EQ3_MAIN,HERMITICITY,EQ3_MAIN"], "RepeatedIdentityError"),
])
def test_bad_input_exits_1_through_a_typed_error(args, error, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert json.loads(err)["error"] == error
    assert "Traceback" not in err


@pytest.mark.parametrize("args,flag", [
    (["verify", "--surface", "circle", "--hbar", "1e-200"], "--hbar"),  # hbar^2 is 0
    (["verify", "--surface", "circle", "--hbar", "1e155"], "--hbar"),   # hbar^2 is inf
    (["verify", "--surface", "circle", "--hbar", "inf"], "--hbar"),
    (["verify", "--surface", "circle", "--mass", "inf"], "--mass"),
    (["force", "--surface", "generic", "--curvature-scale", "0", "--mass", "1e-30"],
     "--curvature-scale"),
    (["force", "--surface", "generic", "--curvature-scale", "nan", "--mass", "1e-30"],
     "--curvature-scale"),
    (["force", "--surface", "generic", "--curvature-scale", "10nm", "--mass", "inf"],
     "--mass"),
    (["force", "--surface", "sphere", "--a", "1e-8m", "--mass", "inf"], "--mass"),
    # the grid family must grow: a smaller grid second, or a repeated size
    (["verify", "--surface", "circle", "--a", "1", "--grids", "64,16,32"], "--grids"),
    (["verify", "--surface", "circle", "--a", "1", "--grids", "32,32,64"], "--grids"),
])
def test_out_of_range_physical_flag_is_named(args, flag, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "CliInputError"
    assert flag in diagnostic["message"]


def test_physical_scale_rejects_a_non_finite_mass():
    from geomforce import geometry as geo

    for mass in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="mass_kg"):
            geo.PhysicalScale(mass_kg=mass)


def test_a_surface_without_a_chart_gets_one_message(capsys):
    # fields on a grid or random sample and extrema all need a catalog chart;
    # none of them names a sampling mode the user did not ask for
    messages = set()
    for args in (["fields", "--resolution", "4"],
                 ["fields", "--sampling", "random", "--count", "5"],
                 ["extrema"]):
        code, _, err = run_cli(args + ["--expr", "x^2+y^2+z^2-1"], capsys)
        assert code == 1
        messages.add(json.loads(err)["message"])
    (message,) = messages
    assert "'x^2+y^2+z^2-1'" in message
    assert "fields and extrema take catalog surfaces only" in message
    assert "sampling" not in message


def test_expr_parameter_that_leaves_the_float_range_is_named(capsys):
    # a^2 underflows to 0 at a = 1e-200; the error names a, not the point
    code, _, err = run_cli(["force", "--expr", "(x^2+y^2)/a^2 + z^2/b^2 - 1",
                            "--param", "a=1e-200", "--param", "b=1",
                            "--at", "0,0,1", "--mass", "1e-30"], capsys)
    diagnostic = json.loads(err)
    assert code == 1
    assert diagnostic["error"] == "InvalidParametersError"
    assert "'a^2' with a=1e-200" in diagnostic["message"]


def test_numpy_warnings_stay_off_stderr():
    # a NaN residual from 0*y/z at z = 0 must reach stderr only as the JSON
    # diagnostic, not preceded by a RuntimeWarning
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "geomforce.cli", "force", "--expr", "x - 1 + 0*y/z",
         "--at", "1,0,0", "--mass", "1e-30"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "OffSurfaceError"


def test_a_reader_that_stops_early_gets_exit_141_and_no_diagnostic():
    # `geomforce fields ... | head -c 10`: about 1 MB of JSON, more than a pipe
    # holds, so the write meets the closed pipe
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "geomforce.cli", "fields", "--surface", "circle",
         "--a", "1", "--resolution", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert head == b'{\n  "surfa'
    assert err == b""


# fields blocks and CSV row blocks made on every CPU ------------------------------

TORUS_FIELDS = ["fields", "--surface", "torus", "--R", "2", "--r", "1",
                "--sampling", "random", "--seed", "7"]


def _children_left():
    """Whether this process has a child, running or exited, not yet waited for."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def _children_cpu_s():
    import resource

    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _with_a_nan_in_the_last_block(monkeypatch):
    # a non-finite row, so that a worker writes it through canonical_json
    from geomforce import geometry as geo

    original = geo._sample_columns

    def sample_columns(spec, points, policy):
        columns = original(spec, points, policy)
        if points.shape[1] < geo.BLOCK:
            columns["lapM"][-2] = float("nan")
        return columns

    monkeypatch.setattr(geo, "_sample_columns", sample_columns)


def _report_bytes(tmp_path, name):
    out = {kind: tmp_path / f"{name}.{kind}" for kind in ("json", "csv", "trajectory.csv")}
    for fmt in ("json", "csv"):
        argv = TORUS_FIELDS + ["--count", "2085", "--format", fmt, "--out", str(out[fmt])]
        assert main(argv) == 0
    # 10,001 rows: ten blocks of states
    assert main(["classical", "--surface", "circle", "--a", "1", "--x0", "1,0", "--p0", "0,1",
                 "--steps", "10000", "--trajectory", str(out["trajectory.csv"]),
                 "--out", str(tmp_path / f"{name}.classical.json")]) == 0
    return {kind: path.read_bytes() for kind, path in out.items()}


def test_report_bytes_do_not_depend_on_the_cpu_count(monkeypatch, tmp_path):
    import numpy as np

    from geomforce import dynamics as dyn
    from geomforce.surfaces import builtin_surface

    # 2085 samples are two full BLOCKs and one of 37 columns
    _with_a_nan_in_the_last_block(monkeypatch)
    before = _children_cpu_s()
    default = _report_bytes(tmp_path, "default")
    if len(os.sched_getaffinity(0)) >= 2:  # the blocks were made in worker processes
        assert _children_cpu_s() > before
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    before = _children_cpu_s()
    serial = _report_bytes(tmp_path, "serial")
    assert _children_cpu_s() == before
    assert default == serial
    assert b'"lapM": "nan"' in default["json"] and b",nan," in default["csv"]
    assert default["csv"].count(b"\n") == 2086
    assert default["trajectory.csv"].count(b"\n") == 10002
    # the file holds the CSV chunks of the same trajectory, made in process
    spec = builtin_surface("circle", {"a": 1.0})
    init = dyn.TrajectoryState(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0)
    traj = dyn.integrate(spec, init, dyn.IntegratorConfig(dt=1e-3, steps=10000))
    assert "".join(traj.csv_chunks()).encode() == default["trajectory.csv"]


@pytest.mark.parametrize("extra,flag", [
    ([], "--resolution"),  # grid is the default mode
    (["--sampling", "grid"], "--resolution"),
    (["--sampling", "random"], "--count"),
    (["--sampling", "random", "--resolution", "8"], "--count"),
    (["--sampling", "random", "--count", "5", "--resolution", "8"], "--resolution"),
    (["--sampling", "grid", "--resolution", "8", "--count", "5"], "--count"),
    (["--count", "0"], "--resolution"),
])
def test_fields_refuses_a_missing_or_foreign_size_flag(extra, flag, capsys):
    code, out, err = run_cli(["fields", "--surface", "torus", "--R", "2", "--r", "1", *extra],
                             capsys)
    assert (code, out) == (1, "")
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "CliInputError" and flag in diagnostic["message"]


def test_fields_without_samples_print_an_empty_csv(capsys):
    code, out, _ = run_cli(TORUS_FIELDS + ["--count", "0", "--format", "csv"], capsys)
    assert (code, out) == (0, "")


# the trajectory CSV is formatted in blocks of states while the RATTLE loop runs

TORUS_CLASSICAL = ["classical", "--surface", "torus", "--R", "2", "--r", "1", "--x0", "3,0,0",
                   "--p0", "0,0.6,0.8", "--steps", "9000"]  # 9,001 rows: nine blocks of states


def test_the_2048_row_torus_trajectory_keeps_its_bytes(tmp_path, capsys):
    # the run CI compares on one CPU and all of them, pinned: the torus tape
    # runs only + - * / and sqrt, and the step math.hypot and math.dist, so
    # these bytes do not depend on the platform's libm
    path = tmp_path / "trajectory.csv"
    code, _, _ = run_cli(TORUS_CLASSICAL[:-1] + ["2047", "--trajectory", str(path)], capsys)
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "e551275c8d82053f3e4a921a8d566d29797ba87866edafaa6a413419bacc9767")


@pytest.mark.parametrize("cpus", ["default", "one"])
def test_a_failed_step_after_two_row_blocks_writes_no_csv(cpus, monkeypatch, tmp_path, capsys):
    from geomforce import dynamics as dyn
    from geomforce.geometry import BLOCK

    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    original, calls = dyn._rattle_step, []

    def rattle_step(*args):
        calls.append(None)
        if len(calls) == 2 * BLOCK + 5:
            raise dyn.ProjectionFailureError("constraint solve stalled")
        return original(*args)

    monkeypatch.setattr(dyn, "_rattle_step", rattle_step)
    before = _children_cpu_s()
    path = tmp_path / "trajectory.csv"
    code, out, err = run_cli(TORUS_CLASSICAL + ["--trajectory", str(path)], capsys)
    assert (code, out) == (2, "")
    assert not _children_left()
    assert not path.exists() and os.listdir(tmp_path) == []
    diag = json.loads(err)
    assert diag["error"] == "ProjectionFailureError"
    assert diag["message"].startswith(f"step {2 * BLOCK + 5} from t = ")
    # the CSV is formatted after the loop, so a failed step forks nothing
    assert _children_cpu_s() == before


@pytest.mark.parametrize("cpus", ["default", "one"])
def test_a_failed_residual_leaves_no_trajectory_and_no_temp_file(cpus, monkeypatch, tmp_path,
                                                                 capsys):
    # the CSV of both states is written to the temp file before the residuals
    # find too few states for central differences
    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    path = tmp_path / "trajectory.csv"
    argv = TORUS_CLASSICAL[:-1] + ["1", "--trajectory", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "TooFewStepsError"
    assert not path.exists() and os.listdir(tmp_path) == []


@pytest.mark.parametrize("failure,code", [(None, 0), ("NoConvergenceError", 2),
                                          ("ValueError", 70)])
def test_no_child_outlives_a_command(failure, code, monkeypatch, capsys):
    from geomforce import geometry as geo

    original = geo._sample_columns

    def sample_columns(spec, points, policy):
        if failure == "NoConvergenceError" and points.shape[1] < geo.BLOCK:
            raise geo.NoConvergenceError("projection did not converge", 100, 0.5,
                                         [3.0, 0.0, 0.0], 1, 952)
        if failure == "ValueError" and points.shape[1] < geo.BLOCK:
            raise ValueError("internal bug in a worker")
        return original(spec, points, policy)

    monkeypatch.setattr(geo, "_sample_columns", sample_columns)
    got, out, err = run_cli(TORUS_FIELDS + ["--count", "3000"], capsys)
    assert got == code
    assert not _children_left()
    if failure:
        assert out == "" and f'"error": "{failure}"' in err
        assert ("Traceback" in err) == (code == 70)
    else:
        assert len(json.loads(out)["samples"]) == 3000


VERIFY_SURFACES = {"torus": ["--R", "2", "--r", "1"], "circle": ["--a", "1"]}


def _verify_bytes(tmp_path, name):
    out = {}
    for surface, params in VERIFY_SURFACES.items():
        for seed in ("0", "41"):
            path = tmp_path / f"{name}-{surface}-{seed}.json"
            assert main(["verify", "--surface", surface, *params, "--grids", "16,32,64",
                         "--seed", seed, "--out", str(path)]) == 0
            out[surface, seed] = path.read_bytes()
    return out


def test_verify_bytes_do_not_depend_on_the_cpu_count(monkeypatch, tmp_path):
    before = _children_cpu_s()
    default = _verify_bytes(tmp_path, "default")
    if len(os.sched_getaffinity(0)) >= 2:  # the state pairs were judged in workers
        assert _children_cpu_s() > before
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    before = _children_cpu_s()
    serial = _verify_bytes(tmp_path, "serial")
    assert _children_cpu_s() == before
    assert default == serial


@pytest.mark.parametrize("cpus", ["default", "one"])
def test_no_child_outlives_a_failed_verify(cpus, monkeypatch, capsys):
    import numpy as np

    from geomforce.oplab import identities

    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    bad = []  # the fifth state of the last grid whose states were drawn
    original_states, original_actions = identities.random_band_states, identities.StateActions

    def band_states(grid, count, seed):
        states = original_states(grid, count, seed)
        bad[:] = [states[4]]
        return states

    def actions(grid, psi):
        if np.array_equal(psi, bad[0]):
            raise ValueError("internal bug in a pair job")
        return original_actions(grid, psi)

    monkeypatch.setattr(identities, "random_band_states", band_states)
    monkeypatch.setattr(identities, "StateActions", actions)
    got, out, err = run_cli(["verify", "--surface", "torus", "--R", "2", "--r", "1",
                             "--grids", "16,32,64"], capsys)
    assert got == 70
    assert not _children_left()
    assert out == "" and '"error": "ValueError"' in err
    assert "Traceback" in err and "internal bug in a pair job" in err
    # on two or more CPUs the job failed in a worker
    assert ("_RemoteTraceback" in err) == (len(os.sched_getaffinity(0)) >= 2)


# run in a fresh interpreter under a timeout: an exception that the pool cannot
# hand back would leave the command waiting for its block
_LAST_BLOCK_DOES_NOT_CONVERGE = """
import os, sys
from geomforce import cli, geometry as geo
if sys.argv[1] == "serial":
    os.sched_getaffinity = lambda pid: {0}
original = geo._sample_columns
def sample_columns(spec, points, policy):
    if points.shape[1] < geo.BLOCK:
        raise geo.NoConvergenceError("projection to 'torus' did not converge", 100,
                                     0.25, points[:, 0].tolist(), 1, points.shape[1])
    return original(spec, points, policy)
geo._sample_columns = sample_columns
sys.exit(cli.main(sys.argv[2:]))
"""


def _fresh_interpreter(script, *args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_non_convergence_in_a_worker_exits_2_with_the_serial_message():
    runs = [_fresh_interpreter(_LAST_BLOCK_DOES_NOT_CONVERGE, mode, *TORUS_FIELDS,
                               "--count", "3000") for mode in ("parallel", "serial")]
    for proc in runs:
        assert (proc.returncode, proc.stdout) == (2, "")
        assert json.loads(proc.stderr)["error"] == "NoConvergenceError"
    assert runs[0].stderr == runs[1].stderr
    assert "for 1 of 952 point(s)" in runs[0].stderr



# the last block's worker exits in the middle of its item; the script then
# checks that the command left no child behind
_A_WORKER_EXITS_MID_ITEM = """
import os, sys
from geomforce import cli, geometry as geo
original = geo._sample_columns
def sample_columns(spec, points, policy):
    if points.shape[1] < geo.BLOCK:
        os._exit(3)
    return original(spec, points, policy)
geo._sample_columns = sample_columns
code = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left", file=sys.stderr)
except ChildProcessError:
    pass
sys.exit(code)
"""


def test_a_worker_that_exits_mid_item_is_an_internal_error_naming_the_item():
    proc = _fresh_interpreter(_A_WORKER_EXITS_MID_ITEM, *TORUS_FIELDS, "--count", "3000")
    if len(os.sched_getaffinity(0)) < 2:  # no worker: the command itself exits
        assert proc.returncode == 3
        return
    assert (proc.returncode, proc.stdout) == (70, "")
    assert "a child is left" not in proc.stderr
    diag = json.loads(proc.stderr[proc.stderr.rindex("\n{"):])
    assert diag["error"] == "RuntimeError"
    assert diag["message"].startswith("item 2 of 3 was lost: a worker exited")


_MODULES_AFTER_FIELDS = """
import sys
from geomforce import cli
code = cli.main(sys.argv[1:])
print(sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")))
sys.exit(code)
"""


def test_a_fields_run_loads_no_multiprocessing(tmp_path):
    # 3,000 samples are three blocks, made in workers on two or more CPUs
    proc = _fresh_interpreter(_MODULES_AFTER_FIELDS, *TORUS_FIELDS, "--count", "3000",
                              "--out", str(tmp_path / "fields.json"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
