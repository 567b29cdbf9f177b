import json

import pytest

from geomforce.cli import build_parser, main, parse_length, parse_mass


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


def test_verify_rejects_unsupported_surface(capsys):
    code, _, err = run_cli(["verify", "--surface", "sphere"], capsys)
    assert code == 1


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


def test_internal_value_error_is_not_reported_as_input_error(monkeypatch):
    from geomforce import geometry as geo

    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(geo, "sample_field", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["fields", "--surface", "circle", "--a", "1", "--resolution", "4"])


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
])
def test_bad_input_exits_1_through_a_typed_error(args, error, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert json.loads(err)["error"] == error
