import json

import pytest

from recipfm.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--output", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_check_flatness_passes(tmp_path):
    code, report = run(
        tmp_path, "check", "--builtin", "eps-system", "--dim", "3", "--eps", "1", "--suite", "flatness"
    )
    assert code == 0
    assert report["schema"] == "recip-fm/1"
    assert report["pass"] is True
    assert report["checks"]["curvature-natural"]["pass"] is True
    assert len(report["points"]) == 20


def test_check_grading_failure_exit_one(tmp_path):
    code, report = run(
        tmp_path,
        "check",
        "--builtin", "eps-system", "--dim", "2", "--eps", "1",
        "--density", "u1*u2",
        "--suite", "grading-e",
    )
    assert code == 1
    assert report["pass"] is False
    assert report["checks"]["grading-e"]["pass"] is False


def test_check_coincident_velocities_exit_two(tmp_path, capsys):
    code = main(["check", "--dim", "2", "--velocity", "u1", "--velocity", "u1"])
    assert code == 2
    assert "coincident" in capsys.readouterr().err


def test_check_bad_dsl_exit_two(tmp_path, capsys):
    code = main(["check", "--dim", "2", "--velocity", "u1 +", "--velocity", "u2"])
    assert code == 2
    assert "offset" in capsys.readouterr().err


def test_check_unknown_suite_exit_two(capsys):
    code = main(["check", "--builtin", "eps-system", "--dim", "2", "--eps", "1", "--suite", "bogus"])
    assert code == 2


def test_check_catalog_density_full_suite(tmp_path):
    code, report = run(
        tmp_path, "check", "--builtin", "eps-system", "--dim", "2", "--eps", "1",
        "--catalog", "dim2-eps1-h0",
    )
    assert code == 0
    for name in ("curvature-natural", "semi-hamiltonian", "density", "a-system", "theta-system"):
        assert report["checks"][name]["pass"] is True
    assert report["grading_e_estimate"] == pytest.approx(0.0, abs=1e-10)


def test_transform_catalog_pass(tmp_path):
    code, report = run(
        tmp_path, "transform", "--builtin", "eps-system", "--dim", "2", "--eps", "1",
        "--catalog", "dim2-eps1-h0",
    )
    assert code == 0
    assert report["checks"]["transformed-curvature"]["pass"] is True
    assert report["checks"]["intrinsic-agreement"]["pass"] is True
    assert "transformed_christoffels" in report


def test_transform_non_density_fails(tmp_path):
    code, report = run(
        tmp_path, "transform", "--builtin", "eps-system", "--dim", "2", "--eps", "1",
        "--density", "u1*u2",
    )
    assert code == 1
    assert report["checks"]["transformed-curvature"]["max_abs"] > 1e-3
    assert report["checks"]["generator-density"]["pass"] is False


def test_transform_biflat_flat_coordinate(tmp_path):
    code, report = run(
        tmp_path, "transform", "--builtin", "eps-system", "--dim", "3", "--eps", "1",
        "--catalog", "dim3-eps1-flatcoord", "--biflat",
    )
    assert code == 0
    assert report["biflat"]["admissible"] is True
    assert report["biflat"]["h"] == pytest.approx(0.0, abs=1e-9)
    assert report["biflat"]["k"] == pytest.approx(-2.0, abs=1e-9)
    assert report["checks"]["transformed-dual-curvature"]["pass"] is True


def test_transform_catalog_dimension_mismatch(capsys):
    code = main(["transform", "--builtin", "eps-system", "--dim", "2", "--eps", "1",
                 "--catalog", "dim3-eps1-flatcoord"])
    assert code == 2


def test_orbit_command(tmp_path):
    code, report = run(
        tmp_path, "orbit", "--builtin", "eps-system", "--dim", "2", "--eps", "1",
        "--gen0", "1/(u2-u1)", "--composite", "exp(u1)/(u2-u1)",
    )
    assert code == 0
    assert report["checks"]["orbit-compose"]["max_abs"] <= 1e-10
    assert report["gradings"]["gen1"] == pytest.approx(1.0, abs=1e-10)


def test_darboux_command(tmp_path):
    code, report = run(
        tmp_path, "darboux", "--frame-builtin", "eps2", "--eps", "1",
        "--density", "1/(u2-u1)",
    )
    assert code == 0
    assert report["degree_before"] == pytest.approx(1.0)
    assert report["degree_after"] == pytest.approx(0.0, abs=1e-10)
    assert report["checks"]["frame-after"]["pass"] is True
    assert report["checks"]["christoffel-shift"]["pass"] is True


def test_darboux_explicit_frame(tmp_path):
    code, report = run(
        tmp_path, "darboux", "--dim", "2",
        "--beta", "1,2:eps/(u1-u2)", "--beta", "2,1:eps/(u2-u1)",
        "--lame", "pow(u1-u2, me)", "--lame", "pow(u1-u2, me)",
        "--frame-d", "1", "--param", "eps=1", "--param", "me=-1",
        "--density", "1/(u2-u1)",
    )
    assert code == 0
    assert report["degree_after"] == pytest.approx(0.0, abs=1e-10)


def test_darboux_hypothesis_violation_exit_two(capsys):
    code = main(["darboux", "--frame-builtin", "eps2", "--eps", "1", "--density", "u1+u2"])
    assert code == 2
    assert "e(A)" in capsys.readouterr().err


def test_reports_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["transform", "--builtin", "eps-system", "--dim", "2", "--eps", "1",
            "--catalog", "dim2-eps1-h1", "--seed", "7"]
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # a different seed moves the sample points
    third = tmp_path / "c.json"
    assert main(argv[:-1] + ["9", "--output", str(third)]) == 0
    assert first.read_bytes() != third.read_bytes()


def test_config_file_supplies_options(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "builtin": "eps-system", "dim": 3, "eps": 1.0, "suite": "flatness,sh",
        "num-points": 10,
    }))
    code, report = run(tmp_path, "check", "--config", str(cfg))
    assert code == 0
    assert len(report["points"]) == 10
    assert set(report["checks"]) == {"curvature-natural", "parallel-e", "semi-hamiltonian"}
    # explicit flags win over the config file
    code2, report2 = run(tmp_path, "check", "--config", str(cfg), "--num-points", "5")
    assert code2 == 0 and len(report2["points"]) == 5


def test_summary_flag_prints_line(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["check", "--builtin", "eps-system", "--dim", "2", "--eps", "1",
                 "--suite", "sh", "--summary", "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS check")


def test_stdout_report_when_no_output(capsys):
    code = main(["check", "--builtin", "eps-system", "--dim", "2", "--eps", "1", "--suite", "sh"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "recip-fm/1"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--builtin", "eps-system", "--dim", "2", "--eps", "1"],
        ["transform", "--builtin", "eps-system", "--dim", "2", "--eps", "1", "--catalog", "dim2-eps1-h0"],
        ["orbit", "--builtin", "eps-system", "--dim", "2", "--eps", "1", "--gen0", "1/(u2-u1)",
         "--composite", "exp(u1+u2)/(u2-u1)"],
        ["darboux", "--frame-builtin", "eps2", "--eps", "1", "--density", "1/(u2-u1)"],
    ],
)
@pytest.mark.parametrize("count", ["0", "-3"])
def test_num_points_below_one_exit_two(argv, count, capsys):
    code = main(argv + ["--num-points", count])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: --num-points must be an integer >= 1, got {count}\n"


def test_num_points_from_config_is_validated(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num-points": 0}))
    code = main(["check", "--config", str(cfg), "--builtin", "eps-system", "--dim", "2", "--eps", "1"])
    assert code == 2
    assert capsys.readouterr().err == "error: --num-points must be an integer >= 1, got 0\n"


def test_exp_overflow_exit_two(capsys):
    code = main(["check", "--builtin", "eps-system", "--dim", "2", "--eps", "1", "--density", "exp(1000*u1)"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: exp overflows at value ") and err.count("\n") == 1
