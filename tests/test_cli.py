import json
import math
import pathlib

import pytest

from recipfm import exprlang
from recipfm import geometry as geo
from recipfm import reciprocal as rec
from recipfm.cli import _strict, main
from recipfm.geometry import ResidualReport


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


GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_CASES = {
    "check-flatness-dim3": (0, ["check", "--builtin", "eps-system", "--dim", "3", "--eps", "1", "--suite", "flatness"]),
    "check-grading-e-fails": (1, ["check", "--builtin", "eps-system", "--dim", "2", "--eps", "1",
                                  "--density", "u1*u2", "--suite", "grading-e"]),
    "transform-dim2-eps1-h0": (0, ["transform", "--builtin", "eps-system", "--dim", "2", "--eps", "1",
                                   "--catalog", "dim2-eps1-h0"]),
    "transform-flatcoord-biflat": (0, ["transform", "--builtin", "eps-system", "--dim", "3", "--eps", "1",
                                       "--catalog", "dim3-eps1-flatcoord", "--biflat"]),
    "orbit-dim2": (0, ["orbit", "--builtin", "eps-system", "--dim", "2", "--eps", "1",
                       "--gen0", "1/(u2-u1)", "--composite", "exp(u1)/(u2-u1)"]),
    "darboux-eps2": (0, ["darboux", "--frame-builtin", "eps2", "--eps", "1", "--density", "1/(u2-u1)"]),
    "check-all-flatcoord": (0, ["check", "--builtin", "eps-system", "--dim", "3", "--eps", "1",
                                "--suite", "all", "--catalog", "dim3-eps1-flatcoord"]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_report_matches_golden(name, tmp_path):
    """The README invocations reproduce their recorded reports byte for byte.

    A golden file is rewritten only on purpose, with
    ``recipfm <argv> --output tests/golden/<name>.json``.
    """
    code, argv = GOLDEN_CASES[name]
    out = tmp_path / "report.json"
    assert main(argv + ["--output", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


EPS2 = ["--builtin", "eps-system", "--dim", "2", "--eps", "1"]


def test_unwritable_output_exit_two(tmp_path, capsys):
    code = main(["check", *EPS2, "--suite", "sh", "--output", str(tmp_path / "missing" / "x.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, config",
    [
        ("check", {"dimm": 5}),
        ("transform", {"suite": "sh"}),  # an option of check only
        ("check", {"help": True}),
    ],
)
def test_unknown_config_key_exit_two(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main([command, "--config", str(cfg), *EPS2, "--catalog", "dim2-eps1-h0"])
    key = next(iter(config))
    assert code == 2
    assert capsys.readouterr().err == f"error: --config key {key!r} is not an option of {command}\n"


@pytest.mark.parametrize("key", ["num-points", "num_points"])
def test_config_key_spellings(tmp_path, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 3}))
    code, report = run(tmp_path, "check", "--config", str(cfg), *EPS2, "--suite", "sh")
    assert code == 0 and len(report["points"]) == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--builtin", "eps-system", "--dim", "2", "--eps", "inf"], "--eps must be a finite number, got inf"),
        (["check", *EPS2, "--tol-second", "nan"], "--tol-second must be a finite number >= 0, got nan"),
        (["check", *EPS2, "--tol-third=-1e-6"], "--tol-third must be a finite number >= 0, got -1e-06"),
        (["check", *EPS2, "--grading-tol", "inf"], "--grading-tol must be a finite number >= 0, got inf"),
        (["check", *EPS2, "--density", "c*u1", "--param", "c=nan"], "--param c must be a finite number, got 'nan'"),
        (["darboux", "--dim", "2", "--beta", "1,2:u1", "--beta", "2,1:u2", "--lame", "u1", "--lame", "u2",
          "--frame-d=-inf", "--density", "1/(u2-u1)"], "--frame-d must be a finite number, got -inf"),
    ],
)
def test_non_finite_or_negative_inputs_exit_two(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_non_finite_config_values_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol-second": NaN}')  # Python's json reads the NaN literal
    assert main(["check", "--config", str(cfg), *EPS2]) == 2
    assert capsys.readouterr().err == "error: --tol-second must be a finite number >= 0, got nan\n"


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON token {name}")


def test_non_finite_report_is_strict_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["check", *EPS2, "--density", "(1e200*u1)^2", "--num-points", "3", "--summary", "--output", str(out)]
    assert main(argv) == 1
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["checks"]["density"]["max_abs"] == "NaN"
    assert report["checks"]["density"]["pass"] is False
    assert report["grading_e_estimate"] == "NaN"
    # the worst check is a NaN one, not the largest finite residual
    worst = capsys.readouterr().out.split(", worst ")[1].split()[0]
    assert report["checks"][worst]["max_abs"] == "NaN"


def test_strict_encoding_spells_infinities():
    assert _strict({"a": [math.inf, -math.inf, 1.5], "b": (math.nan,)}) == {
        "a": ["Infinity", "-Infinity", 1.5], "b": ["NaN"]
    }


@pytest.mark.parametrize(
    "density, message",
    [
        ("ln(1e-200*u1^2)", "ln series overflows"),  # v^2 underflows in the ln series
        ("ln(1e200*u1^2)", "ln series overflows"),
        ("10^400", "constant 10.0^400 is out of range"),
        ("(0*7)^-2", "constant 0.0^-2 is out of range"),
    ],
)
def test_out_of_range_density_exit_two(density, message, capsys):
    assert main(["check", *EPS2, "--density", density]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def _count_calls(monkeypatch, module, name):
    """Record the positional arguments of every call to module.name."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


FLATCOORD = ["--builtin", "eps-system", "--dim", "3", "--eps", "1", "--catalog", "dim3-eps1-flatcoord"]


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", *FLATCOORD, "--biflat"],
        ["check", *FLATCOORD, "--suite", "density,grading-e,grading-E,biflat"],
    ],
)
def test_biflat_builds_each_generator_report_once(argv, tmp_path, monkeypatch):
    densities = _count_calls(monkeypatch, rec, "density_residual")
    gradings = _count_calls(monkeypatch, rec, "grading_residual")
    code, report = run(tmp_path, *argv, "--num-points", "5")
    assert code == 0 and report["biflat"]["admissible"] is True
    assert len(densities) == 1
    assert sorted(args[1] for args in gradings) == ["E", "e"]


@pytest.mark.parametrize("argv", [["check", *FLATCOORD, "--suite", "all"], ["transform", *FLATCOORD, "--biflat"]])
def test_christoffel_symbols_are_evaluated_once_per_command(argv, tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, geo, "christoffel_primary")
    code, _ = run(tmp_path, *argv, "--num-points", "5")
    assert code == 0
    # each (i, j, point set, order) of the system once: orders 0 and 1 over the
    # sample points, and for transform order 0 over intrinsic-agreement's own
    # set of the first three points
    count = 6 * 2 + (6 if argv[0] == "transform" else 0)
    assert len(calls) == len(set(calls)) == count


def test_eps_system_flatness_at_dimension_ten(tmp_path):
    code, report = run(tmp_path, "check", "--builtin", "eps-system", "--dim", "10", "--eps", "1",
                       "--suite", "flatness", "--num-points", "2")
    assert code == 0 and len(report["points"]) == 2


def test_catalog_density_is_compiled_once(tmp_path, monkeypatch):
    parses = _count_calls(monkeypatch, exprlang, "parse_field")
    code, _ = run(tmp_path, "check", *FLATCOORD, "--num-points", "3")
    assert code == 0
    assert len(parses) == 4  # three velocities and the density


def test_biflat_max_abs_keeps_a_nan(tmp_path, monkeypatch, capsys):
    real = rec.grading_residual

    def nan_in_big_e(A, field, points, tolerance=rec.GRADING_TOL):
        estimate, rep = real(A, field, points, tolerance)
        if field == "E":
            rep = ResidualReport.build(rep.label, [(points[0], ("E",), math.nan)], tolerance)
        return estimate, rep

    monkeypatch.setattr(rec, "grading_residual", nan_in_big_e)
    out = tmp_path / "r.json"
    argv = ["check", *FLATCOORD, "--suite", "density,grading-e,biflat", "--num-points", "5", "--summary"]
    assert main(argv + ["--output", str(out)]) == 1
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["checks"]["biflat-admissible"] == {"max_abs": "NaN", "pass": False, "tolerance": 1e-8}
    assert report["checks"]["density"]["pass"] and report["checks"]["grading-e"]["pass"]
    assert capsys.readouterr().out.startswith("FAIL check: 3 checks, worst biflat-admissible max_abs=nan")


def test_orbit_reports_the_gradings_orbit_compose_built(tmp_path, monkeypatch):
    gradings = _count_calls(monkeypatch, rec, "grading_residual")
    code, report = run(tmp_path, *GOLDEN_CASES["orbit-dim2"][1])
    assert code == 0 and set(report["gradings"]) == {"gen0", "gen1", "composite"}
    assert len(gradings) == 3  # gen0, gen1 and their product, each once
