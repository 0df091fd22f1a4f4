import ast
import builtins
import importlib.util
import inspect
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import cyclic_recipfm_objects
from recipfm import catalog, cli, exprlang
from recipfm import geometry as geo
from recipfm import reciprocal as rec
from recipfm.cli import CHECKS, _write, build_parser, main
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
    # the first unknown suite in the order given is the one named
    code = main(["check", "--builtin", "eps-system", "--dim", "2", "--eps", "1", "--suite", "bogus,zz"])
    choices = "flatness, dual, sh, density, a-system, grading-e, grading-E, biflat, all"
    assert code == 2 and capsys.readouterr().err == f"error: unknown suite 'bogus'; choose from {choices}\n" * 2


@pytest.mark.parametrize("source", ["flag-empty", "flag-blank-items", "config-empty"])
def test_check_empty_suite_list_exit_two(source, tmp_path, capsys):
    argv = ["check", "--builtin", "eps-system", "--dim", "2", "--eps", "1", "--output", str(tmp_path / "r.json")]
    if source == "config-empty":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": ""}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--suite", "" if source == "flag-empty" else " , "]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --suite names no suite") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


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


def test_summary_beside_a_stdout_report_goes_to_stderr(capsys):
    """stdout stays one JSON document when the report is written there."""
    code = main(["check", "--builtin", "eps-system", "--dim", "2", "--eps", "1", "--suite", "sh", "--summary"])
    out, err = capsys.readouterr()
    assert code == 0 and json.loads(out)["checks"]["semi-hamiltonian"]["pass"] is True
    assert err == "PASS check: 1 checks, worst semi-hamiltonian max_abs=0.000e+00\n"


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


def _as_config(argv):
    """The options of a golden argv as a --config object with JSON-typed values."""
    config, rest = {}, argv[1:]
    while rest:
        key = rest.pop(0).removeprefix("--")
        config[key] = True if key == "biflat" else json.loads(rest.pop(0)) if key in ("dim", "eps") else rest.pop(0)
    return config


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_report_matches_golden(name, tmp_path):
    """The README invocations reproduce their recorded reports byte for byte,
    with their options given as flags or through a --config file.

    A golden file is rewritten only on purpose, with
    ``recipfm <argv> --output tests/golden/<name>.json``.
    """
    code, argv = GOLDEN_CASES[name]
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(_as_config(argv)))
    for source in (argv, [argv[0], "--config", str(cfg)]):
        out.unlink(missing_ok=True)
        assert main(source + ["--output", str(out)]) == code
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


_BUILTIN_SUM = builtins.sum


def _neumaier_sum(iterable, /, start=0):
    """sum as CPython >= 3.12 computes it when its start is an exact int or
    float and its items exact floats: with Neumaier's compensation.  Any other
    call goes to the builtin."""
    items = list(iterable)
    if type(start) not in (int, float) or not items or any(type(x) is not float for x in items):
        return _BUILTIN_SUM(items, start)
    total, rest = (start, items) if type(start) is float else (start + items[0], items[1:])
    c = 0.0
    for x in rest:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports_do_not_depend_on_the_pythons_sum(name, tmp_path, monkeypatch):
    """With the builtin sum compensating as from CPython 3.12 on, every golden
    report is still the recorded one byte for byte."""
    assert _neumaier_sum([0.1] * 10) == 1.0  # left to right, it is 0.9999999999999999
    code, argv = GOLDEN_CASES[name]
    out = tmp_path / "report.json"
    monkeypatch.setattr(builtins, "sum", _neumaier_sum)
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
        ("check", {"config": "other.json"}),
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
        (["check", *EPS2, "--tol-third=-1e-6"], "unrecognized arguments: --tol-third=-1e-6"),
        (["check", *EPS2, "--grading-tol", "inf"], "--grading-tol must be a finite number >= 0, got inf"),
        (["check", *EPS2, "--density", "c*u1", "--param", "c=nan"], "--param c must be a finite number, got 'nan'"),
        (["darboux", "--dim", "2", "--beta", "1,2:u1", "--beta", "2,1:u2", "--lame", "u1", "--lame", "u2",
          "--frame-d=-inf", "--density", "1/(u2-u1)"], "--frame-d must be a finite number, got -inf"),
        (["check", *EPS2, "--density", "c*u1", "--param", "c=abc"], "--param c must be a finite number, got 'abc'"),
    ],
)
def test_non_finite_or_negative_inputs_exit_two(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_failed_call_leaves_no_reference_cycle(capsys):
    """An exit-2 call frees its evaluation (points, jets, fields, systems) as it
    returns, without waiting for the cycle collector."""
    def fail():
        for argv in (["check", "--velocity", "u1", "--velocity", "u1", "--suite", "flatness"],
                     ["check", *EPS2, "--density", "0*u1"],
                     ["check", *EPS2, "--density", "ln(u1)"]):
            assert main(argv) == 2

    assert cyclic_recipfm_objects(fail) == []
    assert capsys.readouterr().err.count("error: ") == 3


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("check", {"suite": 3}, "'suite' takes a string, got 3"),
        ("check", {"dim": 2.5}, "'dim' takes an integer, got 2.5"),
        ("check", {"seed": [1]}, "'seed' takes an integer, got [1]"),
        ("check", {"density": 5}, "'density' takes a string, got 5"),
        ("check", {"seed": None}, "'seed' takes an integer, got null"),
        ("check", {"output": 1}, "'output' takes a string, got 1"),
        ("transform", {"biflat": "no"}, "'biflat' takes true or false, got \"no\""),
        ("check", {"num-points": True}, "'num-points' takes an integer, got true"),
        ("check", {"eps": True}, "'eps' takes a number, got true"),
        ("check", {"param": "eps=1"}, "'param' takes a list of strings, got \"eps=1\""),
        ("check", {"velocity": ["u1", 2]}, "'velocity' takes a list of strings, got [\"u1\", 2]"),
    ],
)
def test_config_value_types_exit_two(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), *EPS2, "--catalog", "dim2-eps1-h0"]) == 2
    assert capsys.readouterr().err == f"error: --config key {message}\n"


def test_config_strings_are_read_as_flag_text(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": "2", "eps": "1", "seed": "7", "num-points": "3", "suite": "sh"}))
    code, report = run(tmp_path, "check", "--config", str(cfg), "--builtin", "eps-system")
    assert code == 0 and report["seed"] == 7 and report["inputs"]["dim"] == 2 and report["inputs"]["eps"] == 1.0
    assert len(report["points"]) == 3
    cfg.write_text(json.dumps({"biflat": True}))
    _, report = run(tmp_path, "transform", "--config", str(cfg), *EPS2, "--catalog", "dim2-eps1-h0")
    assert "biflat-admissible" in report["checks"]


FRAME = ["darboux", "--dim", "2", "--lame", "pow(u1-u2,-1)", "--lame", "pow(u1-u2,-1)", "--frame-d", "1",
         "--density", "1/(u2-u1)"]
BETAS = ["--beta", "1,2:1/(u1-u2)", "--beta", "2,1:1/(u2-u1)"]


@pytest.mark.parametrize(
    "betas, message",
    [
        (BETAS + ["--beta", "1,1:u1"], "beta[1,1] is not a pair I != J in 1..2"),
        (BETAS + ["--beta", "3,4:u1"], "beta[3,4] is not a pair I != J in 1..2"),
        (BETAS + ["--beta", "0,1:u1"], "beta[0,1] is not a pair I != J in 1..2"),
        (BETAS + ["--beta", "1,2:2/(u1-u2)"], "--beta 1,2 is given twice"),
        (BETAS[:2], "missing rotation coefficient beta[2,1]"),
        (BETAS + ["--lame", "u1"], "need 2 Lame fields, got 3"),
    ],
)
def test_rotation_frame_inputs_exit_two(tmp_path, capsys, betas, message):
    assert run(tmp_path, *FRAME, *BETAS)[0] == 0
    assert main(FRAME + betas) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


THREE = ["darboux", "--lame", "2", "--lame", "u1*u2", "--lame", "exp(u3)", "--frame-d", "0.5", "--density", "2"]


@pytest.mark.parametrize("frame, betas", [
    (FRAME, BETAS),
    (THREE, [x for i, j in itertools.permutations((1, 2, 3), 2) for x in ("--beta", f"{i},{j}:1/(u{i}-u{j})")]),
], ids=["n2", "n3"])
def test_beta_order_leaves_the_darboux_report_byte_identical(tmp_path, frame, betas):
    """A frame is its pairs, whatever order --beta gives them in: the report
    with the --beta flags reversed is the in-order call's, byte for byte (the
    3-component frame solves no Darboux system, so its report fails)."""
    codes, reports = [], []
    for order in (betas, [x for k in range(len(betas) - 2, -1, -2) for x in betas[k : k + 2]]):
        out = tmp_path / f"{len(reports)}.json"
        codes.append(main([*frame, *order, "--seed", "9", "--output", str(out)]))
        reports.append(out.read_bytes())
    assert codes == ([0, 0] if frame is FRAME else [1, 1]) and reports[0] == reports[1]


def test_unknown_catalog_entry_exit_two(capsys):
    assert main(["check", *EPS2, "--catalog", "nope"]) == 2
    assert capsys.readouterr().err == "error: no catalog entry 'nope'\n"


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


def _written(x) -> str:
    return "".join(_write(x, [], "\n"))


def test_strict_encoding_spells_infinities():
    text = _written({"a": [math.inf, -math.inf, 1.5], "b": (math.nan,)})
    assert json.loads(text, parse_constant=_reject_constant) == {"a": ["Infinity", "-Infinity", 1.5], "b": ["NaN"]}


def _strict(x):
    """x with every non-finite float spelled "NaN", "Infinity" or "-Infinity": with json.dumps, the writer's oracle."""
    if isinstance(x, float) and not math.isfinite(x):
        return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    return x


_TEXTS = ("", "flat", "G^1_12", "∇* e", "naïve ü", "\x00\x1f\t\n\"\\/", "\x7f\u2028", "\ud83d", "😀")
_LEAVES = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e16, 9999999999999998.0,
    1e15, 1e-5, 9.999999999999999e-06, 1e-4, 1.7976931348623157e308, np.float64(math.nan), np.float64(-math.inf),
    np.float64(-0.0), np.float64(1e16), np.float64(1e-5), np.float64(5e-324), True, False, None, 0, -7, 2**64,
    -(10**40), *_TEXTS,
)


def _random_report(rng: random.Random, depth: int = 0):
    """A nested report of dicts, lists and tuples (empty ones too) over _LEAVES and random floats."""
    if depth == 4 or rng.random() < 0.3:
        roll = rng.randrange(3)
        if roll == 0:
            return rng.choice(_LEAVES)
        x = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-325, 308)  # subnormals and zeros among them
        return x if roll == 1 else np.float64(x)
    size, kind = rng.randrange(4), rng.randrange(3)
    if kind == 0:
        return {rng.choice(_TEXTS) + str(rng.randrange(10)): _random_report(rng, depth + 1) for _ in range(size)}
    items = [_random_report(rng, depth + 1) for _ in range(size)]
    return items if kind == 1 else tuple(items)


@pytest.mark.parametrize("seed", range(200))
def test_report_writer_is_strict_json_dumps_byte_for_byte(seed):
    report = _random_report(random.Random(seed))
    assert _written(report) == json.dumps(_strict(report), sort_keys=True, indent=2, allow_nan=False)


def test_report_writer_is_json_dumps_on_every_leaf():
    for leaf in _LEAVES:
        for value in (leaf, [leaf], {"k": leaf}, ([leaf, {"k": (leaf,)}],)):
            assert _written(value) == json.dumps(_strict(value), sort_keys=True, indent=2, allow_nan=False)


# A bare object's repr holds its address, which differs between runs; name that case by how it is built.
@pytest.mark.parametrize(
    "value",
    [np.int64(3), np.bool_(True), {1, 2}, object()],
    ids=lambda v: "object()" if type(v) is object else repr(v),
)
def test_report_writer_refuses_what_json_cannot_write(value):
    for report in (value, {"checks": [value]}):
        with pytest.raises(TypeError):
            json.dumps(report)
        with pytest.raises(TypeError):
            _written(report)


def test_report_writer_refuses_a_key_that_is_not_a_str():
    with pytest.raises(TypeError):
        _written({"checks": {1: "one"}})


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_golden_reports_are_strict_json(path):
    assert json.loads(path.read_text(), parse_constant=_reject_constant)["schema"] == "recip-fm/1"


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
    # at most one generator array per (point set, order) of the system, over
    # the sample points.  Both commands ask order 1 first and read order 0 off
    # it; transform builds its image tables before its checks.  A dual table
    # with a cache of its own would build the orders again, and an
    # intrinsic-agreement over a set of its own would build them for that set
    assert sorted(order for _, _, order in calls) == [1]
    assert len({points for _, points, _ in calls}) == 1


@pytest.mark.parametrize("density, culprit", [("1 + u2*u2", "u1 * u1"), ("ln(1e-200*u2*u2)", "u2 * u2")])
def test_transform_fails_where_its_checks_first_fail(density, culprit, tmp_path, capsys):
    # the ln series of 1e-200 u^2 underflows at order 2 only: the first velocity
    # fails when the image tables are built, which transform tries before its
    # checks, and the density in the first check, which must then win
    velocities = ["--velocity", "ln(1e-200*u1*u1)", "--velocity", "u2"]
    code, _ = run(tmp_path, "transform", *velocities, "--density", density, "--biflat", "--num-points", "3")
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ln series overflows") and f"in 'ln(1e-200 * {culprit})'" in err


def test_eps_system_flatness_at_dimension_ten(tmp_path):
    code, report = run(tmp_path, "check", "--builtin", "eps-system", "--dim", "10", "--eps", "1",
                       "--suite", "flatness", "--num-points", "2")
    assert code == 0 and len(report["points"]) == 2


@pytest.mark.parametrize("dim, message", [
    ("1", "the system needs at least 2 components, got n=1"),
    ("0", "the system needs at least 2 components, got n=0"),
    ("-3", "the system needs at least 2 components, got n=-3"),
    ("17", "dimension must be in 2..16, got 17"),
])
def test_builtin_system_outside_its_dimensions_exits_two(dim, message, capsys):
    assert main(["check", "--builtin", "eps-system", f"--dim={dim}", "--eps", "1", "--suite", "sh"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


SMALL_DENSITY = ("--builtin", "eps-system", "--dim", "3", "--eps", "-1", "--catalog", "dim3-eps-1-h0",
                 "--seed", "1029", "--num-points", "5")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="absolute tolerances fail a correct density where |A| is small (2.27e-4 here)")
@pytest.mark.parametrize("command, check", [("check", "theta-system"), ("transform", "transformed-curvature")])
def test_small_density_reproduction_passes(tmp_path, command, check):
    """ROADMAP's scale-aware verdicts item: a correct density at a seed with one
    small |A| must pass.  Only the named check may fail, and only by its
    residual, so no other failure can stand in for this one."""
    code, report = run(tmp_path, command, *SMALL_DENSITY)
    if report is None:
        pytest.fail(f"exit {code} without a report")
    failed = sorted(name for name, c in report["checks"].items() if not c["pass"])
    if failed not in ([], [check]):
        pytest.fail(f"failed checks {failed}: not {check} alone")
    assert report["checks"][check]["pass"], f"{check} max_abs {report['checks'][check]['max_abs']:.3e}"


def _no_draw_is_the_floor(code, report, capsys):
    """An exit without a report fails by assertion only as the density floor's: no admissible draw."""
    if report is None:
        err = capsys.readouterr().err
        if "no admissible point found after 1000 rejections" not in err:
            pytest.fail(f"exit {code}: {err}")
    assert report is not None, "no admissible point found"


SCALE_FLOOR = pytest.mark.xfail(strict=True, raises=AssertionError,
                                reason="the density floor is absolute: 2^-30 A is below it at every draw")
SCALE_TOLERANCE = pytest.mark.xfail(strict=True, raises=AssertionError,
                                    reason="the floor and tolerances are absolute: 2^k A moves the draw or the verdict")


@pytest.mark.parametrize("seed, k", [
    (7, -20), (7, 20),
    pytest.param(7, -30, marks=SCALE_FLOOR), pytest.param(1029, -30, marks=SCALE_FLOOR),
    pytest.param(1029, -20, marks=SCALE_TOLERANCE), pytest.param(1029, 20, marks=SCALE_TOLERANCE),
])
def test_scaled_density_transforms_as_the_catalog_entry(tmp_path, capsys, seed, k):
    """ROADMAP's library identities item, scale: 2^k A, given as --density text with
    the entry's constants bound, is a density wherever A is, so transform must draw
    the catalog entry's points and pass every check (ROADMAP's scale-aware verdicts
    item turns the four marked cases)."""
    e = catalog.entry("dim3-eps-1-h0")
    params = [arg for name, value in e.params.items() for arg in ("--param", f"{name}={value!r}")]
    argv = ("transform", "--builtin", "eps-system", "--dim", "3", "--eps", "-1",
            "--num-points", "5", "--seed", str(seed))
    (tmp_path / "entry").mkdir()
    (tmp_path / "scaled").mkdir()
    _, want = run(tmp_path / "entry", *argv, "--catalog", e.entry_id)
    code, report = run(tmp_path / "scaled", *argv, "--density", f"({e.density_src})*2^({k})", *params)
    _no_draw_is_the_floor(code, report, capsys)
    assert report["points"] == want["points"]
    assert code == 0, sorted(name for name, c in report["checks"].items() if not c["pass"])


def _residue_density(n: int) -> str:
    """A_1 = 1/prod_{j >= 2} (u1 - u_j), the eps = 1, h = 0 residue density, as --density text."""
    return "1/(" + "*".join(f"(u1-u{j})" for j in range(2, n + 1)) + ")"


@pytest.mark.parametrize("n, suite", [
    (8, "all,grading-E,biflat"), (14, "all"),
    pytest.param(16, "all", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="no admissible point found after 1000 rejections at n = 16")),
])
def test_residue_density_passes_at_high_dimension(tmp_path, capsys, n, suite):
    """ROADMAP's large-n item, tier-1 slice: the residue density passes every check
    of the suite at n = 8 and 14; at n = 16 the draw exits 2 first."""
    code, report = run(tmp_path, "check", "--builtin", "eps-system", "--dim", str(n), "--eps", "1",
                       "--density", _residue_density(n), "--suite", suite, "--seed", "42", "--num-points", "5")
    _no_draw_is_the_floor(code, report, capsys)
    assert code == 0 and report["pass"]
    assert max(c["max_abs"] for c in report["checks"].values()) < 1e-12


def test_catalog_density_is_compiled_once(tmp_path, monkeypatch):
    parses = _count_calls(monkeypatch, exprlang, "parse_field")
    code, _ = run(tmp_path, "check", *FLATCOORD, "--num-points", "3")
    assert code == 0
    src = catalog.entry("dim3-eps1-flatcoord").density_src
    density = [args for args in parses if args[0] == src]
    # once per process, so not at all if an earlier test compiled it; the
    # built-in system compiles nothing
    assert len(density) <= 1 and parses == density
    parses.clear()
    code, _ = run(tmp_path, "check", *FLATCOORD, "--num-points", "3")
    assert code == 0 and parses == []


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


TOLS = ["--tol-second", "3e-8", "--grading-tol", "2e-8"]
TOLERANCE_CASES = [
    (["check", *FLATCOORD, "--suite", "all,grading-E,biflat", *TOLS],
     {"curvature-natural": 3e-8, "parallel-e": 1e-10, "curvature-dual": 3e-8, "parallel-E": 1e-10,
      "semi-hamiltonian": 3e-8, "density": 3e-8, "a-system": 3e-8, "theta-system": 3e-8,
      "grading-e": 2e-8, "grading-E": 2e-8, "biflat-admissible": 3e-8}),
    (["transform", *FLATCOORD, "--biflat", *TOLS],
     {"generator-density": 3e-8, "grading-e": 2e-8, "transformed-curvature": 3e-8, "intrinsic-agreement": 1e-12,
      "grading-E": 2e-8, "transformed-dual-curvature": 3e-8, "transformed-parallel-E": 1e-10,
      "biflat-admissible": 3e-8}),
    (GOLDEN_CASES["orbit-dim2"][1], {"orbit-compose": 1e-10}),  # orbit takes no tolerance option
    ([*GOLDEN_CASES["darboux-eps2"][1], *TOLS],
     {"frame-before": 3e-8, "frame-after": 3e-8, "christoffel-shift": 1e-10}),
]


@pytest.mark.parametrize("argv, tolerances", TOLERANCE_CASES, ids=["check", "transform", "orbit", "darboux"])
def test_each_check_records_its_own_tolerance(argv, tolerances, tmp_path):
    """Every payload carries the bound its own check was graded against, and
    all keeps the opt-in suites named beside it."""
    code, report = run(tmp_path, *argv, "--num-points", "5")
    assert code == 0
    assert {name: c["tolerance"] for name, c in report["checks"].items()} == tolerances


def test_every_recorded_check_is_one_registry_row():
    """Each check a golden report or the tolerance table records has exactly one
    row for its command, and --suite offers the registry's suites, all last."""
    recorded = {(argv[0], name) for argv, tolerances in TOLERANCE_CASES for name in tolerances}
    for path in GOLDEN.glob("*.json"):
        report = json.loads(path.read_text())
        recorded |= {(report["command"], name) for name in report["checks"]}
    rows = Counter((c.command, c.name) for c in CHECKS)
    assert {key: rows[key] for key in recorded} == dict.fromkeys(recorded, 1)
    assert set(rows.values()) == {1}
    suites = [*dict.fromkeys(c.gate for c in CHECKS if c.command == "check"), "all"]
    assert suites == ["flatness", "dual", "sh", "density", "a-system", "grading-e", "grading-E", "biflat", "all"]
    suite = next(a for a in build_parser()._recipfm_subparsers["check"]._actions if a.dest == "suite")
    assert suite.help == f"comma-separated subset of {', '.join(suites)}"


def test_all_without_a_density_runs_only_the_suites_that_need_none(tmp_path):
    code, report = run(tmp_path, "check", *EPS2, "--suite", "all", "--num-points", "2")
    assert code == 0
    assert set(report["checks"]) == {"curvature-natural", "parallel-e", "curvature-dual", "parallel-E",
                                     "semi-hamiltonian"}


@pytest.mark.parametrize("suite", ["density", "a-system", "grading-e", "grading-E", "biflat"])
def test_each_density_suite_named_alone_needs_a_density(suite, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["check", *EPS2, "--suite", suite, "--output", str(out)]) == 2
    assert tuple(capsys.readouterr()) == ("", "error: the selected suites need --density or --catalog\n")
    assert not out.exists()


def test_summary_names_the_first_tied_check_in_registry_order(tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["check", *EPS2, "--suite", "flatness", "--num-points", "1", "--summary", "--output", str(out)]
    assert main(argv) == 0
    checks = json.loads(out.read_text())["checks"]
    assert checks["curvature-natural"]["max_abs"] == checks["parallel-e"]["max_abs"] == 0.0
    assert capsys.readouterr().out == "PASS check: 2 checks, worst curvature-natural max_abs=0.000e+00\n"


def _readme_check_table() -> list[tuple]:
    """The rows of README's table of checks: (command, gate, check names, run by all)."""
    lines = (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| command | suite or gate | checks | `check --suite all` runs it |") + 2
    rows = []
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        command, gate, names, in_all = (cell.strip() for cell in line.strip("|").split("|"))
        names = tuple(name.strip("` ") for name in names.split(","))
        rows.append((command.strip("`"), None if gate == "always" else gate.strip("`"), names, in_all))
    return rows


def test_readme_check_table_is_the_registry():
    in_all = {(False, False): "always", (True, False): "with a density", (True, True): "no: name it beside `all`"}
    rows = {}
    for c in CHECKS:
        mode = in_all[c.density, c.opt_in] if c.command == "check" else ""
        rows.setdefault((c.command, c.gate, mode), []).append(c.name)
    assert _readme_check_table() == [(command, gate, tuple(names), mode) for (command, gate, mode), names in rows.items()]


def test_benchmark_check_names_are_the_ones_the_cli_runs(tmp_path, monkeypatch):
    """benchmarks/workloads.py requires these checks of catalog-cli; it is read, never written."""
    path = pathlib.Path(__file__).parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache file beside it
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    code, report = run(tmp_path, "check", *EPS2, "--suite", "all", "--catalog", "dim2-eps1-h0", "--num-points", "2")
    assert code == 0 and tuple(report["checks"]) == tuple(sorted(workloads.CHECK_ALL_CHECKS))
    code, report = run(tmp_path, "transform", *EPS2, "--catalog", "dim2-eps1-h0", "--num-points", "2")
    assert code == 0 and set(workloads.TRANSFORM_NATURAL_CHECKS) <= set(report["checks"])


class _OrderCountingField(exprlang.ScalarField):
    """A density field that records the order of every jet asked of it."""

    def __init__(self, A: exprlang.ScalarField, asked: list):
        super().__init__(A.dim, A._fn)
        self.asked = asked

    def jet(self, points, order):
        self.asked.append(order)
        return super().jet(points, order)


DENSITY_ROLE_ARGV = {  # every check of each command, with its densities given as --catalog, --density, --gen0 and --composite
    "check": [["check", *EPS2, "--suite", "all,grading-E,biflat", "--catalog", "dim2-eps1-h0:c2"],
              ["check", *EPS2, "--suite", "all,grading-E,biflat", "--density", "u2-u1"]],
    "transform": [["transform", *EPS2, "--biflat", "--catalog", "dim2-eps1-h0:c2"],
                  ["transform", *EPS2, "--biflat", "--density", "u2-u1"]],
    "orbit": [GOLDEN_CASES["orbit-dim2"][1]],
    "darboux": [GOLDEN_CASES["darboux-eps2"][1]],
}


@pytest.mark.parametrize("command", sorted(DENSITY_ROLE_ARGV))
def test_no_check_reads_a_density_above_the_sampled_order(command, tmp_path, monkeypatch):
    """check and transform sample with A's jet at DENSITY_ORDER, so that the checks read it off the sample's memo;
    a check reading a higher order would run A's program on the sample again."""
    assert set(DENSITY_ROLE_ARGV) == {c.command for c in CHECKS}
    asked = []
    density_field = catalog.CatalogEntry.density_field
    monkeypatch.setattr(catalog.CatalogEntry, "density_field", lambda e: _OrderCountingField(density_field(e), asked))
    argvs = DENSITY_ROLE_ARGV[command]
    roles = {argv[k + 1] for argv in argvs for k, a in enumerate(argv) if a in ("--density", "--gen0", "--composite")}
    real = cli.field
    monkeypatch.setattr(cli, "field", lambda src, *a: _OrderCountingField(real(src, *a), asked) if src in roles
                        else real(src, *a))
    for argv in argvs:
        asked.clear()
        code, _ = run(tmp_path, *argv, "--num-points", "3")
        assert code in (0, 1) and asked, argv
        assert max(asked) <= rec.DENSITY_ORDER, (argv, sorted(set(asked)))


@pytest.mark.parametrize("command", ["orbit", "darboux"])
def test_each_density_runs_once_on_the_sample(command, tmp_path, monkeypatch):
    """orbit and darboux sample with each density's jet at DENSITY_ORDER, as check and transform do, so every
    check reads it off the sample's memo: each density's program runs on the sample once, at that order."""
    (argv,) = DENSITY_ROLE_ARGV[command]
    roles = {argv[k + 1] for k, a in enumerate(argv) if a in ("--density", "--gen0", "--composite")}
    runs, samples, real_field = [], [], cli.field

    def counting_field(src, *args):
        f = real_field(src, *args)
        if src in roles:
            fn = f._fn
            f._fn = lambda points, order: runs.append((src, points, order)) or fn(points, order)
        return f

    monkeypatch.setattr(cli, "field", counting_field)
    for name in ("sample_points", "banded_points"):
        sampler = getattr(geo, name)
        monkeypatch.setattr(geo, name, lambda *a, sampler=sampler, **k: samples.append(sampler(*a, **k)) or samples[-1])
    code, _ = run(tmp_path, *argv)
    assert code == 0 and len(samples) == 1 and len(roles) == (2 if command == "orbit" else 1)
    on_sample = sorted((src, order) for src, points, order in runs if points is samples[0])
    assert on_sample == sorted((src, rec.DENSITY_ORDER) for src in roles)


def test_orbit_reports_the_gradings_orbit_compose_built(tmp_path, monkeypatch):
    gradings = _count_calls(monkeypatch, rec, "grading_residual")
    code, report = run(tmp_path, *GOLDEN_CASES["orbit-dim2"][1])
    assert code == 0 and set(report["gradings"]) == {"gen0", "gen1", "composite"}
    assert len(gradings) == 3  # gen0, gen1 and their product, each once


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", *EPS2, "--param", "c"], "--param expects NAME=VALUE, got 'c'"),
        (["check", *EPS2, "--config", "LIST"], "--config file must hold a JSON object"),
        (["check", "--dim", "3", "--velocity", "u1", "--velocity", "u2"], "got 2 velocity fields for dimension 3"),
        (["check", "--builtin", "nope"], "unknown builtin system 'nope'"),
        (["check", "--builtin", "eps-system", "--dim", "2"], "--builtin eps-system needs --dim and --eps"),
        (["check", *EPS2, "--suite", "density"], "the selected suites need --density or --catalog"),
        (["transform", *EPS2], "transform needs --density or --catalog"),
        (["orbit", *EPS2, "--composite", "u1"], "orbit needs --gen0 and --composite"),
        (["orbit", "--builtin", "eps-system", "--dim", "4", "--eps", "1", "--gen0", "u1", "--composite", "u2"],
         "orbit has built-in sample bands only for dimensions [2, 3]"),
        (["darboux", "--frame-builtin", "nope", "--density", "1/(u2-u1)"], "unknown builtin frame 'nope'"),
        (["darboux", "--frame-builtin", "eps2", "--density", "1/(u2-u1)"], "--frame-builtin eps2 needs --eps"),
        (["darboux", "--density", "1/(u2-u1)"], "darboux needs --frame-builtin, or --beta/--lame/--frame-d"),
        (["darboux", "--dim", "2", "--beta", "12:u1", "--lame", "u1", "--lame", "u2", "--frame-d", "1",
          "--density", "1/(u2-u1)"], "--beta expects I,J:SRC, got '12:u1'"),
        (["darboux", "--frame-builtin", "eps2", "--eps", "1"], "darboux needs --density"),
        (["check", *EPS2, "--density", "u1 $ u2"], "unexpected character '$' at offset 3"),
        (["check", *EPS2, "--density", "exp(u1"], "expected ')' at offset 6"),
        (["check", *EPS2, "--density", "u1 u2"], "unexpected trailing input 'u2' at offset 3"),
        (["check", *EPS2, "--density", "exp(u1, u2)"], "exp takes 1 argument(s), got 2 at offset 0"),
        (["check", "--velocity", "u1"], "dimension must be in 2..16, got 1"),
    ],
)
def test_input_errors_exit_two_with_one_line(argv, message, tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[1]")
    out = tmp_path / "r.json"
    argv = [str(listed) if a == "LIST" else a for a in argv]
    assert main(argv + ["--output", str(out)]) == 2
    assert tuple(capsys.readouterr()) == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["check", "--dim", "x"], "argument --dim: invalid int value: 'x'"),
        (["check", "--bogus"], "unrecognized arguments: --bogus"),
        (["nope"], "invalid choice: 'nope'"),
        ([], "the following arguments are required: command"),
        (["check", "--num-points"], "argument --num-points: expected one argument"),
        (["check", "--config", "DIM_X"], "argument --dim: invalid int value: 'x'"),
    ],
)
def test_argparse_errors_exit_two_with_one_line(argv, fragment, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": "x"}))
    assert main([str(cfg) if a == "DIM_X" else a for a in argv]) == 2  # returned, not a SystemExit
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and fragment in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["--check"], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'check', 'transform', 'orbit', 'darboux')"),
        (["-x", "check"], "unrecognized arguments: -x"),
        (["check", "--dimm", "3"], "unrecognized arguments: --dimm 3"),
        (["check", "--num", "3"], "unrecognized arguments: --num 3"),
        (["check", "--config", "CFG"], "--config key 'dimm' is not an option of check"),
        (["transform", "--catalog", "x", "--density", "y"], "argument --density: not allowed with argument --catalog"),
    ],
)
def test_parse_errors_keep_their_text(argv, message, tmp_path, capsys):
    """A command's options are parsed by its own parser, and an argv without a command by the top-level one; the
    texts are those of parsing every argv with the top-level parser."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimm": 3}))
    assert main([str(cfg) if a == "CFG" else a for a in argv]) == 2
    assert tuple(capsys.readouterr()) == ("", f"error: {message}\n")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "-h"])
    assert exc.value.code == 0 and "--config" in capsys.readouterr().out


def test_flags_win_over_config_for_repeatable_options(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"velocity": ["u1", "u2"], "param": ["c=2"], "seed": 7}))
    argv = ["check", "--config", str(cfg), "--velocity", "u2", "--velocity", "u1+u2", "--suite", "sh"]
    code, report = run(tmp_path, *argv, "--num-points", "2")
    assert code == 0 and report["inputs"]["velocities"] == ["u2", "u1+u2"]
    assert report["inputs"]["params"] == {"c": 2.0} and report["seed"] == 7  # not on the command line
    # the one parser of the process keeps its own defaults
    assert build_parser() is build_parser()
    args = build_parser().parse_args(["check"])
    assert args.velocity is None and args.param is None and args.seed == 42


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"eps": 1%s}' % ("0" * 400), "--eps must be a finite number, got inf"),
        ('{"eps": 1, "tol-second": 1%s}' % ("0" * 400), "--tol-second must be a finite number >= 0, got inf"),
    ],
    ids=["eps", "tol-second"],
)
def test_huge_config_integers_exit_two(text, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["check", "--config", str(cfg), "--builtin", "eps-system", "--dim", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


SRC = pathlib.Path(__file__).parents[1] / "src" / "recipfm"


def _python(*argv, text=True):
    """A fresh interpreter that imports recipfm from this checkout's src."""
    src = str(SRC.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=text)


def test_module_entry_point_runs_main(capsys):
    """python -m recipfm.cli exits with main's code and writes main's report, byte for byte."""
    code, argv = GOLDEN_CASES["check-grading-e-fails"]
    assert main(argv) == code
    report = capsys.readouterr().out.encode()
    done = _python("-m", "recipfm.cli", *argv, text=False)
    assert (done.returncode, done.stdout) == (code, report), done.stderr


@pytest.mark.parametrize("module", ["jets", "exprlang", "geometry", "reciprocal", "catalog", "cli"])
def test_each_module_imports_on_its_own(module):
    """The package root imports no module, so none may rely on another being imported first."""
    done = _python("-c", f"import recipfm.{module}")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    """No module imports a name it never reads, so a deletion cannot leave a stale import behind."""
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= read, sorted(imported - read)


@pytest.mark.parametrize("module", [geo, rec], ids=lambda module: module.__name__)
def test_every_points_parameter_takes_a_point_set(module):
    """Every public function and public class method with a points parameter
    evaluates over the caller's PointSet: none accepts a lone Point or a list."""
    public = lambda ns: [v for k, v in vars(ns).items() if not k.startswith("_") and callable(v)]
    owned = [v for v in public(module) if getattr(v, "__module__", None) == module.__name__]
    callables = [f for v in owned for f in ([v] if not inspect.isclass(v) else public(v))]
    annotations = {
        f.__qualname__: inspect.signature(f).parameters["points"].annotation
        for f in callables
        if "points" in inspect.signature(f).parameters
    }
    assert annotations and set(annotations.values()) <= {"PointSet", "PointSet | None"}, annotations


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_private_module_name_is_read(path):
    """No module defines a top-level _name (function, class or assignment) that
    it never reads outside that definition, so no private helper outlives its use."""
    body = ast.parse(path.read_text()).body
    reads = [{n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} for stmt in body]
    unread = []
    for k, stmt in enumerate(body):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        else:
            continue
        read = set().union(*reads[:k], *reads[k + 1 :])
        unread += sorted(name for name in names if name.startswith("_") and not name.startswith("__") and name not in read)
    assert unread == []


def test_module_entry_point():
    def recipfm(*argv):
        return _python("-m", "recipfm.cli", *argv)

    ok = recipfm("check", *EPS2, "--suite", "flatness", "--num-points", "2")
    assert ok.returncode == 0 and json.loads(ok.stdout)["pass"] is True
    bad = recipfm("check", "--dim", "x")
    assert bad.returncode == 2 and bad.stdout == "" and bad.stderr == "error: argument --dim: invalid int value: 'x'\n"


COMMON_OPTIONS = ["--config", "--dim", "--eps", "--num-points", "--output", "--param", "--seed", "--summary"]
ACCEPTED_OPTIONS = {
    "check": COMMON_OPTIONS + ["--builtin", "--catalog", "--density", "--grading-tol", "--suite", "--tol-second",
                               "--velocity"],
    "transform": COMMON_OPTIONS + ["--biflat", "--builtin", "--catalog", "--density", "--grading-tol",
                                   "--tol-second", "--velocity"],
    "orbit": COMMON_OPTIONS + ["--builtin", "--composite", "--gen0", "--velocity"],
    "darboux": COMMON_OPTIONS + ["--beta", "--density", "--frame-builtin", "--frame-d", "--grading-tol", "--lame",
                                 "--tol-second"],
}


def test_each_command_accepts_only_the_options_it_reads():
    """Adding an option to a command is a deliberate change to this table."""
    accepted = {
        name: sorted(flag for action in p._actions if action.dest != "help" for flag in action.option_strings)
        for name, p in build_parser()._recipfm_subparsers.items()
    }
    assert accepted == {name: sorted(flags) for name, flags in ACCEPTED_OPTIONS.items()}
    assert sum(map(len, accepted.values())) == 57


BASE_ARGV = {
    "check": ["check", *EPS2, "--suite", "sh", "--num-points", "2"],
    "transform": ["transform", *EPS2, "--catalog", "dim2-eps1-h0", "--num-points", "2"],
    "orbit": GOLDEN_CASES["orbit-dim2"][1] + ["--num-points", "2"],
    "darboux": GOLDEN_CASES["darboux-eps2"][1] + ["--num-points", "2"],
}
REMOVED_OPTIONS = [(command, "tol-third", "1e-6") for command in BASE_ARGV] + [
    ("orbit", "density", "u1"),
    ("orbit", "catalog", "dim2-eps1-h0"),
    ("orbit", "tol-second", "1e-30"),
    ("orbit", "grading-tol", "1"),
    ("darboux", "builtin", "nope"),
    ("darboux", "velocity", "u1"),
    ("darboux", "catalog", "dim2-eps1-h0"),
]
FRAME_CONFLICT = "--frame-builtin is not allowed with --beta, --lame or --frame-d"
CONFLICTS = [
    ("check", {"density": "u1*u2", "catalog": "dim2-eps1-h0"}, "argument --catalog: not allowed with argument --density"),
    ("transform", {"builtin": "eps-system", "velocity": ["u1"]},
     "argument --velocity: not allowed with argument --builtin"),
    ("darboux", {"beta": ["1,2:u1"]}, FRAME_CONFLICT),
    ("darboux", {"lame": ["u1"]}, FRAME_CONFLICT),
    ("darboux", {"frame-d": "1"}, FRAME_CONFLICT),
    # not a conflict, but rejected alike from either source: eps2 lives on two coordinates
    ("darboux", {"dim": "3"}, "--frame-builtin eps2 is a frame on 2 coordinates, got --dim 3"),
]
REJECTED = [  # (command, options, error as flags, error as --config keys)
    (c, {key: [v] if key == "velocity" else v}, f"unrecognized arguments: --{key}={v}",
     f"--config key {key!r} is not an option of {c}")
    for c, key, v in REMOVED_OPTIONS
] + [(c, options, message, message) for c, options, message in CONFLICTS]


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize(
    "command, options, flag_error, config_error",
    REJECTED,
    ids=[f"{c}-{'-'.join(options)}" for c, options, _, _ in REJECTED],
)
def test_removed_options_and_conflicts_exit_two(source, command, options, flag_error, config_error, tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
    cfg.write_text(json.dumps(options))
    flags = [f"--{key}={v}" for key, value in options.items() for v in (value if isinstance(value, list) else [value])]
    extra = flags if source == "flags" else ["--config", str(cfg)]
    assert main(BASE_ARGV[command] + extra + ["--output", str(out)]) == 2
    assert tuple(capsys.readouterr()) == ("", f"error: {flag_error if source == 'flags' else config_error}\n")
    assert not out.exists()


def test_builtin_frame_takes_dim_two(tmp_path):
    code, report = run(tmp_path, *GOLDEN_CASES["darboux-eps2"][1], "--dim", "2", "--num-points", "2")
    assert code == 0 and report["inputs"]["dim"] == 2


@pytest.mark.parametrize("key, value", [("tol", "1e-30"), ("num", "3"), ("sui", "sh")])
def test_abbreviated_options_exit_two_from_either_source(key, value, tmp_path, capsys):
    """An option is spelled in full on the command line, as a --config key must be."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(BASE_ARGV["check"] + [f"--{key}", value]) == 2
    assert tuple(capsys.readouterr()) == ("", f"error: unrecognized arguments: --{key} {value}\n")
    assert main(BASE_ARGV["check"] + ["--config", str(cfg)]) == 2
    assert tuple(capsys.readouterr()) == ("", f"error: --config key {key!r} is not an option of check\n")


@pytest.mark.parametrize("name", ["u1", "u17", "exp", "hyp2f1", "1x", "a b"])
def test_unreadable_param_names_exit_two(name, capsys):
    assert main(["check", *EPS2, "--suite", "sh", "--num-points", "2", "--param", f"{name}=2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: parameter name {name!r} is ") and err.count("\n") == 1
    with pytest.raises(ValueError, match=f"parameter name {name!r} is "):  # one rule for the CLI and the library
        exprlang.field("u1", 2, {name: 2.0})


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--density", "(" * 200 + "u1*u2" + ")" * 200], "expression nests too deeply at offset "),
        (["--density", "+".join(["u1*u2"] * 1200)], "input nests too deeply to read or evaluate"),
        (["--config", "DEEP"], "input nests too deeply to read or evaluate"),
    ],
    ids=["parentheses", "compilation", "config"],
)
def test_nesting_past_the_recursion_limit_exits_two(argv, message, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    argv = [str(deep) if a == "DEEP" else a for a in argv]
    assert main(["check", *EPS2, "--suite", "grading-e", "--num-points", "3", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1


def test_nesting_within_the_recursion_limit_keeps_its_result(tmp_path):
    argv = ["check", *EPS2, "--suite", "grading-e", "--num-points", "3", "--density"]
    _, bare = run(tmp_path, *argv, "u1*u2")
    code, nested = run(tmp_path, *argv, "(" * 150 + "u1*u2" + ")" * 150)
    assert code == 1 and (nested["points"], nested["checks"]) == (bare["points"], bare["checks"])
    code, summed = run(tmp_path, *argv, "+".join(["u1*u2"] * 400))
    assert code == 1 and summed["checks"]["grading-e"]["max_abs"] == 1.4538998543319521  # pinned value


def test_a_long_sum_evaluates_without_recursion(tmp_path):
    # compiled by a recursive walk but evaluated by a loop: 500 terms evaluate, 1200 exit 2 (above)
    argv = ["check", *EPS2, "--suite", "grading-e", "--num-points", "3", "--density"]
    code, summed = run(tmp_path, *argv, "+".join(["u1*u2"] * 500))
    assert code == 1 and summed["checks"]["grading-e"]["max_abs"] == 1.4538998543319486  # pinned value
