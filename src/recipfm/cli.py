"""Command-line front end: define systems and densities, run residual suites,
apply transformations, and emit machine-readable JSON reports.

Exit codes: 0 all checks passed, 1 a numerical check failed, 2 configuration or
evaluation error.  All randomness flows from --seed and sample points are
recorded in the report, so identical (config, seed) pairs produce byte-identical
reports.  Reports are strict JSON: non-finite numbers are written as the
strings "NaN", "Infinity" and "-Infinity".
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys as _sys
from typing import Sequence

from . import catalog as cat
from . import geometry as geo
from . import reciprocal as rec
from .exprlang import EvalError, ParseError, field
from .geometry import DiagonalSystem, ResidualReport
from .jets import JetError, Point

SCHEMA = "recip-fm/1"

_CONFIG_ERRORS = (
    ParseError,
    EvalError,
    JetError,
    geo.GeometryError,
    rec.ReciprocalError,
    KeyError,
    ValueError,
)

_DEFAULT_BANDS = {
    2: ((-1.8, -0.7), (0.7, 1.8)),
    3: ((-2.0, -1.4), (-1.0, -0.5), (0.5, 1.2)),
}

_SUITES = ("flatness", "dual", "sh", "density", "a-system", "grading-e", "grading-E", "biflat", "all")


class ConfigError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recipfm",
        description="Residual suites for diagonal hydrodynamic systems and their reciprocal transformations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser._recipfm_subparsers = {}  # so --config can reach and check subcommand options

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        parser._recipfm_subparsers[name] = p
        p.add_argument("--config", help="JSON file supplying any of the long options")
        p.add_argument("--builtin", help="built-in system id (eps-system)")
        p.add_argument("--dim", type=int, help="number of components")
        p.add_argument("--eps", type=float, help="parameter of the built-in system")
        p.add_argument("--velocity", action="append", default=None, help="velocity field source (repeat per component)")
        p.add_argument("--density", help="density field source")
        p.add_argument("--catalog", help="catalog entry id for the density")
        p.add_argument("--param", action="append", default=None, metavar="NAME=VALUE", help="expression parameter binding")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--num-points", type=int, default=20)
        p.add_argument("--tol-second", type=float, default=geo.TOL_SECOND, help="tolerance for second-derivative residuals")
        p.add_argument("--tol-third", type=float, default=geo.TOL_THIRD, help="tolerance for third-derivative residuals")
        p.add_argument("--grading-tol", type=float, default=rec.GRADING_TOL)
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.add_argument("--summary", action="store_true", help="also print a one-line human summary")
        return p

    p_check = command("check", "run residual suites on a system (and optional density)")
    p_check.add_argument("--suite", default="all", help=f"comma-separated subset of {', '.join(_SUITES)}")

    p_tr = command("transform", "apply the reciprocal transformation of a density")
    p_tr.add_argument("--biflat", action="store_true", help="also check the dual connection and admissibility")

    p_orbit = command("orbit", "compare two-step against one-step composition")
    p_orbit.add_argument("--gen0", help="first generator source")
    p_orbit.add_argument("--composite", help="composite generator source (second generator = composite / gen0)")

    p_dx = command("darboux", "act on a rotation frame with a density")
    p_dx.add_argument("--frame-builtin", help="built-in frame id (eps2)")
    p_dx.add_argument("--beta", action="append", default=None, metavar="I,J:SRC", help="rotation coefficient field")
    p_dx.add_argument("--lame", action="append", default=None, help="Lame field source (repeat per component)")
    p_dx.add_argument("--frame-d", type=float, help="homogeneity degree of the Lame fields")
    return parser


def _parse_params(items: Sequence[str] | None) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in items or ():
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ConfigError(f"--param expects NAME=VALUE, got {item!r}")
        out[name] = float(value)
        if not math.isfinite(out[name]):
            raise ConfigError(f"--param {name} must be a finite number, got {value!r}")
    return out


def _params(args) -> dict[str, float]:
    """Expression parameters: the --param bindings, plus eps from --eps unless bound there."""
    params = _parse_params(args.param)
    if args.eps is not None:
        params.setdefault("eps", args.eps)
    return params


def _apply_config(argv: Sequence[str], parser: argparse.ArgumentParser) -> argparse.Namespace:
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    pre, _ = probe.parse_known_args(argv[1:] if argv and not argv[0].startswith("-") else argv)
    config: dict = {}
    if pre.config:
        with open(pre.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("--config file must hold a JSON object")
        defaults = {k.replace("-", "_"): v for k, v in config.items()}
        parser.set_defaults(**defaults)
        # subcommand parsing rebuilds the namespace from the subparser's own
        # defaults, so the config has to reach those parsers as well
        for sp in parser._recipfm_subparsers.values():
            sp.set_defaults(**defaults)
    args = parser.parse_args(argv)
    options = {a.dest for a in parser._recipfm_subparsers[args.command]._actions} - {"help"}
    for key in config:
        if key.replace("-", "_") not in options:
            raise ConfigError(f"--config key {key!r} is not an option of {args.command}")
    _validate(args)
    return args


def _validate(args) -> None:
    """Range checks on parsed options, so values from --config are checked too."""
    if not isinstance(args.num_points, int) or args.num_points < 1:
        raise ConfigError(f"--num-points must be an integer >= 1, got {args.num_points!r}")
    for dest in ("eps", "frame_d"):
        value = getattr(args, dest, None)
        if value is not None and not _finite(value):
            raise ConfigError(f"--{dest.replace('_', '-')} must be a finite number, got {value!r}")
    for dest in ("tol_second", "tol_third", "grading_tol"):
        value = getattr(args, dest)
        if not (_finite(value) and value >= 0):
            raise ConfigError(f"--{dest.replace('_', '-')} must be a finite number >= 0, got {value!r}")
    _parse_params(args.param)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _build_system(args) -> DiagonalSystem:
    if args.velocity:
        dim = args.dim if args.dim else len(args.velocity)
        if len(args.velocity) != dim:
            raise ConfigError(f"got {len(args.velocity)} velocity fields for dimension {dim}")
        params = _params(args)
        return DiagonalSystem(tuple(field(src, dim, params) for src in args.velocity))
    builtin = args.builtin or "eps-system"
    if builtin != "eps-system":
        raise ConfigError(f"unknown builtin system {builtin!r}")
    if args.dim is None or args.eps is None:
        raise ConfigError("--builtin eps-system needs --dim and --eps")
    return cat.epsilon_system(args.dim, args.eps)


def _build_density(args, dim: int):
    """Returns (field, sample predicates, label), or (None, (), None) without a density."""
    if args.catalog:
        e = cat.entry(args.catalog)
        if e.dim != dim:
            raise ConfigError(f"catalog entry {e.entry_id} lives in dimension {e.dim}, system has {dim}")
        A = e.density_field()
        return A, e.sample_predicates(A), e.entry_id
    if args.density:
        A = field(args.density, dim, _params(args))
        return A, (rec.density_window(A),), args.density
    return None, (), None


def _check_payload(rep: ResidualReport) -> dict:
    return {"max_abs": rep.max_abs, "tolerance": rep.tolerance, "pass": rep.passed}


def _add_biflat(report: dict, verdict: rec.BiflatVerdict, tolerance: float) -> None:
    report["checks"]["biflat-admissible"] = {"max_abs": verdict.max_abs, "tolerance": tolerance, "pass": verdict.passed}
    report["biflat"] = {"h": verdict.h, "k": verdict.k, "admissible": verdict.passed}


def _report_skeleton(args, points: Sequence[Point]) -> dict:
    inputs = {
        "builtin": args.builtin,
        "dim": args.dim,
        "eps": args.eps,
        "velocities": args.velocity,
        "density": args.density,
        "catalog": args.catalog,
        "params": _parse_params(args.param),
        "num_points": args.num_points,
        "tolerances": {
            "second": args.tol_second,
            "third": args.tol_third,
            "grading": args.grading_tol,
        },
    }
    return {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": inputs,
        "seed": args.seed,
        "points": [list(p.coords) for p in points],
        "checks": {},
    }


def cmd_check(args) -> dict:
    system = _build_system(args)
    A, predicates, label = _build_density(args, system.dim)
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    for s in suites:
        if s not in _SUITES:
            raise ConfigError(f"unknown suite {s!r}; choose from {', '.join(_SUITES)}")
    if "all" in suites:
        # grading-E and biflat stay opt-in: they are conditions on homogeneous
        # generators, not on arbitrary densities
        suites = ["flatness", "dual", "sh"]
        if A is not None:
            suites += ["density", "a-system", "grading-e"]
    needs_density = {"density", "a-system", "grading-e", "grading-E", "biflat"}
    if needs_density & set(suites) and A is None:
        raise ConfigError("the selected suites need --density or --catalog")

    points = geo.sample_points(system.dim, args.num_points, args.seed, predicates=predicates)
    report = _report_skeleton(args, points)
    if label:
        report["inputs"]["density_label"] = label
    checks = report["checks"]

    # built at most once, shared by their own suites and the biflat verdict
    density = functools.cache(lambda: rec.density_residual(system, A, points, args.tol_second))
    grading = functools.cache(lambda field_name: rec.grading_residual(A, field_name, points, args.grading_tol))
    natural = geo.natural_connection(system)
    if "flatness" in suites:
        checks["curvature-natural"] = _check_payload(
            geo.curvature_natural_residual(natural, points, args.tol_second)
        )
        checks["parallel-e"] = _check_payload(geo.identity_parallel_residual(natural, "e", points))
    if "dual" in suites:
        dual = geo.dual_connection(system)
        checks["curvature-dual"] = _check_payload(geo.curvature_full_residual(dual, points, args.tol_second))
        checks["parallel-E"] = _check_payload(geo.identity_parallel_residual(dual, "E", points))
    if "sh" in suites:
        checks["semi-hamiltonian"] = _check_payload(geo.sh_residual(system, points, args.tol_second))
    if "density" in suites:
        checks["density"] = _check_payload(density())
    if "a-system" in suites:
        checks["a-system"] = _check_payload(rec.a_system_residual(system, A, points, args.tol_second))
        checks["theta-system"] = _check_payload(rec.theta_system_residual(system, A, points, args.tol_second))
    if "grading-e" in suites:
        h_est, h_rep = grading("e")
        checks["grading-e"] = _check_payload(h_rep)
        report["grading_e_estimate"] = h_est
    if "grading-E" in suites:
        k_est, k_rep = grading("E")
        checks["grading-E"] = _check_payload(k_rep)
        report["grading_E_estimate"] = k_est
    if "biflat" in suites:
        _add_biflat(report, rec.biflat_verdict(density(), grading("e"), grading("E"), args.grading_tol), args.tol_second)
    return report


def cmd_transform(args) -> dict:
    system = _build_system(args)
    A, predicates, label = _build_density(args, system.dim)
    if A is None:
        raise ConfigError("transform needs --density or --catalog")
    points = geo.sample_points(system.dim, args.num_points, args.seed, predicates=predicates)
    report = _report_skeleton(args, points)
    report["inputs"]["density_label"] = label
    checks = report["checks"]

    gen = rec.ConservationDensity(A)
    result = rec.transform(system, gen, points[0], with_dual=args.biflat, check_generator=False)

    dens = rec.density_residual(system, A, points, args.tol_second)
    checks["generator-density"] = _check_payload(dens)
    e_grading = h_est, h_rep = rec.grading_residual(A, "e", points, args.grading_tol)
    checks["grading-e"] = _check_payload(h_rep)
    checks["transformed-curvature"] = _check_payload(
        geo.curvature_natural_residual(result.natural, points, args.tol_second)
    )
    checks["intrinsic-agreement"] = _check_payload(
        rec.intrinsic_agreement_report(system, A, result, points[:3])
    )
    report["generator"] = {"h": h_est}

    n = system.dim
    at_probe = result.natural.generators(points, 0)[:, :, 0, 0].tolist()  # at points[0]
    gammas = {f"G^{i + 1}_{i + 1}{j + 1}": at_probe[i][j] for i in range(n) for j in range(n) if i != j}
    report["transformed_christoffels"] = {"point": list(points[0].coords), "values": gammas}

    if args.biflat:
        big_e_grading = k_est, k_rep = rec.grading_residual(A, "E", points, args.grading_tol)
        checks["grading-E"] = _check_payload(k_rep)
        checks["transformed-dual-curvature"] = _check_payload(
            geo.curvature_full_residual(result.dual, points, args.tol_second)
        )
        checks["transformed-parallel-E"] = _check_payload(
            geo.identity_parallel_residual(result.dual, "E", points)
        )
        report["generator"]["k"] = k_est
        _add_biflat(report, rec.biflat_verdict(dens, e_grading, big_e_grading, args.grading_tol), args.tol_second)
    return report


def cmd_orbit(args) -> dict:
    system = _build_system(args)
    if not args.gen0 or not args.composite:
        raise ConfigError("orbit needs --gen0 and --composite")
    params = _params(args)
    gen0_field = field(args.gen0, system.dim, params)
    composite_field = field(args.composite, system.dim, params)
    gen1_field = composite_field / gen0_field

    bands = _DEFAULT_BANDS.get(system.dim)
    if bands is None:
        raise ConfigError(f"orbit has built-in sample bands only for dimensions {sorted(_DEFAULT_BANDS)}")
    preds = (rec.density_window(gen0_field), rec.density_window(composite_field))
    points = geo.banded_points(bands, args.num_points, args.seed, predicates=preds)
    base = Point(tuple((lo + hi) / 2.0 for lo, hi in bands))

    report = _report_skeleton(args, points)
    report["inputs"]["gen0"] = args.gen0
    report["inputs"]["composite"] = args.composite
    report["base"] = list(base.coords)

    rep, gradings = rec.orbit_compose(
        system,
        rec.ConservationDensity(gen0_field),
        rec.ConservationDensity(gen1_field),
        points,
        base,
    )
    report["checks"]["orbit-compose"] = _check_payload(rep)
    report["gradings"] = gradings
    return report


def _build_frame(args) -> rec.RotationFrame:
    if args.frame_builtin:
        if args.frame_builtin != "eps2":
            raise ConfigError(f"unknown builtin frame {args.frame_builtin!r}")
        if args.eps is None:
            raise ConfigError("--frame-builtin eps2 needs --eps")
        return cat.epsilon_frame_n2(args.eps)
    if not args.beta or not args.lame or args.frame_d is None:
        raise ConfigError("darboux needs --frame-builtin, or --beta/--lame/--frame-d")
    dim = args.dim if args.dim else len(args.lame)
    if len(args.lame) != dim:
        raise ConfigError(f"got {len(args.lame)} Lame fields for dimension {dim}")
    params = _params(args)
    beta = {}
    for item in args.beta:
        head, sep, src = item.partition(":")
        try:
            i, j = (int(x) - 1 for x in head.split(",")) if sep else ()  # a ValueError unless "I,J"
        except ValueError:
            raise ConfigError(f"--beta expects I,J:SRC, got {item!r}") from None
        beta[(i, j)] = field(src, dim, params)
    lame = tuple(field(src, dim, params) for src in args.lame)
    return rec.RotationFrame(dim, beta, lame, args.frame_d)


def cmd_darboux(args) -> dict:
    frame = _build_frame(args)
    if not args.density:
        raise ConfigError("darboux needs --density")
    A = field(args.density, frame.dim, _params(args))
    points = geo.sample_points(
        frame.dim, args.num_points, args.seed, predicates=(rec.density_window(A),)
    )
    report = _report_skeleton(args, points)
    checks = report["checks"]

    before = rec.darboux_residual(frame, points, args.tol_second)
    checks["frame-before"] = _check_payload(before)
    gen = rec.ConservationDensity(A)
    new_frame = rec.darboux_transform(frame, gen, points, tolerance=args.tol_second, grading_tol=args.grading_tol)
    checks["frame-after"] = _check_payload(rec.darboux_residual(new_frame, points, args.tol_second))

    expected = rec.transformed_off_diagonal(rec.frame_connection(frame), A)
    image = rec.frame_connection(new_frame).generators(points, 0)[:, :, 0]
    pairs = itertools.permutations(range(frame.dim), 2)
    entries = geo.entries_by_point(points, {(i, j): image[i, j] - expected(i, j, points, 0).value for i, j in pairs})
    checks["christoffel-shift"] = _check_payload(ResidualReport.build("christoffel-shift", entries, 1e-10))

    report["degree_before"] = frame.degree
    report["degree_after"] = new_frame.degree
    return report


_COMMANDS = {
    "check": cmd_check,
    "transform": cmd_transform,
    "orbit": cmd_orbit,
    "darboux": cmd_darboux,
}


def _strict(x):
    """x with every non-finite float spelled "NaN", "Infinity" or "-Infinity",
    so the report is strict JSON."""
    if isinstance(x, float) and not math.isfinite(x):
        return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    return x


def _severity(max_abs: float) -> tuple[bool, float]:
    """Summary ranking of a check: NaN above everything, then by size."""
    return (True, 0.0) if max_abs != max_abs else (False, max_abs)


def _emit(report: dict, args) -> None:
    text = json.dumps(_strict(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.summary:
        checks = report["checks"]
        worst = max(checks, key=lambda name: _severity(checks[name]["max_abs"]), default=None)
        status = "PASS" if report["pass"] else "FAIL"
        line = f"{status} {report['command']}: {len(checks)} checks"
        if worst is not None:
            line += f", worst {worst} max_abs={checks[worst]['max_abs']:.3e}"
        print(line)
    if not args.output:
        _sys.stdout.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(list(argv) if argv is not None else _sys.argv[1:], parser)
        report = _COMMANDS[args.command](args)
        report["pass"] = all(c["pass"] for c in report["checks"].values())
        _emit(report, args)
    except (*_CONFIG_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
