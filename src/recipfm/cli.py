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
import contextlib
import functools
import json
import math
import sys as _sys
from json.encoder import encode_basestring_ascii as _encode_str
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple, Sequence

from . import catalog as cat
from . import geometry as geo
from . import jets
from . import reciprocal as rec
from .exprlang import ScalarField, check_bindings, field
from .geometry import DiagonalSystem, ResidualReport
from .jets import Point, PointSet

SCHEMA = "recip-fm/1"

_DEFAULT_BANDS = {
    2: ((-1.8, -0.7), (0.7, 1.8)),
    3: ((-2.0, -1.4), (-1.0, -0.5), (0.5, 1.2)),
}


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises each parse error as a ConfigError, for main's one-line report (exit_on_error=False would not)."""

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, whose commands take only the options they read; parsing never changes it."""
    parser = _Parser(
        prog="recipfm",
        description="Residual suites for diagonal hydrodynamic systems and their reciprocal transformations",
        allow_abbrev=False,  # an option is spelled in full, as a --config key must be
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser._recipfm_subparsers = {}  # so --config can reach and check subcommand options

    def command(name: str, help: str, *, system=True, density=True, tolerances=True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        parser._recipfm_subparsers[name] = p
        p.add_argument("--config", help="JSON file supplying any of the long options")
        if system:  # a built-in system or explicit velocities, not both
            source = p.add_mutually_exclusive_group()
            source.add_argument("--builtin", help="built-in system id (eps-system)")
            source.add_argument("--velocity", action="append", default=None, help="velocity field source (repeat per component)")
        p.add_argument("--dim", type=int, help="number of components")
        p.add_argument("--eps", type=float, help="parameter of the built-in system or frame")
        if density:  # an expression or a catalog entry, not both
            source = p.add_mutually_exclusive_group()
            source.add_argument("--density", help="density field source")
            source.add_argument("--catalog", help="catalog entry id for the density")
        p.add_argument("--param", action="append", default=None, metavar="NAME=VALUE", help="expression parameter binding")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--num-points", type=int, default=20)
        if tolerances:
            p.add_argument("--tol-second", type=float, default=geo.TOL_SECOND, help="tolerance for second-derivative residuals")
            p.add_argument("--grading-tol", type=float, default=rec.GRADING_TOL)
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.add_argument("--summary", action="store_true", help="also print a one-line human summary")
        return p

    p_check = command("check", "run residual suites on a system (and optional density)")
    p_check.add_argument("--suite", default="all", help=f"comma-separated subset of {', '.join(_SUITES)}")

    p_tr = command("transform", "apply the reciprocal transformation of a density")
    p_tr.add_argument("--biflat", action="store_true", help="also check the dual connection and admissibility")

    p_orbit = command("orbit", "compare two-step against one-step composition", density=False, tolerances=False)
    p_orbit.add_argument("--gen0", help="first generator source")
    p_orbit.add_argument("--composite", help="composite generator source (second generator = composite / gen0)")

    p_dx = command("darboux", "act on a rotation frame with a density", system=False, density=False)
    p_dx.add_argument("--density", help="density field source")
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
        try:
            out[name] = float(value)
        except ValueError:
            out[name] = math.nan  # not a number: reported as a non-finite one is
        if not math.isfinite(out[name]):
            raise ConfigError(f"--param {name} must be a finite number, got {value!r}")
    check_bindings(out)
    return out


def _params(args) -> dict[str, float]:
    """Expression parameters: the --param bindings, plus eps from --eps unless bound there."""
    params = _parse_params(args.param)
    if args.eps is not None:
        params.setdefault("eps", args.eps)
    return params


def _config_flags(args) -> Iterator[str]:
    """The --config object as flag text, to go before the command line's flags so that those win.  Each key names
    an option of the command and has its JSON type: a switch a bool (true gives the bare flag), a repeatable option
    a list of strings (dropped if on the command line), an integer or number option a number or its flag's text,
    others a string."""
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ConfigError("--config file must hold a JSON object")
    command = build_parser()._recipfm_subparsers[args.command]
    actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}  # a file names no other file
    for key, value in config.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"--config key {key!r} is not an option of {args.command}")
        flag = action.option_strings[0]
        if action.nargs == 0:
            ok, what, items = type(value) is bool, "true or false", [flag] * (value is True)
        elif isinstance(action, argparse._AppendAction):
            ok, what = type(value) is list and all(type(v) is str for v in value), "a list of strings"
            items = [f"{flag}={v}" for v in value] if ok and getattr(args, action.dest) is None else []
        else:  # type(True) is bool, so a bool is never a number here
            types = {int: (int, str), float: (int, float, str)}.get(action.type, (str,))
            ok, what = type(value) in types, {int: "an integer", float: "a number"}.get(action.type, "a string")
            items = [f"{flag}={value}"]
        if not ok:
            raise ConfigError(f"--config key {key!r} takes {what}, got {json.dumps(value)}")
        yield from items


def _validate(args) -> None:
    """Range checks on parsed options, so values from --config are checked too."""
    if args.num_points < 1:
        raise ConfigError(f"--num-points must be an integer >= 1, got {args.num_points!r}")
    for dest in ("eps", "frame_d"):
        value = getattr(args, dest, None)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{dest.replace('_', '-')} must be a finite number, got {value!r}")
    for dest in ("tol_second", "grading_tol"):
        value = getattr(args, dest, None)  # orbit takes no tolerance
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"--{dest.replace('_', '-')} must be a finite number >= 0, got {value!r}")
    _parse_params(args.param)


def _build_system(args) -> DiagonalSystem:
    if args.velocity:
        dim = args.dim if args.dim else len(args.velocity)
        if len(args.velocity) != dim:
            raise ConfigError(f"got {len(args.velocity)} velocity fields for dimension {dim}")
        params = _params(args)
        return DiagonalSystem.of_fields(field(src, dim, params) for src in args.velocity)
    builtin = args.builtin or "eps-system"
    if builtin != "eps-system":
        raise ConfigError(f"unknown builtin system {builtin!r}")
    if args.dim is None or args.eps is None:
        raise ConfigError("--builtin eps-system needs --dim and --eps")
    return cat.epsilon_system(args.dim, args.eps)


def _build_density(args, dim: int):
    """Returns (field, predicates, label), predicates(order) being the sample predicates whose density window takes
    A's jet at that order; without a density, (None, predicates giving (), None)."""
    if args.catalog:
        e = cat.entry(args.catalog)
        if e.dim != dim:
            raise ConfigError(f"catalog entry {e.entry_id} lives in dimension {e.dim}, system has {dim}")
        return e.density_field(), e.sample_predicates, e.entry_id
    if args.density:
        A = field(args.density, dim, _params(args))
        return A, lambda order: (rec.density_window(A, order),), args.density
    return None, lambda order: (), None


def _report_skeleton(args, points: PointSet) -> dict:
    given = vars(args)  # a command without an option records its default
    return {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": {
            "builtin": given.get("builtin"),
            "dim": args.dim,
            "eps": args.eps,
            "velocities": given.get("velocity"),
            "density": given.get("density"),
            "catalog": given.get("catalog"),
            "params": _parse_params(args.param),
            "num_points": args.num_points,
            "tolerances": {
                "second": given.get("tol_second", geo.TOL_SECOND),
                "third": geo.TOL_THIRD,
                "grading": given.get("grading_tol", rec.GRADING_TOL),
            },
        },
        "seed": args.seed,
        "points": [list(p.coords) for p in points],
        "checks": {},  # _run writes each check's payload here, in registry order
    }


def _estimated(s: SimpleNamespace, field_name: str, into: dict, key: str) -> ResidualReport:
    into[key], rep = s.grading(field_name)  # the estimate goes beside its check
    return rep


def _biflat(s: SimpleNamespace) -> rec.BiflatVerdict:
    verdict = rec.biflat_verdict(s.density(), s.grading("e"), s.grading("E"), s.args.grading_tol)
    s.report["biflat"] = {"h": verdict.h, "k": verdict.k, "admissible": verdict.passed}
    return verdict


def _christoffel_shift(s: SimpleNamespace) -> ResidualReport:
    """The image frame's symbols against the shift rule applied to the frame's."""
    expected = rec.transformed_off_diagonal(s.frame, s.A)(s.points, 0)[:, :, 0]
    image = s.image().generators(s.points, 0)[:, :, 0]
    i, j = geo.off_pairs(s.frame.dim)
    block = s.points, geo.pair_labels(s.frame.dim), image[i, j] - expected[i, j]
    return ResidualReport.of("christoffel-shift", 1e-10, block)


class Check(NamedTuple):
    """A row of the check registry, CHECKS."""

    command: str
    gate: str | None  # the check suite that selects the check, transform's "--biflat", or None: always run
    name: str
    build: Callable[[SimpleNamespace], ResidualReport | rec.BiflatVerdict]  # from the call's state
    density: bool = False  # its check suite needs --density or --catalog
    opt_in: bool = False  # its check suite is named beside `all`, not run by it


# Every check, in the order its command evaluates them, so the same error fires first.  grading-E and biflat are
# opt-in: conditions on homogeneous generators, not on arbitrary densities.  The paper's equivalent formulations
# (the A-system and its theta form; intrinsic agreement beside the transformed curvature) stay separate rows.
CHECKS = (
    Check("check", "flatness", "curvature-natural", lambda s: geo.curvature_natural_residual(s.natural, s.points, s.tol)),
    Check("check", "flatness", "parallel-e", lambda s: geo.identity_parallel_residual(s.natural, "e", s.points)),
    Check("check", "dual", "curvature-dual", lambda s: geo.curvature_full_residual(s.dual, s.points, s.tol)),
    Check("check", "dual", "parallel-E", lambda s: geo.identity_parallel_residual(s.dual, "E", s.points)),
    Check("check", "sh", "semi-hamiltonian", lambda s: geo.sh_residual(s.system, s.points, s.tol)),
    Check("check", "density", "density", lambda s: s.density(), density=True),
    Check("check", "a-system", "a-system", lambda s: rec.a_system_residual(s.system, s.A, s.points, s.tol), density=True),
    Check("check", "a-system", "theta-system",
          lambda s: rec.theta_system_residual(s.system, s.A, s.points, s.tol), density=True),
    Check("check", "grading-e", "grading-e", lambda s: _estimated(s, "e", s.report, "grading_e_estimate"), density=True),
    Check("check", "grading-E", "grading-E",
          lambda s: _estimated(s, "E", s.report, "grading_E_estimate"), density=True, opt_in=True),
    Check("check", "biflat", "biflat-admissible", _biflat, density=True, opt_in=True),
    Check("transform", None, "generator-density", lambda s: s.density()),
    Check("transform", None, "grading-e", lambda s: _estimated(s, "e", s.report["generator"], "h")),
    Check("transform", None, "transformed-curvature",
          lambda s: geo.curvature_natural_residual(s.image.natural, s.points, s.tol)),
    Check("transform", None, "intrinsic-agreement",
          lambda s: rec.intrinsic_agreement_report(s.system, s.A, s.image, s.points, first=3)),
    Check("transform", "--biflat", "grading-E", lambda s: _estimated(s, "E", s.report["generator"], "k")),
    Check("transform", "--biflat", "transformed-dual-curvature",
          lambda s: geo.curvature_full_residual(s.image.dual, s.points, s.tol)),
    Check("transform", "--biflat", "transformed-parallel-E",
          lambda s: geo.identity_parallel_residual(s.image.dual, "E", s.points)),
    Check("transform", "--biflat", "biflat-admissible", _biflat),
    Check("orbit", None, "orbit-compose", lambda s: s.compose()[0]),
    Check("darboux", None, "frame-before", lambda s: rec.darboux_residual(s.frame, s.points, s.tol)),
    Check("darboux", None, "frame-after", lambda s: rec.darboux_residual(s.image(), s.points, s.tol)),
    Check("darboux", None, "christoffel-shift", _christoffel_shift),
)
_SUITES = (*dict.fromkeys(c.gate for c in CHECKS if c.command == "check"), "all")


def _run(s: SimpleNamespace, gates: Sequence[str | None]) -> dict:
    """s.report with the payload of each check of the call's command whose gate is in gates, built from s in
    registry order.  A value several checks share is built once, by a closure over the command's locals, never
    over s: so a failed call leaves no reference cycle, and nothing outlives the call."""
    for c in CHECKS:
        if c.command == s.args.command and c.gate in gates:
            check = c.build(s)  # the one place a check becomes its payload
            s.report["checks"][c.name] = {"max_abs": check.max_abs, "tolerance": check.tolerance, "pass": check.passed}
    return s.report


def _density_state(args, system: DiagonalSystem, A, predicates, label) -> SimpleNamespace:
    """check's and transform's state, with the one density report and the gradings."""
    points = geo.sample_points(system.dim, args.num_points, args.seed, predicates=predicates)
    report = _report_skeleton(args, points)
    if label:
        report["inputs"]["density_label"] = label
    return SimpleNamespace(
        args=args, system=system, A=A, points=points, tol=args.tol_second, report=report,
        natural=geo.natural_connection(system), dual=geo.dual_connection(system),
        density=functools.cache(lambda: rec.density_residual(system, A, points, args.tol_second)),
        grading=functools.cache(lambda field_name: rec.grading_residual(A, field_name, points, args.grading_tol)),
    )


def cmd_check(args) -> dict:
    system = _build_system(args)
    A, predicates, label = _build_density(args, system.dim)
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    if not suites:
        raise ConfigError(f"--suite names no suite; choose from {', '.join(_SUITES)}")
    for s in suites:
        if s not in _SUITES:
            raise ConfigError(f"unknown suite {s!r}; choose from {', '.join(_SUITES)}")
    if "all" in suites:
        suites += [c.gate for c in CHECKS if c.command == "check" and not c.opt_in and (A is not None or not c.density)]
    reads_density = any(c.density and c.gate in suites for c in CHECKS)
    if A is None and reads_density:
        raise ConfigError("the selected suites need --density or --catalog")
    order = rec.DENSITY_ORDER if reads_density else 0  # the sample is the set the checks read A's jet over
    return _run(_density_state(args, system, A, predicates(order), label), suites)


def cmd_transform(args) -> dict:
    system = _build_system(args)
    A, predicates, label = _build_density(args, system.dim)
    if A is None:
        raise ConfigError("transform needs --density or --catalog")
    s = _density_state(args, system, A, predicates(rec.DENSITY_ORDER), label)
    s.image = rec.transform(system, rec.ConservationDensity(A), s.points[0], with_dual=args.biflat, check_generator=False)
    with contextlib.suppress(ValueError, ArithmeticError):  # the checks meet their first failure themselves
        for table in filter(None, (s.image.natural, s.image.dual)):  # order 1 first: the checks read order 0 off it
            table.christoffels(s.points, 1)
    s.report["generator"] = {}  # h, and k with --biflat, from the grading checks
    report = _run(s, (None, "--biflat") if args.biflat else (None,))

    at_probe = s.image.natural.generators(s.points, 0)[:, :, 0, 0]  # at points[0]
    gammas = {f"G^{i + 1}_{i + 1}{j + 1}": float(at_probe[i, j]) for i, j in geo.pair_labels(system.dim)}
    report["transformed_christoffels"] = {"point": list(s.points[0].coords), "values": gammas}
    return report


def cmd_orbit(args) -> dict:
    system = _build_system(args)
    if not args.gen0 or not args.composite:
        raise ConfigError("orbit needs --gen0 and --composite")
    params = _params(args)
    gen0_field = field(args.gen0, system.dim, params)
    composite_field = field(args.composite, system.dim, params)
    quotient = lambda p, order: jets.div(composite_field.jet(p, order), gen0_field.jet(p, order))  # composite's jet first
    gen1_field = ScalarField(system.dim, quotient)

    bands = _DEFAULT_BANDS.get(system.dim)
    if bands is None:
        raise ConfigError(f"orbit has built-in sample bands only for dimensions {sorted(_DEFAULT_BANDS)}")
    preds = tuple(rec.density_window(f, rec.DENSITY_ORDER) for f in (gen0_field, composite_field))
    points = geo.banded_points(bands, args.num_points, args.seed, predicates=preds)
    base = Point(tuple((lo + hi) / 2.0 for lo, hi in bands))
    compose = functools.cache(lambda: rec.orbit_compose(
        system, rec.ConservationDensity(gen0_field), rec.ConservationDensity(gen1_field), points, base))

    report = _run(SimpleNamespace(args=args, compose=compose, report=_report_skeleton(args, points)), (None,))
    report["inputs"].update(gen0=args.gen0, composite=args.composite)
    report["base"] = list(base.coords)
    report["gradings"] = compose()[1]
    return report


def _build_frame(args) -> rec.RotationFrame:
    if args.frame_builtin:
        if args.beta or args.lame or args.frame_d is not None:
            raise ConfigError("--frame-builtin is not allowed with --beta, --lame or --frame-d")
        if args.frame_builtin != "eps2":
            raise ConfigError(f"unknown builtin frame {args.frame_builtin!r}")
        if args.eps is None:
            raise ConfigError("--frame-builtin eps2 needs --eps")
        if args.dim not in (None, 2):
            raise ConfigError(f"--frame-builtin eps2 is a frame on 2 coordinates, got --dim {args.dim}")
        return cat.epsilon_frame_n2(args.eps)
    if not args.beta or not args.lame or args.frame_d is None:
        raise ConfigError("darboux needs --frame-builtin, or --beta/--lame/--frame-d")
    dim = args.dim if args.dim else len(args.lame)  # RotationFrame.of_fields checks the counts
    params = _params(args)
    beta = {}
    for item in args.beta:
        head, sep, src = item.partition(":")
        try:
            i, j = (int(x) - 1 for x in head.split(",")) if sep else ()  # a ValueError unless "I,J"
        except ValueError:
            raise ConfigError(f"--beta expects I,J:SRC, got {item!r}") from None
        if (i, j) in beta:
            raise ConfigError(f"--beta {i + 1},{j + 1} is given twice")
        beta[(i, j)] = field(src, dim, params)
    lame = tuple(field(src, dim, params) for src in args.lame)
    return rec.RotationFrame.of_fields(dim, beta, lame, args.frame_d)


def cmd_darboux(args) -> dict:
    frame = _build_frame(args)
    if not args.density:
        raise ConfigError("darboux needs --density")
    A = field(args.density, frame.dim, _params(args))
    window = rec.density_window(A, rec.DENSITY_ORDER)
    points = geo.sample_points(frame.dim, args.num_points, args.seed, predicates=(window,))
    image = functools.cache(lambda: rec.darboux_transform(
        frame, rec.ConservationDensity(A), points, tolerance=args.tol_second, grading_tol=args.grading_tol))
    report = _run(SimpleNamespace(args=args, frame=frame, A=A, points=points, tol=args.tol_second, image=image,
                                  report=_report_skeleton(args, points)), (None,))
    report.update(degree_before=frame.degree, degree_after=image().degree)
    return report


_COMMANDS = {c.command: globals()[f"cmd_{c.command}"] for c in CHECKS}  # each registry command's cmd_ function


_SPELLED = {None: "null", True: "true", False: "false", math.inf: '"Infinity"', -math.inf: '"-Infinity"'}


def _write(x, out: list, indent: str) -> list:
    """Append to out, and return it, the text of json.dumps(x, sort_keys=True, indent=2) with every non-finite
    float spelled "NaN", "Infinity" or "-Infinity", in one pass; indent is a newline and the spaces of x's level.
    A call writes one container, each leaf inline where the loop over its entries meets it; a lone leaf is
    written as the one entry of no container.  A bool is told from an int, and the leaves from the containers,
    as json tells them; one json cannot write, or a key that is not a str, raises TypeError."""
    inner, keyed = indent + "  ", isinstance(x, dict)
    if keyed:
        entries, brackets = sorted(x.items()), "{}"
    elif isinstance(x, (list, tuple)):
        entries, brackets = x, "[]"
    else:
        entries, brackets, inner = (x,), "", ""
    if not entries:
        out.append(brackets)
        return out
    sep = brackets[:1]
    for value in entries:
        if keyed:
            key, value = value
            out += (sep, inner, _encode_str(key), ": ")
        else:
            out += (sep, inner)
        if isinstance(value, float):  # the most common leaf first: no object is two of float, int and str
            out.append(float.__repr__(value) if math.isfinite(value) else _SPELLED.get(value, '"NaN"'))
        elif isinstance(value, str):
            out.append(_encode_str(value))
        elif value is None or value is True or value is False:
            out.append(_SPELLED[value])
        elif isinstance(value, int):
            out.append(int.__repr__(value))
        elif isinstance(value, (list, tuple, dict)):
            _write(value, out, inner)
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        sep = ","
    if brackets:
        out += (indent, brackets[1])
    return out


def _emit(report: dict, args) -> None:
    text = "".join(_write(report, [], "\n")) + "\n"
    with open(args.output, "w", encoding="utf-8") if args.output else contextlib.nullcontext(_sys.stdout) as fh:
        fh.write(text)
    if args.summary:  # beside a report on stdout it goes to stderr, so that stdout stays one JSON document
        checks = report["checks"]
        # the worst check: NaN above everything, then by size, and the first in registry order of those tied
        worst = max(checks, key=lambda name: (math.isnan(checks[name]["max_abs"]), checks[name]["max_abs"]))
        status = "PASS" if report["pass"] else "FAIL"
        print(f"{status} {report['command']}: {len(checks)} checks, worst {worst} max_abs={checks[worst]['max_abs']:.3e}",
              file=_sys.stdout if args.output else _sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """Runs the command argv names and returns the exit code.  The options after the command are parsed by that
    command's own parser, and parsed again with the --config object's flags before them; an argv that does not
    start with a command (none, an unknown word, -h) goes to the top-level parser, which says what is wrong."""
    argv = list(argv) if argv is not None else _sys.argv[1:]
    commands = build_parser()._recipfm_subparsers
    try:
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args = build_parser().parse_args(argv)
        if args.config:  # its object is read as flags placed before the command line's own
            flags = [*_config_flags(args), *argv[1:]]
            args = commands[args.command].parse_args(flags, argparse.Namespace(command=args.command))
        _validate(args)
        report = _COMMANDS[args.command](args)
        report["pass"] = all(c["pass"] for c in report["checks"].values())
        _emit(report, args)
    except (ValueError, OSError, RecursionError) as exc:  # every recipfm error is a ValueError
        # keep only the text: a local holding exc would cycle through its traceback back to this frame
        why = "input nests too deeply to read or evaluate" if isinstance(exc, RecursionError) else str(exc)
        print(f"error: {why}", file=_sys.stderr)
        return 2
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
