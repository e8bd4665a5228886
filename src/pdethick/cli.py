"""Command-line front end.

Subcommands:

  analytic   print the closed-form solution record for a shape
  solve      run the matching discrete solver and write field CSVs
  sweep      sweep the diffusion parameter, write a JSON/CSV report; exit 1 on any failed bound
  oracle     brute-force inscribed-ball thickness, write CSV
  verify     run the verification suite; exit 1 on any failed bound

Exit codes: 0 success, 1 verification failure, 2 configuration error.
Outputs carry no timestamps, so identical flags give byte-identical files.
``--config FILE`` reads more flags from a JSON object: each key is a flag
name (``_`` may stand for ``-``), ``true`` gives a bare flag, and a string or
a number its value.  argparse parses them ahead of the command line's flags,
so a command-line flag wins and a key is accepted exactly where its flag is.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional, Sequence

from . import analytic, geometry, harness, solver, thickness
from .errors import PdeThickError
from .shapes import Family, PeriodicBoundary, ShapeSpec

_FAMILIES = [f.value for f in Family]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2


class _CliError(Exception):
    """Configuration problem; printed as a single diagnostic, exit 2."""


def _positive_int(text: str) -> int:
    """The ``--cells`` type: a whole number of at least 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdethick",
        description="PDE-based shape thickness: closed forms, FEM solves and bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape_flags(p):
        p.add_argument("--family", required=False, choices=_FAMILIES)
        p.add_argument("--fl", type=float, help="left interface / inner radius")
        p.add_argument("--fr", type=float, help="right interface / outer radius")
        p.add_argument("--bl", type=float, help="lower fictitious boundary (mean level for bands)")
        p.add_argument("--br", type=float, help="upper fictitious boundary (mean level for bands; inscribed radius for annulus-general)")
        p.add_argument("--bl-cos-amp", type=float, default=0.0, help="first-harmonic cosine amplitude of the lower band boundary")
        p.add_argument("--br-cos-amp", type=float, default=0.0, help="first-harmonic cosine amplitude of the upper band boundary")
        p.add_argument("--L", type=float, help="band period")
        p.add_argument("--config", help="JSON file of flags; command-line flags win")

    p_analytic = sub.add_parser("analytic", help="closed-form solution record", allow_abbrev=False)
    add_shape_flags(p_analytic)
    p_analytic.add_argument("--a", type=float)
    p_analytic.add_argument("--pretty", action="store_true")

    p_solve = sub.add_parser("solve", help="discrete solve, fields to CSV", allow_abbrev=False)
    add_shape_flags(p_solve)
    p_solve.add_argument("--a", type=float)
    p_solve.add_argument("--cells", type=_positive_int, help="cells across the shape thickness")
    p_solve.add_argument("--out", help="nodal field CSV path")
    p_solve.add_argument("--thickness-out", help="optional inverse-thickness CSV path")
    p_solve.add_argument("--matrix-out", help="optional triplet dump of the assembled matrix")

    p_sweep = sub.add_parser("sweep", help="diffusion-parameter sweep", allow_abbrev=False)
    add_shape_flags(p_sweep)
    p_sweep.add_argument("--a-list", help="comma-separated a values (>= 4, spanning >= 2 decades)")
    p_sweep.add_argument("--json", dest="json_path")
    p_sweep.add_argument("--csv", dest="csv_path")

    p_oracle = sub.add_parser("oracle", help="inscribed-ball geometric thickness", allow_abbrev=False)
    add_shape_flags(p_oracle)
    p_oracle.add_argument("--cells", type=_positive_int, help="cells across the shape thickness")
    p_oracle.add_argument("--out", help="thickness CSV path")

    p_verify = sub.add_parser("verify", help="run the verification suite", allow_abbrev=False)
    p_verify.add_argument("--suite", default="default", choices=sorted(harness.SUITES))
    p_verify.add_argument("--json", dest="json_path")
    p_verify.add_argument("--csv", dest="csv_path")
    p_verify.add_argument("--pretty", action="store_true")
    p_verify.add_argument("--config", help="JSON file of flags; command-line flags win")
    return parser


def _config_flags(path: str) -> list:
    """The flags a ``--config`` file stands for, in the file's order."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise _CliError(f"config {path} must hold a JSON object")
    flags = []
    for key, value in data.items():
        if not key or key.startswith("-"):
            raise _CliError(f"config {path}: key {key!r} is not a flag name")
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            flags.append(f"{flag}={value}")
        else:
            raise _CliError(f"config {path}: {flag} must be true, a string or a number")
    return flags


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise _CliError(f"missing required parameter --{name}")


def _shape_from_args(args: argparse.Namespace) -> ShapeSpec:
    """The shape of the flags; ``ShapeSpec`` refuses a missing or stray field."""
    _require(args, "family", "fl", "fr")
    family = Family(args.family)
    # a cosine term off band-general, which no ShapeSpec field can see
    amps = [f"--{side}-cos-amp" for side in ("bl", "br") if getattr(args, f"{side}_cos_amp")]
    if amps and family != Family.BAND_GENERAL:
        raise _CliError(f"{family.value} takes no {', '.join(amps)}")
    # a band boundary with a cosine term is its mean level plus a first harmonic;
    # without the mean or --L, ShapeSpec refuses the shape
    fields = {"b_l": args.bl, "b_r": args.br}
    for side, amp in (("b_l", args.bl_cos_amp), ("b_r", args.br_cos_amp)):
        if amp and fields[side] is not None and args.L is not None:
            fields[side] = PeriodicBoundary(period=args.L, mean=fields[side], cosine_coeffs=(amp,))
    return ShapeSpec(family, args.fl, args.fr, L=args.L, **fields)


def _solution_dict(sol: analytic.AnalyticSolution) -> dict:
    return {
        "family": sol.shape.family.value,
        "f_l": sol.shape.f_l,
        "f_r": sol.shape.f_r,
        "a": sol.a,
        "p_star": sol.p_star,
        "thickness_pde": sol.thickness_pde,
        "thickness_geometric": sol.shape.thickness,
        "thickness_error": sol.thickness_error,
        "lower_bound": sol.lower_bound,
        "upper_bound": sol.upper_bound,
        "coefficients": dict(sol.coefficients),
    }


def _cmd_analytic(args: argparse.Namespace) -> int:
    shape = _shape_from_args(args)
    _require(args, "a")
    if shape.family in analytic.L2_ENVELOPES:
        bound = analytic.general_bound(shape, args.a)
        record = {
            "family": shape.family.value,
            "a": args.a,
            "thickness_geometric": shape.thickness,
            "l2_envelope": bound,
        }
        if args.pretty:
            print(f"{shape.family.value}: T_bar = {shape.thickness:g}, L2 envelope = {bound:.6g}")
        else:
            print(harness.dumps_json(record))
        return EXIT_OK
    sol = analytic.solve_family(shape, args.a)
    if args.pretty:
        print(
            f"{shape.family.value}: T_bar = {shape.thickness:g}, "
            f"T^a = {sol.thickness_pde:.12g}, p* = {sol.p_star:.12g}, "
            f"T^a - T_bar in [{sol.lower_bound:.6g}, {sol.upper_bound:.6g}]"
        )
    else:
        print(harness.dumps_json(_solution_dict(sol)))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    shape = _shape_from_args(args)
    _require(args, "a", "cells", "out")
    grid = solver.problem_grid(shape, args.a, shape.thickness / args.cells)
    system = solver.assemble(grid, shape, args.a)
    field = solver.solve_spd(system)
    if args.matrix_out:
        solver.dump_triplets(system, args.matrix_out)
    # the system's tables and any hierarchy go before the writers; the thickness needs the labels alone
    classification = system.classification
    del system
    solver.write_field_csv(field, args.out)
    if args.thickness_out:
        # each stage frees what the next no longer reads, so the writer holds none of the field
        div = thickness.divergence(field)
        del field
        inv = thickness.inverse_thickness(div, args.a, classification)
        del div
        thickness.write_inverse_thickness_csv(inv, args.thickness_out, shape.thickness)
    return EXIT_OK


def _write_report(args: argparse.Namespace, report, csv_text: Callable[[], str], stdout: bool = True) -> int:
    """Write ``--json`` and ``--csv``, else print the JSON if ``stdout``; exit 1 if the report failed."""
    if args.json_path:
        harness.write_report_json(report, args.json_path)
    if args.csv_path:
        with open(args.csv_path, "w") as handle:
            handle.write(csv_text())
    if stdout and not args.json_path and not args.csv_path:
        print(harness.dumps_json(report.to_dict()))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_sweep(args: argparse.Namespace) -> int:
    shape = _shape_from_args(args)
    if not args.a_list:
        raise _CliError("missing required parameter --a-list")
    try:
        a_values = [float(tok) for tok in args.a_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise _CliError(f"bad --a-list: {exc}")
    check = harness.sweep_a(shape, a_values)
    return _write_report(args, check, lambda: harness.report_csv_text(check))


def _cmd_oracle(args: argparse.Namespace) -> int:
    shape = _shape_from_args(args)
    _require(args, "cells", "out")
    grid = geometry.oracle_grid(shape, args.cells)
    field = geometry.geometric_thickness_oracle(grid, shape)
    geometry.write_thickness_csv(field, args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = harness.verify_theorems(args.suite)
    status = _write_report(args, report, report.csv_text, stdout=not args.pretty)
    if args.pretty:
        for check in report.checks:
            margin = ""
            if check.samples:
                margins = [s.bound + s.slack - s.error for s in check.samples]
                margins += [s.error - s.lower_bound for s in check.samples if s.lower_bound is not None]
                margin = f"  tightest margin {min(margins):.3e}"
            print(f"{check.case:28s} {'pass' if check.passed else 'FAIL'}{margin}")
            if check.error_message:
                print(f"{'':28s}      {check.error_message}")
        print(f"suite {report.suite}: {'pass' if report.passed else 'FAIL'}")
    return status


_HANDLERS = {
    "analytic": _cmd_analytic,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


def parse_and_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go first, so every command-line flag wins
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        return _HANDLERS[args.command](args)
    except SystemExit as exc:
        # argparse prints its own diagnostic; normalize usage errors to 2
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except (_CliError, PdeThickError, OSError) as exc:
        print(f"pdethick: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
