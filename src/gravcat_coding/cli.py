"""Command-line front end.

Subcommands: ``capacity`` (one parameter point, JSON), ``sweep`` (2-D grid,
CSV/JSON), ``figure`` (built-in grid presets), ``optimize`` (best measurement
strength), ``verify`` (cross-engine report).  Exit codes are stable: 0 on
success, 1 when verification finds a deviation over threshold, 2 on bad
usage, invalid parameters, a grid too large to allocate or an unwritable
output path (with a JSON error object on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .closed_form import chi_closed_form
from .coding import engine_report
from .sweep import (
    ENGINES,
    AxisSpec,
    FIGURES,
    SweepGrid,
    evaluate_sweep,
    figure_config,
    figure_grid,
    render_csv,
    render_json,
)
from .thermal import GravcatParams, InvalidParameterError
from .verify import verification_report
from .version import __version__
from .weak_measurement import optimize_strength


def _write_output(text: str, output: str | Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _emit_error(exc: BaseException) -> None:
    payload = {"schema_version": 1, "error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(payload) + "\n")


def _params_from_args(args: argparse.Namespace) -> GravcatParams:
    for name, flag in (("omega", "--omega"), ("gamma", "--gamma"), ("temp", "--temp")):
        if getattr(args, name) is None:
            raise InvalidParameterError(f"{flag} is required")
    return GravcatParams(args.omega, args.gamma, args.temp)


def _cmd_capacity(args: argparse.Namespace) -> int:
    report = engine_report(ENGINES[args.engine], _params_from_args(args), args.p)
    payload = {"schema_version": 1, "engine": args.engine, **report.to_dict()}
    _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _fixed_from_args(args: argparse.Namespace) -> dict[str, float]:
    supplied = {"omega": args.omega, "gamma": args.gamma, "T": args.temp, "p": args.p}
    return {name: value for name, value in supplied.items() if value is not None}


def _write_grid(grid: SweepGrid, args: argparse.Namespace) -> None:
    _write_output(render_csv(grid) if args.format == "csv" else render_json(grid), args.output)


def _cmd_sweep(args: argparse.Namespace) -> int:
    x_axis = AxisSpec.parse(args.x)
    y_axis = AxisSpec.parse(args.y)
    fixed = _fixed_from_args(args)
    _write_grid(evaluate_sweep(x_axis, y_axis, fixed, engine=args.engine), args)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    x_axis = AxisSpec.parse(args.x) if args.x else None
    y_axis = AxisSpec.parse(args.y) if args.y else None
    grid = figure_grid(args.id, engine=args.engine, x_axis=x_axis, y_axis=y_axis)
    _write_grid(grid, args)
    if args.output is not None:
        # sidecar with the exact configuration; skipped for stdout runs
        sidecar = Path(args.output).with_suffix(Path(args.output).suffix + ".json")
        _write_output(json.dumps(figure_config(args.id, grid), indent=2) + "\n", sidecar)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    p_star, chi_star = optimize_strength(params)
    chi_at_zero = float(chi_closed_form(params.omega, params.gamma, params.temperature))
    payload = {
        "schema_version": 1,
        "p_star": p_star,
        "chi_star": chi_star,
        "chi_at_zero": chi_at_zero,
        "gain": chi_star - chi_at_zero,
    }
    _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verification_report(args.samples, args.seed)
    _write_output(json.dumps(report, indent=2) + "\n", args.output)
    return 0 if report["all_passed"] else 1


def _add_point_flags(parser: argparse.ArgumentParser, *, with_p: bool) -> None:
    parser.add_argument("--omega", type=float, default=None, help="level splitting (>= 0)")
    parser.add_argument("--gamma", type=float, default=None, help="gravitational coupling (>= 0)")
    parser.add_argument("--temp", type=float, default=None, help="temperature (>= 1e-6, k_B = 1)")
    if with_p:
        parser.add_argument("--p", type=float, default=None, help="measurement strength in [0, 1]")


def _add_output_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", default=None, help="output path (default: stdout)")


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=tuple(ENGINES), default="closed_form",
        help="evaluation engine (default: closed_form)",
    )


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    _add_engine_flag(parser)
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format (default: csv)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravcat-coding",
        description="Dense-coding capacity of two-gravcat thermal states.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser("capacity", help="capacity at one parameter point (JSON)")
    _add_point_flags(p_cap, with_p=True)
    _add_engine_flag(p_cap)
    _add_output_flag(p_cap)
    p_cap.set_defaults(handler=_cmd_capacity)

    p_sweep = sub.add_parser("sweep", help="chi over a 2-D parameter grid")
    p_sweep.add_argument("--x", required=True, help="x axis as name:start:stop:count")
    p_sweep.add_argument("--y", required=True, help="y axis as name:start:stop:count")
    _add_point_flags(p_sweep, with_p=True)
    _add_grid_flags(p_sweep)
    _add_output_flag(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="built-in figure grid by id")
    p_fig.add_argument("id", choices=sorted(FIGURES), help="figure id")
    p_fig.add_argument("--x", default=None, help="override the x axis (name:start:stop:count)")
    p_fig.add_argument("--y", default=None, help="override the y axis (name:start:stop:count)")
    _add_grid_flags(p_fig)
    _add_output_flag(p_fig)
    p_fig.set_defaults(handler=_cmd_figure)

    p_opt = sub.add_parser("optimize", help="best measurement strength (JSON)")
    _add_point_flags(p_opt, with_p=False)
    _add_output_flag(p_opt)
    p_opt.set_defaults(handler=_cmd_optimize)

    p_ver = sub.add_parser("verify", help="cross-engine verification report (JSON)")
    p_ver.add_argument("--samples", type=int, default=1000, help="number of random draws")
    p_ver.add_argument("--seed", type=int, default=42, help="SplitMix64 seed")
    _add_output_flag(p_ver)
    p_ver.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        _emit_error(exc)
        return 2
    except MemoryError as exc:  # numpy raises a private subclass; name the public class
        _emit_error(MemoryError(str(exc)))
        return 2

