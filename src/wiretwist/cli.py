"""Command-line front-end.

Subcommands
    stiffness     closed-form / numeric / engineering stiffness side by side
    integral      section-integral report (arc contributions, rounding bound, limits)
    doe           regenerate the full-factorial map of I/r^4 as CSV/JSON
    fit           fit the surrogate slope to a map (fresh or from CSV)
    torque-curve  sample the finite-angle torque curve, derive stiffnesses
    oracle-check  compare the contour-integral torque against the brute-force oracle

Every command runs with zero flags using the built-in reference ring
(R=227 mm, r=3.3 mm, Z=82, E=210000 MPa, gamma=45 deg).  Numbers in CSV and
JSON are rendered at 12 significant digits; identical inputs give
byte-identical outputs.  No command takes quadrature flags: every
integral uses a fixed rule.

Exit codes: 0 ok, 2 invalid input (or out of memory), 4 check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .doe import (
    DEFAULT_GAMMAS,
    DEFAULT_RW_RATIOS,
    DEFAULT_X_VALUES,
    DoeTable,
    _fmt,
    fit_surrogate,
    run_doe,
)
from .errors import InvalidGeometryError
from .geometry import SectionGeometry, SectionKind, WireRing, classify_section, theta_limits
from .oracle import GridSpec, oracle_torque
from .stiffness import (
    section_integral,
    stiffness_circular,
    stiffness_engineering,
    stiffness_from_integral,
)
from .torque import torque_curve, torque_full

# Reference ring used as the default for every command.
DEFAULT_RING_RADIUS = 227.0  # mm
DEFAULT_SECTION_RADIUS = 3.3  # mm
DEFAULT_BALL_COUNT = 82
DEFAULT_E_MODULUS = 210000.0  # MPa
DEFAULT_GAMMA_DEG = 45.0


def _jnum(x: float) -> float:
    # round-trip through the 12-digit rendering so JSON and CSV agree exactly
    return float(_fmt(x))


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated float list, got {text!r}") from exc


def _ring_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("ring and section")
    g.add_argument("--R", type=float, default=DEFAULT_RING_RADIUS, help="ring radius [mm]")
    g.add_argument("--r", type=float, default=DEFAULT_SECTION_RADIUS, help="section radius [mm]")
    g.add_argument("--Z", type=int, default=DEFAULT_BALL_COUNT, help="rolling element count")
    g.add_argument("--E", type=float, default=DEFAULT_E_MODULUS, help="Young's modulus [MPa]")
    g.add_argument("--rw", type=float, default=None, help="bite radius [mm]")
    g.add_argument("--L", type=float, default=None, help="bite center distance [mm]")
    g.add_argument("--rw-ratio", type=float, default=None, help="bite radius over section radius")
    g.add_argument("--L-ratio", type=float, default=None, help="bite distance over section radius")
    mx = p.add_mutually_exclusive_group()
    mx.add_argument("--gamma-deg", type=float, default=None, help="bite angle [deg] (default 45)")
    mx.add_argument("--gamma-rad", type=float, default=None, help="bite angle [rad]")
    return p


def _out_parent(default_format: str = "text") -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("output")
    g.add_argument("--format", choices=("text", "json", "csv"), default=default_format)
    g.add_argument("--output", default=None, help="write to this path instead of stdout")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiretwist",
        description="Twisting stiffness of the steel wire raceway in wire-race ball bearings.",
    )
    parser.add_argument("--version", action="version", version=f"wiretwist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    ring = _ring_parent()

    p = sub.add_parser(
        "stiffness", parents=[ring, _out_parent()],
        help="closed-form, numeric and engineering stiffness side by side",
    )
    p.set_defaults(func=cmd_stiffness)

    p = sub.add_parser(
        "integral", parents=[ring, _out_parent()],
        help="section integral report (arc contributions, limits, rounding bound)",
    )
    p.set_defaults(func=cmd_integral)

    p = sub.add_parser(
        "doe", parents=[_out_parent(default_format="csv")],
        help="regenerate the factorial map of I/r^4",
    )
    p.add_argument("--rw-ratios", type=_float_list, default=list(DEFAULT_RW_RATIOS))
    p.add_argument("--x-values", type=_float_list, default=list(DEFAULT_X_VALUES))
    mx = p.add_mutually_exclusive_group()
    mx.add_argument("--gammas-deg", type=_float_list, default=None)
    mx.add_argument("--gammas-rad", type=_float_list, default=None)
    p.set_defaults(func=cmd_doe)

    p = sub.add_parser(
        "fit", parents=[_out_parent()],
        help="fit the surrogate slope to a factorial map",
    )
    p.add_argument("--doe-csv", default=None, help="fit this CSV instead of regenerating the map")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "torque-curve", parents=[ring, _out_parent(default_format="csv")],
        help="sample the finite-angle torque curve",
    )
    p.add_argument("--alpha-max", type=float, default=0.1, help="max twist angle [rad]")
    p.add_argument("--n-steps", type=int, default=21, help="sample count over [-max, +max]")
    p.set_defaults(func=cmd_torque_curve)

    p = sub.add_parser(
        "oracle-check", parents=[ring, _out_parent()],
        help="compare the contour-integral torque against the brute-force oracle",
    )
    p.add_argument("--alpha", type=float, default=1e-3, help="twist angle [rad]")
    p.add_argument("--grid", type=int, default=400, help="oracle grid size (N x N)")
    p.add_argument("--threshold", type=float, default=1e-3, help="max relative deviation")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def _resolve_gamma(args) -> float:
    if args.gamma_rad is not None:
        return args.gamma_rad
    if args.gamma_deg is not None:
        return math.radians(args.gamma_deg)
    return math.radians(DEFAULT_GAMMA_DEG)


def _resolve_section(args) -> SectionGeometry:
    has_ratio = args.rw_ratio is not None or args.L_ratio is not None
    has_abs = args.rw is not None or args.L is not None
    if not has_ratio and not has_abs:
        return SectionGeometry.circular(args.r)
    gamma = _resolve_gamma(args)
    if has_ratio and has_abs:
        print("warning: both ratio and absolute bite flags given; ratios win", file=sys.stderr)
    if has_ratio:
        if args.rw_ratio is None or args.L_ratio is None:
            raise InvalidGeometryError("both --rw-ratio and --L-ratio are required")
        return SectionGeometry.from_ratios(args.rw_ratio, args.L_ratio, gamma, r=args.r)
    if args.rw is None or args.L is None:
        raise InvalidGeometryError("both --rw and --L are required")
    return SectionGeometry.wire_race(args.r, args.rw, args.L, gamma)


def _resolve_ring(args) -> WireRing:
    return WireRing(R=args.R, Z=args.Z, E=args.E, section=_resolve_section(args))


def _ring_inputs(ring: WireRing) -> dict:
    sec = ring.section
    inputs = {
        "R_mm": _jnum(ring.R),
        "r_mm": _jnum(sec.r),
        "Z": ring.Z,
        "E_MPa": _jnum(ring.E),
        "section_kind": sec.kind.value,
    }
    if sec.kind is SectionKind.WIRE_RACE:
        inputs.update(
            rw_mm=_jnum(sec.r_w),
            L_mm=_jnum(sec.L),
            rw_ratio=_jnum(sec.rw_ratio),
            L_ratio=_jnum(sec.L_ratio),
            gamma_rad=_jnum(sec.gamma),
        )
    return inputs


def _section_text(sec: SectionGeometry) -> str:
    if sec.kind is SectionKind.CIRCULAR:
        return f"circular (r={_fmt(sec.r)} mm)"
    return (
        f"wire-race (r={_fmt(sec.r)} mm, r_w/r={_fmt(sec.rw_ratio)}, "
        f"L/r={_fmt(sec.L_ratio)}, gamma={_fmt(sec.gamma)} rad)"
    )


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8", newline="")


def _summary(line: str, output: str | None) -> None:
    # keep the machine-readable artifact on stdout clean when no file is given
    print(line, file=sys.stderr if output is None else sys.stdout)


def _kv_csv(results: dict) -> str:
    keys = ",".join(results)
    vals = ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in results.values())
    return keys + "\n" + vals + "\n"


def _render_report(inputs: dict, results: dict, fmt: str, text_lines: list[str]) -> str:
    if fmt == "json":
        payload = {"inputs": inputs, "results": results, "meta": {"version": __version__}}
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        return _kv_csv(results)
    return "\n".join(text_lines) + "\n"


def _forwarded_warnings(record: list[warnings.WarningMessage]) -> None:
    for w in record:
        print(f"warning: {w.message}", file=sys.stderr)


def cmd_stiffness(args) -> int:
    ring = _resolve_ring(args)
    sec = ring.section

    integ = section_integral(sec)
    k_numeric = stiffness_from_integral(ring, integ.total)
    circular_ring = WireRing(ring.R, ring.Z, ring.E, SectionGeometry.circular(sec.r))
    k_circular = stiffness_circular(circular_ring)

    results = {
        "K_circular_Nmm_per_rad": _jnum(k_circular),
        "K_numeric_Nmm_per_rad": _jnum(k_numeric),
    }
    lines = [
        "wire twisting stiffness [N*mm/rad]",
        f"  ring:    R={_fmt(ring.R)} mm, Z={ring.Z}, E={_fmt(ring.E)} MPa",
        f"  section: {_section_text(sec)}",
        f"  K_circular    = {_fmt(k_circular)}   (uncut circular section, closed form)",
        f"  K_numeric     = {_fmt(k_numeric)}   (section integral, quadrature)",
    ]
    if sec.kind is SectionKind.WIRE_RACE:
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            k_eng = stiffness_engineering(ring)
        _forwarded_warnings(rec)
        results["K_engineering_Nmm_per_rad"] = _jnum(k_eng)
        results["rel_diff_engineering_vs_numeric"] = _jnum((k_eng - k_numeric) / k_numeric)
        lines.append(f"  K_engineering = {_fmt(k_eng)}   (fitted engineering formula)")
        lines.append(
            f"  engineering vs numeric: {_fmt((k_eng - k_numeric) / k_numeric)} relative"
        )
    results["rel_diff_numeric_vs_circular"] = _jnum((k_numeric - k_circular) / k_circular)
    results["section_integral_mm4"] = _jnum(integ.total)
    lines.append(f"  numeric vs circular:    {_fmt((k_numeric - k_circular) / k_circular)} relative")

    _emit(_render_report(_ring_inputs(ring), results, args.format, lines), args.output)
    return 0


def cmd_integral(args) -> int:
    ring = _resolve_ring(args)
    sec = ring.section
    integ = section_integral(sec)
    r4 = (sec.r * sec.r) * (sec.r * sec.r)

    results = {
        "classification": classify_section(sec).value,
        "I_mm4": _jnum(integ.total),
        "I_full_arc_mm4": _jnum(integ.full_arc),
        "I_bite_arc_mm4": _jnum(integ.bite_arc),
        "est_error_mm4": _jnum(integ.est_error),
        "I_over_r4": _jnum(integ.total / r4),
    }
    lines = [
        "section integral  I = II y^2 dA = contour integral of x y^2 dy",
        f"  section: {_section_text(sec)}",
        f"  classification: {results['classification']}",
        f"  I          = {_fmt(integ.total)} mm^4",
        f"  full arc   = {_fmt(integ.full_arc)} mm^4",
        f"  bite arc   = {_fmt(integ.bite_arc)} mm^4",
        f"  est. error = {_fmt(integ.est_error)} mm^4",
        f"  I / r^4    = {_fmt(integ.total / r4)}",
    ]
    if sec.kind is SectionKind.WIRE_RACE:
        t1, t2 = theta_limits(sec)
        results["theta1_rad"] = _jnum(t1)
        results["theta2_rad"] = _jnum(t2)
        lines.insert(3, f"  bite arc limits: theta1={_fmt(t1)}, theta2={_fmt(t2)} rad")

    _emit(_render_report(_ring_inputs(ring), results, args.format, lines), args.output)
    return 0


def _doe_gammas(args) -> list[float]:
    if args.gammas_rad is not None:
        return args.gammas_rad
    if args.gammas_deg is not None:
        return [math.radians(g) for g in args.gammas_deg]
    return list(DEFAULT_GAMMAS)


def cmd_doe(args) -> int:
    gammas = _doe_gammas(args)
    table = run_doe(args.rw_ratios, args.x_values, gammas)

    if args.format == "csv":
        _emit(table.to_csv(), args.output)
    else:
        inputs = {
            "rw_ratios": [_jnum(v) for v in args.rw_ratios],
            "x_values": [_jnum(v) for v in args.x_values],
            "gammas_rad": [_jnum(v) for v in gammas],
        }
        if args.format == "json":
            payload = {
                "inputs": inputs,
                "results": {"rows": table.to_json_rows()},
                "meta": {"version": __version__},
            }
            _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.output)
        else:
            lines = ["factorial map of I/r^4", "  rw_ratio  L_ratio  gamma_rad        x  I_over_r4"]
            for row in table:
                lines.append(
                    f"  {_fmt(row.rw_ratio):>8}  {_fmt(row.L_ratio):>7}  {_fmt(row.gamma):>9}"
                    f"  {_fmt(row.x):>7}  {_fmt(row.I_over_r4)}"
                )
            _emit("\n".join(lines) + "\n", args.output)
    _summary(f"doe: {len(table)} rows", args.output)
    return 0


def cmd_fit(args) -> int:
    if args.doe_csv is not None:
        table = DoeTable.from_csv(Path(args.doe_csv).read_text(encoding="utf-8"))
        source = args.doe_csv
    else:
        table = run_doe()
        source = "regenerated default grid"
    fit = fit_surrogate(table)
    max_abs = max(abs(float(v)) for v in fit.residuals)
    rms = math.sqrt(sum(float(v) ** 2 for v in fit.residuals) / len(fit.residuals))

    results = {
        "c": _jnum(fit.c),
        "residual_max_abs": _jnum(max_abs),
        "residual_rms": _jnum(rms),
        "n_rows": len(table),
    }
    lines = [
        f"surrogate fit on {len(table)} rows ({source})",
        f"  c = {_fmt(fit.c)}   (engineering formula uses 0.36)",
        f"  residuals (observed - fitted, I/r^4 units):",
    ]
    lines += [
        f"    rw={_fmt(row.rw_ratio):<4} x={_fmt(row.x):<5} residual={float(res):+.6f}"
        for row, res in zip(table, fit.residuals)
    ]
    lines += [
        f"  max |residual| = {_fmt(max_abs)}, rms = {_fmt(rms)}",
        f"  I ~= r^4 (pi/4 - {_fmt(fit.c)} [1 - (L/r - r_w/r)])",
        f"  K_T ~= (E r^4 / (Z R)) (pi^2/2 - {_fmt(2.0 * fit.c)} pi [1 - (L/r - r_w/r)])",
    ]
    inputs = {"source": source}
    if args.format == "json":
        results["residuals"] = [_jnum(v) for v in fit.residuals]
    _emit(_render_report(inputs, results, args.format, lines), args.output)
    return 0


def cmd_torque_curve(args) -> int:
    ring = _resolve_ring(args)
    curve = torque_curve(ring, args.alpha_max, args.n_steps)

    summary = (
        f"K_origin={_fmt(curve.K_origin)} "
        f"K_secant_pos={_fmt(curve.K_secant_pos)} "
        f"K_secant_neg={_fmt(curve.K_secant_neg)} [N*mm/rad]"
    )
    if args.format == "csv":
        body = "alpha_rad,torque_Nmm\n" + "".join(
            f"{_fmt(a)},{_fmt(t)}\n" for a, t in curve.samples
        )
        _emit(body, args.output)
        _summary("torque-curve: " + summary, args.output)
        return 0

    results = {
        "K_origin_Nmm_per_rad": _jnum(curve.K_origin),
        "K_secant_pos_Nmm_per_rad": _jnum(curve.K_secant_pos),
        "K_secant_neg_Nmm_per_rad": _jnum(curve.K_secant_neg),
        "samples": [[_jnum(a), _jnum(t)] for a, t in curve.samples],
    }
    inputs = {**_ring_inputs(ring), "alpha_max_rad": _jnum(args.alpha_max), "n_steps": args.n_steps}
    lines = [
        "torque-angle curve",
        f"  ring:    R={_fmt(ring.R)} mm, Z={ring.Z}, E={_fmt(ring.E)} MPa",
        f"  section: {_section_text(ring.section)}",
        f"  {summary}",
        "  alpha_rad      torque_Nmm",
    ]
    lines += [f"  {_fmt(a):>12}   {_fmt(t)}" for a, t in curve.samples]
    _emit(_render_report(inputs, results, args.format, lines), args.output)
    return 0


def cmd_oracle_check(args) -> int:
    ring = _resolve_ring(args)
    t_quad = torque_full(ring, args.alpha)
    t_oracle = oracle_torque(ring, args.alpha, GridSpec(args.grid, args.grid))
    deviation = abs(t_oracle - t_quad) / abs(t_quad)
    passed = deviation <= args.threshold

    results = {
        "torque_quadrature_Nmm": _jnum(t_quad),
        "torque_oracle_Nmm": _jnum(t_oracle),
        "rel_deviation": _jnum(deviation),
        "threshold": _jnum(args.threshold),
        "passed": passed,
    }
    inputs = {**_ring_inputs(ring), "alpha_rad": _jnum(args.alpha), "grid": args.grid}
    lines = [
        "oracle cross-check",
        f"  section: {_section_text(ring.section)}",
        f"  alpha={_fmt(args.alpha)} rad, grid={args.grid}x{args.grid}",
        f"  torque quadrature = {_fmt(t_quad)} N*mm",
        f"  torque oracle     = {_fmt(t_oracle)} N*mm",
        f"  relative deviation = {_fmt(deviation)} (threshold {_fmt(args.threshold)})",
        f"  {'PASS' if passed else 'FAIL'}",
    ]
    _emit(_render_report(inputs, results, args.format, lines), args.output)
    return 0 if passed else 4


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # the package's input errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # e.g. an oracle-check --grid too large to allocate
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
