"""Command-line front door.

Subcommands operate on self-contained scenario files:

    inred analyze    scenario.json ...   exact redundancy classification
    inred certify    scenario.json ...   constructive certificate for a pair
    inred simulate   scenario.json ...   trajectory CSV + admissibility summary
    inred synthesize scenario.json ...   raw output-invisible increment

Exit codes: 0 success, 2 non-linear constraints where linear ones are
required, 3 parse error, 4 no interior window (inconclusive), 5 synthesis or
verification failure, 6 dimension mismatch.  With several input files the
worst code wins.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis, synthesis
from .exact import DimensionMismatch
from .geometry import PinnedInvalid
from .scenario import (
    NonLinearConstraints,
    Scenario,
    ScenarioError,
    load_scenario,
    require_linear,
    with_overrides,
)
from .trajectory import (
    GridMismatch,
    SampledSignal,
    boundary_residence,
    check_admissible,
    simulate,
)

EXIT_OK = 0
EXIT_NONLINEAR = 2
EXIT_PARSE = 3
EXIT_NO_WINDOW = 4
EXIT_FAILED = 5
EXIT_DIMENSION = 6


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves it unchanged, and building it costs a sizeable share of a
    small `analyze` call, which `main` would otherwise pay on every call.
    """
    parser = argparse.ArgumentParser(
        prog="inred",
        description="Input-redundancy analysis and certification for constrained LTI systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("paths", nargs="+", help="scenario JSON file(s)")
        p.add_argument("--out", help="output file (or directory with several inputs)")
        p.add_argument("--jobs", type=int, default=1,
                       help="run several scenario files on this many threads")

    p_an = sub.add_parser("analyze", help="exact redundancy classification")
    common(p_an)
    p_an.add_argument("--pin-bases", action="store_true",
                      help="use the scenario's pinned R/F/L matrices")
    p_an.add_argument("--format", choices=("json", "text"), default="json")

    p_ce = sub.add_parser("certify", help="certify an input-redundant pair")
    common(p_ce)
    p_ce.add_argument("--nominal", help="name of the nominal input signal")
    p_ce.add_argument("--x0", help="comma-separated initial state, overrides the file")
    p_ce.add_argument("--check-boundary", action="store_true",
                      help="on an inconclusive result, also test boundary residence")

    p_si = sub.add_parser("simulate", help="simulate and check admissibility")
    common(p_si)
    p_si.add_argument("--input", dest="input_name", help="name of the input signal")

    p_sy = sub.add_parser("synthesize", help="raw output-invisible increment")
    common(p_sy)
    p_sy.add_argument("--window", nargs=2, metavar=("T1", "T2"),
                      help="synthesis window, overrides the file")
    return parser


def _emit(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        out.write_text(text if text.endswith("\n") else text + "\n")


def _pick_signal(scenario: Scenario, name: Optional[str], fallback: Optional[str],
                 what: str) -> SampledSignal:
    chosen = name or fallback
    if chosen is None:
        if len(scenario.signals) == 1:
            chosen = next(iter(scenario.signals))
        else:
            raise ScenarioError(f"no {what} signal selected and none is unambiguous")
    if chosen not in scenario.signals:
        raise ScenarioError(f"unknown signal {chosen!r}")
    return scenario.signals[chosen]


def _csv_text(times: np.ndarray, **signals: Optional[SampledSignal]) -> str:
    """CSV of the times and of each signal given (not None), whose columns are
    named by its keyword and index; each value is written with `repr`.

    The bytes are those of `csv.writer`'s default dialect: no `repr` of a
    float needs quoting, and every line ends with CRLF.
    """
    given = {name: sig for name, sig in signals.items() if sig is not None}
    header = ["t"] + [f"{name}{i}" for name, sig in given.items() for i in range(sig.dim)]
    rows = np.column_stack([times] + [sig.values for sig in given.values()]).tolist()
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in rows]
    lines.append("")
    return "\r\n".join(lines)


def _certificate_dict(cert: synthesis.IRCertificate) -> dict:
    if isinstance(cert.route, synthesis.KernelBump):
        route: dict = {"type": "kernel_bump"}
    else:
        route = {
            "type": "state_loop",
            "x_peak": cert.route.x_peak.tolist(),
            "t_mid": cert.route.t_mid,
        }
    u_hat = cert.u_hat
    return {
        "window": list(cert.window),
        "alpha": cert.alpha,
        "route": route,
        "u_hat": {"t0": u_hat.t0, "dt": u_hat.dt, "interpolation": u_hat.interpolation.value,
                  "values": u_hat.values.tolist()},
        "verification": {
            "y_sup_diff": cert.verification.y_sup_diff,
            "admissible_both": cert.verification.admissible_both,
        },
    }


def _cmd_analyze(scenario: Scenario, args: argparse.Namespace, out: Optional[Path]) -> int:
    u_sub = require_linear(scenario.u_constraint)
    x_sub = require_linear(scenario.x_constraint)
    pinned = scenario.pinned if args.pin_bases else None
    report = analysis.analyze(scenario.system, u_sub, x_sub, pinned=pinned)
    if args.format == "text":
        _emit(analysis.report_to_text(report), out)
    else:
        _emit(json.dumps(analysis.report_to_dict(report), indent=2), out)
    return EXIT_OK


def _cmd_certify(scenario: Scenario, args: argparse.Namespace, out: Optional[Path]) -> int:
    nominal = _pick_signal(scenario, args.nominal, scenario.nominal, "nominal")
    x0 = with_overrides(scenario, x0=args.x0).x0
    if x0 is None:
        raise ScenarioError("no initial state: provide scenario.x0 or --x0")
    try:
        cert = synthesis.certify_ir_pair(
            scenario.system, scenario.u_constraint, scenario.x_constraint, x0, nominal)
    except synthesis.NoInteriorWindow as exc:
        payload: dict = {"certificate": None, "inconclusive": True, "reason": str(exc)}
        if args.check_boundary:
            payload["boundary_residence"] = boundary_residence(
                exc.nominal, scenario.u_constraint, scenario.x_constraint, exc.rho)
        _emit(json.dumps(payload, indent=2), out)
        return EXIT_NO_WINDOW
    except synthesis.FAILURES as exc:
        _emit(json.dumps({"certificate": None, "error": str(exc)}, indent=2), out)
        return EXIT_FAILED
    _emit(json.dumps(_certificate_dict(cert), indent=2), out)
    return EXIT_OK


def _cmd_simulate(scenario: Scenario, args: argparse.Namespace, out: Optional[Path]) -> int:
    sig = _pick_signal(scenario, args.input_name, scenario.input_name or scenario.nominal,
                       "input")
    x0 = scenario.x0 if scenario.x0 is not None else np.zeros(scenario.system.n)
    triple = simulate(scenario.system, x0, sig)
    adm = check_admissible(triple, scenario.u_constraint, scenario.x_constraint)
    summary = json.dumps(
        {"admissible": adm.ok, "first_violation": adm.first_violation}, indent=2)
    csv_text = _csv_text(triple.u.times(), u=triple.u, x=triple.x, y=triple.y)
    if out is None:
        sys.stdout.write(csv_text)
        sys.stdout.write(summary + "\n")
    else:
        out.write_text(csv_text)
        out.with_suffix(out.suffix + ".summary.json").write_text(summary + "\n")
    return EXIT_OK


def _cmd_synthesize(scenario: Scenario, args: argparse.Namespace, out: Optional[Path]) -> int:
    window = with_overrides(scenario, window=args.window).window
    if window is None:
        raise ScenarioError("no synthesis window: provide scenario.window or --window")
    if scenario.grid is None:
        raise ScenarioError("synthesize needs a scenario.grid block")
    try:
        u_hat, x_hat, _ = synthesis.synthesize_increment(scenario.system, window, scenario.grid)
    except synthesis.FAILURES as exc:
        _emit(json.dumps({"error": str(exc)}, indent=2), out)
        return EXIT_FAILED
    _emit(_csv_text(u_hat.times(), u=u_hat, x=x_hat), out)
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "certify": _cmd_certify,
    "simulate": _cmd_simulate,
    "synthesize": _cmd_synthesize,
}

_OUT_SUFFIX = {
    "analyze": ".report.json",
    "certify": ".certificate.json",
    "simulate": ".csv",
    "synthesize": ".increment.csv",
}


def _run_one(path: str, args: argparse.Namespace, out: Optional[Path]) -> int:
    try:
        scenario = load_scenario(path)
        return _COMMANDS[args.command](scenario, args, out)
    except NonLinearConstraints as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return EXIT_NONLINEAR
    except (ScenarioError, OSError, OverflowError, PinnedInvalid) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DimensionMismatch, GridMismatch) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return EXIT_DIMENSION


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    paths = args.paths
    if len(paths) == 1:
        out = Path(args.out) if args.out else None
        return _run_one(paths[0], args, out)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None and not out_dir.is_dir():
        print("--out must name a directory when several files are given", file=sys.stderr)
        return EXIT_PARSE

    outs = [out_dir / (Path(path).stem + _OUT_SUFFIX[args.command]) if out_dir else None
            for path in paths]
    writers: dict[Path, str] = {}
    for path, out in zip(paths, outs):
        if out in writers:  # two inputs with one stem: refuse before running either
            print(f"{writers[out]} and {path} would both write {out}", file=sys.stderr)
            return EXIT_PARSE
        if out is not None:
            writers[out] = path

    if args.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(pool.map(_run_one, paths, [args] * len(paths), outs))
    else:
        codes = [_run_one(path, args, out) for path, out in zip(paths, outs)]
    return max(codes)


if __name__ == "__main__":
    raise SystemExit(main())
