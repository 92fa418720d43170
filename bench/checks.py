"""Output checks for the benchmark's ops.

* analyze: the semantic report fields equal the expectations recorded in
  `pool.json`.
* certify: the exit code and route type are as expected, and every
  certificate is verified again with the public `verify_increment` on a grid
  twice as fine (as acceptance criterion 3 does).  An inconclusive op must
  report boundary residence.
* simulate: the CSV has one row per grid point and the admissibility summary
  is as expected.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

SEMANTIC_FIELDS = ("kind", "degree", "dim_V", "dim_R", "l", "N")
Y_TOL = 1e-6


def _check_analyze(expect: dict, code: int, out: Path) -> Optional[str]:
    if code != 0:
        return f"exit code {code}, expected 0"
    report = json.loads(out.read_text())
    for key in SEMANTIC_FIELDS:
        if report.get(key) != expect["fields"][key]:
            return f"report field {key!r} is {report.get(key)!r}, expected {expect['fields'][key]!r}"
    return None


def _reverify(scenario_path: str, cert: dict) -> Optional[str]:
    from inred.scenario import load_scenario
    from inred.synthesis import verify_increment
    from inred.trajectory import Grid, Interpolation, SampledSignal

    scen = load_scenario(scenario_path)
    nominal = scen.signals[scen.nominal]
    u_hat = cert["u_hat"]
    increment = SampledSignal(u_hat["t0"], u_hat["dt"], u_hat["values"],
                              Interpolation(u_hat["interpolation"]))
    fine = Grid.from_horizon(nominal.t0, nominal.dt / 2, nominal.grid.horizon)
    check = verify_increment(
        scen.system, scen.u_constraint, scen.x_constraint, scen.x0,
        nominal.resample(fine), increment.scaled(cert["alpha"]).resample(fine))
    if not (check.y_sup_diff <= Y_TOL and check.admissible_both):
        return (f"re-verification on the doubled grid failed: sup|y| = "
                f"{check.y_sup_diff:.3e}, admissible = {check.admissible_both}")
    return None


def _check_certify(expect: dict, code: int, out: Path, scenario_path: str) -> Optional[str]:
    if code != expect["code"]:
        return f"exit code {code}, expected {expect['code']}"
    payload = json.loads(out.read_text())
    if expect["code"] == 4:
        if not payload.get("inconclusive") or payload.get("boundary_residence") is not True:
            return "inconclusive result without boundary residence"
        return None
    route = payload["route"]["type"]
    if route != expect["route"]:
        return f"route {route!r}, expected {expect['route']!r}"
    return _reverify(scenario_path, payload)


def _check_simulate(expect: dict, code: int, out: Path) -> Optional[str]:
    if code != 0:
        return f"exit code {code}, expected 0"
    with out.open() as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != expect["rows"]:
        return f"{rows} CSV rows, expected {expect['rows']}"
    summary = json.loads(out.with_suffix(out.suffix + ".summary.json").read_text())
    if summary["admissible"] is not expect["admissible"]:
        return f"admissible = {summary['admissible']}, expected {expect['admissible']}"
    first = summary["first_violation"]
    if expect["first_violation"] is None:
        if first is not None:
            return f"first violation {first}, expected none"
    elif first is None or abs(first - expect["first_violation"]) > expect["slack"]:
        return f"first violation {first}, expected {expect['first_violation']:.6f}"
    return None


def check(op: dict, record: dict) -> Optional[str]:
    """None when the op's output is correct, else the reason it is not."""
    if record.get("error"):
        return record["error"]
    if "output" not in record:
        return f"no output written (exit code {record['code']})"
    expect = op["expect"]
    out = Path(record["output"])
    if expect["type"] == "analyze":
        return _check_analyze(expect, record["code"], out)
    if expect["type"] == "certify":
        return _check_certify(expect, record["code"], out, op["argv"][1])
    return _check_simulate(expect, record["code"], out)
