"""Scenario files: self-contained JSON descriptions of a system, its
constraint sets and optional trajectory data.

One file carries everything a command needs, so golden tests stay
reproducible.  Rational matrix entries may be integers, "p/q" strings or
decimal strings.  The parser reads every decimal literal in the JSON as a
`Decimal`, which keeps the literal text exactly: matrix and span entries
become the exact rationals they spell, and float fields (signal samples,
x0, bounds, grid) are correctly rounded to the nearest float.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from .exact import DimensionMismatch, RationalMatrix, Subspace, as_fraction
from .geometry import PinnedBases, SystemQuadruple
from .trajectory import (
    Box,
    ConstraintSet,
    FullSpace,
    Grid,
    Interpolation,
    LinearSubspaceSet,
    Polyhedron,
    SampledSignal,
)


MAX_EXPONENT = 10_000  # largest |e| of a rational literal written as digits x 10^e


class ScenarioError(ValueError):
    """The scenario file is structurally invalid."""


class NonLinearConstraints(ValueError):
    """The requested analysis needs linear (subspace) constraint sets."""


@dataclass(frozen=True, eq=False)
class Scenario:
    system: SystemQuadruple
    u_constraint: ConstraintSet
    x_constraint: ConstraintSet
    x0: Optional[np.ndarray] = None
    grid: Optional[Grid] = None
    signals: dict[str, SampledSignal] = field(default_factory=dict)
    nominal: Optional[str] = None
    input_name: Optional[str] = None
    window: Optional[tuple[float, float]] = None
    pinned: Optional[PinnedBases] = None


def _require(obj: dict, key: str, context: str) -> Any:
    if key not in obj:
        raise ScenarioError(f"missing '{key}' in {context}")
    return obj[key]


def _object(obj: Any, context: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{context} must be an object")
    return obj


def _rational_matrix(obj: Any, context: str) -> RationalMatrix:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ScenarioError(f"{context} must be a list of rows")
    rows = [[_as_rational(x, context) for x in row] for row in obj]
    try:
        return RationalMatrix.from_rows(rows)
    except ValueError as exc:  # rows of unequal length
        raise ScenarioError(f"bad rational entry in {context}: {exc}") from exc


def _float_value(x: Any, context: str, allow_inf: bool = False) -> float:
    if isinstance(x, bool) or x is None:
        if x is None and allow_inf:
            return math.inf
        raise ScenarioError(f"{context} must be a number")
    if isinstance(x, str):
        s = x.strip().lower()
        if allow_inf and s in ("inf", "+inf", "infinity"):
            return math.inf
        if allow_inf and s in ("-inf", "-infinity"):
            return -math.inf
        raise ScenarioError(f"{context} must be a number, got {x!r}")
    if isinstance(x, float):  # a bare JSON NaN, Infinity or -Infinity
        return x
    if not isinstance(x, (int, Decimal)):
        raise ScenarioError(f"{context} must be a number")
    try:
        value = float(x) + 0.0  # + 0.0 reads a -0.0 literal as 0.0
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if math.isinf(value):
        raise ScenarioError(f"{context}: number outside the float range")
    return value


def _float_vector(obj: Any, context: str, allow_inf: bool = False) -> list[float]:
    if not isinstance(obj, list):
        raise ScenarioError(f"{context} must be a list")
    return [_float_value(v, context, allow_inf) for v in obj]


def _constraint(obj: Any, dim: int, context: str) -> ConstraintSet:
    if obj is None:
        return FullSpace(dim)
    kind = _require(_object(obj, context), "type", context)
    if kind == "full":
        return FullSpace(dim)
    if kind == "subspace":
        span = obj.get("span", [])
        if not isinstance(span, list):
            raise ScenarioError(f"{context}.span must be a list of vectors")
        space = Subspace.from_vectors(
            dim, [[_as_rational(x, context) for x in vec] for vec in span]
        )
        return LinearSubspaceSet(space)
    if kind == "box":
        lower = _float_vector(_require(obj, "lower", context), f"{context}.lower", allow_inf=True)
        upper = _float_vector(_require(obj, "upper", context), f"{context}.upper", allow_inf=True)
        if len(lower) != dim or len(upper) != dim:
            raise DimensionMismatch(f"{context}: box bounds must have length {dim}")
        return Box(tuple(lower), tuple(upper), strict=_strict(obj, context))
    if kind == "polyhedron":
        G = [_float_vector(row, f"{context}.G", False) for row in _require(obj, "G", context)]
        g = _float_vector(_require(obj, "g", context), f"{context}.g", False)
        if any(len(row) != dim for row in G):
            raise DimensionMismatch(f"{context}: G columns must equal {dim}")
        return Polyhedron(np.array(G), np.array(g), strict=_strict(obj, context))
    raise ScenarioError(f"{context}: unknown constraint type {kind!r}")


def _strict(obj: dict, context: str) -> bool:
    strict = obj.get("strict", False)
    if not isinstance(strict, bool):
        raise ScenarioError(f"{context}.strict must be true or false")
    return strict


def _name(scen: dict, key: str) -> Optional[str]:
    name = scen.get(key)
    if name is not None and not isinstance(name, str):
        raise ScenarioError(f"scenario.{key} must be a signal name")
    return name


def _as_rational(x: Any, context: str) -> Fraction:
    """x as an exact rational; a decimal literal with |e| > MAX_EXPONENT is
    refused before it becomes an integer of about 3.3 |e| bits."""
    try:
        d = Decimal(x) if isinstance(x, str) and "/" not in x else x
        if not (isinstance(d, Decimal) and d.is_finite()
                and abs(d.as_tuple().exponent) > MAX_EXPONENT):
            return as_fraction(x)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ScenarioError(f"bad rational in {context}: {x!r}") from exc
    raise ScenarioError(f"bad rational in {context}: exponent beyond +-{MAX_EXPONENT}")


def _signal(obj: Any, context: str) -> SampledSignal:
    interp_name = _object(obj, context).get("interpolation", "linear")
    try:
        interp = Interpolation(interp_name)
    except ValueError as exc:
        raise ScenarioError(f"{context}: unknown interpolation {interp_name!r}") from exc
    values = _require(obj, "values", context)
    if not isinstance(values, list) or not all(isinstance(r, list) for r in values):
        raise ScenarioError(f"{context}.values must be a list of vectors")
    try:
        return SampledSignal(
            t0=_float_value(_require(obj, "t0", context), f"{context}.t0"),
            dt=_float_value(_require(obj, "dt", context), f"{context}.dt"),
            values=np.array([[_float_value(v, context) for v in row] for row in values]),
            interpolation=interp,
        )
    except ValueError as exc:
        raise ScenarioError(f"{context}: {exc}") from exc


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Parse and validate a scenario file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text, parse_float=Decimal)
    except (ValueError, ArithmeticError, RecursionError) as exc:
        # ValueError: bad syntax or an over-long integer literal;
        # ArithmeticError: a decimal exponent Decimal cannot represent;
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be an object")

    sys_obj = _object(_require(raw, "system", "scenario file"), "'system'")
    system = SystemQuadruple(
        A=_rational_matrix(_require(sys_obj, "A", "system"), "system.A"),
        B=_rational_matrix(_require(sys_obj, "B", "system"), "system.B"),
        C=_rational_matrix(_require(sys_obj, "C", "system"), "system.C"),
        D=_rational_matrix(_require(sys_obj, "D", "system"), "system.D"),
    )
    if system.m < 1:
        raise DimensionMismatch("system must have at least one input")

    cons = _object(raw.get("constraints", {}), "'constraints'")
    u_cs = _constraint(cons.get("u"), system.m, "constraints.u")
    x_cs = _constraint(cons.get("x"), system.n, "constraints.x")

    scen = _object(raw.get("scenario", {}), "'scenario'")
    x0 = None
    if "x0" in scen:
        x0 = np.array(_float_vector(scen["x0"], "scenario.x0"))
        if x0.shape[0] != system.n:
            raise DimensionMismatch("scenario.x0 length does not match the state dimension")
    grid = None
    if "grid" in scen:
        g = _object(scen["grid"], "scenario.grid")
        try:
            grid = Grid.from_horizon(
                _float_value(g.get("t0", 0), "grid.t0"),
                _float_value(_require(g, "dt", "scenario.grid"), "grid.dt"),
                _float_value(_require(g, "horizon", "scenario.grid"), "grid.horizon"),
            )
        except ValueError as exc:
            raise ScenarioError(f"scenario.grid: {exc}") from exc
    signals = {
        name: _signal(spec, f"scenario.signals.{name}")
        for name, spec in _object(scen.get("signals", {}), "scenario.signals").items()
    }
    window = None
    if "window" in scen:
        t1t2 = _float_vector(scen["window"], "scenario.window")
        if len(t1t2) != 2:
            raise ScenarioError("scenario.window must be [t1, t2]")
        window = (t1t2[0], t1t2[1])
    pinned = None
    if "pinned" in scen:
        p = _object(scen["pinned"], "scenario.pinned")
        pinned = PinnedBases(
            R=_rational_matrix(p["R"], "pinned.R") if "R" in p else None,
            F=_rational_matrix(p["F"], "pinned.F") if "F" in p else None,
            L=_rational_matrix(p["L"], "pinned.L") if "L" in p else None,
        )
    return Scenario(
        system=system, u_constraint=u_cs, x_constraint=x_cs,
        x0=x0, grid=grid, signals=signals,
        nominal=_name(scen, "nominal"), input_name=_name(scen, "input"),
        window=window, pinned=pinned,
    )


def require_linear(cs: ConstraintSet) -> Subspace:
    """Constraint set as a subspace, or NonLinearConstraints."""
    if isinstance(cs, FullSpace):
        return Subspace.full(cs.dim)
    if isinstance(cs, LinearSubspaceSet):
        return cs.space
    raise NonLinearConstraints(
        f"{type(cs).__name__} constraints are not linear subspaces; "
        "use the trajectory/certification commands instead"
    )


# ---------------------------------------------------------------------------
# serialization back to JSON (round-trip support)


def _num(x: float) -> Any:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _constraint_to_obj(cs: ConstraintSet) -> dict:
    if isinstance(cs, FullSpace):
        return {"type": "full"}
    if isinstance(cs, LinearSubspaceSet):
        basis = cs.space.basis
        return {
            "type": "subspace",
            "span": [[str(x) for x in basis.col(j)] for j in range(basis.cols)],
        }
    if isinstance(cs, Box):
        return {
            "type": "box",
            "lower": [_num(v) for v in cs.lower],
            "upper": [_num(v) for v in cs.upper],
            "strict": cs.strict,
        }
    return {
        "type": "polyhedron",
        "G": cs.G.tolist(),
        "g": cs.g.tolist(),
        "strict": cs.strict,
    }


def signal_to_obj(sig: SampledSignal) -> dict:
    return {
        "t0": sig.t0,
        "dt": sig.dt,
        "interpolation": sig.interpolation.value,
        "values": sig.values.tolist(),
    }


def dump_scenario(scenario: Scenario) -> dict:
    """Scenario as a JSON-serializable dict that reparses to the same data."""
    out: dict[str, Any] = {
        "system": {
            "A": scenario.system.A.to_strings(),
            "B": scenario.system.B.to_strings(),
            "C": scenario.system.C.to_strings(),
            "D": scenario.system.D.to_strings(),
        },
        "constraints": {
            "u": _constraint_to_obj(scenario.u_constraint),
            "x": _constraint_to_obj(scenario.x_constraint),
        },
    }
    scen: dict[str, Any] = {}
    if scenario.x0 is not None:
        scen["x0"] = scenario.x0.tolist()
    if scenario.grid is not None:
        scen["grid"] = {
            "t0": scenario.grid.t0,
            "dt": scenario.grid.dt,
            "horizon": scenario.grid.horizon,
        }
    if scenario.signals:
        scen["signals"] = {name: signal_to_obj(sig) for name, sig in scenario.signals.items()}
    if scenario.nominal is not None:
        scen["nominal"] = scenario.nominal
    if scenario.input_name is not None:
        scen["input"] = scenario.input_name
    if scenario.window is not None:
        scen["window"] = list(scenario.window)
    if scenario.pinned is not None:
        pin = {}
        for name in ("R", "F", "L"):
            mat = getattr(scenario.pinned, name)
            if mat is not None:
                pin[name] = mat.to_strings()
        scen["pinned"] = pin
    if scen:
        out["scenario"] = scen
    return out
