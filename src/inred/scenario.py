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
from dataclasses import dataclass, field, replace
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from .exact import DimensionMismatch, RationalMatrix, Subspace, as_fraction, image
from .geometry import PinnedBases, SystemQuadruple
from .trajectory import ConstraintSet, Grid, Interpolation, Polyhedron, SampledSignal


MAX_EXPONENT = 10_000  # largest |e| of a rational literal written as digits x 10^e
MAX_GRID_NODES = 10**6  # most nodes of a scenario.grid: horizon / dt sizes its arrays


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


# ---------------------------------------------------------------------------
# readers: each takes a JSON value and the path that names it in messages

# A float field holds an int (integer literal), a Decimal (decimal literal) or
# a float (bare NaN, Infinity or -Infinity); bools, strings and null are refused.
_NUMBER_TYPES = {int, Decimal, float}
_INFINITIES = {"inf": math.inf, "+inf": math.inf, "infinity": math.inf,
               "-inf": -math.inf, "-infinity": -math.inf}


def _decode(text: Union[str, bytes], source: str) -> Any:
    try:
        return json.loads(text, parse_float=Decimal)
    except (ValueError, ArithmeticError, RecursionError) as exc:
        # ValueError: bad syntax or UTF-8, or an over-long integer literal; ArithmeticError:
        # an exponent Decimal cannot represent; RecursionError: nesting beyond the limit
        raise ScenarioError(f"{source}: not valid JSON: {exc}") from exc


def _field(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ScenarioError(f"{path}: missing '{key}'")
    return obj[key]


def _object(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path} must be an object")
    return obj


def _rows(obj: Any, path: str) -> list[list]:
    if (not isinstance(obj, list) or not all(isinstance(r, list) for r in obj)
            or len({len(r) for r in obj}) > 1):
        raise ScenarioError(f"{path} must be a list of equally long rows")
    return obj


def _rational(x: Any, path: str) -> Fraction:
    """x as an exact rational; a decimal literal with |e| > MAX_EXPONENT is
    refused before it becomes an integer of about 3.3 |e| bits."""
    try:
        d = Decimal(x) if isinstance(x, str) and "/" not in x else x
        if not (isinstance(d, Decimal) and d.is_finite()
                and abs(d.as_tuple().exponent) > MAX_EXPONENT):
            return as_fraction(x)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ScenarioError(f"bad rational in {path}: {x!r:.40}") from exc
    raise ScenarioError(f"bad rational in {path}: exponent beyond +-{MAX_EXPONENT}")


def _rational_matrix(obj: Any, path: str) -> RationalMatrix:
    return RationalMatrix.from_rows([[_rational(x, path) for x in row] for row in _rows(obj, path)])


def _floats(obj: Any, path: str, rows: bool = False, null: Optional[float] = None) -> np.ndarray:
    """A list of numbers, or with `rows` a list of rows of them, as a float array.

    With `null` (box bounds: -inf below, +inf above) a null reads as that
    infinity and "inf"-like strings are infinities.  A bare NaN or Infinity
    keeps its meaning, a -0.0 literal reads as 0.0 and a literal beyond the
    float range is refused.  The checks and the conversion run a list at a
    time: a signal can hold many thousands.
    """
    if rows:
        data = _rows(obj, path)
        values = list(chain.from_iterable(data))
        shape: tuple[int, ...] = (len(data), len(data[0]) if data else 0)
    elif isinstance(obj, list):
        values, shape = obj, (len(obj),)
    else:
        raise ScenarioError(f"{path} must be a list")
    if null is not None:
        values = [null if v is None else
                  _INFINITIES.get(v.strip().lower(), v) if isinstance(v, str) else v
                  for v in values]
    if not set(map(type, values)) <= _NUMBER_TYPES:
        bad = next(v for v in values if type(v) not in _NUMBER_TYPES)
        raise ScenarioError(f"{path}: expected a number, got {bad!r:.40}")
    try:
        array = np.fromiter(map(float, values), float, len(values)).reshape(shape)
        out_of_range = bool(np.isinf(array).any()) and any(
            math.isinf(x) and type(v) is not float for v, x in zip(values, array.flat))
    except OverflowError:  # an integer literal beyond the float range
        out_of_range = True
    if out_of_range:
        raise ScenarioError(f"{path}: number outside the float range")
    return array + 0.0  # + 0.0 reads a -0.0 literal as 0.0


def _float(x: Any, path: str) -> float:
    return float(_floats([x], path)[0])


def _optional(obj: dict, key: str, path: str, kind: type, default: Any) -> Any:
    value = obj.get(key, default)
    if value is not default and not isinstance(value, kind):
        raise ScenarioError(f"{path}.{key} must be a {kind.__name__}")
    return value


def _checked(make: Callable[..., Any], path: str, *args: Any, **kwargs: Any) -> Any:
    """make(*args, **kwargs), a ValueError but DimensionMismatch raised as a ScenarioError
    at path: Grid, SampledSignal, Polyhedron and Polyhedron.box check their input."""
    try:
        return make(*args, **kwargs)
    except DimensionMismatch:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _constraint(obj: Any, dim: int, path: str) -> ConstraintSet:
    if obj is None:
        return Subspace.full(dim)
    kind = _field(_object(obj, path), "type", path)
    if kind == "full":
        return Subspace.full(dim)
    if kind == "subspace":
        span = _rational_matrix(obj.get("span", []), f"{path}.span")  # one vector per row
        if span.rows and span.cols != dim:
            raise DimensionMismatch("spanning vector of wrong length")
        return image(span.transpose()) if span.rows else Subspace.zero(dim)
    if kind == "box":
        lower, upper = (_floats(_field(obj, key, path), f"{path}.{key}", null=unbounded)
                        for key, unbounded in (("lower", -math.inf), ("upper", math.inf)))
        if len(lower) != dim or len(upper) != dim:
            raise DimensionMismatch(f"{path}: box bounds must have length {dim}")
        return _checked(Polyhedron.box, path, lower, upper,
                        _optional(obj, "strict", path, bool, False))
    if kind == "polyhedron":
        G = _floats(_field(obj, "G", path), f"{path}.G", rows=True)
        g = _floats(_field(obj, "g", path), f"{path}.g")
        if G.shape[1] != dim:
            raise DimensionMismatch(f"{path}: G columns must equal {dim}")
        return _checked(Polyhedron, path, G, g, _optional(obj, "strict", path, bool, False))
    raise ScenarioError(f"{path}: unknown constraint type {kind!r:.40}")


def _grid(obj: Any, path: str) -> Grid:
    g = _object(obj, path)
    t0 = _float(g.get("t0", 0), f"{path}.t0")
    dt = _float(_field(g, "dt", path), f"{path}.dt")
    horizon = _float(_field(g, "horizon", path), f"{path}.horizon")
    steps = horizon / dt if dt > 0 and horizon > 0 else 0.0  # Grid refuses the rest
    if not steps < MAX_GRID_NODES - 0.5:  # round(steps) + 1 nodes; refuses inf and NaN
        raise ScenarioError(f"{path}: more than MAX_GRID_NODES = {MAX_GRID_NODES} nodes")
    return _checked(Grid, path, t0, dt, round(steps) + 1)


def _signal(obj: Any, path: str) -> SampledSignal:
    return _checked(
        SampledSignal, path,
        t0=_float(_field(_object(obj, path), "t0", path), f"{path}.t0"),
        dt=_float(_field(obj, "dt", path), f"{path}.dt"),
        values=_floats(_field(obj, "values", path), f"{path}.values", rows=True),
        interpolation=_checked(Interpolation, f"{path}.interpolation",
                               obj.get("interpolation", "linear")),
    )


def _x0(obj: Any, n: int, path: str) -> np.ndarray:
    x0 = _floats(obj, path)
    if len(x0) != n:
        raise DimensionMismatch(f"{path} length does not match the state dimension")
    return x0


def _window(obj: Any, grid: Optional[Grid], path: str) -> tuple[float, float]:
    """[t1, t2]; with a grid, both ends must be nodes of it."""
    t1t2 = _floats(obj, path).tolist()
    if len(t1t2) != 2:
        raise ScenarioError(f"{path} must be [t1, t2]")
    if grid is not None:
        for t in t1t2:
            _checked(grid.index_of, path, t)
    return (t1t2[0], t1t2[1])


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Parse and validate a scenario file.  An error names the JSON path at fault
    ("top level" for the document), not the file: the caller knows the file."""
    raw = _object(_decode(Path(path).read_bytes(), "top level"), "top level")
    sys_obj = _object(_field(raw, "system", "top level"), "system")
    system = SystemQuadruple(*(_rational_matrix(_field(sys_obj, name, "system"), f"system.{name}")
                               for name in "ABCD"))
    if system.m < 1:
        raise DimensionMismatch("system must have at least one input")
    cons = _object(raw.get("constraints", {}), "constraints")
    scen = _object(raw.get("scenario", {}), "scenario")
    grid = _grid(scen["grid"], "scenario.grid") if "grid" in scen else None
    signals = _object(scen.get("signals", {}), "scenario.signals")
    pins = _object(scen.get("pinned", {}), "scenario.pinned")
    return Scenario(
        system=system, u_constraint=_constraint(cons.get("u"), system.m, "constraints.u"),
        x_constraint=_constraint(cons.get("x"), system.n, "constraints.x"),
        x0=_x0(scen["x0"], system.n, "scenario.x0") if "x0" in scen else None,
        grid=grid,
        signals={name: _signal(spec, f"scenario.signals.{name}")
                 for name, spec in signals.items()},
        nominal=_optional(scen, "nominal", "scenario", str, None),
        input_name=_optional(scen, "input", "scenario", str, None),
        window=_window(scen["window"], grid, "scenario.window") if "window" in scen else None,
        pinned=PinnedBases(**{name: _rational_matrix(pins[name], f"scenario.pinned.{name}")
                              for name in ("R", "F", "L") if name in pins})
        if "pinned" in scen else None,
    )


def with_overrides(scenario: Scenario, x0: Optional[str] = None,
                   window: Optional[Sequence[str]] = None) -> Scenario:
    """`scenario` with `--x0 "a,b,c"` or `--window T1 T2` in place of its x0 or
    window; the numbers are JSON literals, read and checked as the file's are."""
    if x0 is not None:
        scenario = replace(scenario, x0=_x0(_decode(f"[{x0}]", "--x0"), scenario.system.n, "--x0"))
    if window is not None:
        value = _decode(f"[{','.join(window)}]", "--window")
        scenario = replace(scenario, window=_window(value, scenario.grid, "--window"))
    return scenario


def require_linear(cs: ConstraintSet) -> Subspace:
    """Constraint set as a subspace, or NonLinearConstraints.  A polyhedron of
    no row, such as a box with no finite bound, is the whole space."""
    if isinstance(cs, Subspace):
        return cs
    if cs.G.shape[0] == 0:
        return Subspace.full(cs.ambient_dim)
    raise NonLinearConstraints(
        f"{type(cs).__name__} constraints are not linear subspaces; "
        "use the trajectory/certification commands instead"
    )
