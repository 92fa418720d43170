"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import inred.cli
import inred.trajectory
from inred.cli import main
from inred.exact import Subspace
from inred.scenario import MAX_GRID_NODES, load_scenario
from inred.trajectory import SIGNAL_TOL

from test_trajectory import simulate_arrays_stepwise

DOCS = Path(__file__).resolve().parents[1] / "docs"
SRC = Path(__file__).resolve().parents[1] / "src"


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


def schema_validators():
    """Validators of docs/*.schema.json by name, or None without jsonschema."""
    if importlib.util.find_spec("jsonschema") is None:
        return None
    from jsonschema import Draft202012Validator

    return {name: Draft202012Validator(json.loads((DOCS / f"{name}.schema.json").read_text()))
            for name in ("scenario", "report", "certificate")}


def assert_valid(validator, instance, what):
    errors = [f"{list(e.absolute_path)}: {e.message}" for e in validator.iter_errors(instance)]
    assert not errors, f"{what} does not match its schema: {errors[:3]}"


@pytest.fixture(autouse=True)
def outputs_match_the_schemas(monkeypatch):
    """Each scenario a test here loads, and each report or certify payload the
    CLI writes, must validate against its schema in docs/ (with jsonschema)."""
    validators = schema_validators()
    if validators is None:
        return

    def loading(path, _load=load_scenario):
        scenario = _load(path)
        assert_valid(validators["scenario"], json.loads(Path(path).read_text()), path)
        return scenario

    def emitting(text, out, _emit=inred.cli._emit):
        _emit(text, out)
        try:
            payload = json.loads(text)
        except ValueError:  # CSV or a text report
            return
        if "kind" in payload:
            assert_valid(validators["report"], payload, "report")
        elif "certificate" in payload or "window" in payload:
            assert_valid(validators["certificate"], payload, "certify payload")

    monkeypatch.setattr(inred.cli, "load_scenario", loading)
    monkeypatch.setitem(globals(), "load_scenario", loading)
    monkeypatch.setattr(inred.cli, "_emit", emitting)


FOUR_INPUT_SYSTEM = {
    "A": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
    "B": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]],
    "C": [[0, 0, 1]],
    "D": [[0, 0, 0, 0]],
}

BUCK_SYSTEM = {
    "A": [[0, 0, -1], [0, 0, -1], [1, 1, -1]],
    "B": [[1, 0], [0, 1], [0, 0]],
    "C": [[0, 0, 1]],
    "D": [[0, 0]],
}


def four_input_scenario(pin=True):
    obj = {
        "system": FOUR_INPUT_SYSTEM,
        "constraints": {
            "u": {"type": "subspace",
                  "span": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]},
            "x": {"type": "subspace", "span": [[1, 0, 0], [0, 1, -1]]},
        },
    }
    if pin:
        obj["scenario"] = {
            "pinned": {
                "R": [[1, 0, 0], [0, 1, 0], [0, 0, "1/2"], [0, 0, "1/2"]],
                "F": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                "L": [[1, 0], [0, 1], [0, -1]],
            }
        }
    return obj


def signal_obj(values, dt=1e-3):
    return {"t0": 0.0, "dt": dt, "interpolation": "linear",
            "values": np.asarray(values, dtype=float).tolist()}


def ramp_values(dt=1e-3, horizon=2.0):
    ts = np.arange(int(round(horizon / dt)) + 1) * dt
    return np.where(ts[:, None] <= 1.0,
                    np.column_stack([1 - ts, ts]),
                    np.array([0.0, 1.0]))


def buck_certify_scenario(nominal_values, x0):
    return {
        "system": BUCK_SYSTEM,
        "constraints": {
            "u": {"type": "box", "lower": [0, 0], "upper": [1, 1]},
            "x": {"type": "full"},
        },
        "scenario": {
            "x0": x0,
            "signals": {"u1": signal_obj(nominal_values)},
            "nominal": "u1",
        },
    }


# ---------------------------------------------------------------------------
# analyze


def test_analyze_four_input(tmp_path, capsys):
    path = write(tmp_path, "four_input.json", four_input_scenario())
    assert main(["analyze", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "Kind2"
    assert report["degree"] == [0, 1]
    assert report["uniform"] is True


def test_analyze_unconstrained_four_input(tmp_path, capsys):
    obj = {"system": FOUR_INPUT_SYSTEM,
           "constraints": {"u": {"type": "full"}, "x": {"type": "full"}}}
    path = write(tmp_path, "four_input_unconstrained.json", obj)
    assert main(["analyze", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "Kind3"
    assert report["degree"] == [1, 2]


def test_analyze_buck_unconstrained(tmp_path, capsys):
    obj = {"system": BUCK_SYSTEM,
           "constraints": {"u": {"type": "full"}, "x": {"type": "full"}}}
    path = write(tmp_path, "buck_unconstrained.json", obj)
    assert main(["analyze", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "Kind2"


def test_analyze_rejects_box_constraints(tmp_path):
    obj = buck_certify_scenario(ramp_values().tolist(), [0, 0, 0])
    path = write(tmp_path, "buck_box.json", obj)
    assert main(["analyze", path]) == 2


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_analyze_reads_a_box_with_no_bound_as_the_whole_space(tmp_path, capsys, strict, fmt):
    obj = {"system": {"A": [[-1]], "B": [[1, 1]], "C": [[1]], "D": [[0, 0]]},
           "constraints": {"u": {"type": "full"}, "x": {"type": "full"}}}
    assert main(["analyze", write(tmp_path, "full.json", obj), "--format", fmt]) == 0
    full = capsys.readouterr()
    obj["constraints"]["u"] = {"type": "box", "lower": [None, None], "upper": [None, None],
                               "strict": strict}
    assert main(["analyze", write(tmp_path, "box.json", obj), "--format", fmt]) == 0
    assert capsys.readouterr() == full


def test_analyze_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 3


def test_analyze_missing_file():
    assert main(["analyze", "/nonexistent/file.json"]) == 3


def test_analyze_dimension_mismatch(tmp_path):
    obj = four_input_scenario(pin=False)
    obj["constraints"]["u"] = {"type": "subspace", "span": [[1, 0, 0]]}
    path = write(tmp_path, "bad_dims.json", obj)
    assert main(["analyze", path]) == 6


def test_span_of_the_wrong_length_exits_6_and_an_empty_span_is_zero(tmp_path, capsys):
    obj = four_input_scenario(pin=False)
    obj["constraints"]["x"] = {"type": "subspace", "span": [[1, 0]]}
    path = write(tmp_path, "short_span.json", obj)
    assert main(["analyze", path]) == 6
    assert capsys.readouterr().err == f"{path}: spanning vector of wrong length\n"
    obj["constraints"]["x"] = {"type": "subspace", "span": []}
    assert main(["analyze", write(tmp_path, "empty_span.json", obj)]) == 0
    assert json.loads(capsys.readouterr().out)["l"] == 0


def full_four_input_scenario(**pinned):
    obj = {"system": FOUR_INPUT_SYSTEM,
           "constraints": {"u": {"type": "full"}, "x": {"type": "full"}}}
    if pinned:
        obj["scenario"] = {"pinned": pinned}
    return obj


def test_pin_bases_with_full_sets_keeps_the_reduction(tmp_path, capsys, monkeypatch):
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    path = write(tmp_path, "pinned_full.json", full_four_input_scenario(R=identity))
    reductions = []
    original = inred.cli.analysis.reduce_system

    def counted(*args, **kwargs):
        reductions.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(inred.cli.analysis, "reduce_system", counted)
    outputs = []
    for flags in ([], ["--pin-bases"]):
        assert main(["analyze", path, *flags]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(reductions) == 1  # only the pinned run reduces
    assert outputs[0] == outputs[1]


def test_bad_pinned_friend_with_full_sets_is_refused(tmp_path, capsys):
    path = write(tmp_path, "bad_friend.json", full_four_input_scenario(F=[[0, 0], [0, 0]]))
    assert main(["analyze", path, "--pin-bases"]) == 3
    assert "F has the wrong shape" in capsys.readouterr().err
    assert main(["analyze", path]) == 0  # the pins are read only on request


def test_full_set_of_the_wrong_dimension_exits_6(tmp_path, capsys, monkeypatch):
    # the parser sizes a full set from the system, so widen it after parsing
    monkeypatch.setattr(inred.cli, "require_linear", lambda cs: Subspace.full(cs.ambient_dim + 1))
    path = write(tmp_path, "full.json", full_four_input_scenario())
    assert main(["analyze", path]) == 6
    assert "input constraint set must live in R^m" in capsys.readouterr().err


def test_analyze_text_format(tmp_path, capsys):
    path = write(tmp_path, "four_input.json", four_input_scenario())
    assert main(["analyze", path, "--format", "text"]) == 0
    assert "2nd kind" in capsys.readouterr().out


def test_analyze_to_file(tmp_path):
    path = write(tmp_path, "four_input.json", four_input_scenario())
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["kind"] == "Kind2"


# ---------------------------------------------------------------------------
# certify


def test_certify_buck_ramp(tmp_path, capsys):
    obj = buck_certify_scenario(ramp_values().tolist(), [0.2, 0.1, 0.3])
    path = write(tmp_path, "buck_certify.json", obj)
    assert main(["certify", path]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["route"]["type"] == "state_loop"
    assert cert["window"][0] <= 0.1 and cert["window"][1] >= 0.9
    assert cert["verification"]["admissible_both"] is True


def test_certify_zero_nominal_inconclusive(tmp_path, capsys):
    zeros = np.zeros((2001, 2)).tolist()
    obj = buck_certify_scenario(zeros, [0.0, 0.0, 0.0])
    path = write(tmp_path, "buck_zero.json", obj)
    assert main(["certify", path, "--check-boundary"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["inconclusive"] is True
    assert payload["boundary_residence"] is True


def test_certify_boundary_riding_pair_inconclusive(tmp_path, capsys):
    # nonnegative-orthant example, zero nominal from x0 = -1: the input rides
    # the boundary forever, so the sufficient condition cannot fire
    obj = {
        "system": {"A": [[-1]], "B": [[1, 1]], "C": [[1]], "D": [[1, 0]]},
        "constraints": {
            "u": {"type": "box", "lower": [0, 0], "upper": ["inf", "inf"]},
            "x": {"type": "full"},
        },
        "scenario": {
            "x0": [-1.0],
            "signals": {"u1": signal_obj(np.zeros((5001, 2)))},
            "nominal": "u1",
        },
    }
    path = write(tmp_path, "orthant_zero.json", obj)
    assert main(["certify", path, "--check-boundary"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["boundary_residence"] is True


def test_certify_x0_override(tmp_path, capsys):
    obj = buck_certify_scenario(ramp_values().tolist(), [0.0, 0.0, 0.0])
    path = write(tmp_path, "buck_certify.json", obj)
    assert main(["certify", path, "--x0", "0.3,0.2,0.1"]) == 0


def count_simulate_calls(monkeypatch):
    """Count the simulations made through the CLI's and synthesis' bindings."""
    import inred.cli
    import inred.synthesis

    calls = []
    for module in (inred.synthesis, inred.cli):
        def counted(*args, _original=module.simulate, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, "simulate", counted)
    return calls


def test_certified_op_simulates_the_nominal_once(tmp_path, capsys, monkeypatch):
    # one nominal simulation, one for the increment
    calls = count_simulate_calls(monkeypatch)
    obj = buck_certify_scenario(ramp_values().tolist(), [0.2, 0.1, 0.3])
    assert main(["certify", write(tmp_path, "buck_certify.json", obj)]) == 0
    assert len(calls) == 2


def test_inconclusive_boundary_check_reuses_the_nominal(tmp_path, capsys, monkeypatch):
    calls = count_simulate_calls(monkeypatch)
    obj = buck_certify_scenario(np.zeros((2001, 2)).tolist(), [0.0, 0.0, 0.0])
    assert main(["certify", write(tmp_path, "buck_zero.json", obj), "--check-boundary"]) == 4
    assert json.loads(capsys.readouterr().out)["boundary_residence"] is True
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# simulate


def escape_scenario(grid_n=2001):
    """xdot = x from x0 = 0.5 at rest, U = X = [0, 1]: leaves X at ln 2."""
    return {
        "system": {"A": [[1]], "B": [[1]], "C": [[1]], "D": [[0]]},
        "constraints": {
            "u": {"type": "box", "lower": [0], "upper": [1]},
            "x": {"type": "box", "lower": [0], "upper": [1]},
        },
        "scenario": {
            "x0": [0.5],
            "signals": {"rest": signal_obj(np.zeros((grid_n, 1)))},
            "input": "rest",
        },
    }


def test_simulate_escape_example(tmp_path):
    path = write(tmp_path, "escape.json", escape_scenario())
    out = tmp_path / "traj.csv"
    assert main(["simulate", path, "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "traj.csv.summary.json").read_text())
    assert summary["admissible"] is False
    assert abs(summary["first_violation"] - math.log(2)) <= 2e-3
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert set(rows[0]) == {"t", "u0", "x0", "y0"}
    assert float(rows[0]["x0"]) == pytest.approx(0.5)


def test_simulate_compatible_inputs_same_output_csv(tmp_path):
    ts = np.arange(5001) * 1e-3
    base = {
        "system": {"A": [[-1]], "B": [[1, 1]], "C": [[1]], "D": [[1, 0]]},
        "constraints": {
            "u": {"type": "box", "lower": [0, 0], "upper": ["inf", "inf"]},
            "x": {"type": "full"},
        },
    }
    obj2 = dict(base)
    obj2["scenario"] = {
        "x0": [-1.0],
        "signals": {"u2": signal_obj(np.column_stack([np.exp(-2 * ts), np.zeros_like(ts)]))},
        "input": "u2",
    }
    obj3 = dict(base)
    obj3["scenario"] = {
        "x0": [-1.0],
        "signals": {"u3": signal_obj(np.column_stack([np.exp(-3 * ts), np.exp(-3 * ts)]))},
        "input": "u3",
    }
    p2 = write(tmp_path, "orthant_u2.json", obj2)
    p3 = write(tmp_path, "orthant_u3.json", obj3)
    o2 = tmp_path / "u2.csv"
    o3 = tmp_path / "u3.csv"
    assert main(["simulate", p2, "--out", str(o2)]) == 0
    assert main(["simulate", p3, "--out", str(o3)]) == 0
    y2 = [float(r["y0"]) for r in csv.DictReader(o2.read_text().splitlines())]
    y3 = [float(r["y0"]) for r in csv.DictReader(o3.read_text().splitlines())]
    assert max(abs(a - b) for a, b in zip(y2, y3)) <= 1e-6


def test_simulate_zero_scenario(tmp_path, capsys):
    obj = {
        "system": {"A": [[0]], "B": [[1]], "C": [[1]], "D": [[0]]},
        "constraints": {"u": {"type": "full"}, "x": {"type": "full"}},
        "scenario": {"signals": {"z": signal_obj(np.zeros((11, 1)), dt=0.1)}},
    }
    path = write(tmp_path, "zero.json", obj)
    assert main(["simulate", path]) == 0
    out = capsys.readouterr().out
    assert '"admissible": true' in out


def test_simulate_dimension_mismatch(tmp_path):
    obj = {
        "system": {"A": [[0]], "B": [[1]], "C": [[1]], "D": [[0]]},
        "constraints": {"u": {"type": "full"}, "x": {"type": "full"}},
        "scenario": {"x0": [0, 0], "signals": {"z": signal_obj(np.zeros((11, 1)), dt=0.1)}},
    }
    path = write(tmp_path, "mismatch.json", obj)
    assert main(["simulate", path]) == 6


@pytest.mark.parametrize("u_constraint", [
    {"type": "full"},
    {"type": "box", "lower": [-1], "upper": [1]},
])
def test_simulate_nan_input_sample_is_not_admissible(tmp_path, capsys, u_constraint):
    obj = {
        "system": {"A": [[-1]], "B": [[1]], "C": [[1]], "D": [[0]]},
        "constraints": {"u": u_constraint, "x": {"type": "full"}},
        "scenario": {"signals": {"z": signal_obj([[0.0], [math.nan], [0.0]], dt=0.1)}},
    }
    path = write(tmp_path, "nan.json", obj)
    assert "NaN" in (tmp_path / "nan.json").read_text()  # a bare JSON NaN
    assert main(["simulate", path]) == 0
    assert '"admissible": false' in capsys.readouterr().out


def test_simulate_overflowing_trajectory_is_not_admissible(tmp_path, capsys):
    obj = {
        "system": {"A": [[1]], "B": [[1]], "C": [[1]], "D": [[0]]},
        "constraints": {"u": {"type": "full"}, "x": {"type": "full"}},
        "scenario": {"x0": [1.0], "signals": {"z": signal_obj(np.zeros((3, 1)), dt=1000.0)}},
    }
    path = write(tmp_path, "overflow.json", obj)
    with np.errstate(all="ignore"):
        assert main(["simulate", path]) == 0
    assert '"admissible": false' in capsys.readouterr().out


@pytest.mark.parametrize("a, first_violation", [(800, 0.89), (1e30, 0.01)])
@pytest.mark.parametrize("command, code", [("simulate", 0), ("certify", 5)])
def test_diverging_simulation_writes_no_warnings(tmp_path, capsys, a, first_violation,
                                                 command, code):
    """The states overflow (a = 800) or the matrix exponential does (a = 1e30);
    neither may warn, since the verdict already accounts for it."""
    obj = {
        "system": {"A": [[a]], "B": [[1, 1]], "C": [[1]], "D": [[0, 0]]},
        "constraints": {"u": {"type": "box", "lower": [-1, -1], "upper": [1, 1]},
                        "x": {"type": "full"}},
        "scenario": {"x0": [1.0], "signals": {"z": signal_obj(np.zeros((101, 2)), dt=0.01)}},
    }
    path = write(tmp_path, "diverging.json", obj)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, path]) == code
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert err == ""
    if command == "simulate":
        summary = json.loads(out[out.index("{"):])
        assert summary == {"admissible": False, "first_violation": first_violation}
    else:
        assert json.loads(out) == {
            "certificate": None,
            "error": f"nominal trajectory leaves the constraints at t = {first_violation}"}


LARGE_ROW = {"type": "polyhedron", "G": [[1e300]], "g": [1e308]}  # x <= 1e8


@pytest.mark.parametrize("obj, first_violation", [
    ({"system": {"A": [[0]], "B": [[1]], "C": [[1]], "D": [[0]]},
      "constraints": {"u": {"type": "full"}, "x": LARGE_ROW},
      "scenario": {"x0": [1.5e8], "signals": {"z": signal_obj(np.zeros((11, 1)), dt=0.1)}}},
     0.0),
    ({"system": {"A": [[800]], "B": [[1, 1]], "C": [[1]], "D": [[0, 0]]},
      "constraints": {"u": {"type": "box", "lower": [-1, -1], "upper": [1, 1]},
                      "x": LARGE_ROW},
      "scenario": {"x0": [1.0], "signals": {"z": signal_obj(np.zeros((101, 2)), dt=0.01)}}},
     0.03),
])
@pytest.mark.parametrize("command, code", [("simulate", 0), ("certify", 5)])
def test_polyhedron_row_of_large_scale_keeps_its_margins(tmp_path, capsys, obj, first_violation,
                                                         command, code):
    """The row norm 1e300 must not overflow: an infinite norm made every
    margin 0, a boundary point, so that x0 = 1.5e8 was admitted."""
    path = write(tmp_path, "large-row.json", obj)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, path]) == code
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert err == ""
    if command == "simulate":
        summary = json.loads(out[out.index("{"):])
        assert summary == {"admissible": False, "first_violation": first_violation}
    else:
        assert json.loads(out) == {
            "certificate": None,
            "error": f"nominal trajectory leaves the constraints at t = {first_violation}"}


def test_certify_scales_a_kernel_direction_beyond_the_square_range(tmp_path, capsys):
    """ker [B; D] is spanned by (1, -1e200): the increment is finite, but the
    square of its entry overflows, which read as a peak that is not finite."""
    obj = {
        "system": {"A": [[-1]], "B": [[1, "1e-200"]], "C": [[1]], "D": [[0, 0]]},
        "constraints": {"u": {"type": "box", "lower": [-1, -1], "upper": [1, 1]},
                        "x": {"type": "full"}},
        "scenario": {"x0": [0.0], "signals": {"z": signal_obj(np.zeros((11, 2)), dt=0.01)}},
    }
    path = write(tmp_path, "huge-direction.json", obj)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["certify", path]) == 0
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert err == ""
    cert = json.loads(out)
    assert cert["route"] == {"type": "kernel_bump"} and cert["window"] == [0.0, 0.1]
    assert cert["alpha"] == pytest.approx(9e-201)
    assert cert["verification"]["admissible_both"] is True
    assert cert["verification"]["y_sup_diff"] < 1e-200


@pytest.mark.parametrize("block", [
    {"scenario": {"signals": [1, 2]}},
    {"scenario": {"grid": 3}},
    {"system": 3},
])
def test_malformed_scenario_block_is_a_parse_error(tmp_path, capsys, block):
    obj = {"system": {"A": [[0]], "B": [[1]], "C": [[1]], "D": [[0]]}, **block}
    path = write(tmp_path, "malformed.json", obj)
    assert main(["simulate", path]) == 3
    assert "must be an object" in capsys.readouterr().err


SMALL_SIMULATE = {
    "system": {"A": [[-1]], "B": [[1]], "C": [[1]], "D": [[0]]},
    "constraints": {"u": {"type": "box", "lower": [-1], "upper": [1]}, "x": {"type": "full"}},
    "scenario": {"x0": [0.0], "signals": {"z": signal_obj([[0.0], [0.5], [0.0]], dt=0.1)}},
}


@pytest.mark.parametrize("name,text,message", [
    ("obj.json", '{"constraints": {}}', "top level: missing 'system'"),
    ("arr.json", "[1]", "top level must be an object"),
    ("bigint.json", '{"system": {"A": [[' + "9" * 5000 + ']]}}', "top level: not valid JSON"),
], ids=["no-system", "array", "bigint"])
def test_parse_error_names_the_file_once(tmp_path, capsys, name, text, message):
    (tmp_path / name).write_text(text)
    assert main(["analyze", str(tmp_path / name)]) == 3
    err = capsys.readouterr().err
    assert err.count(name) == 1 and message in err


@pytest.mark.parametrize("bounds,sample", [(([None], [1]), -1e6), (([-1], [None]), 1e6)],
                         ids=["lower", "upper"])
def test_null_box_bound_is_unbounded_on_its_side(tmp_path, capsys, bounds, sample):
    obj = json.loads(json.dumps(SMALL_SIMULATE))
    obj["constraints"]["u"] = {"type": "box", "lower": bounds[0], "upper": bounds[1]}
    obj["scenario"]["signals"]["z"] = signal_obj([[0.0], [sample], [0.0]], dt=0.1)
    assert main(["simulate", write(tmp_path, "null.json", obj)]) == 0
    assert '"admissible": true' in capsys.readouterr().out


def write_with_literal(tmp_path, obj, literal):
    """Write obj as JSON with the string "LITERAL" replaced by a raw number
    literal that json.dumps cannot produce from a float."""
    path = tmp_path / "literal.json"
    path.write_text(json.dumps(obj).replace('"LITERAL"', literal))
    return str(path)


@pytest.mark.parametrize("where", ["sample", "x0", "box_upper", "polyhedron_G", "polyhedron_g"])
@pytest.mark.parametrize("literal", ["1e400", "-1e400", "9" * 400, "1e9999999999999999999",
                                     "1" * 5000],
                         ids=["1e400", "-1e400", "400-digit", "huge-exponent", "5000-digit"])
def test_number_outside_the_float_range_is_a_parse_error(tmp_path, capsys, where, literal):
    obj = json.loads(json.dumps(SMALL_SIMULATE))
    scen = obj["scenario"]
    if where == "sample":
        scen["signals"]["z"]["values"][1] = ["LITERAL"]
    elif where == "x0":
        scen["x0"] = ["LITERAL"]
    elif where == "box_upper":
        obj["constraints"]["u"]["upper"] = ["LITERAL"]
    else:
        poly = {"type": "polyhedron", "G": [[1.0]], "g": [1.0]}
        if where == "polyhedron_G":
            poly["G"] = [["LITERAL"]]
        else:
            poly["g"] = ["LITERAL"]
        obj["constraints"]["u"] = poly
    path = write_with_literal(tmp_path, obj, literal)
    assert main(["simulate", path]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_negative_zero_literal_reads_as_zero(tmp_path, capsys):
    obj = json.loads(json.dumps(SMALL_SIMULATE))
    obj["scenario"]["signals"]["z"]["values"][1] = ["LITERAL"]
    assert main(["simulate", write_with_literal(tmp_path, obj, "-0.0")]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()[:4]))
    assert rows[2][1] == "0.0"


def test_decimal_matrix_literal_is_exact(tmp_path):
    obj = json.loads(json.dumps(SMALL_SIMULATE))
    obj["system"]["A"] = [["LITERAL"]]
    scenario = load_scenario(write_with_literal(tmp_path, obj, "-0.1"))
    assert scenario.system.A.entries[0][0] == Fraction(-1, 10)


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    assert main(["analyze", str(path)]) == 3
    assert "Traceback" not in capsys.readouterr().err


SCALAR_ANALYZE = {
    "system": {"A": [["A"]], "B": [[1]], "C": [[1]], "D": [[0]]},
    "constraints": {"u": {"type": "full"}, "x": {"type": "subspace", "span": [["X"]]}},
}


def write_scalar_analyze(tmp_path, a_entry, span_entry):
    text = json.dumps(SCALAR_ANALYZE).replace('"A"]', a_entry + "]", 1)
    path = tmp_path / "scalar.json"
    path.write_text(text.replace('"X"', span_entry))
    return str(path)


@pytest.mark.parametrize("where", ["matrix", "span"])
@pytest.mark.parametrize("literal", ["1e1000000", '"1e1000000"', "-2.5e-1000000",
                                     '"1e99999999999999999999"', '"1E1_000_000"'])
def test_huge_decimal_exponent_is_a_parse_error(tmp_path, capsys, where, literal):
    a_entry, span_entry = (literal, "1") if where == "matrix" else ("1", literal)
    path = write_scalar_analyze(tmp_path, a_entry, span_entry)
    start = time.perf_counter()
    assert main(["analyze", path]) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert ("system.A" if where == "matrix" else "constraints.x") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("literal", ["1e10000", '"-1e-10000"', '"3/7"', "0.125"])
def test_decimal_exponent_at_the_limit_is_accepted(tmp_path, literal):
    assert main(["analyze", write_scalar_analyze(tmp_path, literal, literal)]) == 0


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "input", ["z"]),
    ("simulate", "input", 3),
    ("simulate", "nominal", ["z"]),
    ("certify", "nominal", ["z"]),
    ("certify", "nominal", {"name": "z"}),
])
def test_non_string_signal_name_is_a_parse_error(tmp_path, capsys, command, key, value):
    obj = json.loads(json.dumps(SMALL_SIMULATE))
    obj["scenario"][key] = value
    path = write(tmp_path, "name.json", obj)
    assert main([command, path]) == 3
    err = capsys.readouterr().err
    assert f"scenario.{key}" in err and "Traceback" not in err


@pytest.mark.parametrize("strict", ["no", "false", 1, 0, None])
@pytest.mark.parametrize("kind", ["box", "polyhedron"])
def test_non_boolean_strict_is_a_parse_error(tmp_path, capsys, strict, kind):
    obj = json.loads(json.dumps(SMALL_SIMULATE))
    if kind == "polyhedron":
        obj["constraints"]["u"] = {"type": "polyhedron", "G": [[1.0]], "g": [1.0]}
    obj["constraints"]["u"]["strict"] = strict
    path = write(tmp_path, "strict.json", obj)
    assert main(["simulate", path]) == 3
    err = capsys.readouterr().err
    assert "constraints.u.strict" in err and "Traceback" not in err


def test_boolean_matrix_entry_is_a_parse_error(tmp_path, capsys):
    obj = {"system": {"A": [[True]], "B": [[1]], "C": [[1]], "D": [[0]]}}
    path = write(tmp_path, "bool_entry.json", obj)
    assert main(["analyze", path]) == 3
    err = capsys.readouterr().err
    assert "system.A" in err and "Traceback" not in err


def test_boolean_span_entry_is_a_parse_error(tmp_path, capsys):
    obj = four_input_scenario(pin=False)
    obj["constraints"]["x"] = {"type": "subspace", "span": [[1, False, 0]]}
    path = write(tmp_path, "bool_span.json", obj)
    assert main(["analyze", path]) == 3
    err = capsys.readouterr().err
    assert "constraints.x" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# the blocked simulator against the per-step loop, end to end


def kernel_bump_certify_scenario():
    """The four-input system with a nominal inside U = [0, 1]^4: rho = 1."""
    return {
        "system": FOUR_INPUT_SYSTEM,
        "constraints": {
            "u": {"type": "box", "lower": [0, 0, 0, 0], "upper": [1, 1, 1, 1]},
            "x": {"type": "full"},
        },
        "scenario": {
            "x0": [0.1, -0.2, 0.3],
            "signals": {"u1": signal_obj(np.column_stack(
                [0.5 + 0.3 * np.sin(k * np.arange(2001) * 1e-3) for k in (1, 2, 3, 4)]))},
            "nominal": "u1",
        },
    }


def run_with_both_simulators(monkeypatch, capsys, argv):
    """(exit code, stdout) of `main(argv)`, first with the blocked simulator,
    then with the per-step loop it replaced monkeypatched in."""
    runs = []
    for stepwise in (False, True):
        with monkeypatch.context() as patch:
            if stepwise:
                patch.setattr(inred.trajectory, "_simulate_arrays", simulate_arrays_stepwise)
            code = main(argv)
        runs.append((code, capsys.readouterr().out))
    return runs


def certify_verdict(payload):
    """What must not move with the simulator; sup|y~| only has to verify."""
    if "verification" not in payload:  # inconclusive or failed: the whole payload
        return payload
    assert payload["verification"]["y_sup_diff"] <= SIGNAL_TOL
    return {"window": payload["window"], "route": payload["route"],
            "alpha": payload["alpha"], "u_hat": payload["u_hat"],
            "admissible_both": payload["verification"]["admissible_both"]}


@pytest.mark.parametrize("command, scenario, flags, code", [
    ("certify", kernel_bump_certify_scenario, [], 0),
    ("certify", lambda: buck_certify_scenario(ramp_values().tolist(), [0.2, 0.1, 0.3]), [], 0),
    ("certify", lambda: buck_certify_scenario(np.zeros((2001, 2)).tolist(), [0.0, 0.0, 0.0]),
     ["--check-boundary"], 4),
    ("simulate", lambda: buck_certify_scenario(ramp_values().tolist(), [0.2, 0.1, 0.3]), [], 0),
    ("simulate", escape_scenario, [], 0),
], ids=["kernel-bump", "state-loop", "inconclusive", "admissible", "escape"])
def test_verdicts_match_the_per_step_simulator(tmp_path, capsys, monkeypatch,
                                               command, scenario, flags, code):
    path = write(tmp_path, "case.json", scenario())
    (code_blocked, out_blocked), (code_stepwise, out_stepwise) = run_with_both_simulators(
        monkeypatch, capsys, [command, path, *flags])
    assert code_blocked == code_stepwise == code
    if command == "certify":
        verdicts = [certify_verdict(json.loads(out)) for out in (out_blocked, out_stepwise)]
    else:  # the summary follows the CSV, which has no braces
        verdicts = [json.loads(out[out.index("{"):]) for out in (out_blocked, out_stepwise)]
    assert verdicts[0] == verdicts[1]


# ---------------------------------------------------------------------------
# synthesize


def test_synthesize_kernel_route(tmp_path, capsys):
    obj = {
        "system": FOUR_INPUT_SYSTEM,
        "constraints": {"u": {"type": "full"}, "x": {"type": "full"}},
        "scenario": {"grid": {"t0": 0.0, "dt": 1e-3, "horizon": 2.0},
                     "window": [0.2, 1.2]},
    }
    path = write(tmp_path, "synth.json", obj)
    assert main(["synthesize", path]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    peak = [float(rows[700][f"u{i}"]) for i in range(4)]
    assert peak == pytest.approx([0, 0, 1, -1])


def test_synthesize_loop_route(tmp_path, capsys):
    obj = {
        "system": BUCK_SYSTEM,
        "constraints": {"u": {"type": "full"}, "x": {"type": "full"}},
        "scenario": {"grid": {"t0": 0.0, "dt": 1e-3, "horizon": 2.0},
                     "window": [0.0, 1.0]},
    }
    path = write(tmp_path, "synth_loop.json", obj)
    assert main(["synthesize", path]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert set(rows[0]) == {"t", "u0", "u1", "x0", "x1", "x2"}
    mid = [float(rows[500][f"x{i}"]) for i in range(3)]
    assert mid[0] == pytest.approx(-mid[1])


@pytest.mark.parametrize("scenario, route", [
    (kernel_bump_certify_scenario, "kernel_bump"),
    (lambda: buck_certify_scenario(ramp_values().tolist(), [0.2, 0.1, 0.3]), "state_loop"),
], ids=["kernel-bump", "state-loop"])
def test_synthesize_builds_the_increment_certify_certifies(tmp_path, capsys, scenario, route):
    obj = scenario()
    assert main(["certify", write(tmp_path, "certify.json", obj)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["route"]["type"] == route
    obj["scenario"] = {"grid": {"t0": 0.0, "dt": 1e-3, "horizon": 2.0},
                       "window": cert["window"]}
    assert main(["synthesize", write(tmp_path, "synthesize.json", obj)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    m = len(cert["u_hat"]["values"][0])
    assert [[float(row[f"u{i}"]) for i in range(m)] for row in rows] == cert["u_hat"]["values"]
    states = sorted(name for name in rows[0] if name.startswith("x"))
    if route == "kernel_bump":
        assert states == []
    else:
        t_mid = cert["route"]["t_mid"]
        assert abs(t_mid - sum(cert["window"]) / 2) <= 0.5e-3  # the node nearest the middle
        mid = next(row for row in rows if float(row["t"]) == t_mid)
        assert [float(mid[name]) for name in states] == cert["route"]["x_peak"]


def test_synthesize_failure_exit_code(tmp_path):
    obj = {
        "system": {"A": [[0]], "B": [[1]], "C": [[1]], "D": [[0]]},
        "constraints": {"u": {"type": "full"}, "x": {"type": "full"}},
        "scenario": {"grid": {"t0": 0.0, "dt": 1e-3, "horizon": 1.0},
                     "window": [0.0, 0.8]},
    }
    path = write(tmp_path, "synth_bad.json", obj)
    assert main(["synthesize", path]) == 5


def synthesize_scenario(dt, horizon, window):
    return {
        "system": FOUR_INPUT_SYSTEM,
        "constraints": {"u": {"type": "full"}, "x": {"type": "full"}},
        "scenario": {"grid": {"t0": 0.0, "dt": dt, "horizon": horizon}, "window": window},
    }


@pytest.mark.parametrize("window,flag", [
    ([0.2, 1.2], True),   # 0.2 is not a node when dt = 0.003
    ([0.2, 1.2], False),
    ([0.3, 3.0], True),   # 3.0 lies past the horizon
    ([0.3, 3.0], False),
])
def test_window_off_the_grid_is_a_parse_error(tmp_path, capsys, window, flag):
    obj = synthesize_scenario(0.003, 1.5, [0.3, 0.6] if flag else window)
    argv = ["synthesize", write(tmp_path, "synth.json", obj)]
    if flag:
        argv += ["--window", *map(str, window)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert ("--window" if flag else "scenario.window") in err and "Traceback" not in err


@pytest.mark.parametrize("x0,code", [("a,b,c", 3), (",", 3), ("1e400,0,0", 3), ("0.1,0.2", 6)])
def test_malformed_x0_flag(tmp_path, capsys, x0, code):
    obj = buck_certify_scenario(np.zeros((3, 2)).tolist(), [0.0, 0.0, 0.0])
    assert main(["certify", write(tmp_path, "c.json", obj), "--x0", x0]) == code
    err = capsys.readouterr().err
    assert "--x0" in err and "Traceback" not in err


@pytest.mark.parametrize("constraint,named", [
    ({"type": "box", "lower": [2], "upper": [1]}, "constraints.u"),
    ({"type": "polyhedron", "G": [[0.0]], "g": [1.0]}, "constraints.u"),
    ({"type": "polyhedron", "G": 5, "g": [1.0]}, "constraints.u.G"),
    ({"type": "subspace", "span": [5]}, "constraints.u.span"),
    ({"type": "box", "lower": ["inf"], "upper": [None]}, "constraints.u"),
    ({"type": "box", "lower": [None], "upper": ["-inf"]}, "constraints.u"),
    ({"type": "box", "lower": [math.nan], "upper": [1]}, "constraints.u"),
    ({"type": "polyhedron", "G": [[1.0]], "g": [math.nan]}, "constraints.u"),
], ids=["box-order", "zero-row", "G-scalar", "span-scalar", "box-lower-inf",
        "box-upper-minus-inf", "box-nan", "polyhedron-nan-g"])
def test_constraint_the_constructor_refuses_is_a_parse_error(tmp_path, capsys, constraint, named):
    obj = json.loads(json.dumps(SMALL_SIMULATE))
    obj["constraints"]["u"] = constraint
    assert main(["simulate", write(tmp_path, "bad_set.json", obj)]) == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


EMPTY_BOX = {
    "system": {"A": [[-1]], "B": [[1, 1]], "C": [[1]], "D": [[0, 0]]},
    "constraints": {"u": {"type": "box", "lower": ["inf", 0], "upper": [None, 1]},
                    "x": {"type": "box", "lower": [None], "upper": ["-inf"]}},
    "scenario": {"x0": [0.5], "nominal": "u",
                 "signals": {"u": signal_obj([[0.0, 0.5]] * 5, dt=0.01)}},
}


@pytest.mark.parametrize("command", ["simulate", "certify"])
@pytest.mark.parametrize("empty", ["u", "x"])
def test_empty_box_is_a_parse_error(tmp_path, capsys, command, empty):
    # U and X are empty; the infinite bounds used to drop out, so that both
    # read as the whole space and the nominal came out admissible
    obj = json.loads(json.dumps(EMPTY_BOX))
    other = "x" if empty == "u" else "u"
    obj["constraints"][other] = {"type": "full"}
    assert main([command, write(tmp_path, "empty.json", obj)]) == 3
    err = capsys.readouterr().err
    assert f"constraints.{empty}: box is empty" in err and "Traceback" not in err


@pytest.mark.parametrize("key,value", [("dt", math.inf), ("dt", math.nan), ("t0", math.inf)])
def test_non_finite_signal_step_or_start_is_a_parse_error(tmp_path, capsys, key, value):
    obj = json.loads(json.dumps(SMALL_SIMULATE))
    obj["scenario"]["signals"]["z"][key] = value
    assert main(["simulate", write(tmp_path, "step.json", obj)]) == 3
    err = capsys.readouterr().err
    assert "scenario.signals.z" in err and "Traceback" not in err


def test_grid_at_the_node_limit_is_accepted(tmp_path):
    obj = synthesize_scenario(1.0, MAX_GRID_NODES - 1, [0.0, 2.0])
    assert load_scenario(write(tmp_path, "grid.json", obj)).grid.n == MAX_GRID_NODES


@pytest.mark.parametrize("dt,horizon", [(1.0, MAX_GRID_NODES), (1e-300, 1.0), (1e-3, 1e308)],
                         ids=["one-past-the-limit", "tiny-dt", "huge-horizon"])
def test_grid_beyond_the_node_limit_is_a_parse_error(tmp_path, capsys, dt, horizon):
    path = write(tmp_path, "grid.json", synthesize_scenario(dt, horizon, [0.0, 1.0]))
    start = time.perf_counter()
    assert main(["synthesize", path]) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert "scenario.grid" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--tol", "--dt", "--horizon", "--route"])
@pytest.mark.parametrize("command", ["analyze", "certify", "simulate", "synthesize"])
def test_removed_flags_are_usage_errors(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, write(tmp_path, "s.json", SMALL_SIMULATE), flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_schemas_are_valid_and_describe_a_certify_failure(tmp_path, capsys):
    pytest.importorskip("jsonschema")
    validators = schema_validators()
    for validator in validators.values():
        validator.check_schema(validator.schema)
    outside = buck_certify_scenario(np.full((3, 2), 2.0).tolist(), [0.0, 0.0, 0.0])
    assert main(["certify", write(tmp_path, "outside.json", outside)]) == 5
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"] is None
    assert_valid(validators["certificate"], payload, "exit-5 payload")


# ---------------------------------------------------------------------------
# multi-file runs


def test_multi_file_analyze_with_jobs(tmp_path):
    p1 = write(tmp_path, "a.json", four_input_scenario())
    obj = {"system": FOUR_INPUT_SYSTEM,
           "constraints": {"u": {"type": "full"}, "x": {"type": "full"}}}
    p2 = write(tmp_path, "b.json", obj)
    out_dir = tmp_path / "reports"
    out_dir.mkdir()
    assert main(["analyze", p1, p2, "--jobs", "2", "--out", str(out_dir)]) == 0
    r1 = json.loads((out_dir / "a.report.json").read_text())
    r2 = json.loads((out_dir / "b.report.json").read_text())
    assert r1["kind"] == "Kind2" and r2["kind"] == "Kind3"


def test_multi_file_worst_exit_code(tmp_path):
    good = write(tmp_path, "good.json", four_input_scenario())
    bad = tmp_path / "bad.json"
    bad.write_text("nope")
    out_dir = tmp_path / "reports"
    out_dir.mkdir()
    assert main(["analyze", good, str(bad), "--out", str(out_dir)]) == 3


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_inputs_with_one_stem_are_refused_before_running(tmp_path, capsys, jobs):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1 = write(tmp_path / "a", "s.json", four_input_scenario())
    p2 = write(tmp_path / "b", "s.json", {
        "system": FOUR_INPUT_SYSTEM,
        "constraints": {"u": {"type": "full"}, "x": {"type": "full"}}})
    out_dir = tmp_path / "reports"
    out_dir.mkdir()
    assert main(["analyze", p1, p2, "--out", str(out_dir), "--jobs", jobs]) == 3
    err = capsys.readouterr().err
    assert p1 in err and p2 in err
    assert list(out_dir.iterdir()) == []


# ---------------------------------------------------------------------------
# what a fresh interpreter loads


def run_fresh(code: str, *args: str) -> str:
    """Standard output of `code` run in a fresh interpreter with `src` on its path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


LOADED_SCIPY = """
import json, sys
import inred
bare = "scipy" in sys.modules
from inred.cli import main
analyze = main(["analyze", sys.argv[1], "--out", sys.argv[2]])
after_analyze = "scipy" in sys.modules
certify = main(["certify", sys.argv[3], "--out", sys.argv[4]])
print(json.dumps([bare, analyze, after_analyze, certify, "scipy" in sys.modules]))
"""


def test_analyze_never_loads_scipy_and_certify_does(tmp_path):
    scenario = write(tmp_path, "four_input.json", four_input_scenario())
    buck = write(tmp_path, "buck.json",
                 buck_certify_scenario(ramp_values().tolist(), [0.2, 0.1, 0.3]))
    report, cert = tmp_path / "report.json", tmp_path / "cert.json"
    loaded = json.loads(run_fresh(LOADED_SCIPY, scenario, str(report), buck, str(cert)))
    assert loaded == [False, 0, False, 0, True]
    assert json.loads(report.read_text())["kind"] == "Kind2"
    assert json.loads(cert.read_text())["route"]["type"] == "state_loop"


BATCH = """
import sys
from inred.cli import main
assert "scipy" not in sys.modules
jobs, out_dir, *paths = sys.argv[1:]
print(main(["certify", *paths, "--out", out_dir, "--jobs", jobs]))
"""


def test_first_scipy_import_in_worker_threads_matches_one_job(tmp_path):
    # with --jobs 2 the first matrix exponential, and so the scipy import,
    # runs in two threads at once
    paths = [write(tmp_path, f"buck{i}.json", buck_certify_scenario(ramp_values().tolist(), x0))
             for i, x0 in enumerate([[0.2, 0.1, 0.3], [0.0, 0.0, 0.0]])]
    results = {}
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"jobs{jobs}"
        out_dir.mkdir()
        code = run_fresh(BATCH, jobs, str(out_dir), *paths)
        results[jobs] = (code, {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
    assert len(results["1"][1]) == 2
    assert results["2"] == results["1"]


CALL_MAIN = """
import contextlib, io, json, sys
from inred.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def test_calls_in_one_process_match_fresh_calls(tmp_path):
    # the parser is built once per process; no call may leave state for the next
    analyze = write(tmp_path, "four_input.json", four_input_scenario())
    buck = write(tmp_path, "buck.json",
                 buck_certify_scenario(ramp_values().tolist(), [0.2, 0.1, 0.3]))
    calls = [
        ["analyze", analyze, "--format", "text"],
        ["analyze", analyze, "--bogus"],
        ["certify", buck, "--out", "{out}"],
        ["analyze", analyze],
    ]
    results = {}
    for where in ("fresh", "in-process"):
        results[where] = []
        for i, argv in enumerate(calls):
            out = tmp_path / f"{where}{i}.json"
            argv = [arg.format(out=out) for arg in argv]
            if where == "fresh":
                code, stdout, stderr = json.loads(run_fresh(CALL_MAIN, *argv))
            else:
                stdout_io, stderr_io = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout_io), contextlib.redirect_stderr(stderr_io):
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                stdout, stderr = stdout_io.getvalue(), stderr_io.getvalue()
            written = out.read_bytes() if out.exists() else None
            results[where].append((code, stdout, stderr, written))
    assert [r[0] for r in results["fresh"]] == [0, 2, 0, 0]
    assert results["in-process"] == results["fresh"]
