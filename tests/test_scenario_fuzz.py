"""Malformed scenarios end in a documented exit code, never a traceback.

A Hypothesis property replaces one node of a small valid scenario, for each
command, with an arbitrary JSON value and runs the CLI on the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

from hypothesis import example, given, settings, strategies as st

from inred.cli import main

SIGNAL = {"t0": 0.0, "dt": 0.2, "interpolation": "linear",
          "values": [[1.0 - 0.1 * k, 0.1 * k] for k in range(11)]}

BASES = {
    "analyze": {
        "system": {"A": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
                   "B": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]],
                   "C": [[0, 0, 1]], "D": [[0, 0, 0, 0]]},
        "constraints": {"u": {"type": "subspace",
                              "span": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]},
                        "x": {"type": "subspace", "span": [[1, 0, 0], [0, "1/2", "-0.5"]]}},
        "scenario": {"pinned": {"R": [[1, 0, 0], [0, 1, 0], [0, 0, "1/2"], [0, 0, "1/2"]],
                                "F": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                                "L": [[1, 0], [0, 1], [0, -1]]}},
    },
    "certify": {
        "system": {"A": [[0, 0, -1], [0, 0, -1], [1, 1, -1]], "B": [[1, 0], [0, 1], [0, 0]],
                   "C": [[0, 0, 1]], "D": [[0, 0]]},
        "constraints": {"u": {"type": "box", "lower": [0, "-inf"], "upper": [1, None]},
                        "x": {"type": "full"}},
        "scenario": {"x0": [0.2, 0.1, 0.3], "signals": {"u1": SIGNAL}, "nominal": "u1"},
    },
    "simulate": {
        "system": {"A": [[-1]], "B": [[1, 1]], "C": [[1]], "D": [[1, 0]]},
        "constraints": {"u": {"type": "box", "lower": [0, 0], "upper": [2, 2], "strict": False},
                        "x": {"type": "polyhedron", "G": [[1.0]], "g": [2.0]}},
        "scenario": {"x0": [0.5], "signals": {"u1": SIGNAL}, "input": "u1"},
    },
    "synthesize": {
        "system": {"A": [[0, 0, -1], [0, 0, -1], [1, 1, -1]], "B": [[1, 0], [0, 1], [0, 0]],
                   "C": [[0, 0, 1]], "D": [[0, 0]]},
        "constraints": {"u": {"type": "full"}, "x": {"type": "full"}},
        "scenario": {"grid": {"t0": 0.0, "dt": 0.1, "horizon": 1.0}, "window": [0.2, 0.8]},
    },
}


def nodes(obj, path=()):
    """The path of every node of a JSON tree, the root included."""
    yield path
    children = (obj.items() if isinstance(obj, dict)
                else enumerate(obj) if isinstance(obj, list) else ())
    for key, child in children:
        yield from nodes(child, path + (key,))


def mutated(obj, path, value):
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


LEAVES = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
          | st.sampled_from(["inf", "-inf", "1/0", "", "x", "1/2", "1e400", "linear", "box"])
          | st.sampled_from([10**400, -(10**400), 2**64, 1e308, -1e308, 1e-300, -0.0, 0.5,
                             math.nan, math.inf, -math.inf]))
JSON_VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["type", "t0", "dt", "values", "x"]), children, max_size=3),
    max_leaves=6,
)
MUTATIONS = st.sampled_from(sorted(BASES)).flatmap(
    lambda command: st.tuples(st.just(command), st.sampled_from(list(nodes(BASES[command]))),
                              JSON_VALUES))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(mutation=MUTATIONS)
@example(mutation=("synthesize", ("scenario", "grid", "dt"), 1e-300))
@example(mutation=("synthesize", ("scenario", "grid", "horizon"), 1e308))
@example(mutation=("synthesize", ("scenario", "window"), [0.25, 0.8]))
@example(mutation=("synthesize", ("scenario", "window"), [0.2, 5.0]))
@example(mutation=("simulate", ("constraints", "u", "lower"), [3, 0]))
@example(mutation=("simulate", ("constraints", "x", "G"), [[0.0]]))
@example(mutation=("simulate", ("constraints", "x", "G"), 5))
@example(mutation=("analyze", ("constraints", "x", "span"), [5]))
@example(mutation=("simulate", ("scenario", "x0", 0), math.nan))
@example(mutation=("certify", ("scenario", "signals", "u1", "t0"), 2**64))
@example(mutation=("certify", ("system", "A", 0, 0), "1e400"))
def test_mutated_scenario_ends_in_a_documented_exit_code(tmp_path_factory, mutation):
    command, node, value = mutation
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(json.dumps(mutated(BASES[command], node, value)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, str(path)] + (["--pin-bases"] if command == "analyze" else []))
    assert code in (0, 2, 3, 4, 5, 6)
    assert "Traceback" not in err.getvalue()
