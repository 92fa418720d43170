"""Output digests of a seeded scenario corpus: the gate that outputs stay put.

Runs `inred.cli.main` on every case of a seeded corpus and pins what it
writes:

* Exact outputs are pinned by the SHA-256 of their bytes: the analyze
  reports (JSON and `--format text`), every exit code, every stderr, and the
  payload of a certify or synthesize run that ends without a certificate or
  increment.
* Float outputs (certificates, simulate and synthesize CSVs) are pinned by
  structure, because their last bits depend on numpy, scipy and BLAS.  The
  exit code, route, window, `t_mid`, admissibility, first violation, CSV
  header and sample counts are pinned exactly.  alpha, sup|y~|, `x_peak` and
  a summary of every float array are pinned to a relative tolerance RTOL
  with an absolute floor ATOL (`math.isclose`).  The summary of an array
  holds, per column, its count of non-finite entries (exact), its largest
  finite magnitude, and the sum and the sum of magnitudes of its finite
  entries divided by the largest finite magnitude of the whole array, so
  that columns of rounding noise stay below ATOL.

Each case is written to corpus/<name>.json in a scratch directory and run
from there by that relative path, because the CLI prefixes stderr with the
path it was given.  A case of several files is written to
corpus/<name>-<i>.json and run with `--out out/<name>`; its digest also pins
the SHA-256 of each file written there.  A Python warning raised during a
run is appended to its stderr as "Category: message", without its source
location.

    python tests/golden/regen.py          # write the moved and new digests
    python tests/golden/regen.py --check  # compare; exit 1 on a difference

Write mode keeps every stored entry that `differences` accepts verbatim,
so the last bits of unrelated float summaries do not drift; it writes the
entries that moved or are new and drops those no longer in the corpus.  A
change that moves outputs on purpose regenerates the file and names the
moved digests and the reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

if __name__ == "__main__":  # pytest puts both on the path itself
    sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import numpy as np  # noqa: E402

from conftest import random_subspace, random_system  # noqa: E402
from inred.cli import main  # noqa: E402

RTOL = 1e-7
ATOL = 1e-9

Matrix = list[list[Fraction]]


# ---------------------------------------------------------------------------
# the corpus


def _json_matrix(rows: Matrix) -> list[list]:
    """Integers stay integers, other rationals become "p/q" strings."""
    return [[int(x) if x.denominator == 1 else str(x) for x in row] for row in rows]


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def _unimodular_pair(rng: random.Random, n: int, ops: int) -> tuple[Matrix, Matrix]:
    """(P, P^-1), both integer: a column permutation of `ops` seeded
    elementary operations, each adding +-1 times one column to another."""
    P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    P_inv = [row[:] for row in P]
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        for row in P:  # P <- P (I + s e_i e_j')
            row[j] += s * row[i]
        P_inv[i] = [a - s * b for a, b in zip(P_inv[i], P_inv[j])]  # (I - s e_i e_j') P^-1
    perm = list(range(n))
    rng.shuffle(perm)
    return [[row[k] for k in perm] for row in P], [P_inv[k] for k in perm]


def _span(vectors: Matrix) -> dict:
    return {"type": "subspace", "span": _json_matrix(vectors)}


def _transformed(rng: random.Random, sys_q, u_span, x_span) -> dict:
    """Analyze scenario of a system after seeded unimodular changes of state
    (x = P z) and output (y' = T y) coordinates; the X span moves with x."""
    A, B, C, D = (list(map(list, M.entries)) for M in (sys_q.A, sys_q.B, sys_q.C, sys_q.D))
    P, P_inv = _unimodular_pair(rng, len(A), 2 * len(A))
    T, _ = _unimodular_pair(rng, len(C), 1)
    obj: dict = {"system": {
        "A": _json_matrix(_matmul(_matmul(P_inv, A), P)),
        "B": _json_matrix(_matmul(P_inv, B)),
        "C": _json_matrix(_matmul(_matmul(T, C), P)),
        "D": _json_matrix(_matmul(T, D)),
    }, "constraints": {"u": {"type": "full"}, "x": {"type": "full"}}}
    if u_span is not None:
        obj["constraints"]["u"] = _span(u_span)
    if x_span is not None:
        obj["constraints"]["x"] = _span(
            [[row[0] for row in _matmul(P_inv, [[v] for v in vec])] for vec in x_span])
    return obj


def _columns_of(space) -> Matrix:
    return [list(col) for col in zip(*space.basis.entries)]


def random_analyze_scenarios(seed: int = 2023, count: int = 48) -> Iterator[tuple[str, dict]]:
    """Seeded `random_system` draws, each under one of four constraint
    patterns: full sets; X a random subspace; U and X random subspaces;
    X = {0}, so that V* = 0."""
    rng = random.Random(seed)
    for i in range(count):
        sys_q = random_system(rng, n_max=6, m_max=4, p_max=3)
        pattern = i % 4
        u_span = x_span = None
        if pattern in (1, 2):
            x_span = _columns_of(random_subspace(rng, sys_q.n, rng.randint(1, sys_q.n)))
        if pattern == 2:
            u_span = _columns_of(random_subspace(rng, sys_q.m, rng.randint(1, sys_q.m)))
        if pattern == 3:
            x_span = []
        yield f"random-{i:02d}", _transformed(rng, sys_q, u_span, x_span)


FOUR_INPUT = {
    "A": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
    "B": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]],
    "C": [[0, 0, 1]],
    "D": [[0, 0, 0, 0]],
}
FOUR_INPUT_PINNED = {
    "R": [[1, 0, 0], [0, 1, 0], [0, 0, "1/2"], [0, 0, "1/2"]],
    "F": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    "L": [[1, 0], [0, 1], [0, -1]],
}
BUCK = {
    "A": [[0, 0, -1], [0, 0, -1], [1, 1, -1]],
    "B": [[1, 0], [0, 1], [0, 0]],
    "C": [[0, 0, 1]],
    "D": [[0, 0]],
}
FULL = {"u": {"type": "full"}, "x": {"type": "full"}}


def _four_input_constrained(pinned: dict = FOUR_INPUT_PINNED) -> dict:
    return {
        "system": FOUR_INPUT,
        "constraints": {
            "u": _span([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]),
            "x": _span([[1, 0, 0], [0, 1, -1]]),
        },
        "scenario": {"pinned": pinned},
    }


def named_analyze_scenarios() -> Iterator[tuple[str, Any, tuple[str, ...]]]:
    """The worked examples, and one case per analyze exit code."""
    yield "four-input", _four_input_constrained(), ()
    yield "four-input-pinned", _four_input_constrained(), ("--pin-bases",)
    yield "four-input-full", {"system": FOUR_INPUT, "constraints": FULL}, ()
    yield "buck", {"system": BUCK, "constraints": FULL}, ()
    yield "integrator", {"system": {"A": [[0]], "B": [[1]], "C": [[1]], "D": [[0]]},
                         "constraints": FULL}, ()
    yield "bad-pinned-friend", _four_input_constrained(
        dict(FOUR_INPUT_PINNED, F=[[0, 0, 1], [0, 0, 0], [0, 0, 0]])), ("--pin-bases",)
    yield "box-constraints", {"system": BUCK, "constraints": {
        "u": {"type": "box", "lower": [0, 0], "upper": [1, 1]}, "x": {"type": "full"}}}, ()
    yield "unbounded-box", {"system": {"A": [[-1]], "B": [[1, 1]], "C": [[1]], "D": [[0, 0]]},
                            "constraints": {"u": _box([None, None], [None, None]),
                                            "x": {"type": "full"}}}, ()
    yield "dimension-mismatch", {"system": dict(BUCK, D=[[0, 0, 0]]), "constraints": FULL}, ()
    yield "malformed", '{"system": [', ()


def _signal(dt: float, values) -> dict:
    return {"t0": 0.0, "dt": dt, "interpolation": "linear",
            "values": np.asarray(values, dtype=float).tolist()}


def _times(dt: float, horizon: float) -> np.ndarray:
    return np.arange(int(round(horizon / dt)) + 1) * dt


def _with_nominal(system: dict, u: dict, x: dict, x0: list, values, dt: float = 1e-3) -> dict:
    return {"system": system, "constraints": {"u": u, "x": x},
            "scenario": {"x0": x0, "signals": {"u": _signal(dt, values)}, "nominal": "u"}}


def _box(lower: list, upper: list) -> dict:
    return {"type": "box", "lower": lower, "upper": upper}


def _buck_ramp(x0: list) -> dict:
    ts = _times(1e-3, 2.0)
    ramp = np.where(ts[:, None] <= 1.0, np.column_stack([1 - ts, ts]), [0.0, 1.0])
    return _with_nominal(BUCK, _box([0, 0], [1, 1]), {"type": "full"}, x0, ramp)


def _four_input_wave(x: dict) -> dict:
    ts = _times(1e-3, 2.0)
    wave = np.column_stack([0.5 + 0.3 * np.sin(k * ts) for k in (1, 2, 3, 4)])
    return _with_nominal(FOUR_INPUT, _box([0] * 4, [1] * 4), x, [0.1, -0.2, 0.3], wave)


def _boundary_rider() -> dict:
    zero = np.zeros((_times(1e-3, 2.0).size, 2))
    return _with_nominal({"A": [[-1]], "B": [[1, 1]], "C": [[1]], "D": [[1, 0]]},
                         _box([0, 0], ["inf", "inf"]), {"type": "full"}, [-1.0], zero)


def _escape(x0: float) -> dict:
    return _with_nominal({"A": [[1]], "B": [[1]], "C": [[1]], "D": [[0]]},
                         _box([0], [1]), _box([0], [1]), [x0], np.zeros((2001, 1)))


def _diverging(a) -> dict:
    return _with_nominal({"A": [[a]], "B": [[1, 1]], "C": [[1]], "D": [[0, 0]]},
                         _box([-1, -1], [1, 1]), {"type": "full"}, [1.0],
                         np.zeros((101, 2)), dt=0.01)


def _empty_box() -> dict:
    return _with_nominal({"A": [[-1]], "B": [[1, 1]], "C": [[1]], "D": [[0, 0]]},
                         _box(["inf", 0], [None, 1]), _box([None], ["-inf"]), [0.5],
                         [[0.0, 0.5]] * 5, dt=0.01)


def _witness(k: int) -> dict:
    """The two-state witness example under the inputs u4, u5 and u6."""
    ts = _times(1e-3, 3.0)
    zeros, ones = np.zeros_like(ts), np.ones_like(ts)
    eta = -np.exp(-ts) if k == 6 else -0.5 * np.ones_like(ts)
    second = ones if k == 5 else zeros
    return _with_nominal({"A": [[1, 0], [0, 1]], "B": [[1, 0, 0], [0, 1, 1]],
                          "C": [[0, 1]], "D": [[0, 0, 0]]},
                         _box([-1, -1, -1], ["inf"] * 3), _box([0, 0], [1, 2]), [0.5, 0.0],
                         np.column_stack([eta, second, -second]))


def _synthesize(system: dict, window: list, dt: float = 1e-3, horizon: float = 2.0) -> dict:
    return {"system": system, "constraints": FULL,
            "scenario": {"grid": {"t0": 0.0, "dt": dt, "horizon": horizon}, "window": window}}


def _loop_systems(seed: int = 4242, count: int = 3) -> Iterator[dict]:
    """Seeded output-free systems, as in the loop-closure acceptance check."""
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randint(2, 3), rng.randint(1, 2)
        yield {"A": [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)],
               "B": [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)],
               "C": [[0] * n], "D": [[0] * m]}


def trajectory_cases() -> Iterator[tuple[str, str, dict, tuple[str, ...]]]:
    yield "certify-buck-loop", "certify", _buck_ramp([0.2, 0.1, 0.3]), ()
    yield "certify-buck-x0-flag", "certify", _buck_ramp([0.0, 0.0, 0.0]), ("--x0", "0.1,0.2,0.1")
    yield "certify-four-input-bump", "certify", _four_input_wave({"type": "full"}), ()
    yield "certify-four-input-bump-polyhedron", "certify", _four_input_wave(
        {"type": "polyhedron", "G": [[1, 1, 0], [0, -1, 1]], "g": [5, 5]}), ()
    yield "certify-zero-nominal", "certify", _with_nominal(
        BUCK, _box([0, 0], [1, 1]), {"type": "full"}, [0.0, 0.0, 0.0],
        np.zeros((2001, 2))), ("--check-boundary",)
    yield "certify-boundary-rider", "certify", _boundary_rider(), ("--check-boundary",)
    yield "certify-escape", "certify", _escape(0.5), ()
    yield "certify-diverging-800", "certify", _diverging(800), ()
    yield "certify-diverging-1e30", "certify", _diverging(1e30), ()
    # ker [B; D] is spanned by (1, -1e200): a finite increment whose node
    # norms overflow when each entry is squared
    yield "certify-huge-kernel-direction", "certify", _with_nominal(
        {"A": [[-1]], "B": [[1, "1e-200"]], "C": [[1]], "D": [[0, 0]]},
        _box([-1, -1], [1, 1]), {"type": "full"}, [0.0], np.zeros((11, 2)), dt=0.01), ()
    # draw 6 of item 1's unconstrained Kind2 systems (random.Random(7)): the
    # sampled loop leaves V between the nodes, so verification fails
    yield "certify-loop-verification-fails", "certify", _with_nominal(
        {"A": [[1, -1], [-1, 2]], "B": [[1, 0], [-2, -2]], "C": [[0, 1]], "D": [[0, -1]]},
        {"type": "full"}, {"type": "full"}, [0.0, 0.0], np.zeros((101, 2)), dt=0.01), ()
    # U and X are empty: a lower bound of +inf and an upper bound of -inf
    yield "certify-empty-box", "certify", _empty_box(), ()
    yield "certify-integrator-no-loop", "certify", _with_nominal(
        {"A": [[0]], "B": [[1]], "C": [[1]], "D": [[0]]}, _box([-1], [1]), {"type": "full"},
        [0.0], np.zeros((2001, 1))), ()
    yield "simulate-buck-ramp", "simulate", _buck_ramp([0.2, 0.1, 0.3]), ()
    yield "simulate-escape", "simulate", _escape(0.5), ()
    yield "simulate-boundary-rider", "simulate", _boundary_rider(), ()
    yield "simulate-diverging-800", "simulate", _diverging(800), ()
    yield "simulate-diverging-1e30", "simulate", _diverging(1e30), ()
    yield "simulate-empty-box", "simulate", _empty_box(), ()
    for k in (4, 5, 6):
        yield f"simulate-witness-u{k}", "simulate", _witness(k), ()
    yield "synthesize-four-input-bump", "synthesize", _synthesize(FOUR_INPUT, [0.2, 1.2]), ()
    yield "synthesize-buck-loop", "synthesize", _synthesize(BUCK, [0.0, 1.0]), ()
    yield "synthesize-buck-loop-flag", "synthesize", _synthesize(BUCK, [0.0, 1.0]), (
        "--window", "0.25", "1.75")
    # 10,000 steps per half of the loop: the Gramian transfer's long-grid case
    yield "synthesize-buck-loop-long", "synthesize", _synthesize(BUCK, [0.0, 2.0], 1e-4), ()
    for i, system in enumerate(_loop_systems()):
        yield f"synthesize-loop-{i}", "synthesize", _synthesize(system, [0.0, 0.8], 1e-3, 1.0), ()
    yield "synthesize-integrator-fails", "synthesize", _synthesize(
        {"A": [[0]], "B": [[1]], "C": [[1]], "D": [[0]]}, [0.0, 0.8], 1e-3, 1.0), ()
    yield "synthesize-narrow-window", "synthesize", _synthesize(BUCK, [0.0, 0.001]), ()


def corpus() -> list[tuple[str, str, Any, tuple[str, ...]]]:
    """Every case as (name, command, scenario, flags); a str scenario is
    written verbatim, and a tuple holds several scenario files, run at once
    with `--out DIR`."""
    cases = []
    analyze = [(name, obj, ()) for name, obj in random_analyze_scenarios()]
    for name, obj, flags in [*analyze, *named_analyze_scenarios()]:
        cases.append((f"analyze-{name}", "analyze", obj, flags))
        cases.append((f"analyze-{name}-text", "analyze", obj, (*flags, "--format", "text")))
    cases.append(("analyze-out-dir", "analyze", (
        _four_input_constrained(), {"system": BUCK, "constraints": FULL}, '{"system": ['), ()))
    cases.extend(trajectory_cases())
    return cases


# ---------------------------------------------------------------------------
# running and digesting


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(paths: list[str], command: str, flags: tuple[str, ...]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([command, *paths, *flags])
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    return code, out.getvalue(), err.getvalue()


def _summary(values) -> dict:
    """Per-column summary of a float array (see the module docstring)."""
    with np.errstate(all="ignore"):
        V = np.asarray(values, dtype=float).reshape(len(values), -1)
        finite = np.isfinite(V)
        F = np.where(finite, V, 0.0)
        peak = np.abs(F).max(axis=0)
        scale = float(peak.max()) or 1.0
        return {
            "nonfinite": (~finite).sum(axis=0).tolist(),
            "peak": peak.tolist(),
            "sum": (F / scale).sum(axis=0).tolist(),
            "mass": (np.abs(F) / scale).sum(axis=0).tolist(),
        }


def _csv(text: str, groups: tuple[str, ...]) -> dict:
    """Header, sample count and one summary per column group of a CSV."""
    lines = text.split("\r\n")
    header = lines[0].split(",")
    rows = [list(map(float, line.split(","))) for line in lines[1:] if line]
    table = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    digest: dict = {"header": header, "samples": len(rows)}
    for group in groups:
        cols = [j for j, name in enumerate(header) if name.rstrip("0123456789") == group]
        if cols:
            digest[group] = _summary(table[:, cols])
    return digest


def digest(command: str, code: int, out: str, err: str) -> dict:
    """What one run pins (see the module docstring)."""
    entry: dict = {"exit": code, "stderr": _sha(err)}
    if command == "analyze" or code != 0:
        entry["stdout"] = _sha(out)
        if command == "analyze" and out.startswith("{"):
            entry["kind"] = json.loads(out)["kind"]
    elif command == "certify":
        cert = json.loads(out)
        u_hat = cert["u_hat"]
        route = dict(cert["route"])
        entry.update(
            window=cert["window"], route=route.pop("type"), t_mid=route.pop("t_mid", None),
            admissible_both=cert["verification"]["admissible_both"],
            u_hat_grid=[u_hat["t0"], u_hat["dt"], u_hat.get("interpolation")],
            approx={"alpha": [cert["alpha"]],
                    "y_sup_diff": [cert["verification"]["y_sup_diff"]],
                    "x_peak": route.pop("x_peak", []),
                    "u_hat": _summary(u_hat["values"])},
        )
    elif command == "simulate":
        split = out.index("{")  # the summary follows the CSV, which has no braces
        entry["summary"] = json.loads(out[split:])
        entry["csv"] = _csv(out[:split], ("t", "u", "x", "y"))
    else:
        entry["csv"] = _csv(out, ("t", "u", "x"))
    return entry


def run_corpus() -> dict[str, dict]:
    """The digest of every corpus case, by name."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "corpus").mkdir()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, command, scenario, flags in corpus():
                several = isinstance(scenario, tuple)
                paths = ([f"corpus/{name}-{i}.json" for i in range(len(scenario))]
                         if several else [f"corpus/{name}.json"])
                for path, obj in zip(paths, scenario if several else [scenario]):
                    Path(path).write_text(obj if isinstance(obj, str) else json.dumps(obj))
                out_dir = Path("out", name)
                if several:
                    out_dir.mkdir(parents=True)
                    flags = (*flags, "--out", str(out_dir))
                digests[name] = dict(command=command, **digest(
                    command, *run_case(paths, command, flags)))
                if several:  # each file written to DIR, by name
                    digests[name]["files"] = {
                        p.name: _sha(p.read_text()) for p in sorted(out_dir.iterdir())}
        finally:
            os.chdir(cwd)
    return digests


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _close(a[k], b[k]) if k != "nonfinite" else a[k] == b[k] for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)
    return a == b


def differences(expected: dict[str, dict], actual: dict[str, dict]) -> list[str]:
    """One line per case whose digest moved, appeared or vanished."""
    lines = [f"{name}: missing from the run" for name in expected.keys() - actual.keys()]
    lines += [f"{name}: not in the digest file" for name in actual.keys() - expected.keys()]
    for name in sorted(expected.keys() & actual.keys()):
        want, got = dict(expected[name]), dict(actual[name])
        approx = want.pop("approx", None), got.pop("approx", None)
        csv = want.pop("csv", None), got.pop("csv", None)
        moved = [key for key in sorted(want.keys() | got.keys()) if want.get(key) != got.get(key)]
        if not _close(*approx):
            moved.append("approx")
        if not _close(*csv):
            moved.append("csv")
        if moved:
            lines.append(f"{name}: {', '.join(moved)} moved")
    return sorted(lines)


def load_digests() -> dict[str, dict]:
    return json.loads(DIGESTS.read_text())


def merged(stored: dict[str, dict], actual: dict[str, dict]) -> dict[str, dict]:
    """The digests to write: the stored entry of each case that did not move,
    the run's entry of each case that moved or is new."""
    return {name: stored[name] if name in stored
            and not differences({name: stored[name]}, {name: entry}) else entry
            for name, entry in actual.items()}


def _main(argv: list[str]) -> int:
    actual = run_corpus()
    if argv == ["--check"]:
        moved = differences(load_digests(), actual)
        print("\n".join(moved) if moved else f"{len(actual)} digests unchanged")
        return 1 if moved else 0
    if argv:
        print("usage: regen.py [--check]", file=sys.stderr)
        return 2
    stored = load_digests() if DIGESTS.exists() else {}
    digests = merged(stored, actual)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    kept = sum(digests[name] is stored.get(name) for name in digests)
    print(f"wrote {len(digests)} digests to {DIGESTS.name}, {kept} kept as stored")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
