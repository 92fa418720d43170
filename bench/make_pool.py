"""Build `pool.json`: the fixed analyze systems and their expected reports.

    PYTHONPATH=src python3 bench/make_pool.py

The expectations are the semantic report fields (kind, degree, dim V,
dim R, l and the canonical N basis) as the program computed them when the
pool was built.  Rebuild the pool only when the program's answers are meant
to change; a performance change must leave every expectation as it is.

Three groups of systems:

* `large`: n in {10, 12, 14, 16}, built with planted structure (a duplicated
  input column for rho > 0, an input driving an unobservable block for
  nu > 0) and mixed by a fixed unimodular change of coordinates; two
  systems per (n, kind) for all four kinds, each with a nontrivial V*.
* `small`: 200 systems drawn like acceptance criterion 7, with n <= 6, m <= 4,
  p <= 3 and random subspace constraints; degenerate V* = 0 cases are kept.
* `table`: one unconstrained system per n in {4, 8, 12, 16, 24}, with
  m = p = n / 4, for the size table of the traced run.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from inred.analysis import analyze, report_to_dict  # noqa: E402
from inred.exact import RationalMatrix, Subspace, image  # noqa: E402
from inred.geometry import SystemQuadruple  # noqa: E402

import scenarios as sc  # noqa: E402

LARGE_SIZES = (10, 12, 14, 16)
KINDS = ("NotIR", "Kind1", "Kind2", "Kind3")
PER_CELL = 2
SMALL_COUNT = 200
TABLE_SIZES = (4, 8, 12, 16, 24)
SEMANTIC_FIELDS = ("kind", "degree", "dim_V", "dim_R", "l", "N")


def _ints(rng: random.Random, rows: int, cols: int, bound: int = 2) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _random_span(rng: random.Random, ambient: int, dim: int) -> list[list[int]]:
    while True:
        vecs = _ints(rng, dim, ambient)
        cols = RationalMatrix.from_rows([list(r) for r in zip(*vecs)], cols=dim)
        if image(cols).dim == dim:
            return vecs


def _subspace(ambient: int, cons: dict) -> Subspace:
    if cons["type"] == "full":
        return Subspace.full(ambient)
    return Subspace.from_vectors(ambient, cons["span"])


def _expect(entry: dict) -> tuple[dict, float]:
    s = entry["system"]
    sys_q = SystemQuadruple.from_rows(s["A"], s["B"], s["C"], s["D"])
    u_set = _subspace(sys_q.m, entry["constraints"]["u"])
    x_set = _subspace(sys_q.n, entry["constraints"]["x"])
    start = time.perf_counter()
    report = report_to_dict(analyze(sys_q, u_set, x_set))
    return {k: report[k] for k in SEMANTIC_FIELDS}, time.perf_counter() - start


def _structured(rng: random.Random, n: int, kind: str) -> dict:
    hidden = rng.randint(1, 2) if kind in ("Kind2", "Kind3") else 0
    n1 = n - hidden
    p = rng.randint(2, 3)
    m0 = rng.randint(1, p)
    A = [row + [0] * hidden for row in _ints(rng, n1, n1)]
    A += [a + b for a, b in zip(_ints(rng, hidden, n1), _ints(rng, hidden, hidden))]
    B = _ints(rng, n, m0)
    C = [row + [0] * hidden for row in _ints(rng, p, n1)]
    D = _ints(rng, p, m0)
    if kind in ("Kind1", "Kind3"):
        j = rng.randrange(m0)
        for row in B:
            row.append(row[j])
        for row in D:
            row.append(row[j])
    if kind in ("Kind2", "Kind3"):
        drive = [0] * n1 + [rng.choice((-2, -1, 1, 2)) for _ in range(hidden)]
        for row, v in zip(B, drive):
            row.append(v)
        for row in D:
            row.append(0)
    x_cons = ({"type": "full"} if rng.random() < 0.5
              else {"type": "subspace", "span": _random_span(rng, n, n - 1)})
    base = {"system": {"A": A, "B": B, "C": C, "D": D},
            "constraints": {"u": {"type": "full"}, "x": x_cons}}
    # hide the block structure behind a fixed change of coordinates
    return sc.transformed_system(base, rng, extra=n)


def build_large(rng: random.Random) -> list[dict]:
    out = []
    for n in LARGE_SIZES:
        for kind in KINDS:
            kept = 0
            while kept < PER_CELL:
                entry = _structured(rng, n, kind)
                expect, seconds = _expect(entry)
                if expect["kind"] != kind or expect["l"] == 0:
                    continue
                entry.update(n=n, expect=expect, build_s=round(seconds, 3))
                out.append(entry)
                kept += 1
                print(f"large n={n} {kind} l={expect['l']} {seconds:.2f}s", file=sys.stderr)
    return out


def build_small(rng: random.Random) -> list[dict]:
    out = []
    for _ in range(SMALL_COUNT):
        n, m, p = rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 3)
        entry = {
            "system": {"A": _ints(rng, n, n), "B": _ints(rng, n, m),
                       "C": _ints(rng, p, n), "D": _ints(rng, p, m)},
            "constraints": {
                "u": {"type": "subspace", "span": _random_span(rng, m, rng.randint(1, m))},
                "x": {"type": "subspace", "span": _random_span(rng, n, rng.randint(1, n))},
            },
        }
        expect, seconds = _expect(entry)
        entry.update(n=n, expect=expect, build_s=round(seconds, 4))
        out.append(entry)
    return out


def build_table(rng: random.Random) -> list[dict]:
    out = []
    for n in TABLE_SIZES:
        m = p = n // 4
        entry = {
            "system": {"A": _ints(rng, n, n), "B": _ints(rng, n, m),
                       "C": _ints(rng, p, n), "D": _ints(rng, p, m)},
            "constraints": {"u": {"type": "full"}, "x": {"type": "full"}},
        }
        expect, seconds = _expect(entry)
        entry.update(n=n, expect=expect, build_s=round(seconds, 3))
        out.append(entry)
        print(f"table n={n} {expect['kind']} {seconds:.2f}s", file=sys.stderr)
    return out


def main() -> None:
    pool = {
        "large": build_large(random.Random(1601)),
        "small": build_small(random.Random(20240)),
        "table": build_table(random.Random(2400)),
    }
    (HERE / "pool.json").write_text(json.dumps(pool, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
