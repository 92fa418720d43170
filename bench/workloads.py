"""The three workloads: seeded op lists over generated scenario files.

An op is one CLI invocation on one scenario file.  `build` writes the
scenario files of one run under `workdir` and returns the ops with what
each one is expected to produce.  The same seed gives the same files.

Each workload cycles through a fixed pattern of strata (sizes and kinds of
op), so any prefix of the op list has nearly the same composition whatever
the seed; the seed picks the systems, coordinates and signals.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import scenarios as sc

HERE = Path(__file__).resolve().parent

# analyze-large: n of each slot in one round.  Four slots in ten are n = 10,
# so the median falls among the n = 12 and 14 ops; two are n = 16, so the
# 90th percentile falls in the middle of the n = 16 ops, not on an edge.
LARGE_PATTERN = (10, 12, 16, 10, 14, 12, 10, 16, 14, 10)
# trajectory-long: (kind of op, grid points) of each slot in one round
TRAJECTORY_PATTERN = (
    ("certify-loop", 3001), ("certify-bump-box", 4001), ("certify-boundary", 3001),
    ("simulate-admissible", 6001), ("certify-loop", 4001), ("certify-bump-polyhedron", 3001),
    ("certify-boundary", 4001), ("simulate-escape", 8001),
)
SMOKE_TRAJECTORY_N = 401
DECK_SIZE = {"analyze-large": 120, "analyze-small": 1000, "trajectory-long": 200}
TRACE_OPS = {"analyze-large": 20, "analyze-small": 200, "trajectory-long": 16}
SMOKE_OPS = 8
WARMUP_OPS = 4
MIN_OPS = 100
# transform strength: off-diagonal entries per triangular factor
RUNTIME_EXTRA = 3

_SUFFIX = {"analyze": ".report.json", "certify": ".certificate.json", "simulate": ".csv"}


def load_pool() -> dict:
    return json.loads((HERE / "pool.json").read_text())


class Deck:
    """Writes scenario files and collects ops."""

    def __init__(self, workdir: Path):
        self.dir = workdir / "scenarios"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def add(self, scenario: dict, command: str, expect: dict, label: str,
            size: dict, flags: tuple = ()) -> dict:
        self.count += 1
        op_id = f"op{self.count:05d}"
        path = self.dir / f"{op_id}.json"
        sc.write_json(path, scenario)
        return {
            "id": op_id,
            "argv": [command, str(path), *flags],
            "suffix": _SUFFIX[command],
            "label": label,
            "size": size,
            "expect": expect,
        }


def _analyze_op(deck: Deck, entry: dict, rng: random.Random, label: str) -> dict:
    scenario = sc.transformed_system(entry, rng, RUNTIME_EXTRA)
    s = entry["system"]
    size = {"n": len(s["A"]), "m": len(s["B"][0]), "p": len(s["C"])}
    return deck.add(scenario, "analyze", {"type": "analyze", "fields": entry["expect"]},
                    label, size)


def _round_robin(rng: random.Random, items: list) -> "iter":
    """Endless walk through `items`, reshuffled on every pass."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def analyze_large(deck: Deck, rng: random.Random, count: int, smoke: bool) -> list[dict]:
    pool = load_pool()["large"]
    sizes = sorted({e["n"] for e in pool})
    if smoke:
        sizes = sizes[:1]
    walks = {n: _round_robin(rng, [e for e in pool if e["n"] == n]) for n in sizes}
    pattern = [n for n in LARGE_PATTERN if n in walks]
    ops = []
    for i in range(count):
        entry = next(walks[pattern[i % len(pattern)]])
        ops.append(_analyze_op(deck, entry, rng, entry["expect"]["kind"]))
    return ops


def analyze_small(deck: Deck, rng: random.Random, count: int, smoke: bool) -> list[dict]:
    pool = load_pool()["small"]
    if smoke:
        pool = [e for e in pool if e["n"] == 1]
    walk = _round_robin(rng, pool)
    ops = []
    for _ in range(count):
        entry = next(walk)
        ops.append(_analyze_op(deck, entry, rng, entry["expect"]["kind"]))
    return ops


def trajectory_op(deck: Deck, rng: random.Random, kind: str, N: int) -> dict:
    """One trajectory op whose outcome is known by construction."""
    horizon = rng.uniform(1.6, 2.4)
    size = {"N": N}
    if kind == "certify-loop":
        x0 = [rng.uniform(0.0, 0.4) for _ in range(3)]
        scen = sc.buck_ramp(N, horizon, rng.uniform(0.8, 1.2), x0)
        return deck.add(scen, "certify", {"type": "certify", "code": 0, "route": "state_loop"},
                        kind, size)
    if kind in ("certify-bump-box", "certify-bump-polyhedron"):
        scen = sc.kernel_bump_system(rng, N, horizon, polyhedron=kind.endswith("polyhedron"))
        return deck.add(scen, "certify", {"type": "certify", "code": 0, "route": "kernel_bump"},
                        kind, size)
    if kind == "certify-boundary":
        scen = sc.boundary_rider(rng, N, horizon)
        return deck.add(scen, "certify", {"type": "certify", "code": 4},
                        kind, size, flags=("--check-boundary",))
    if kind == "simulate-escape":
        scen, c = sc.escape(rng, N, horizon)
        expect = {"type": "simulate", "rows": N, "admissible": False,
                  "first_violation": math.log(1.0 / c), "slack": 2 * horizon / (N - 1)}
        return deck.add(scen, "simulate", expect, kind, size)
    if kind == "simulate-admissible":
        scen = sc.kernel_bump_system(rng, N, horizon, polyhedron=True)
        expect = {"type": "simulate", "rows": N, "admissible": True, "first_violation": None}
        return deck.add(scen, "simulate", expect, kind, size)
    raise ValueError(f"unknown trajectory op kind {kind!r}")


def trajectory_long(deck: Deck, rng: random.Random, count: int, smoke: bool) -> list[dict]:
    ops = []
    for i in range(count):
        kind, N = TRAJECTORY_PATTERN[i % len(TRAJECTORY_PATTERN)]
        ops.append(trajectory_op(deck, rng, kind, SMOKE_TRAJECTORY_N if smoke else N))
    return ops


GENERATORS = {
    "analyze-large": analyze_large,
    "analyze-small": analyze_small,
    "trajectory-long": trajectory_long,
}


def table_ops(deck: Deck) -> list[dict]:
    """Fixed size table: analyze at n = 4..24 and the buck ramp of acceptance
    criterion 3 (x0 = (0.2, 0.1, 0.3), ramp over [0, 1], horizon 2)."""
    rows = []
    for entry in load_pool()["table"]:
        scen = {"system": entry["system"], "constraints": entry["constraints"]}
        size = {"n": entry["n"], "m": len(entry["system"]["B"][0]),
                "p": len(entry["system"]["C"])}
        op = deck.add(scen, "analyze", {"type": "analyze", "fields": entry["expect"]},
                      entry["expect"]["kind"], size)
        rows.append({"name": f"table.analyze_n{entry['n']}_s", "op": op})
    for command, N in (("certify", 2001), ("certify", 20001), ("simulate", 100001)):
        scen = sc.buck_ramp(N, 2.0, 1.0, [0.2, 0.1, 0.3])
        if command == "certify":
            expect = {"type": "certify", "code": 0, "route": "state_loop"}
        else:
            expect = {"type": "simulate", "rows": N, "admissible": True,
                      "first_violation": None}
        op = deck.add(scen, command, expect, f"buck-{command}", {"N": N})
        rows.append({"name": f"table.{command}_buck_N{N}_s", "op": op})
    return rows


def probe_ops(deck: Deck) -> list[dict]:
    """One smallest op of every kind, the same in every traced run, so that
    every layer reports a measured time on every workload."""
    return (analyze_large(deck, random.Random("probe"), 1, True)
            + trajectory_long(deck, random.Random("probe"), len(TRAJECTORY_PATTERN), True))


def build(workload: str, seed: int, workdir: Path, mode: str, smoke: bool) -> dict:
    """Scenario files and ops of one run.

    Warm-up ops are the workload's smallest ops and do not depend on the
    seed, so set-up time measures the same work in every run.
    """
    generate = GENERATORS[workload]
    deck = Deck(workdir)
    warmup = generate(deck, random.Random(f"{workload}/warmup"), WARMUP_OPS, True)
    rng = random.Random(f"{workload}/{seed}")
    if mode == "trace":
        count = SMOKE_OPS if smoke else TRACE_OPS[workload]
    else:
        count = SMOKE_OPS if smoke else DECK_SIZE[workload]
    plan = {"warmup": warmup, "ops": generate(deck, rng, count, smoke)}
    if mode == "trace":
        plan["ops"] += probe_ops(deck)
        plan["table"] = table_ops(deck)
        small = load_pool()["small"]
        if smoke:
            small = small[:10]
        batch_rng = random.Random(f"batch/{seed}")
        plan["batch"] = [_analyze_op(deck, e, batch_rng, e["expect"]["kind"]) for e in small]
    return plan
