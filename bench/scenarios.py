"""Seeded scenario generation for the benchmark.

Everything here is plain Python over `fractions.Fraction`; nothing imports
`inred`, so the program under test only ever sees the JSON files written
here.

Analyze scenarios come from a fixed pool of base systems (`pool.json`, built
by `make_pool.py`) whose expected reports were recorded once.  Each op
applies a fresh seeded change of state coordinates (x = P z, P unimodular)
and of output coordinates (y' = T y, T unimodular) to a pool system.  Both
changes leave every semantic report field unchanged (kind, degree, dim V,
dim R, l and the canonical basis of N, which lives in input space), so the
recorded expectations hold for every seed while the exact arithmetic the
program performs differs from op to op.

Trajectory scenarios are built so that their outcome is known by
construction; see `workloads.trajectory_op`.
"""

from __future__ import annotations

import copy
import json
import math
import random
from fractions import Fraction
from pathlib import Path

Matrix = list[list[Fraction]]


# ---------------------------------------------------------------------------
# small exact matrix helpers


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    k = len(b)
    cols = len(b[0]) if b else 0
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(cols)]
            for i in range(len(a))]


def unimodular_pair(rng: random.Random, n: int, extra: int) -> tuple[Matrix, Matrix]:
    """(P, P^-1): a permutation times a unit lower-triangular matrix with
    `extra` off-diagonal entries of +-1, so both are integer matrices."""
    lower = identity(n)
    slots = [(i, j) for i in range(n) for j in range(i)]
    for i, j in rng.sample(slots, min(extra, len(slots))):
        lower[i][j] = Fraction(rng.choice((-1, 1)))
    # inverse of a unit lower-triangular matrix by forward substitution
    lower_inv = identity(n)
    for i in range(n):
        for j in range(i):
            lower_inv[i][j] = -sum((lower[i][k] * lower_inv[k][j] for k in range(j, i)),
                                   Fraction(0))
    perm = list(range(n))
    rng.shuffle(perm)
    # P = Pi @ lower, with Pi e_j = e_perm[j]; P^-1 = lower^-1 @ Pi^T
    P = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        P[perm[j]] = list(lower[j])
    P_inv = [[lower_inv[i][perm.index(k)] for k in range(n)] for i in range(n)]
    return P, P_inv


def to_json_matrix(a: Matrix) -> list[list]:
    """Integers stay integers, other rationals become "p/q" strings."""
    return [[int(x) if x.denominator == 1 else str(x) for x in row] for row in a]


def from_json_matrix(rows: list[list]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# analyze scenarios


def transformed_system(base: dict, rng: random.Random, extra: int) -> dict:
    """Scenario dict for a pool system after seeded state/output changes of
    coordinates.  `extra` is the number of off-diagonal entries in each
    triangular factor; it keeps coefficient growth mild."""
    sysd = base["system"]
    A, B = from_json_matrix(sysd["A"]), from_json_matrix(sysd["B"])
    C, D = from_json_matrix(sysd["C"]), from_json_matrix(sysd["D"])
    n, p = len(A), len(C)
    P, P_inv = unimodular_pair(rng, n, extra)
    T, _ = unimodular_pair(rng, p, max(1, extra // 4))
    A2 = matmul(matmul(P_inv, A), P)
    B2 = matmul(P_inv, B)
    C2 = matmul(matmul(T, C), P)
    D2 = matmul(T, D)
    cons = copy.deepcopy(base["constraints"])
    if cons["x"]["type"] == "subspace":
        span = from_json_matrix(cons["x"]["span"])
        cons["x"]["span"] = to_json_matrix(
            [[sum((row[k] * vec[k] for k in range(n)), Fraction(0)) for row in P_inv]
             for vec in span])
    return {
        "system": {
            "A": to_json_matrix(A2), "B": to_json_matrix(B2),
            "C": to_json_matrix(C2), "D": to_json_matrix(D2),
        },
        "constraints": cons,
    }


# ---------------------------------------------------------------------------
# trajectory scenarios


BUCK = {
    "A": [[0, 0, -1], [0, 0, -1], [1, 1, -1]],
    "B": [[1, 0], [0, 1], [0, 0]],
    "C": [[0, 0, 1]],
    "D": [[0, 0]],
}


def _signal(dt: float, values: list[list[float]]) -> dict:
    return {"t0": 0, "dt": dt, "interpolation": "linear", "values": values}


def buck_ramp(N: int, horizon: float, ramp_end: float, x0: list[float]) -> dict:
    """Two parallel buck converters; the duty cycles ramp from (1, 0) to
    (0, 1) over [0, ramp_end] and then hold.  Certifies by the state loop."""
    dt = horizon / (N - 1)
    values = []
    for k in range(N):
        s = min(k * dt / ramp_end, 1.0)
        values.append([1.0 - s, s])
    return {
        "system": BUCK,
        "constraints": {
            "u": {"type": "box", "lower": [0, 0], "upper": [1, 1]},
            "x": {"type": "full"},
        },
        "scenario": {"x0": x0, "signals": {"ramp": _signal(dt, values)}, "nominal": "ramp"},
    }


def kernel_bump_system(rng: random.Random, N: int, horizon: float,
                       polyhedron: bool) -> dict:
    """Stable system with a duplicated input column (so rho >= 1), a smooth
    nominal input strictly inside a box and a state set wide enough to hold
    the whole trajectory.  Certifies by the kernel bump.

    A = -a I + S with S skew-symmetric, so |x(t)| <= |x0| + |B| |u|_max / a
    and the state bound below is guaranteed.
    """
    n = rng.randint(2, 4)
    a = rng.choice((1, 2, 3))
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = -a
        for j in range(i):
            s = rng.randint(-2, 2)
            A[i][j], A[j][i] = s, -s
    cols = [[rng.randint(-1, 2) for _ in range(n)] for _ in range(2)]
    cols[0][0] = cols[0][0] or 1
    d_cols = [[rng.randint(-1, 1)] for _ in range(2)]
    # third input duplicates the second in both B and D
    B = [[cols[0][i], cols[1][i], cols[1][i]] for i in range(n)]
    D = [[d_cols[0][0], d_cols[1][0], d_cols[1][0]]]
    C = [[rng.randint(-1, 1) for _ in range(n)]]
    C[0][n - 1] = C[0][n - 1] or 1
    dt = horizon / (N - 1)
    center = [rng.uniform(-0.5, 0.5) for _ in range(3)]
    amp = [rng.uniform(0.1, 0.4) for _ in range(3)]
    freq = [rng.uniform(0.5, 3.0) for _ in range(3)]
    values = [[center[j] + amp[j] * math.sin(freq[j] * k * dt) for j in range(3)]
              for k in range(N)]
    lower = [center[j] - amp[j] - rng.uniform(0.2, 0.5) for j in range(3)]
    upper = [center[j] + amp[j] + rng.uniform(0.2, 0.5) for j in range(3)]
    x0 = [rng.uniform(-1, 1) for _ in range(n)]
    b_norm = math.sqrt(sum(v * v for row in B for v in row))
    u_max = math.sqrt(sum(max(abs(lo), abs(up)) ** 2 for lo, up in zip(lower, upper)))
    bound = 2.0 * (math.sqrt(sum(v * v for v in x0)) + b_norm * u_max / a) + 1.0
    if polyhedron:
        G = [[rng.randint(-2, 2) or 1 for _ in range(n)] for _ in range(n + 2)]
        g = [bound * math.sqrt(sum(v * v for v in row)) for row in G]
        x_cons = {"type": "polyhedron", "G": G, "g": g}
    else:
        x_cons = {"type": "box", "lower": [-bound] * n, "upper": [bound] * n}
    return {
        "system": {"A": A, "B": B, "C": C, "D": D},
        "constraints": {"u": {"type": "box", "lower": lower, "upper": upper}, "x": x_cons},
        "scenario": {"x0": x0, "signals": {"u": _signal(dt, values)}, "nominal": "u"},
    }


def boundary_rider(rng: random.Random, N: int, horizon: float) -> dict:
    """Orthant example xdot = -a x + [1 1] u, y = x + [1 0] u with u >= 0
    and u = 0: the input rides its boundary, no interior window exists and
    boundary residence holds.  `certify` is inconclusive (exit 4)."""
    a = rng.choice((1, 2, "1/2"))
    dt = horizon / (N - 1)
    return {
        "system": {"A": [[f"-{a}"]], "B": [[1, 1]], "C": [[1]], "D": [[1, 0]]},
        "constraints": {
            "u": {"type": "box", "lower": [0, 0], "upper": ["inf", "inf"]},
            "x": {"type": "full"},
        },
        "scenario": {
            "x0": [rng.uniform(-2.0, -0.1)],
            "signals": {"u": _signal(dt, [[0.0, 0.0]] * N)},
            "nominal": "u",
        },
    }


def escape(rng: random.Random, N: int, horizon: float) -> tuple[dict, float]:
    """Unstable scalar xdot = x + u with U = X = [0, 1], u = 0 and
    x0 = c: the state leaves X at t = ln(1/c).  Returns (scenario, c)."""
    c = rng.uniform(0.35, 0.7)
    dt = horizon / (N - 1)
    return {
        "system": {"A": [[1]], "B": [[1]], "C": [[1]], "D": [[0]]},
        "constraints": {
            "u": {"type": "box", "lower": [0], "upper": [1]},
            "x": {"type": "box", "lower": [0], "upper": [1]},
        },
        "scenario": {"x0": [c], "signals": {"u": _signal(dt, [[0.0]] * N)}, "nominal": "u"},
    }, c


def write_json(path: Path, obj: dict) -> int:
    text = json.dumps(obj)
    path.write_text(text)
    return len(text)
