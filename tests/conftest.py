"""Shared fixtures: the worked example systems and random generators."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from inred.exact import RationalMatrix, Subspace, kernel
from inred.geometry import SystemQuadruple
from inred.trajectory import SIGNAL_TOL, Grid, Polyhedron, SampledSignal


@pytest.fixture
def boundary_example():
    """Scalar system with nonnegative inputs: xdot = -x + [1 1]u, y = x + [1 0]u."""
    sys = SystemQuadruple.from_rows([[-1]], [[1, 1]], [[1]], [[1, 0]])
    u_set = Polyhedron.box((0.0, 0.0), (math.inf, math.inf))
    x_set = Subspace.full(1)
    return sys, u_set, x_set


@pytest.fixture
def escape_example():
    """Unstable scalar with box constraints: xdot = x + u, U = X = [0, 1]."""
    sys = SystemQuadruple.from_rows([[1]], [[1]], [[1]], [[0]])
    return sys, Polyhedron.box((0.0,), (1.0,)), Polyhedron.box((0.0,), (1.0,))


@pytest.fixture
def buck():
    """Two parallel buck converters on one load, unit parameters."""
    sys = SystemQuadruple.from_rows(
        [[0, 0, -1], [0, 0, -1], [1, 1, -1]],
        [[1, 0], [0, 1], [0, 0]],
        [[0, 0, 1]],
        [[0, 0]],
    )
    return sys, Polyhedron.box((0.0, 0.0), (1.0, 1.0)), Subspace.full(3)


@pytest.fixture
def four_input_system():
    """-I3 dynamics with four inputs, two of them collinear on the last state."""
    return SystemQuadruple.from_rows(
        [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]],
        [[0, 0, 1]],
        [[0, 0, 0, 0]],
    )


@pytest.fixture
def four_input_constraints():
    """Subspace constraints u_c = u_d and x_b + x_c = 0 for the system above."""
    u_set = kernel(RationalMatrix.from_rows([[0, 0, 1, -1]]))
    x_set = kernel(RationalMatrix.from_rows([[0, 1, 1]]))
    return u_set, x_set


@pytest.fixture
def four_input_pinned():
    from inred.geometry import PinnedBases

    return PinnedBases(
        R=RationalMatrix.from_rows(
            [[1, 0, 0], [0, 1, 0], [0, 0, "1/2"], [0, 0, "1/2"]]),
        F=RationalMatrix.zeros(3, 3),
        L=RationalMatrix.from_rows([[1, 0], [0, 1], [0, -1]]),
    )


@pytest.fixture
def witness_example():
    """Two unstable states, three inputs, box constraints with pairs of each kind."""
    sys = SystemQuadruple.from_rows(
        [[1, 0], [0, 1]],
        [[1, 0, 0], [0, 1, 1]],
        [[0, 1]],
        [[0, 0, 0]],
    )
    u_set = Polyhedron.box((-1.0, -1.0, -1.0), (math.inf,) * 3)
    x_set = Polyhedron.box((0.0, 0.0), (1.0, 2.0))
    return sys, u_set, x_set


@pytest.fixture
def integrator():
    return SystemQuadruple.from_rows([[0]], [[1]], [[1]], [[0]])


# ---------------------------------------------------------------------------
# random generation helpers (seeded; exact entries kept small)


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 2) -> RationalMatrix:
    return RationalMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def random_invertible(rng: random.Random, n: int, bound: int = 2) -> RationalMatrix:
    while True:
        M = random_matrix(rng, n, n, bound)
        if M.rank() == n:
            return M


def random_subspace(rng: random.Random, ambient: int, dim: int) -> Subspace:
    from inred.exact import image

    while True:
        M = random_matrix(rng, ambient, dim)
        sp = image(M)
        if sp.dim == dim:
            return sp


def random_system(rng: random.Random, n_max: int = 5, m_max: int = 4,
                  p_max: int = 3) -> SystemQuadruple:
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    p = rng.randint(1, p_max)
    return SystemQuadruple(
        random_matrix(rng, n, n),
        random_matrix(rng, n, m),
        random_matrix(rng, p, n),
        random_matrix(rng, p, m),
    )


def constant_signal(grid: Grid, vec) -> SampledSignal:
    vals = np.tile(np.asarray(vec, dtype=float), (grid.n, 1))
    return SampledSignal(grid.t0, grid.dt, vals)


def signals_equal(a: SampledSignal, b: SampledSignal, tol: float = SIGNAL_TOL) -> bool:
    """Grid sup-norm equality of two signals, relative to the larger of them."""
    scale = max(float(np.max(np.abs(a.values))), float(np.max(np.abs(b.values))))
    return float(np.max(np.abs(a.values - b.values))) <= tol * (1.0 + scale)
