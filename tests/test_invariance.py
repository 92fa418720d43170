"""Metamorphic invariance of the exact classification.

Kind, degree, dim V, dim R and l are invariant under a change of state,
input or output coordinates, and, for unconstrained systems, under state
feedback and output injection (Morse, SIAM J. Control 11, 1973; Trentelman,
Stoorvogel and Hautus 2001, ch. 7).  N, read as directions of the original
input space, is unchanged except under an input change M, which maps it to
M^-1 N.  For unconstrained systems V and R themselves are unchanged except
under a state similarity P, which maps them to P^-1 V and P^-1 R.
Coordinate changes are unimodular integer matrices, so their inverses are
integer too and coefficients stay small.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inred.analysis import analyze
from inred.exact import RationalMatrix, Subspace, image
from inred.geometry import SystemQuadruple, output_nulling, reduce_system

from conftest import random_matrix, random_subspace, random_system


def unimodular(rng: random.Random, k: int) -> RationalMatrix:
    """A signed permutation times 2k elementary integer row operations."""
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(2 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return RationalMatrix.from_rows([[rng.choice((-1, 1)) * x for x in row] for row in rows])


def input_directions(sys: SystemQuadruple, u_set: Subspace, x_set: Subspace, report) -> Subspace:
    """The report's N as a subspace of the original input space R^m."""
    if report.l == 0:  # the degenerate analysis states N in R^m already
        return report.N
    bundle = reduce_system(sys, u_set, x_set)
    return image(bundle.R @ bundle.L @ report.N.basis)


def similarity(rng, sys, u_set, x_set):
    P = unimodular(rng, sys.n)
    P_inv = P.inverse()
    moved = SystemQuadruple(P_inv @ sys.A @ P, P_inv @ sys.B, sys.C @ P, sys.D)
    return moved, u_set, image(P_inv @ x_set.basis), P_inv, None


def state_feedback(rng, sys, u_set, x_set):
    K = random_matrix(rng, sys.m, sys.n)
    moved = SystemQuadruple(sys.A + sys.B @ K, sys.B, sys.C + sys.D @ K, sys.D)
    return moved, u_set, x_set, None, None


def output_injection(rng, sys, u_set, x_set):
    H = random_matrix(rng, sys.n, sys.p)
    moved = SystemQuadruple(sys.A + H @ sys.C, sys.B + H @ sys.D, sys.C, sys.D)
    return moved, u_set, x_set, None, None


def input_change(rng, sys, u_set, x_set):
    M = unimodular(rng, sys.m)
    M_inv = M.inverse()
    moved = SystemQuadruple(sys.A, sys.B @ M, sys.C, sys.D @ M)
    return moved, image(M_inv @ u_set.basis), x_set, None, M_inv


def output_change(rng, sys, u_set, x_set):
    T = unimodular(rng, sys.p)
    moved = SystemQuadruple(sys.A, sys.B, T @ sys.C, T @ sys.D)
    return moved, u_set, x_set, None, None


# (transformation, whether it keeps the classification of constrained systems)
TRANSFORMATIONS = {
    "similarity": (similarity, True),
    "state_feedback": (state_feedback, False),
    "output_injection": (output_injection, False),
    "input_change": (input_change, True),
    "output_change": (output_change, True),
}


def invariants(report) -> tuple:
    return report.kind, report.degree, report.dim_V, report.dim_R, report.l


@pytest.mark.parametrize("name", sorted(TRANSFORMATIONS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), constrained=st.booleans())
@example(seed=21, constrained=False)  # Kind1 with D != 0
@example(seed=232, constrained=False)  # Kind1 with m = 1
@example(seed=31, constrained=False)  # Kind3
@example(seed=51, constrained=False)  # R is not the reachable set of (A, B N) here
def test_classification_is_invariant(name, seed, constrained):
    transform, keeps_constraints = TRANSFORMATIONS[name]
    rng = random.Random(seed)
    sys = random_system(rng)
    if constrained and keeps_constraints:
        u_set = random_subspace(rng, sys.m, rng.randint(0, sys.m))
        x_set = random_subspace(rng, sys.n, rng.randint(1, sys.n))
    else:
        u_set, x_set = Subspace.full(sys.m), Subspace.full(sys.n)
    moved, moved_u, moved_x, state_map, input_map = transform(rng, sys, u_set, x_set)

    before = analyze(sys, u_set, x_set)
    after = analyze(moved, moved_u, moved_x)
    assert invariants(after) == invariants(before)
    directions = input_directions(sys, u_set, x_set, before)
    if input_map is not None:
        directions = image(input_map @ directions.basis)
    assert input_directions(moved, moved_u, moved_x, after) == directions
    if input_map is None:  # the reduced input coordinates are unchanged too
        assert after.N == before.N
    if u_set.is_full() and x_set.is_full():
        on, moved_on = output_nulling(sys), output_nulling(moved)
        for space, moved_space in ((on.V, moved_on.V), (on.R, moved_on.R)):
            mapped = space if state_map is None else image(state_map @ space.basis)
            assert moved_space == mapped
