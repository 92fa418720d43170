"""Tests for the geometric control core, the float construction built on it
(the Gramian transfer, which lives in `trajectory`), the lift of reduced
trajectories (an oracle kept here) and the import boundary between the two."""

from __future__ import annotations

import ast
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

import inred
from inred.exact import RationalMatrix, Subspace, image, kernel, preimage, preimage_equations
from inred.geometry import (
    DegenerateStateSpace,
    FixpointNotConverged,
    NotControlledInvariant,
    NotOutputNulling,
    PinnedBases,
    SystemQuadruple,
    adapted_basis,
    controllable_weakly_unobservable,
    friend,
    max_controlled_invariant,
    output_nulling,
    reduce_system,
    weakly_unobservable,
    _fixpoint,
)
from inred.trajectory import (
    GRAMIAN_RCOND_MIN,
    Grid,
    SampledSignal,
    SingularGramian,
    TrajectoryTriple,
    gramian_transfer_data,
    reachability_gramian,
    simulate,
)

from conftest import random_matrix, random_subspace, random_system


def mat(rows):
    return RationalMatrix.from_rows(rows)


def span(ambient, *vectors):
    return Subspace.from_vectors(ambient, vectors)


# ---------------------------------------------------------------------------
# largest controlled invariant subspace


def test_isa_whole_space_is_invariant():
    A = mat([[0, 1], [(-2), (-3)]])
    B = mat([[0], [1]])
    assert max_controlled_invariant(A, B, Subspace.full(2)).is_full()


def test_isa_four_input_constraint_is_already_invariant(four_input_system, four_input_constraints,
                                                        four_input_pinned):
    _, x_set = four_input_constraints
    b_u = four_input_system.B @ four_input_pinned.R
    assert max_controlled_invariant(four_input_system.A, b_u, x_set) == x_set


def test_isa_proper_subset_with_rotation_block():
    # coupled rotation in the first two states, input only on the third:
    # forcing the first state to zero drags the second along
    A = mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    B = mat([[0], [0], [1]])
    K = span(3, [0, 1, 0], [0, 0, 1])
    assert max_controlled_invariant(A, B, K) == span(3, [0, 0, 1])


def test_isa_fixpoint_and_maximality_spot_check():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(1, 5)
        A = random_matrix(rng, n, n)
        B = random_matrix(rng, n, rng.randint(1, 3))
        K = random_subspace(rng, n, rng.randint(0, n))
        V = max_controlled_invariant(A, B, K)
        assert V <= K
        assert image(A @ V.basis) <= V + image(B)
        # growing V by any constraint direction outside it breaks invariance
        for j in range(K.dim):
            v = K.basis.col(j)
            if V.contains(v):
                continue
            W = V + span(n, v)
            assert not (image(A @ W.basis) <= W + image(B))


def max_controlled_invariant_chain(A, B, K):
    """V* by its own chain, as it ran before it became the V fixpoint of
    (A, B, Z_K, 0): V0 = K, V_{i+1} = K n A^{-1}(V_i + im B), one elimination
    per step on the equations of V_i."""
    on_k = preimage_equations(RationalMatrix.identity(A.rows), K.basis)
    zero = RationalMatrix.zeros(on_k.rows, B.cols)

    def step(Z):
        return preimage_equations(RationalMatrix.vstack(Z @ A, on_k),
                                  RationalMatrix.vstack(Z @ B, zero))

    return kernel(_fixpoint(step, on_k, A.rows + 1))


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False), data=st.data())
def test_max_controlled_invariant_matches_its_own_chain(rng, data):
    sys = random_system(rng, n_max=7)
    n = sys.n
    dim = data.draw(st.sampled_from([0, n, rng.randint(0, n)]), label="dim K")
    K = random_subspace(rng, n, dim)
    B = sys.B if data.draw(st.booleans(), label="with inputs") else RationalMatrix.zeros(n, 0)
    assert max_controlled_invariant(sys.A, B, K) == max_controlled_invariant_chain(sys.A, B, K)


# ---------------------------------------------------------------------------
# weakly unobservable subspace


def test_weakly_unobservable_trivial_under_full_observation():
    sys = SystemQuadruple.from_rows([[1, 0], [0, 1]], [[1], [0]],
                                    [[1, 0], [0, 1]], [[0], [0]])
    assert weakly_unobservable(sys).is_zero()


def test_weakly_unobservable_four_input(four_input_system):
    assert weakly_unobservable(four_input_system) == span(3, [1, 0, 0], [0, 1, 0])


def test_weakly_unobservable_buck(buck):
    sys, _, _ = buck
    assert weakly_unobservable(sys) == span(3, [1, -1, 0])


def test_weakly_unobservable_matches_isa_when_strictly_proper():
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        p = rng.randint(1, 2)
        sys = SystemQuadruple(
            random_matrix(rng, n, n),
            random_matrix(rng, n, m),
            random_matrix(rng, p, n),
            RationalMatrix.zeros(p, m),
        )
        assert weakly_unobservable(sys) == max_controlled_invariant(
            sys.A, sys.B, kernel(sys.C))


# ---------------------------------------------------------------------------
# friends


def test_friend_of_zero_subspace_is_zero(four_input_system):
    F = friend(four_input_system, Subspace.zero(3))
    assert F == RationalMatrix.zeros(4, 3)


def test_friend_keeps_constraint_invariant(four_input_system, four_input_constraints):
    _, x_set = four_input_constraints
    F = friend(four_input_system, x_set)
    closed = four_input_system.A + four_input_system.B @ F
    assert image(closed @ x_set.basis) <= x_set


def test_friend_output_nulling_buck(buck):
    sys, _, _ = buck
    W = span(3, [1, -1, 0])
    F = friend(sys, W, output_nulling=True)
    closed = sys.A + sys.B @ F
    assert image(closed @ W.basis) <= W
    assert ((sys.C + sys.D @ F) @ W.basis).is_zero()


def test_friend_rejects_non_invariant_subspace():
    sys = SystemQuadruple.from_rows([[0, -1], [1, 0]], [[0], [0]], [[1, 0]], [[0]])
    with pytest.raises(NotControlledInvariant):
        friend(sys, span(2, [1, 0]))


def test_friend_validity_on_random_weakly_unobservable():
    rng = random.Random(71)
    for _ in range(50):
        sys = random_system(rng, n_max=4, m_max=3, p_max=2)
        V = weakly_unobservable(sys)
        F = friend(sys, V, output_nulling=True)
        closed = sys.A + sys.B @ F
        assert image(closed @ V.basis) <= V
        assert ((sys.C + sys.D @ F) @ V.basis).is_zero()
        assert controllable_weakly_unobservable(sys) <= V


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), which=st.sampled_from(["V", "V*", "zero", "full"]),
       nulling=st.booleans())
def test_friend_holds_w_and_vanishes_off_its_pivot_rows(seed, which, nulling):
    rng = random.Random(seed)
    sys = random_system(rng, n_max=4, m_max=3, p_max=2)
    if which == "V":
        W = weakly_unobservable(sys)
    elif which == "V*":
        K = random_subspace(rng, sys.n, rng.randint(0, sys.n))
        W = max_controlled_invariant(sys.A, sys.B, K)
    else:
        W = Subspace.zero(sys.n) if which == "zero" else Subspace.full(sys.n)
    try:
        F = friend(sys, W, output_nulling=nulling)
    except NotOutputNulling:
        assert nulling and which in ("V*", "full")
        return
    T = W.basis
    assert F.shape == (sys.m, sys.n)
    assert image((sys.A + sys.B @ F) @ T) <= W
    if nulling:
        assert ((sys.C + sys.D @ F) @ T).is_zero()
    pivot_rows = {next(i for i in range(sys.n) if T.entries[i][j]) for j in range(W.dim)}
    for j in set(range(sys.n)) - pivot_rows:
        assert not any(F.col(j)), f"F e_{j} != 0 off the pivot rows {sorted(pivot_rows)}"


@pytest.mark.parametrize("nulling", [False, True])
def test_friend_is_two_eliminations(monkeypatch, buck, nulling):
    sys, _, _ = buck
    W = span(3, [1, -1, 0])
    calls = []
    rref = RationalMatrix.rref
    monkeypatch.setattr(RationalMatrix, "rref", lambda self: calls.append(1) or rref(self))
    friend(sys, W, output_nulling=nulling)
    assert len(calls) == 2  # the solve for F on W, then the transposed solve for F


def test_output_nulling_record_matches_its_parts():
    rng = random.Random(72)
    for _ in range(30):
        sys = random_system(rng, n_max=4, m_max=3, p_max=2)
        on = output_nulling(sys)
        assert on.V == weakly_unobservable(sys)
        assert on.F == friend(sys, on.V, output_nulling=True)
        assert on.N == preimage(sys.B, on.V) & kernel(sys.D)
        assert on.R <= on.V


def test_fixpoint_that_never_settles_raises():
    def flip(V):
        return Subspace.zero(2) if V.is_full() else Subspace.full(2)

    with pytest.raises(FixpointNotConverged):
        _fixpoint(flip, Subspace.full(2), 3)


# ---------------------------------------------------------------------------
# controllable weakly unobservable subspace


def test_controllable_weakly_unobservable_examples(buck, four_input_system):
    sys, _, _ = buck
    assert controllable_weakly_unobservable(sys) == span(3, [1, -1, 0])
    assert controllable_weakly_unobservable(four_input_system) == span(3, [1, 0, 0], [0, 1, 0])


def test_zero_output_map_gives_reachable_set():
    # no output at all: the subspace is the reachable set, full for a
    # controllable pair
    sys = SystemQuadruple.from_rows(
        [[0, 1], [0, 0]], [[0], [1]], [[0, 0]], [[0]])
    assert controllable_weakly_unobservable(sys).is_full()


def test_matches_classical_recursion_when_strictly_proper():
    # for D = 0 the textbook recursion R_{i+1} = V* n (A R_i + im B) applies
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        p = rng.randint(1, 2)
        sys = SystemQuadruple(
            random_matrix(rng, n, n), random_matrix(rng, n, m),
            random_matrix(rng, p, n), RationalMatrix.zeros(p, m))
        v_star = weakly_unobservable(sys)
        R = Subspace.zero(n)
        for _ in range(n + 1):
            R_next = v_star & (image(sys.A @ R.basis) + image(sys.B))
            if R_next == R:
                break
            R = R_next
        assert controllable_weakly_unobservable(sys) == R


# ---------------------------------------------------------------------------
# reduction to an unconstrained system


def test_reduce_trivial_constraints_reproduces_system(four_input_system):
    pinned = PinnedBases(F=RationalMatrix.zeros(4, 3),
                         L=RationalMatrix.identity(4))
    red = reduce_system(four_input_system, Subspace.full(4), Subspace.full(3),
                        pinned=pinned)
    assert red.sys == four_input_system
    assert red.l == 3


def test_reduce_with_pinned_bases(four_input_system, four_input_constraints,
                                  four_input_pinned):
    u_set, x_set = four_input_constraints
    red = reduce_system(four_input_system, u_set, x_set, pinned=four_input_pinned)
    assert red.sys.A == RationalMatrix.identity(2).scaled(-1)
    assert red.sys.B == RationalMatrix.identity(2)
    assert red.sys.C == mat([[0, -1]])
    assert red.sys.D == RationalMatrix.zeros(1, 2)


def test_reduce_auto_bases_same_classification(four_input_system, four_input_constraints,
                                               four_input_pinned):
    from inred.analysis import degree_and_kind

    u_set, x_set = four_input_constraints
    auto = degree_and_kind(reduce_system(four_input_system, u_set, x_set).sys)
    pinned = degree_and_kind(
        reduce_system(four_input_system, u_set, x_set, pinned=four_input_pinned).sys)
    assert (auto.rho, auto.nu) == (pinned.rho, pinned.nu) == (0, 1)


def test_reduce_rejects_bad_pinned(four_input_system, four_input_constraints):
    from inred.geometry import PinnedInvalid

    u_set, x_set = four_input_constraints
    with pytest.raises(PinnedInvalid):
        reduce_system(four_input_system, u_set, x_set,
                      pinned=PinnedBases(R=RationalMatrix.identity(4)))


def test_reduce_degenerate_state_space():
    # rotation forbids staying on an axis: V* inside span{e1} is trivial
    sys = SystemQuadruple.from_rows([[0, -1], [1, 0]], [[0], [0]], [[1, 0]], [[0]])
    with pytest.raises(DegenerateStateSpace):
        reduce_system(sys, Subspace.full(1), span(2, [1, 0]))


def lift_trajectory(red, eta0, w, eta, phi):
    """A reduced-system trajectory (w, eta, phi) mapped to the constrained
    system: (R L w + R F T eta, T eta, phi), a linear and injective embedding."""
    RL = (red.R @ red.L).to_float()
    RFT = (red.R @ red.F @ red.T).to_float()
    Tf = red.T.to_float()
    u = SampledSignal(w.t0, w.dt, w.values @ RL.T + eta.values @ RFT.T, w.interpolation)
    x = SampledSignal(w.t0, w.dt, eta.values @ Tf.T)
    return TrajectoryTriple(u=u, x=x, y=phi, x0=Tf @ np.asarray(eta0, dtype=float))


def test_lift_trajectory_worked_example(four_input_system, four_input_constraints,
                                        four_input_pinned):
    u_set, x_set = four_input_constraints
    red = reduce_system(four_input_system, u_set, x_set, pinned=four_input_pinned)
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    ts = grid.times()
    w = SampledSignal(0, 1e-3, np.column_stack([np.ones_like(ts), np.ones_like(ts)]))
    eta = SampledSignal(0, 1e-3, np.column_stack([np.ones_like(ts), 1 - np.exp(-ts)]))
    phi = SampledSignal(0, 1e-3, (np.exp(-ts) - 1).reshape(-1, 1))
    triple = lift_trajectory(red, [1.0, 0.0], w, eta, phi)
    assert np.allclose(triple.u.values, [1.0, 1.0, -0.5, -0.5], atol=1e-12)
    k = grid.index_of(1.0)
    expected_x = [1.0, 1 - math.exp(-1), math.exp(-1) - 1]
    assert np.allclose(triple.x.values[k], expected_x, atol=1e-9)
    assert np.allclose(triple.y.values[k], math.exp(-1) - 1, atol=1e-9)


def test_lift_trajectory_zero_and_injectivity(four_input_system, four_input_constraints):
    u_set, x_set = four_input_constraints
    red = reduce_system(four_input_system, u_set, x_set)
    grid = Grid(0.0, 0.1, 11)
    zero2 = SampledSignal(0, 0.1, np.zeros((11, 2)))
    zero1 = SampledSignal(0, 0.1, np.zeros((11, 1)))
    triple = lift_trajectory(red, [0, 0], zero2, zero2, zero1)
    assert not triple.u.values.any() and not triple.x.values.any()
    rng = np.random.default_rng(3)
    for _ in range(5):
        wa = SampledSignal(0, 0.1, rng.normal(size=(11, 2)))
        wb = SampledSignal(0, 0.1, rng.normal(size=(11, 2)))
        eta = SampledSignal(0, 0.1, np.zeros((11, 2)))
        ta = lift_trajectory(red, [0, 0], wa, eta, zero1)
        tb = lift_trajectory(red, [0, 0], wb, eta, zero1)
        assert np.max(np.abs(ta.u.values - tb.u.values)) > 1e-9


# ---------------------------------------------------------------------------
# adapted basis


def test_adapted_basis_fully_observed_puts_everything_outside():
    sys = SystemQuadruple.from_rows([[1, 0], [0, 1]], [[1], [0]],
                                    [[1, 0], [0, 1]], [[0], [0]])
    ab = adapted_basis(sys)
    assert weakly_unobservable(sys).is_zero()
    assert ab.Ta.cols == 0 and ab.A11.shape == (0, 0) and ab.B1.rows == 0


def test_adapted_basis_buck(buck):
    sys, _, _ = buck
    ab = adapted_basis(sys)
    assert image(ab.Ta) == span(3, [1, -1, 0]) == weakly_unobservable(sys)


def test_adapted_basis_four_input(four_input_system):
    ab = adapted_basis(four_input_system)
    assert image(ab.Ta) == span(3, [1, 0, 0], [0, 1, 0]) == weakly_unobservable(four_input_system)


def test_adapted_basis_structure_on_random_systems():
    rng = random.Random(202)
    for _ in range(40):
        sys = random_system(rng, n_max=4, m_max=3, p_max=2)
        ab = adapted_basis(sys)
        assert image(ab.Ta) == controllable_weakly_unobservable(sys)
        assert ab.Ta.rank() == ab.Ta.cols
        assert (sys.A + sys.B @ ab.F) @ ab.Ta == ab.Ta @ ab.A11
        assert sys.B @ ab.L == ab.Ta @ ab.B1
        # controllability of (A11, B1) via the exact Krylov rank
        ra = ab.Ta.cols
        if ra:
            blocks = [ab.B1]
            for _ in range(ra - 1):
                blocks.append(ab.A11 @ blocks[-1])
            assert RationalMatrix.hstack(*blocks).rank() == ra


# ---------------------------------------------------------------------------
# Gramian transfers


def test_gramian_zero_endpoints_give_zero_input():
    w, phi = gramian_transfer_data(np.zeros((1, 1)), np.ones((1, 1)), np.zeros(1), np.zeros(1),
                                   1.0, 100)
    assert w.shape == (101, 1) and phi.shape == (101, 1)
    assert not w.any() and not phi.any()


def test_gramian_pure_integrator_constant_input():
    w, phi = gramian_transfer_data(np.zeros((1, 1)), np.ones((1, 1)), np.zeros(1), np.ones(1),
                                   1.0, 100)
    assert np.allclose(w, 1.0, atol=1e-12)
    assert np.allclose(phi[:, 0], np.linspace(0.0, 1.0, 101), atol=1e-12)


def test_gramian_stable_scalar_against_quadrature_oracle():
    A = np.array([[-1.0]])
    B = np.array([[1.0]])
    w, _ = gramian_transfer_data(A, B, np.zeros(1), np.ones(1), 1.0, 1000)
    spline = CubicSpline(np.linspace(0.0, 1.0, 1001), w)
    sol = solve_ivp(lambda t, x: A @ x + B @ spline(t), (0, 1.0), [0.0],
                    rtol=1e-12, atol=1e-14)
    assert abs(sol.y[0, -1] - 1.0) <= 1e-8


def test_gramian_matches_quadrature():
    rng = np.random.default_rng(11)
    A = rng.uniform(-1, 1, (3, 3))
    B = rng.uniform(-1, 1, (3, 2))
    T = 1.3
    W = reachability_gramian(A, B, T)
    W_quad, _ = quad_vec(lambda s: expm(s * A) @ B @ B.T @ expm(s * A.T), 0, T,
                         epsabs=1e-13, epsrel=1e-13)
    assert np.max(np.abs(W - W_quad)) < 1e-10


def test_gramian_rejects_uncontrollable_pair():
    A = np.diag([1.0, 2.0])
    B = np.array([[1.0], [0.0]])
    with pytest.raises(SingularGramian):
        gramian_transfer_data(A, B, np.zeros(2), np.ones(2), 1.0, 1000)


def draw_controllable_pair(rng, n_max=4, m_max=2, cond_cap=1e6):
    """Random numerically controllable pair with its horizon.

    The transfer's double-precision accuracy floor is eps * cond(W), so pairs
    whose Gramian conditioning exceeds the cap cannot meet a 1e-8 endpoint
    contract in principle and are redrawn (under 10% of draws).
    """
    while True:
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        A = rng.uniform(-1, 1, (n, n))
        B = rng.uniform(-1, 1, (n, m))
        K = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        if np.linalg.matrix_rank(K) < n:
            continue
        T = rng.uniform(0.5, 2.0)
        if np.linalg.cond(reachability_gramian(A, B, T)) > cond_cap:
            continue
        return A, B, T


def test_gramian_endpoint_error_random_controllable_pairs():
    # oracle: Gramian by adaptive quadrature, induced trajectory by an
    # adaptive RK integration of the augmented linear dynamics
    rng = np.random.default_rng(2024)
    for _ in range(50):
        A, B, T = draw_controllable_pair(rng)
        n = A.shape[0]
        p0 = rng.uniform(-1, 1, n)
        pf = rng.uniform(-1, 1, n)
        steps = round(T / 1e-3)
        w, phi = gramian_transfer_data(A, B, p0, pf, T, steps)
        W_quad, _ = quad_vec(lambda s: expm(s * A) @ B @ B.T @ expm(s * A.T),
                             0, T, epsabs=1e-13, epsrel=1e-13)
        eta = np.linalg.solve(W_quad, pf - expm(A * T) @ p0)
        # sampled values match the closed form at (a subset of) the nodes
        ts = np.linspace(0.0, T, steps + 1)[::131]
        w_ref = np.array([B.T @ expm(A.T * (T - t)) @ eta for t in ts])
        scale = 1 + np.max(np.abs(w_ref))
        assert np.max(np.abs(w[::131] - w_ref)) <= 1e-8 * scale
        # the returned state starts at p0 and ends at pf to round-off: each of
        # the `steps` updates of the closed form rounds, amplified by cond(W)
        assert np.array_equal(phi[0], p0)
        round_off = steps * np.finfo(float).eps * np.linalg.cond(W_quad)
        assert np.linalg.norm(phi[-1] - pf) <= round_off * (1 + np.linalg.norm(pf))
        # endpoint of the induced trajectory: x' = Ax + B w(t) with
        # w = B' q, q' = -A' q, q(0) = e^{A'T} eta
        M = np.block([[A, B @ B.T], [np.zeros((n, n)), -A.T]])
        z0 = np.concatenate([p0, expm(A.T * T) @ eta])
        sol = solve_ivp(lambda t, z: M @ z, (0, T), z0, rtol=1e-12, atol=1e-14)
        err = np.linalg.norm(sol.y[:n, -1] - pf)
        assert err <= 1e-8 * (1 + np.linalg.norm(pf))


# The transfer as two Python loops over the steps, before it ran on the
# blocked recurrence, kept verbatim (scipy's expm standing in for the
# package's wrapper) as the reference.
def gramian_transfer_loops(A, B, p0, pf, duration, steps):
    n = A.shape[0]
    dt = duration / steps
    W_total = reachability_gramian(A, B, duration)
    finite = np.isfinite(W_total).all()  # cond's SVD fails on inf or NaN entries
    rcond = (1.0 / np.linalg.cond(W_total) if finite else 0.0) if n else 1.0
    if not np.isfinite(rcond) or rcond < GRAMIAN_RCOND_MIN:
        raise SingularGramian(
            f"reciprocal condition {rcond:.2e} below {GRAMIAN_RCOND_MIN:.0e}"
        )
    eta = np.linalg.solve(W_total, pf - expm(A * duration) @ p0)
    E = expm(A * dt)
    W_dt = reachability_gramian(A, B, dt)
    # backward factors v_k = e^{(T - t_k) A'} eta
    v = np.empty((steps + 1, n))
    v[steps] = eta
    for k in range(steps - 1, -1, -1):
        v[k] = E.T @ v[k + 1]
    w = v @ B
    phi = np.empty((steps + 1, n))
    free = p0.copy()
    W = np.zeros((n, n))
    for k in range(steps + 1):
        phi[k] = free + W @ v[k]
        if k < steps:
            free = E @ free
            W = E @ W @ E.T + W_dt
    return w, phi


def free_response_peak(A, p0, duration, steps):
    """Largest entry of |e^{t_k A} p0| over the steps + 1 nodes."""
    E = expm(A * duration / steps)
    free = p0
    peak = np.max(np.abs(p0))
    for _ in range(steps):
        free = E @ free
        peak = max(peak, np.max(np.abs(free)))
    return peak


@st.composite
def transfer_cases(draw):
    """(A, B, p0, pf, T, steps) with n <= 4, m <= 2 and ||A T|| up to 50.

    A is a multiple of M, M + 1.0001 I or M - 1.0001 I for a random M of
    spectral norm 1, so it is unstable, stable or neither.  The endpoints
    are both zero or both random.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    M = rng.normal(size=(n, n))
    M = M / np.linalg.norm(M, 2) + draw(st.sampled_from((-1.0001, 0.0, 1.0001))) * np.eye(n)
    T = draw(st.floats(0.5, 2.0))
    A = draw(st.floats(0.0, 50.0)) / (T * np.linalg.norm(M, 2)) * M
    B = rng.normal(size=(n, m))
    steps = draw(st.one_of(st.sampled_from((1, 2, 20_000)), st.integers(1, 3000)))
    p0, pf = rng.uniform(-1, 1, (2, n)) * draw(st.sampled_from((0.0, 1.0)))
    return A, B, p0, pf, T, steps


# The gaps to the reference, in units of steps * eps * cond(W(T)) times the
# scale of the compared signal, stayed below 8.5 over 1,500 examples of
# `transfer_cases`, and below 2.5e3 over 4,000 draws with more small step
# counts.  The largest came from scipy's expm, which rounds the step's block
# exponential about 2e3 eps away from the exponential of A alone when
# ||A dt|| is near 4.
TRANSFER_GAP_MULTIPLE = 1e4


@settings(max_examples=100, deadline=None)
@given(case=transfer_cases())
def test_gramian_transfer_matches_the_loop_reference(case):
    A, B, p0, pf, T, steps = case
    try:
        w_ref, phi_ref = gramian_transfer_loops(*case)
    except SingularGramian:
        with pytest.raises(SingularGramian):
            gramian_transfer_data(*case)
        return
    w, phi = gramian_transfer_data(*case)
    unit = (TRANSFER_GAP_MULTIPLE * steps * np.finfo(float).eps
            * np.linalg.cond(reachability_gramian(A, B, T)))
    assert np.max(np.abs(w - w_ref)) <= unit * (1 + np.max(np.abs(w_ref)))
    # phi sums the free response e^{tA} p0 and W(t) v(t), which can both be
    # far larger than phi itself, so the free response enters its scale
    scale = 1 + np.max(np.abs(phi_ref)) + free_response_peak(A, p0, T, steps)
    assert np.max(np.abs(phi - phi_ref)) <= unit * scale


# ---------------------------------------------------------------------------
# module boundaries

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "inred"


def import_names(node: ast.AST) -> set[str]:
    """Top-level names of an absolute import statement, ".name" for each
    module of a relative one, and nothing for any other node."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module.split(".")[0]}
    if isinstance(node, ast.ImportFrom):
        return {"." + node.module} if node.module else {"." + alias.name for alias in node.names}
    return set()


def imported_modules(path: Path) -> set[str]:
    """`import_names` of a module's imports, wherever in the module they appear."""
    return set().union(*map(import_names, ast.walk(ast.parse(path.read_text()))))


def module_level_imports(path: Path) -> set[str]:
    """`import_names` of the imports that run when the module is imported:
    those outside function bodies and `if TYPE_CHECKING:` blocks."""
    names: set[str] = set()
    pending = list(ast.parse(path.read_text()).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            pending.extend(node.orelse)
            continue
        names |= import_names(node)
        pending.extend(ast.iter_child_nodes(node))
    return names


def test_geometry_imports_only_the_standard_library_and_exact():
    names = imported_modules(PACKAGE / "geometry.py")
    assert names - sys.stdlib_module_names == {".exact"}


def test_only_the_trajectory_engine_imports_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    assert [m.name for m in modules if "scipy" in imported_modules(m)] == ["trajectory.py"]


def test_no_module_imports_scipy_at_module_level():
    modules = sorted(PACKAGE.glob("*.py"))
    assert "numpy" in module_level_imports(PACKAGE / "trajectory.py")
    assert [m.name for m in modules if "scipy" in module_level_imports(m)] == []


@pytest.mark.parametrize("name", ["exact.py", "geometry.py", "analysis.py"])
def test_exact_core_imports_no_numpy_at_module_level(name):
    assert "numpy" not in module_level_imports(PACKAGE / name)


def test_package_names_resolve_to_the_trajectory_engine():
    assert inred.SingularGramian is SingularGramian
    assert inred.simulate is simulate
    assert not hasattr(inred, "gramian_transfer_input")
