"""Tests for increment synthesis and pair certification."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from inred.exact import RationalMatrix, Subspace, kernel
from inred.geometry import SystemQuadruple
from inred.synthesis import (
    EmptyWindow,
    KernelBump,
    NoInteriorWindow,
    NotAdmissibleNominal,
    RZero,
    RhoZero,
    StateLoop,
    VerificationFailed,
    ZeroMargin,
    certify_ir_pair,
    compute_scaling,
    synthesize_increment,
    synthesize_kernel_bump,
    synthesize_state_loop,
    verify_increment,
)
from inred.trajectory import (
    Grid,
    SampledSignal,
    check_admissible,
    simulate,
)

from conftest import random_matrix, random_system


def ramp_signal(grid: Grid) -> SampledSignal:
    ts = grid.times()
    vals = np.where(ts[:, None] <= 1.0,
                    np.column_stack([1 - ts, ts]),
                    np.array([0.0, 1.0]))
    return SampledSignal(grid.t0, grid.dt, vals)


# ---------------------------------------------------------------------------
# kernel bump


def test_kernel_bump_direction_and_support(four_input_system):
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    u_hat = synthesize_kernel_bump(four_input_system.B, four_input_system.D,
                                   (0.2, 1.2), grid)
    peak = u_hat.values[grid.index_of(0.7)]
    assert np.allclose(peak, [0, 0, 1, -1])
    assert not u_hat.values[: grid.index_of(0.2)].any()
    assert not u_hat.values[grid.index_of(1.2) + 1:].any()
    # the direction lies in the exact joint kernel, so B u and D u vanish
    null = kernel(RationalMatrix.vstack(four_input_system.B, four_input_system.D))
    assert null.contains([0, 0, 1, -1])


def test_kernel_bump_output_and_state_stay_zero(four_input_system):
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    u_hat = synthesize_kernel_bump(four_input_system.B, four_input_system.D,
                                   (0.2, 1.2), grid)
    response = simulate(four_input_system, [0.0, 0.0, 0.0], u_hat)
    assert np.max(np.abs(response.y.values)) <= 1e-9
    assert np.max(np.abs(response.x.values)) <= 1e-9


def test_kernel_bump_requires_nontrivial_kernel(buck):
    sys, _, _ = buck
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    with pytest.raises(RhoZero):
        synthesize_kernel_bump(sys.B, sys.D, (0.2, 1.2), grid)


def test_kernel_bump_rejects_empty_window(four_input_system):
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    with pytest.raises(EmptyWindow):
        synthesize_kernel_bump(four_input_system.B, four_input_system.D,
                               (0.5, 0.5), grid)


# ---------------------------------------------------------------------------
# state loop


def test_state_loop_buck(buck):
    sys, _, _ = buck
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    u_hat, x_hat = synthesize_state_loop(sys, (0.0, 1.0), grid)
    mid = grid.index_of(0.5)
    peak = x_hat.values[mid]
    assert np.allclose(peak / peak[0], [1, -1, 0], atol=1e-9)
    # loop closes
    end = grid.index_of(1.0)
    assert np.linalg.norm(x_hat.values[end]) <= 1e-6 * (1 + np.linalg.norm(peak))
    assert not u_hat.values[end + 1:].any()
    # resimulating from rest keeps the output flat
    response = simulate(sys, [0.0, 0.0, 0.0], u_hat)
    assert np.max(np.abs(response.y.values)) <= 1e-6


def test_state_loop_four_input_unconstrained(four_input_system):
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    u_hat, x_hat = synthesize_state_loop(four_input_system, (0.0, 1.0), grid)
    response = simulate(four_input_system, [0.0, 0.0, 0.0], u_hat)
    assert np.max(np.abs(response.y.values)) <= 1e-6
    # the excursion stays inside the output-invisible subspace span{e1, e2}
    assert np.max(np.abs(x_hat.values[:, 2])) <= 1e-9


def test_state_loop_requires_nontrivial_subspace(integrator):
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    with pytest.raises(RZero):
        synthesize_state_loop(integrator, (0.0, 1.0), grid)


@pytest.mark.parametrize("fixture, error", [
    ("four_input_system", EmptyWindow),  # rho > 0: the bump checks the window
    ("integrator", RZero),               # rho = 0 and R = 0: before the window
    ("buck", EmptyWindow),               # rho = 0 and R != 0
])
def test_increment_failures_keep_their_order(request, fixture, error):
    sys = request.getfixturevalue(fixture)
    sys = sys[0] if isinstance(sys, tuple) else sys
    with pytest.raises(error):
        synthesize_increment(sys, (0.5, 0.5), Grid.from_horizon(0.0, 1e-3, 2.0))


def test_increment_eliminates_b_d_once(monkeypatch, four_input_system):
    import inred.analysis
    import inred.synthesis

    calls = []
    for module in (inred.analysis, inred.synthesis):
        monkeypatch.setattr(module, "kernel", lambda M: calls.append(M) or kernel(M))
    _, x_hat, route = synthesize_increment(four_input_system, (0.2, 1.2),
                                           Grid.from_horizon(0.0, 1e-3, 2.0))
    assert x_hat is None and route == KernelBump()
    assert calls == [RationalMatrix.vstack(four_input_system.B, four_input_system.D)]


def test_state_loop_closure_random_systems():
    # systems with no output constraint: the loop runs through the full
    # reachable set; closure must hold to 1e-6 regardless of the draw
    rng = random.Random(31)
    nprng = np.random.default_rng(31)
    grid = Grid.from_horizon(0.0, 1e-3, 1.0)
    done = 0
    while done < 10:
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        A = random_matrix(rng, n, n)
        B = random_matrix(rng, n, m)
        sys = SystemQuadruple(A, B, RationalMatrix.zeros(1, n),
                              RationalMatrix.zeros(1, m))
        try:
            u_hat, x_hat = synthesize_state_loop(sys, (0.0, 0.8), grid)
        except RZero:
            continue
        peak = np.max(np.linalg.norm(x_hat.values, axis=1))
        end = np.linalg.norm(x_hat.values[grid.index_of(0.8)])
        assert end <= 1e-6 * (1 + peak)
        done += 1


# ---------------------------------------------------------------------------
# scaling


def test_scaling_direct_formula():
    grid = Grid(0.0, 0.1, 11)
    u_hat = SampledSignal(0, 0.1, np.full((11, 1), 2.0))
    assert compute_scaling(0.3, None, u_hat, None, rho=1) == pytest.approx(0.9 * 0.15)


def test_scaling_infinite_state_margin():
    grid = Grid(0.0, 0.1, 11)
    u_hat = SampledSignal(0, 0.1, np.full((11, 1), 2.0))
    x_hat = SampledSignal(0, 0.1, np.full((11, 2), 1.0))
    alpha = compute_scaling(0.3, math.inf, u_hat, x_hat, rho=0)
    assert alpha == pytest.approx(0.9 * 0.15)


def test_scaling_all_margins_infinite_caps_at_one():
    u_hat = SampledSignal(0, 0.1, np.full((11, 1), 2.0))
    assert compute_scaling(math.inf, None, u_hat, None, rho=1) == 1.0


def test_scaling_zero_margin_rejected():
    u_hat = SampledSignal(0, 0.1, np.ones((11, 1)))
    with pytest.raises(ZeroMargin):
        compute_scaling(0.0, None, u_hat, None, rho=1)
    with pytest.raises(ZeroMargin):
        compute_scaling(0.5, 0.0, u_hat, u_hat, rho=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scaling_of_a_non_finite_increment_is_rejected(bad):
    # NaN used to give 1.0 and inf 0.0, which certifies the zero increment
    u_hat = SampledSignal(0, 0.1, np.array([[1.0], [bad], [0.0]]))
    with pytest.raises(ZeroMargin):
        compute_scaling(0.5, None, u_hat, None, rho=1)
    with pytest.raises(ZeroMargin):
        compute_scaling(0.5, 0.5, SampledSignal(0, 0.1, np.ones((3, 1))), u_hat, rho=0)


def test_scaling_of_a_finite_increment_beyond_the_square_range():
    # every entry of 1e200 has a square of inf; the norms themselves are finite
    u_hat = SampledSignal(0, 0.1, np.array([[0.0, 0.0], [1.0, -1e200], [0.0, 0.0]]))
    assert compute_scaling(1.0, None, u_hat, None, rho=1) == pytest.approx(0.9e-200)
    x_hat = SampledSignal(0, 0.1, np.full((3, 2), 1e200))
    alpha = compute_scaling(1.0, 1.0, SampledSignal(0, 0.1, np.ones((3, 1))), x_hat, rho=0)
    assert alpha == pytest.approx(0.9e-200 / math.sqrt(2))


def test_scaling_that_underflows_is_rejected():
    u_hat = SampledSignal(0, 0.1, np.full((11, 1), 1e10))
    with pytest.raises(ZeroMargin):
        compute_scaling(1e-320, None, u_hat, None, rho=1)
    x_hat = SampledSignal(0, 0.1, np.full((11, 1), 1e150))
    with pytest.raises(ZeroMargin):
        compute_scaling(0.5, 1e-200, SampledSignal(0, 0.1, np.ones((11, 1))), x_hat, rho=0)


# ---------------------------------------------------------------------------
# increment verification


def test_zero_increment_always_verifies(buck):
    sys, u_set, x_set = buck
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    u = ramp_signal(grid)
    zero = SampledSignal(0, 1e-3, np.zeros((grid.n, 2)))
    check = verify_increment(sys, u_set, x_set, [0.1, 0.0, 0.0], u, zero)
    assert check.ok and check.y_sup_diff == 0.0


def test_increment_between_known_compatible_inputs(boundary_example):
    sys, u_set, x_set = boundary_example
    grid = Grid.from_horizon(0.0, 1e-3, 5.0)
    ts = grid.times()
    u2 = SampledSignal(0, 1e-3, np.column_stack([np.exp(-2 * ts), np.zeros_like(ts)]))
    u3_minus_u2 = SampledSignal(
        0, 1e-3, np.column_stack([np.exp(-3 * ts) - np.exp(-2 * ts), np.exp(-3 * ts)]))
    check = verify_increment(sys, u_set, x_set, [-1.0], u2, u3_minus_u2)
    assert check.ok


def test_increment_fails_on_unique_input_pair(boundary_example):
    # from the boundary-riding nominal, raising the second input perturbs the
    # output or exits the orthant: no increment family passes
    sys, u_set, x_set = boundary_example
    grid = Grid.from_horizon(0.0, 1e-3, 5.0)
    u1 = SampledSignal(0, 1e-3, np.zeros((grid.n, 2)))
    ts = grid.times()
    for scale in (1.0, 0.1, 0.01):
        bump = np.clip(1 - np.abs(ts - 1.0), 0, None)
        tilde = SampledSignal(0, 1e-3, np.column_stack([np.zeros_like(ts), scale * bump]))
        check = verify_increment(sys, u_set, x_set, [-1.0], u1, tilde)
        assert not check.ok


# ---------------------------------------------------------------------------
# certification


def test_certify_buck_ramp(buck):
    sys, u_set, x_set = buck
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    cert = certify_ir_pair(sys, u_set, x_set, [0.2, 0.1, 0.3], ramp_signal(grid))
    assert isinstance(cert.route, StateLoop)
    assert cert.window[0] <= 0.1 and cert.window[1] >= 0.9
    assert cert.alpha > 0
    assert cert.verification.ok
    assert np.allclose(cert.route.x_peak / cert.route.x_peak[0], [1, -1, 0], atol=1e-9)


def test_certify_zero_nominal_is_inconclusive(buck):
    sys, u_set, x_set = buck
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    zero = SampledSignal(0, 1e-3, np.zeros((grid.n, 2)))
    with pytest.raises(NoInteriorWindow):
        certify_ir_pair(sys, u_set, x_set, [0.0, 0.0, 0.0], zero)


def test_certify_full_space_constraints_kernel_route(four_input_system):
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    zero = SampledSignal(0, 1e-3, np.zeros((grid.n, 4)))
    cert = certify_ir_pair(four_input_system, Subspace.full(4), Subspace.full(3),
                           [0.0, 0.0, 0.0], zero)
    assert isinstance(cert.route, KernelBump)
    assert cert.window == (0.0, pytest.approx(2.0))
    assert cert.alpha == 1.0
    assert cert.verification.ok


def test_certify_rejects_inadmissible_nominal(buck):
    sys, u_set, x_set = buck
    grid = Grid.from_horizon(0.0, 1e-3, 1.0)
    too_big = SampledSignal(0, 1e-3, np.full((grid.n, 2), 2.0))
    with pytest.raises(NotAdmissibleNominal):
        certify_ir_pair(sys, u_set, x_set, [0.0, 0.0, 0.0], too_big)


def test_certify_no_route_when_not_redundant(integrator):
    grid = Grid.from_horizon(0.0, 1e-3, 1.0)
    u = SampledSignal(0, 1e-3, np.zeros((grid.n, 1)))
    with pytest.raises(RZero):
        certify_ir_pair(integrator, Subspace.full(1), Subspace.full(1), [0.0], u)


def test_certificate_soundness_at_half_step(buck):
    # the certificate's scaled increment keeps verifying when both signals
    # are resampled to half the step and re-simulated from scratch
    sys, u_set, x_set = buck
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    nominal = ramp_signal(grid)
    cert = certify_ir_pair(sys, u_set, x_set, [0.2, 0.1, 0.3], nominal)
    fine = Grid.from_horizon(0.0, 5e-4, 2.0)
    check = verify_increment(
        sys, u_set, x_set, [0.2, 0.1, 0.3],
        nominal.resample(fine), cert.u_hat.scaled(cert.alpha).resample(fine))
    assert check.ok


def test_certificate_alpha_matches_rederived_margins(buck):
    # recompute the window margins from the simulated nominal trajectory and
    # check the certificate's scale satisfies the margin formula
    sys, u_set, x_set = buck
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    nominal = ramp_signal(grid)
    x0 = [0.2, 0.1, 0.3]
    cert = certify_ir_pair(sys, u_set, x_set, x0, nominal)
    triple = simulate(sys, x0, nominal)
    from inred.trajectory import interior_window, membership
    win = interior_window(triple, u_set, x_set, rho=0)
    assert (win.t1, win.t2) == cert.window
    i1 = grid.index_of(win.t1)
    i2 = grid.index_of(win.t2)
    margins = [membership(u_set, triple.u.values[k]).margin for k in range(i1, i2 + 1)]
    sup_u = float(np.max(np.linalg.norm(cert.u_hat.values, axis=1)))
    assert cert.alpha == pytest.approx(0.9 * min(margins) / sup_u)


def test_certificate_scaling_monotone(buck):
    sys, u_set, x_set = buck
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    nominal = ramp_signal(grid)
    cert = certify_ir_pair(sys, u_set, x_set, [0.2, 0.1, 0.3], nominal)
    half = verify_increment(sys, u_set, x_set, [0.2, 0.1, 0.3], nominal,
                            cert.u_hat.scaled(cert.alpha / 2))
    assert half.ok
