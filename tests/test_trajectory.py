"""Tests for constraint membership, simulation and the sampled checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from inred.exact import DimensionMismatch, Subspace
from inred.trajectory import (
    Box,
    FullSpace,
    Grid,
    Interpolation,
    LinearSubspaceSet,
    Polyhedron,
    SampledSignal,
    Status,
    TrajectoryTriple,
    boundary_residence,
    check_admissible,
    compare_triples,
    interior_window,
    membership,
    simulate,
)


def span_set(ambient, *vectors):
    return LinearSubspaceSet(Subspace.from_vectors(ambient, vectors))


# ---------------------------------------------------------------------------
# membership


def test_box_interior_point():
    m = membership(Box((0, 0), (1, 1)), [0.5, 0.5])
    assert m.status is Status.INTERIOR
    assert m.margin == pytest.approx(0.5)


def test_half_bounded_box_boundary_point():
    m = membership(Box((0, 0), (math.inf, math.inf)), [0.0, 3.0])
    assert m.status is Status.BOUNDARY


def test_box_outside_point():
    m = membership(Box((0,), (1,)), [1.5])
    assert m.status is Status.OUTSIDE
    assert m.margin == pytest.approx(-0.5)


def test_proper_subspace_members_are_boundary():
    cs = span_set(3, [1, -1, 0])
    inside = membership(cs, [2.0, -2.0, 0.0])
    assert inside.status is Status.BOUNDARY and inside.margin == 0.0
    outside = membership(cs, [1.0, 0.0, 0.0])
    assert outside.status is Status.OUTSIDE and outside.margin < 0


def test_full_space_always_interior():
    m = membership(FullSpace(2), [1e9, -1e9])
    assert m.status is Status.INTERIOR and math.isinf(m.margin)


def test_polyhedron_margin_normalized():
    # 3x + 4y <= 5 has row norm 5: point at the origin sits at distance 1
    cs = Polyhedron([[3.0, 4.0]], [5.0])
    m = membership(cs, [0.0, 0.0])
    assert m.status is Status.INTERIOR
    assert m.margin == pytest.approx(1.0)


def test_membership_trichotomy_random():
    rng = np.random.default_rng(7)
    cs = Box((-1.0, 0.0), (1.0, math.inf))
    for _ in range(200):
        v = rng.uniform(-2, 2, 2)
        m = membership(cs, v)
        assert (m.status is Status.INTERIOR) == (m.margin > 0)
        assert (m.status is Status.OUTSIDE) == (m.margin < 0)
        assert (m.status is Status.BOUNDARY) == (m.margin == 0.0)


@pytest.mark.parametrize("cs", [
    FullSpace(2),
    LinearSubspaceSet(Subspace.full(2)),
    span_set(2, [1, 0]),
    Box((0, 0), (1, 1)),
    Polyhedron([[1.0, 1.0]], [1.0]),
])
@pytest.mark.parametrize("point", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 0.0]])
def test_non_finite_point_is_outside(cs, point):
    m = membership(cs, point)
    assert m.status is Status.OUTSIDE and m.margin == -math.inf


def test_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        membership(Box((0,), (1,)), [0.1, 0.2])


# ---------------------------------------------------------------------------
# simulation


def test_simulate_zero_everything(integrator):
    u = SampledSignal(0, 0.01, np.zeros((101, 1)))
    triple = simulate(integrator, [0.0], u)
    assert not triple.x.values.any()
    assert not triple.y.values.any()


def test_simulate_matching_decay_cancels_output(boundary_example):
    # driving with e^{-2t} on the first input from x0 = -1 keeps y at zero
    sys, _, _ = boundary_example
    grid = Grid.from_horizon(0.0, 1e-3, 5.0)
    ts = grid.times()
    u = SampledSignal(0, 1e-3, np.column_stack([np.exp(-2 * ts), np.zeros_like(ts)]))
    triple = simulate(sys, [-1.0], u)
    assert np.max(np.abs(triple.y.values)) <= 1e-6
    assert np.max(np.abs(triple.x.values[:, 0] + np.exp(-2 * ts))) <= 1e-6


def test_simulate_unstable_exponential_exact(escape_example):
    sys, _, _ = escape_example
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    u = SampledSignal(0, 1e-3, np.zeros((grid.n, 1)))
    triple = simulate(sys, [0.5], u)
    expected = 0.5 * np.exp(grid.times())
    assert np.max(np.abs(triple.x.values[:, 0] - expected)) <= 1e-9 * np.max(expected)


def test_simulate_zoh_step_matches_closed_form(integrator):
    # integrator under a unit step held for the whole horizon
    u = SampledSignal(0, 0.1, np.ones((11, 1)), Interpolation.ZERO_ORDER_HOLD)
    triple = simulate(integrator, [0.0], u)
    assert np.allclose(triple.x.values[:, 0], u.times(), atol=1e-12)


def test_halving_dt_leaves_grid_aligned_linear_input_unchanged(buck):
    # a piecewise-linear input is reproduced exactly by the first-order-hold
    # discretization, so refining the grid only adds rounding
    sys, _, _ = buck
    coarse = Grid.from_horizon(0.0, 2e-3, 1.0)
    fine = Grid.from_horizon(0.0, 1e-3, 1.0)
    ts = coarse.times()
    ramp = np.column_stack([1 - ts / 2, ts / 2])
    u_coarse = SampledSignal(0, 2e-3, ramp)
    u_fine = u_coarse.resample(fine)
    x0 = [0.3, -0.1, 0.2]
    tc = simulate(sys, x0, u_coarse)
    tf = simulate(sys, x0, u_fine)
    rel = np.max(np.abs(tf.x.values[::2] - tc.x.values)) / (1 + np.max(np.abs(tc.x.values)))
    assert rel <= 1e-10


# ---------------------------------------------------------------------------
# admissibility


def test_escape_first_violation_near_log_two(escape_example):
    sys, u_set, x_set = escape_example
    dt = 1e-3
    grid = Grid.from_horizon(0.0, dt, 2.0)
    u = SampledSignal(0, dt, np.zeros((grid.n, 1)))
    triple = simulate(sys, [0.5], u)
    result = check_admissible(triple, u_set, x_set)
    assert not result.ok
    assert math.log(2) - 2 * dt <= result.first_violation <= math.log(2) + 2 * dt


def test_buck_ramp_admissible(buck):
    sys, u_set, x_set = buck
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    ts = grid.times()
    vals = np.where(ts[:, None] <= 1.0,
                    np.column_stack([1 - ts, ts]),
                    np.array([0.0, 1.0]))
    triple = simulate(sys, [0.0, 0.0, 0.0], SampledSignal(0, 1e-3, vals))
    assert check_admissible(triple, u_set, x_set).ok


def test_zero_triple_on_nonnegative_boxes_is_admissible(boundary_example):
    sys, u_set, x_set = boundary_example
    u = SampledSignal(0, 0.01, np.zeros((201, 2)))
    triple = simulate(sys, [0.0], u)
    assert check_admissible(triple, u_set, x_set).ok


def test_strict_set_rejects_boundary(boundary_example):
    sys, _, x_set = boundary_example
    strict_u = Box((0.0, 0.0), (math.inf, math.inf), strict=True)
    u = SampledSignal(0, 0.01, np.zeros((201, 2)))
    triple = simulate(sys, [0.0], u)
    assert not check_admissible(triple, strict_u, x_set).ok


# ---------------------------------------------------------------------------
# interior windows


def make_ramp_triple(buck_fixture):
    sys, u_set, x_set = buck_fixture
    grid = Grid.from_horizon(0.0, 1e-3, 2.0)
    ts = grid.times()
    vals = np.where(ts[:, None] <= 1.0,
                    np.column_stack([1 - ts, ts]),
                    np.array([0.0, 1.0]))
    return sys, u_set, x_set, simulate(sys, [0.1, 0.2, 0.0], SampledSignal(0, 1e-3, vals))


def test_interior_window_of_buck_ramp(buck):
    sys, u_set, x_set, triple = make_ramp_triple(buck)
    win = interior_window(triple, u_set, x_set, rho=0)
    assert win is not None
    assert win.t1 == pytest.approx(1e-3)
    assert win.t2 == pytest.approx(1.0 - 1e-3)
    assert win.r_u_min == pytest.approx(1e-3)
    assert math.isinf(win.r_x_min)


def test_interior_window_none_on_boundary_input(boundary_example):
    sys, u_set, x_set = boundary_example
    u = SampledSignal(0, 1e-3, np.zeros((1001, 2)))
    triple = simulate(sys, [-1.0], u)
    assert interior_window(triple, u_set, x_set, rho=0) is None


def test_interior_window_full_spaces_covers_horizon(integrator):
    u = SampledSignal(0, 0.01, np.zeros((101, 1)))
    triple = simulate(integrator, [0.0], u)
    win = interior_window(triple, FullSpace(1), FullSpace(1), rho=1)
    assert (win.t1, win.t2) == (0.0, pytest.approx(1.0))
    assert math.isinf(win.r_u_min)


# ---------------------------------------------------------------------------
# boundary residence


def test_boundary_residence_zero_input_on_orthant(boundary_example):
    sys, u_set, x_set = boundary_example
    u = SampledSignal(0, 1e-3, np.zeros((1001, 2)))
    triple = simulate(sys, [-1.0], u)
    assert boundary_residence(triple, u_set, x_set, rho=0)


def test_boundary_residence_false_for_interior_ramp(buck):
    sys, u_set, x_set, triple = make_ramp_triple(buck)
    assert not boundary_residence(triple, u_set, x_set, rho=0)


def test_boundary_residence_false_on_full_spaces(integrator):
    u = SampledSignal(0, 0.01, np.ones((101, 1)))
    triple = simulate(integrator, [0.0], u)
    assert not boundary_residence(triple, FullSpace(1), FullSpace(1), rho=1)


def test_boundary_residence_respects_breakpoints(boundary_example):
    sys, u_set, x_set = boundary_example
    ts = np.arange(101) * 0.01
    vals = np.column_stack([np.where(ts < 0.5, 0.0, 1.0), np.zeros_like(ts)])
    triple = simulate(sys, [-1.0], SampledSignal(0, 0.01, vals))
    # after the jump the first input is interior... but the second stays at 0,
    # so the input remains on the boundary of the orthant everywhere
    assert boundary_residence(triple, u_set, x_set, rho=0, breakpoints=[0.5])


def test_window_and_boundary_residence_exclusive(buck):
    sys, u_set, x_set, triple = make_ramp_triple(buck)
    win = interior_window(triple, u_set, x_set, rho=0)
    assert win is not None
    assert not boundary_residence(triple, u_set, x_set, rho=0)


def test_window_excludes_boundary_residence_on_random_triples(buck):
    sys, u_set, x_set = buck
    rng = np.random.default_rng(19)
    grid = Grid.from_horizon(0.0, 0.01, 2.0)
    for _ in range(20):
        vals = np.clip(rng.uniform(-0.2, 1.2, (grid.n, 2)), 0.0, 1.0)
        triple = simulate(sys, rng.uniform(-1, 1, 3), SampledSignal(0, 0.01, vals))
        for rho in (0, 1):
            if interior_window(triple, u_set, x_set, rho) is not None:
                assert not boundary_residence(triple, u_set, x_set, rho)


# ---------------------------------------------------------------------------
# triple comparison


def test_compare_matching_outputs_distinct_inputs(boundary_example):
    sys, _, _ = boundary_example
    grid = Grid.from_horizon(0.0, 1e-3, 5.0)
    ts = grid.times()
    u2 = SampledSignal(0, 1e-3, np.column_stack([np.exp(-2 * ts), np.zeros_like(ts)]))
    u3 = SampledSignal(0, 1e-3, np.column_stack([np.exp(-3 * ts), np.exp(-3 * ts)]))
    t2 = simulate(sys, [-1.0], u2)
    t3 = simulate(sys, [-1.0], u3)
    cmp = compare_triples(t2, t3)
    assert not cmp.u_equal and not cmp.x_equal and cmp.y_equal


def test_compare_triple_with_itself(buck):
    _, _, _, triple = make_ramp_triple(buck)
    cmp = compare_triples(triple, triple)
    assert cmp.u_equal and cmp.x_equal and cmp.y_equal


def test_witness_suite_relations(witness_example):
    # three inputs sharing one output from one initial state: the first two
    # share the state trajectory, the third does not
    sys, u_set, x_set = witness_example
    grid = Grid.from_horizon(0.0, 1e-3, 3.0)
    ts = grid.times()
    eta_1 = -1 * np.exp(0 * ts) / 2
    eta_2 = -2 * np.exp(-ts) / 2
    zeros = np.zeros_like(ts)
    ones = np.ones_like(ts)
    u4 = SampledSignal(0, 1e-3, np.column_stack([eta_1, zeros, zeros]))
    u5 = SampledSignal(0, 1e-3, np.column_stack([eta_1, ones, -ones]))
    u6 = SampledSignal(0, 1e-3, np.column_stack([eta_2, zeros, zeros]))
    x0 = [0.5, 0.0]
    t4, t5, t6 = (simulate(sys, x0, u) for u in (u4, u5, u6))
    for t in (t4, t5, t6):
        assert check_admissible(t, u_set, x_set).ok
        assert np.max(np.abs(t.y.values)) <= 1e-6
    c45 = compare_triples(t4, t5)
    c46 = compare_triples(t4, t6)
    assert (not c45.u_equal) and c45.x_equal and c45.y_equal
    assert (not c46.u_equal) and (not c46.x_equal) and c46.y_equal
    assert not compare_triples(t5, t6).u_equal


# ---------------------------------------------------------------------------
# signal plumbing


def test_signal_requires_two_samples():
    with pytest.raises(ValueError):
        SampledSignal(0, 0.1, np.zeros((1, 2)))


def test_signal_values_read_only():
    sig = SampledSignal(0, 0.1, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        sig.values[0, 0] = 1.0


def test_resample_linear_round_trip():
    grid = Grid(0.0, 0.5, 5)
    sig = SampledSignal(0, 0.5, np.arange(10, dtype=float).reshape(5, 2))
    fine = sig.resample(Grid(0.0, 0.25, 9))
    assert np.allclose(fine.values[::2], sig.values)
    assert np.allclose(fine.values[1], 0.5 * (sig.values[0] + sig.values[1]))


def test_triple_grid_mismatch_rejected(integrator):
    u = SampledSignal(0, 0.1, np.zeros((5, 1)))
    x = SampledSignal(0, 0.2, np.zeros((5, 1)))
    with pytest.raises(Exception):
        TrajectoryTriple(u=u, x=x, y=u, x0=np.zeros(1))
