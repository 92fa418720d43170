"""Tests for constraint membership, simulation and the sampled checks."""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from inred.exact import DimensionMismatch, Subspace
from inred.trajectory import (
    MEMBERSHIP_TOL,
    AdmissibilityResult,
    Grid,
    InteriorWindow,
    Interpolation,
    Membership,
    Polyhedron,
    SampledSignal,
    Status,
    TrajectoryTriple,
    _simulate_arrays,
    _step_matrices,
    boundary_residence,
    check_admissible,
    interior_window,
    is_strict,
    margins,
    membership,
    simulate,
)

from conftest import signals_equal


def span_set(ambient, *vectors):
    return Subspace.from_vectors(ambient, vectors)


# ---------------------------------------------------------------------------
# membership


def test_box_interior_point():
    m = membership(Polyhedron.box((0, 0), (1, 1)), [0.5, 0.5])
    assert m.status is Status.INTERIOR
    assert m.margin == pytest.approx(0.5)


def test_half_bounded_box_boundary_point():
    m = membership(Polyhedron.box((0, 0), (math.inf, math.inf)), [0.0, 3.0])
    assert m.status is Status.BOUNDARY


def test_box_outside_point():
    m = membership(Polyhedron.box((0,), (1,)), [1.5])
    assert m.status is Status.OUTSIDE
    assert m.margin == pytest.approx(-0.5)


def test_proper_subspace_members_are_boundary():
    cs = span_set(3, [1, -1, 0])
    inside = membership(cs, [2.0, -2.0, 0.0])
    assert inside.status is Status.BOUNDARY and inside.margin == 0.0
    outside = membership(cs, [1.0, 0.0, 0.0])
    assert outside.status is Status.OUTSIDE and outside.margin < 0


def test_full_space_always_interior():
    m = membership(Subspace.full(2), [1e9, -1e9])
    assert m.status is Status.INTERIOR and math.isinf(m.margin)


def test_polyhedron_margin_normalized():
    # 3x + 4y <= 5 has row norm 5: point at the origin sits at distance 1
    cs = Polyhedron([[3.0, 4.0]], [5.0])
    m = membership(cs, [0.0, 0.0])
    assert m.status is Status.INTERIOR
    assert m.margin == pytest.approx(1.0)


def test_polyhedron_row_norm_does_not_overflow():
    # the norm 1.41e308 of the row fits in a float, its square does not
    m = membership(Polyhedron([[1e308, 1e308]], [1.0]), [0.5, 0.5])
    assert m.status is Status.OUTSIDE and m.margin == pytest.approx(-math.sqrt(0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="norms must be finite"):
            Polyhedron([[1.5e308, 1.5e308]], [1.0])


def test_membership_trichotomy_random():
    rng = np.random.default_rng(7)
    cs = Polyhedron.box((-1.0, 0.0), (1.0, math.inf))
    for _ in range(200):
        v = rng.uniform(-2, 2, 2)
        m = membership(cs, v)
        assert (m.status is Status.INTERIOR) == (m.margin > 0)
        assert (m.status is Status.OUTSIDE) == (m.margin < 0)
        assert (m.status is Status.BOUNDARY) == (m.margin == 0.0)


@pytest.mark.parametrize("cs", [
    Subspace.full(2),
    Subspace.zero(2),
    span_set(2, [1, 0]),
    Polyhedron.box((0, 0), (1, 1)),
    Polyhedron([[1.0, 1.0]], [1.0]),
])
@pytest.mark.parametrize("point", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 0.0]])
def test_non_finite_point_is_outside(cs, point):
    m = membership(cs, point)
    assert m.status is Status.OUTSIDE and m.margin == -math.inf


def test_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        membership(Polyhedron.box((0,), (1,)), [0.1, 0.2])


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


# The per-step loop that the blocked recurrence replaced, kept verbatim as
# the reference.
def simulate_arrays_stepwise(A, B, C, D, x0, u):
    n = A.shape[0]
    N = u.n_samples
    x = np.empty((N, n))
    x[0] = x0
    uv = u.values
    if u.interpolation is Interpolation.ZERO_ORDER_HOLD:
        Phi, G0 = _step_matrices(A, B, u.dt, u.interpolation)
        for k in range(N - 1):
            x[k + 1] = Phi @ x[k] + G0 @ uv[k]
    else:
        Phi, G0, G1 = _step_matrices(A, B, u.dt, u.interpolation)
        slopes = (uv[1:] - uv[:-1]) / u.dt
        for k in range(N - 1):
            x[k + 1] = Phi @ x[k] + G0 @ uv[k] + G1 @ slopes[k]
    y = x @ C.T + uv @ D.T
    return x, y


@st.composite
def simulation_cases(draw):
    """(A, B, C, D, x0, u) with A = 0, nilpotent, or random plus c I.

    The shift c reaches a fast unstable mode that overflows within a few
    hundred steps at the larger dt.  x0 and u are scaled by 0, 1e-300, 1
    or 1e200, so that some states pass near the overflow threshold.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m, p = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    kind = draw(st.sampled_from(("zero", "nilpotent", "shifted")))
    if kind == "zero":
        A = np.zeros((n, n))
    elif kind == "nilpotent":
        A = np.triu(rng.normal(scale=3.0, size=(n, n)), 1)
    else:
        A = rng.normal(size=(n, n)) + draw(st.sampled_from((0.0, -5.0, 5.0, 60.0))) * np.eye(n)
    B, C, D = (rng.normal(size=s) for s in ((n, m), (p, n), (p, m)))
    N = draw(st.one_of(st.sampled_from((2, 3, 8001)), st.integers(2, 400)))
    dt = draw(st.sampled_from((2.5e-4, 1e-3, 1e-2, 0.1, 1.0)))
    x0 = draw(st.sampled_from((0.0, 1e-300, 1.0, 1e200))) * rng.normal(size=n)
    u_vals = draw(st.sampled_from((0.0, 1.0, 1e200))) * rng.normal(size=(N, m))
    interpolation = draw(st.sampled_from(list(Interpolation)))
    return A, B, C, D, x0, SampledSignal(0.0, dt, u_vals, interpolation)


def first_non_finite(x):
    finite = np.isfinite(x).all(axis=1)
    return int(np.argmin(finite)) if not finite.all() else x.shape[0]


@settings(max_examples=300, deadline=None)
@given(case=simulation_cases())
def test_blocked_simulation_matches_the_stepwise_loop(case):
    with np.errstate(all="ignore"):
        x_ref, _ = simulate_arrays_stepwise(*case)
        x, _ = _simulate_arrays(*case)
    k = first_non_finite(x_ref)
    assert first_non_finite(x) == k
    if k:
        assert np.max(np.abs(x[:k] - x_ref[:k])) <= 1e-10 * (1 + np.max(np.abs(x_ref[:k])))


# The step matrices as hand-built block exponentials, before they shared one
# builder, kept verbatim (scipy's expm standing in for the package's
# wrapper) as the reference.
def step_matrices_by_hand(A, B, dt, interpolation):
    n, m = B.shape
    if interpolation is Interpolation.ZERO_ORDER_HOLD:
        M = np.zeros((n + m, n + m))
        M[:n, :n] = A
        M[:n, n:] = B
        E = expm(M * dt)
        return E[:n, :n], E[:n, n:]
    # piecewise linear: augment with the input and its (constant) slope
    M = np.zeros((n + 2 * m, n + 2 * m))
    M[:n, :n] = A
    M[:n, n:n + m] = B
    M[n:n + m, n + m:] = np.eye(m)
    E = expm(M * dt)
    return E[:n, :n], E[:n, n:n + m], E[:n, n + m:]


@settings(max_examples=100, deadline=None)
@given(case=simulation_cases())
def test_step_matrices_are_the_hand_built_exponentials(case):
    A, B, _, _, _, u = case
    with np.errstate(all="ignore"):
        want = step_matrices_by_hand(A, B, u.dt, u.interpolation)
    got = _step_matrices(A, B, u.dt, u.interpolation)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))


@settings(max_examples=100, deadline=None)
@given(case=simulation_cases())
def test_zero_input_from_the_origin_stays_exactly_zero(case):
    A, B, C, D, x0, u = case
    zero = SampledSignal(u.t0, u.dt, np.zeros_like(u.values), u.interpolation)
    x, y = _simulate_arrays(A, B, C, D, np.zeros_like(x0), zero)
    assert not x.any() and not y.any()


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
    strict_u = Polyhedron.box((0.0, 0.0), (math.inf, math.inf), strict=True)
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
    win = interior_window(triple, Subspace.full(1), Subspace.full(1), rho=1)
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
    assert not boundary_residence(triple, Subspace.full(1), Subspace.full(1), rho=1)


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
# triples that share one output


def test_compare_matching_outputs_distinct_inputs(boundary_example):
    sys, _, _ = boundary_example
    grid = Grid.from_horizon(0.0, 1e-3, 5.0)
    ts = grid.times()
    u2 = SampledSignal(0, 1e-3, np.column_stack([np.exp(-2 * ts), np.zeros_like(ts)]))
    u3 = SampledSignal(0, 1e-3, np.column_stack([np.exp(-3 * ts), np.exp(-3 * ts)]))
    t2 = simulate(sys, [-1.0], u2)
    t3 = simulate(sys, [-1.0], u3)
    assert not signals_equal(t2.u, t3.u) and not signals_equal(t2.x, t3.x)
    assert signals_equal(t2.y, t3.y)


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
    assert not signals_equal(t4.u, t5.u) and signals_equal(t4.x, t5.x)
    assert signals_equal(t4.y, t5.y)
    assert not signals_equal(t4.u, t6.u) and not signals_equal(t4.x, t6.x)
    assert signals_equal(t4.y, t6.y)
    assert not signals_equal(t5.u, t6.u)


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


# ---------------------------------------------------------------------------
# array checks against the per-node reference
#
# The functions below are the per-point membership and the three per-node
# loops that `margins` replaced, kept verbatim as the reference.


def _classify_pointwise(margin, tol):
    if margin > tol:
        return Membership(Status.INTERIOR, margin)
    if margin < -tol:
        return Membership(Status.OUTSIDE, margin)
    return Membership(Status.BOUNDARY, 0.0)


def membership_pointwise(cs, v, tol=MEMBERSHIP_TOL):
    v = np.asarray(v, dtype=float).reshape(-1)
    if not all(map(math.isfinite, v.tolist())):
        return Membership(Status.OUTSIDE, -math.inf)
    if isinstance(cs, Subspace):
        space = cs
        if space.is_full():
            return Membership(Status.INTERIOR, math.inf)
        if space.is_zero():
            dist = float(np.linalg.norm(v))
        else:
            basis = space.to_float()
            coeff, *_ = np.linalg.lstsq(basis, v, rcond=None)
            dist = float(np.linalg.norm(v - basis @ coeff))
        if dist <= tol:
            return Membership(Status.BOUNDARY, 0.0)
        return Membership(Status.OUTSIDE, -dist)
    norms = np.array([math.hypot(*row) for row in cs.G])  # no square under- or overflows
    slacks = (cs.g - cs.G @ v) / norms
    # initial: a box with no finite bound is a polyhedron of no row
    return _classify_pointwise(float(np.min(slacks, initial=math.inf)), tol)


def _in_set_pointwise(m, strict):
    if m.status is Status.OUTSIDE:
        return False
    if m.status is Status.BOUNDARY and strict:
        return False
    return True


def check_admissible_pointwise(triple, u_set, x_set):
    times = triple.u.times()
    su, sx = is_strict(u_set), is_strict(x_set)
    for k, t in enumerate(times):
        if not _in_set_pointwise(membership_pointwise(u_set, triple.u.values[k]), su):
            return AdmissibilityResult(False, float(t))
        if not _in_set_pointwise(membership_pointwise(x_set, triple.x.values[k]), sx):
            return AdmissibilityResult(False, float(t))
    return AdmissibilityResult(True, None)


def interior_window_pointwise(triple, u_set, x_set, rho):
    times = triple.u.times()
    N = len(times)
    ok = np.empty(N, dtype=bool)
    mu = np.empty(N)
    mx = np.full(N, math.inf)
    for k in range(N):
        m_u = membership_pointwise(u_set, triple.u.values[k])
        ok[k] = m_u.status is Status.INTERIOR
        mu[k] = m_u.margin
        if rho == 0:
            m_x = membership_pointwise(x_set, triple.x.values[k])
            ok[k] = ok[k] and m_x.status is Status.INTERIOR
            mx[k] = m_x.margin
    best: Optional[tuple[int, int]] = None
    start = None
    for k in range(N + 1):
        if k < N and ok[k]:
            if start is None:
                start = k
        elif start is not None:
            if best is None or (k - 1 - start) > (best[1] - best[0]):
                best = (start, k - 1)
            start = None
    if best is None or best[1] - best[0] < 2:
        return None
    i, j = best
    return InteriorWindow(
        t1=float(times[i]),
        t2=float(times[j]),
        r_u_min=float(np.min(mu[i:j + 1])),
        r_x_min=float(np.min(mx[i:j + 1])),
    )


def boundary_residence_pointwise(triple, u_set, x_set, rho):
    su, sx = is_strict(u_set), is_strict(x_set)
    for k in range(triple.u.n_samples):
        on_u = (not su) and membership_pointwise(u_set, triple.u.values[k]).status \
            is Status.BOUNDARY
        if rho > 0:
            if not on_u:
                return False
        else:
            on_x = (not sx) and membership_pointwise(x_set, triple.x.values[k]).status \
                is Status.BOUNDARY
            if not (on_u or on_x):
                return False
    return True


# Coordinates are drawn from the box bounds themselves, so that points sit
# exactly on a bound, from values whose slack equals the tolerance, and from
# a few values that repeat, so that runs of interior nodes tie in length.
BOUNDS = (-math.inf, -1.0, 0.0, 1.0, math.inf)
COORDINATES = st.one_of(
    st.sampled_from((-1.0, 0.0, 1.0, 0.25, 0.75, -0.75, 0.5, 2.0, 1e-9, -1e-9,
                     1.0 - 1e-9, math.nan, math.inf, -math.inf)),
    st.floats(-3.0, 3.0),
)


@st.composite
def boxes_and_full_spaces(draw, dim):
    if draw(st.booleans()):
        return Subspace.full(dim)
    # no lower bound of +inf and no upper bound of -inf: such a box is refused
    pairs = [sorted((draw(st.sampled_from(BOUNDS[:-1])), draw(st.sampled_from(BOUNDS[1:]))))
             for _ in range(dim)]
    return Polyhedron.box(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs),
                          strict=draw(st.booleans()))


def values(draw, n, dim, elements):
    return np.array(draw(st.lists(st.lists(elements, min_size=dim, max_size=dim),
                                  min_size=n, max_size=n)), dtype=float).reshape(n, dim)


@st.composite
def sampled_triples(draw, elements=COORDINATES):
    """(triple, u_set, x_set) on a short grid; x starts at a finite x0."""
    n = draw(st.integers(2, 24))
    du, dx = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dt = draw(st.sampled_from((0.1, 0.25, 1.0)))
    u = values(draw, n, du, elements)
    x = values(draw, n, dx, elements)
    x[0] = np.nan_to_num(x[0], nan=0.0, posinf=1.0, neginf=-1.0)
    triple = TrajectoryTriple(
        u=SampledSignal(0.0, dt, u),
        x=SampledSignal(0.0, dt, x),
        y=SampledSignal(0.0, dt, np.zeros((n, 1))),
        x0=x[0],
    )
    return triple, draw(boxes_and_full_spaces(du)), draw(boxes_and_full_spaces(dx))


@settings(max_examples=400, deadline=None)
@given(case=sampled_triples(), rho=st.integers(0, 2))
def test_array_checks_match_pointwise_on_boxes_and_full_spaces(case, rho):
    triple, u_set, x_set = case
    for cs, vals in ((u_set, triple.u.values), (x_set, triple.x.values)):
        # with tol = 0 the reference reports its raw margin
        assert margins(cs, vals).tolist() == [
            membership_pointwise(cs, v, 0.0).margin for v in vals]
        assert [membership(cs, v) for v in vals] == [
            membership_pointwise(cs, v) for v in vals]
    assert (check_admissible(triple, u_set, x_set)
            == check_admissible_pointwise(triple, u_set, x_set))
    assert (interior_window(triple, u_set, x_set, rho)
            == interior_window_pointwise(triple, u_set, x_set, rho))
    assert (boundary_residence(triple, u_set, x_set, rho)
            == boundary_residence_pointwise(triple, u_set, x_set, rho))


@pytest.mark.parametrize("margin", [0.0, MEMBERSHIP_TOL, -MEMBERSHIP_TOL])
@pytest.mark.parametrize("strict", [False, True])
def test_margin_equal_to_tol_is_boundary(margin, strict):
    # a margin of 0 or of exactly +-MEMBERSHIP_TOL is Boundary: admitted by
    # the closed set only
    u = np.array([[0.5], [margin], [0.5]])
    triple = TrajectoryTriple(u=SampledSignal(0.0, 1.0, u), x=SampledSignal(0.0, 1.0, u),
                              y=SampledSignal(0.0, 1.0, u), x0=u[0])
    box = Polyhedron.box((0.0,), (1.0,), strict=strict)
    assert membership(box, [margin]).status is Status.BOUNDARY
    adm = check_admissible(triple, box, Subspace.full(1))
    assert adm == check_admissible_pointwise(triple, box, Subspace.full(1))
    assert adm.ok is not strict


def test_interior_window_takes_the_first_of_equally_long_runs():
    ok = [1, 1, 1, 0, 1, 1, 1, 0, 1, 1]
    u = np.array(ok, dtype=float)[:, None]
    triple = TrajectoryTriple(u=SampledSignal(0.0, 1.0, u), x=SampledSignal(0.0, 1.0, u),
                              y=SampledSignal(0.0, 1.0, u), x0=u[0])
    u_set = Polyhedron.box((0.5,), (math.inf,))
    win = interior_window(triple, u_set, Subspace.full(1), rho=1)
    assert (win.t1, win.t2) == (0.0, 2.0)
    assert win == interior_window_pointwise(triple, u_set, Subspace.full(1), 1)


@st.composite
def polyhedra_and_subspaces(draw, dim):
    kind = draw(st.sampled_from(("polyhedron", "subspace", "zero", "full")))
    if kind == "polyhedron":
        rows = draw(st.integers(1, 4))
        G = values(draw, rows, dim, st.floats(-2.0, 2.0))
        G[np.linalg.norm(G, axis=1) == 0, 0] = 1.0
        return Polyhedron(G, values(draw, rows, 1, st.floats(-2.0, 2.0)).ravel(),
                          strict=draw(st.booleans()))
    if kind == "zero":
        return Subspace.zero(dim)
    if kind == "full":
        return Subspace.full(dim)
    k = draw(st.integers(1, dim))
    span = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                         min_size=k, max_size=k))
    return Subspace.from_vectors(dim, span)


POLY_COORDINATES = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from((0.0, 1.0, -1.0, math.nan, math.inf)),
)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 24), dim=st.integers(1, 3), data=st.data())
def test_polyhedron_and_subspace_margins_match_pointwise(n, dim, data):
    # Polyhedron and subspace margins come from one matmul or one batched
    # lstsq, which may round differently from the per-point products.
    cs = data.draw(polyhedra_and_subspaces(dim))
    vals = values(data.draw, n, dim, POLY_COORDINATES)
    m = margins(cs, vals)
    for k, v in enumerate(vals):
        ref = membership_pointwise(cs, v, 0.0).margin
        if math.isinf(ref):
            assert m[k] == ref
            continue
        slack = 1e-12 * (1 + abs(ref))
        assert abs(m[k] - ref) <= slack
        if min(abs(ref - MEMBERSHIP_TOL), abs(ref + MEMBERSHIP_TOL)) > slack:
            assert membership(cs, v).status is membership_pointwise(cs, v).status


@np.errstate(all="ignore")
def box_margins_reference(lower, upper, V):
    """The margins of a box before boxes became polyhedra: the box slack
    formula of `margins`, kept verbatim, around its handling of non-finite
    rows."""
    finite = np.isfinite(V).all(axis=1)
    V = np.where(finite[:, None], V, 0.0)
    lo = np.asarray(lower)
    up = np.asarray(upper)
    slacks = np.concatenate([
        np.where(np.isinf(lo), math.inf, V - lo),
        np.where(np.isinf(up), math.inf, up - V),
    ], axis=1)
    m = np.min(slacks, axis=1)
    m[~finite | np.isnan(m)] = -math.inf
    return m


BOX_BOUNDS = st.one_of(st.sampled_from((-1e308, -1.0, 0.0, 0.5, 1.0, 1e308)),
                       st.floats(-1e308, 1e308))
BOX_COORDINATES = st.one_of(
    st.sampled_from((math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, 1.0)),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def box_bounds(draw, dim):
    """(lower, upper): each side finite or infinite on its own side, lower <= upper."""
    lower, upper = [], []
    for _ in range(dim):
        lo, up = sorted(draw(st.lists(BOX_BOUNDS, min_size=2, max_size=2)))
        lower.append(-math.inf if draw(st.booleans()) else lo)
        upper.append(math.inf if draw(st.booleans()) else up)
    return lower, upper


@settings(max_examples=400, deadline=None)
@given(dim=st.integers(1, 4), n=st.integers(1, 12), strict=st.booleans(), data=st.data())
def test_box_margins_equal_the_box_slack_formula(dim, n, strict, data):
    # a box row's other entries add exact zeros, (-lo) - (-v) rounds as
    # v - lo does and every row norm is 1, so the margins are bit-identical
    lower, upper = data.draw(box_bounds(dim))
    V = values(data.draw, n, dim, BOX_COORDINATES)
    box = Polyhedron.box(lower, upper, strict)
    assert margins(box, V).tolist() == box_margins_reference(lower, upper, V).tolist()


def test_box_rows_are_its_finite_bounds():
    box = Polyhedron.box((0.0, -math.inf, -1.0), (1.0, 2.0, math.inf), strict=True)
    assert box.G.tolist() == [[-1, 0, 0], [0, 0, -1], [1, 0, 0], [0, 1, 0]]
    assert box.g.tolist() == [0.0, 1.0, 1.0, 2.0] and box.strict and box.ambient_dim == 3
    unbounded = Polyhedron.box((-math.inf,) * 2, (math.inf,) * 2)
    assert unbounded.G.shape == (0, 2)
    assert margins(unbounded, np.ones((3, 2))).tolist() == [math.inf] * 3
    with pytest.raises(DimensionMismatch):
        Polyhedron.box((0.0,), (1.0, 1.0))
    with pytest.raises(ValueError, match="exceeds"):
        Polyhedron.box((2.0,), (1.0,))



@pytest.mark.parametrize("lower,upper", [
    ((math.inf, 0.0), (math.inf, 1.0)),
    ((0.0,), (-math.inf,)),
    ((-math.inf,), (-math.inf,)),
    ((math.nan,), (1.0,)),
    ((0.0,), (math.nan,)),
], ids=["lower-inf", "upper-minus-inf", "both-minus-inf", "lower-nan", "upper-nan"])
def test_empty_or_nan_box_is_refused(lower, upper):
    # such a bound used to drop out of the margins, so an empty box read as
    # the whole space
    with pytest.raises(ValueError, match="box"):
        Polyhedron.box(lower, upper)


def test_polyhedron_with_a_nan_offset_is_refused():
    with pytest.raises(ValueError, match="NaN"):
        Polyhedron([[1.0, 0.0], [0.0, 1.0]], [1.0, math.nan])

def test_subspace_margin_is_minus_the_distance():
    cs = Subspace.from_vectors(2, [[1, -1]])
    m = margins(cs, np.array([[2.0, -2.0], [1.0, 0.0], [math.nan, 0.0]]))
    assert abs(m[0]) <= 1e-15
    assert m[1] == pytest.approx(-math.sqrt(0.5))
    assert m[2] == -math.inf


@settings(max_examples=150, deadline=None)
@given(case=sampled_triples(POLY_COORDINATES), rho=st.integers(0, 1), data=st.data())
def test_array_checks_match_pointwise_on_polyhedra_and_subspaces(case, rho, data):
    # the verdicts agree whenever no margin lies within round-off of +-tol
    triple, _, _ = case
    u_set = data.draw(polyhedra_and_subspaces(triple.u.dim))
    x_set = data.draw(polyhedra_and_subspaces(triple.x.dim))
    tol = MEMBERSHIP_TOL
    for cs, vals in ((u_set, triple.u.values), (x_set, triple.x.values)):
        m = margins(cs, vals)
        finite = m[np.isfinite(m)]
        slack = 1e-12 * (1 + np.abs(finite))
        if np.any(np.minimum(np.abs(finite - tol), np.abs(finite + tol)) <= slack):
            return
    assert (check_admissible(triple, u_set, x_set)
            == check_admissible_pointwise(triple, u_set, x_set))
    win = interior_window(triple, u_set, x_set, rho)
    ref = interior_window_pointwise(triple, u_set, x_set, rho)
    assert (win is None) == (ref is None)
    if win is not None:
        assert (win.t1, win.t2) == (ref.t1, ref.t2)
        for a, b in ((win.r_u_min, ref.r_u_min), (win.r_x_min, ref.r_x_min)):
            assert a == b or abs(a - b) <= 1e-12 * (1 + abs(b))
    assert (boundary_residence(triple, u_set, x_set, rho)
            == boundary_residence_pointwise(triple, u_set, x_set, rho))


def test_margins_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        margins(Polyhedron.box((0,), (1,)), np.zeros((4, 2)))
    with pytest.raises(DimensionMismatch):
        margins(Subspace.full(2), np.zeros(2))


def test_margins_of_non_finite_rows_are_minus_infinity():
    vals = np.array([[0.5, 0.5], [math.nan, 0.5], [0.5, -math.inf], [1.0, 0.0]])
    for cs in (Subspace.full(2), Polyhedron.box((0, 0), (1, 1)), Polyhedron([[1.0, 1.0]], [1.0]),
               Subspace.from_vectors(2, [[1, 0]])):
        m = margins(cs, vals)
        assert m[1] == m[2] == -math.inf
        assert m[0] > -math.inf and m[3] > -math.inf
