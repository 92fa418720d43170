"""Constructive certification of input-redundant pairs.

Builds a nonzero input increment that is invisible at the output, either a
bump along the static kernel of [B; D] or a loop that steers the state out
into the output-invisible controllable subspace and back, scales it to
respect the constraint margins observed along a nominal trajectory, and
verifies the scaled increment end to end by simulation.

A failed window search is reported as inconclusive, never as a proof of
non-redundancy: the sufficient condition being certified says nothing when
its hypotheses fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .analysis import joint_kernel_dim
from .exact import RationalMatrix, kernel
from .geometry import SystemQuadruple, adapted_basis
from .trajectory import (
    ConstraintSet,
    Grid,
    GridMismatch,
    Interpolation,
    SIGNAL_TOL,
    SampledSignal,
    SingularGramian,
    TrajectoryTriple,
    check_admissible,
    gramian_transfer_data,
    interior_window,
    simulate,
)


SAFETY = 0.9  # share of the margin an increment may use; the rest covers inter-node excursions


class RhoZero(ValueError):
    """ker B n ker D is trivial; no static kernel direction exists."""


class RZero(ValueError):
    """The output-invisible controllable subspace is trivial."""


class EmptyWindow(ValueError):
    """The requested window spans fewer than two grid steps."""


class ZeroMargin(ValueError):
    """A required constraint margin is not strictly positive."""


class NotAdmissibleNominal(ValueError):
    """The nominal trajectory violates the constraints."""


class NoInteriorWindow(ValueError):
    """No interior window exists along the nominal trajectory (inconclusive).

    Carries the simulated nominal triple and the static kernel dimension rho,
    so that a caller can test boundary residence without simulating again.
    """

    def __init__(self, message: str, nominal: TrajectoryTriple, rho: int):
        super().__init__(message)
        self.nominal = nominal
        self.rho = rho


class VerificationFailed(RuntimeError):
    """The scaled increment failed its end-to-end simulation check."""

    def __init__(self, check: "IncrementCheck"):
        super().__init__(
            f"increment verification failed: sup|y| = {check.y_sup_diff:.3e}, "
            f"admissible = {check.admissible_both}"
        )
        self.check = check


@dataclass(frozen=True)
class KernelBump:
    """Increment along a static kernel direction; the state never moves."""


@dataclass(frozen=True, eq=False)
class StateLoop:
    """Increment looping the state through an output-invisible excursion."""

    x_peak: np.ndarray
    t_mid: float


Route = Union[KernelBump, StateLoop]

#: what ends a synthesis or a certification without a result (CLI exit code 5)
FAILURES = (VerificationFailed, RhoZero, RZero, NotAdmissibleNominal, ZeroMargin,
            EmptyWindow, SingularGramian)


@dataclass(frozen=True)
class IncrementCheck:
    ok: bool
    y_sup_diff: float
    admissible_both: bool
    first_violation: Optional[float]


@dataclass(frozen=True, eq=False)
class IRCertificate:
    """Constructive evidence that a pair (x0, y) is input redundant."""

    window: tuple[float, float]
    u_hat: SampledSignal
    alpha: float
    route: Route
    verification: IncrementCheck


def _window_indices(window: tuple[float, float], grid: Grid) -> tuple[int, int]:
    t1, t2 = window
    if not t2 > t1:
        raise EmptyWindow("window has zero width")
    i1, i2 = grid.index_of(t1), grid.index_of(t2)
    if i2 - i1 < 2:
        raise EmptyWindow("window spans fewer than two grid steps")
    return i1, i2


def _loop_nodes(window: tuple[float, float], grid: Grid) -> tuple[int, int, int]:
    """Window ends and the midpoint node where the state loop's two transfers
    meet; the window spans at least two steps, so the midpoint is inside it."""
    i1, i2 = _window_indices(window, grid)
    return i1, (i1 + i2) // 2, i2


def synthesize_kernel_bump(B: RationalMatrix, D: RationalMatrix,
                           window: tuple[float, float], grid: Grid) -> SampledSignal:
    """Hat-shaped input along the first static kernel direction.

    The direction is the first canonical basis vector of ker B n ker D, so
    B u(t) and D u(t) vanish exactly; the signal is continuous, peaks at the
    window midpoint and is zero outside the window.
    """
    null = kernel(RationalMatrix.vstack(B, D))
    if null.dim == 0:
        raise RhoZero("ker B n ker D is trivial")
    i1, i2 = _window_indices(window, grid)
    direction = null.basis.to_float()[:, 0]
    times = grid.times()
    t1, t2 = times[i1], times[i2]
    mid = 0.5 * (t1 + t2)
    half = 0.5 * (t2 - t1)
    hat = np.clip(1.0 - np.abs(times - mid) / half, 0.0, None)
    hat[:i1] = 0.0
    hat[i2 + 1:] = 0.0
    return SampledSignal(grid.t0, grid.dt, np.outer(hat, direction),
                         Interpolation.PIECEWISE_LINEAR)


def synthesize_state_loop(sys: SystemQuadruple, window: tuple[float, float],
                          grid: Grid) -> tuple[SampledSignal, SampledSignal]:
    """Output-invisible loop: steer the state from 0 out to a nonzero point of
    the output-invisible controllable subspace and back, inside the window.

    Two Gramian transfers meet at the window midpoint; the excursion target is
    the first canonical basis vector of the subspace.  Returns the input and
    its induced state, both zero outside the window; the state samples follow
    the closed-form solution, so the loop closes to round-off.
    """
    ab = adapted_basis(sys)
    ra = ab.Ta.cols
    if ra == 0:
        raise RZero("output-invisible controllable subspace is trivial")
    i1, imid, i2 = _loop_nodes(window, grid)
    A11 = ab.A11.to_float()
    B1 = ab.B1.to_float()
    Ta = ab.Ta.to_float()
    FTa = (ab.F @ ab.Ta).to_float()
    L = ab.L.to_float()
    peak = np.zeros(ra)
    peak[0] = 1.0
    dt = grid.dt
    w_out, phi_out = gramian_transfer_data(A11, B1, np.zeros(ra), peak,
                                           (imid - i1) * dt, imid - i1)
    w_back, phi_back = gramian_transfer_data(A11, B1, peak, np.zeros(ra),
                                             (i2 - imid) * dt, i2 - imid)
    n_w = L.shape[1]
    w = np.zeros((grid.n, n_w))
    phi = np.zeros((grid.n, ra))
    w[i1:imid + 1] = w_out
    phi[i1:imid + 1] = phi_out
    w[imid:i2 + 1] = w_back          # midpoint takes the return transfer's value
    phi[imid:i2 + 1] = phi_back
    u_vals = phi @ FTa.T + w @ L.T
    x_vals = phi @ Ta.T
    u_hat = SampledSignal(grid.t0, grid.dt, u_vals, Interpolation.PIECEWISE_LINEAR)
    x_hat = SampledSignal(grid.t0, grid.dt, x_vals, Interpolation.PIECEWISE_LINEAR)
    return u_hat, x_hat


def synthesize_increment(sys: SystemQuadruple, window: tuple[float, float],
                         grid: Grid) -> tuple[SampledSignal, Optional[SampledSignal], Route]:
    """The unscaled increment for a window, its state and its route.

    The kernel bump when ker B n ker D is nonzero (rho > 0); its state never
    moves, so it comes back as None.  Otherwise (the bump raises RhoZero
    from its one elimination of [B; D]) the state loop, whose route records
    the state and time at the loop's midpoint node.
    """
    try:
        return synthesize_kernel_bump(sys.B, sys.D, window, grid), None, KernelBump()
    except RhoZero:
        pass
    u_hat, x_hat = synthesize_state_loop(sys, window, grid)
    _, imid, _ = _loop_nodes(window, grid)
    return u_hat, x_hat, StateLoop(x_peak=x_hat.values[imid].copy(),
                                   t_mid=float(grid.times()[imid]))


def _peak(increment: SampledSignal) -> float:
    """Largest node norm of an increment; ZeroMargin when it is not finite.

    Each node is scaled by the power of two of its largest magnitude first,
    so that no square overflows; the scaling is exact, so a norm that would
    not overflow comes out bit for bit the same.
    """
    V = increment.values
    _, e = np.frexp(np.max(np.abs(V), axis=1, initial=0.0))  # 0 for a zero or non-finite node
    peak = float(np.max(np.ldexp(np.linalg.norm(np.ldexp(V, -e[:, None]), axis=1), e)))
    if not math.isfinite(peak):
        raise ZeroMargin("increment peak is not finite")
    return peak


def compute_scaling(r_u_min: float, r_x_min: Optional[float],
                    u_hat: SampledSignal, x_hat: Optional[SampledSignal],
                    rho: int) -> float:
    """Largest safe scale: margin over peak increment size, per signal.

    For rho = 0 the state excursion must fit its margin as well.  The result
    is SAFETY times the largest scale.  When every margin is infinite any
    positive scale works and 1.0 is returned.  A non-finite increment, or a
    scale that underflows to zero, raises ZeroMargin: a zero scale would
    certify the zero increment.
    """
    if not r_u_min > 0:
        raise ZeroMargin("input margin must be strictly positive")
    sup_u = _peak(u_hat)
    candidates = [r_u_min / sup_u if sup_u > 0 else math.inf]
    if rho == 0:
        if x_hat is None or r_x_min is None:
            raise ZeroMargin("state margin and excursion required when rho = 0")
        if not r_x_min > 0:
            raise ZeroMargin("state margin must be strictly positive")
        sup_x = _peak(x_hat)
        candidates.append(r_x_min / sup_x if sup_x > 0 else math.inf)
    alpha = min(candidates)
    if math.isinf(alpha):
        return 1.0
    alpha *= SAFETY
    if not alpha > 0:
        raise ZeroMargin("scale underflows to zero")
    return alpha


def verify_increment(sys: SystemQuadruple, u_set: ConstraintSet, x_set: ConstraintSet,
                     x0: Sequence[float], u: SampledSignal,
                     u_tilde: SampledSignal) -> IncrementCheck:
    """Check that u + u_tilde stays admissible and leaves the output unchanged.

    The increment responses are simulated from the zero state; membership in
    the increment set requires sup|y_tilde| <= SIGNAL_TOL and both the
    shifted input and shifted state to stay inside their sets at every node.
    """
    if not u.same_grid(u_tilde):
        raise GridMismatch("nominal input and increment must share one grid")
    return _verify(sys, u_set, x_set, simulate(sys, x0, u), u_tilde)


def _verify(sys: SystemQuadruple, u_set: ConstraintSet, x_set: ConstraintSet,
            nominal: TrajectoryTriple, u_tilde: SampledSignal) -> IncrementCheck:
    """`verify_increment` on an already simulated nominal triple."""
    u = nominal.u
    inc = simulate(sys, np.zeros(sys.n), u_tilde)
    y_sup = float(np.max(np.abs(inc.y.values)))
    shifted = TrajectoryTriple(
        u=SampledSignal(u.t0, u.dt, u.values + u_tilde.values, u.interpolation),
        x=SampledSignal(u.t0, u.dt, nominal.x.values + inc.x.values,
                        Interpolation.PIECEWISE_LINEAR),
        y=SampledSignal(u.t0, u.dt, nominal.y.values + inc.y.values, u.interpolation),
        x0=nominal.x0,
    )
    adm = check_admissible(shifted, u_set, x_set)
    return IncrementCheck(
        ok=(y_sup <= SIGNAL_TOL) and adm.ok,
        y_sup_diff=y_sup,
        admissible_both=adm.ok,
        first_violation=adm.first_violation,
    )


def certify_ir_pair(sys: SystemQuadruple, u_set: ConstraintSet, x_set: ConstraintSet,
                    x0: Sequence[float], u_nominal: SampledSignal) -> IRCertificate:
    """Certify that (x0, output of u_nominal) is an input-redundant pair.

    Simulates the nominal trajectory, finds the widest interior window along
    it, builds the increment there (`synthesize_increment`), scales it by the
    observed margins and verifies the result by simulation, reusing the
    nominal triple.  A missing window raises NoInteriorWindow and is
    inconclusive; it does not prove non-redundancy.
    """
    rho = joint_kernel_dim(sys.B, sys.D)
    nominal = simulate(sys, x0, u_nominal)
    adm = check_admissible(nominal, u_set, x_set)
    if not adm.ok:
        raise NotAdmissibleNominal(
            f"nominal trajectory leaves the constraints at t = {adm.first_violation}"
        )
    win = interior_window(nominal, u_set, x_set, rho)
    if win is None:
        raise NoInteriorWindow(
            "no interior window along the nominal trajectory; result inconclusive",
            nominal, rho,
        )
    window = (win.t1, win.t2)
    u_hat, x_hat, route = synthesize_increment(sys, window, u_nominal.grid)
    alpha = compute_scaling(win.r_u_min, win.r_x_min, u_hat, x_hat, rho)
    u_tilde = u_hat.scaled(alpha)
    check = _verify(sys, u_set, x_set, nominal, u_tilde)
    if not check.ok:
        raise VerificationFailed(check)
    return IRCertificate(
        window=window, u_hat=u_hat, alpha=alpha, route=route, verification=check,
    )
