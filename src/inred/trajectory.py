"""Constraint-set geometry and finite-horizon trajectory machinery.

A constraint set is one of two types.  A `Subspace` is a linear set, the
whole space (`Subspace.full`) among them, which is the form the exact
classification reads.  A `Polyhedron` is a set of rows G x <= g; a box is
one, built by `Polyhedron.box` with one row per finite bound.  `margins`
gives one distance-like margin per point for either type.

This is the floating-point side of the package: sampled signals on uniform
grids, exact-per-step discretization of the LTI dynamics through augmented
matrix exponentials (each built by `_upper_expm`), the minimum-energy
(Gramian) transfer, whose state phi and costate v are chained by the
simulator's blocked recurrence, and the sampled checks used by the
certification layer (admissibility, interiority windows, boundary
residence).

The discretization is exact for inputs representable by their declared
interpolation rule, so halving the step changes trajectories only at the
round-off level.  The simulator applies it over all steps at once: the
input terms are one matrix product, and the state recurrence runs in blocks
of isqrt(K) steps for K steps, which agrees with step-by-step evaluation to
rounding (the tests bound the gap by 1e-10 (1 + sup|x|)).

scipy (for `scipy.linalg.expm`) is imported on the first matrix
exponential, not with this module, so `inred analyze`, which never
simulates, never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .exact import DimensionMismatch, Subspace

if TYPE_CHECKING:  # pragma: no cover
    from .geometry import SystemQuadruple

#: absolute tolerance of the membership classification and the sampled checks
MEMBERSHIP_TOL = 1e-9
#: default relative tolerance for signal equality
SIGNAL_TOL = 1e-6


class GridMismatch(ValueError):
    """Signals do not share the same sampling grid."""


class SingularGramian(ValueError):
    """Reachability Gramian is numerically singular over the requested horizon."""


# ---------------------------------------------------------------------------
# grids and signals


@dataclass(frozen=True)
class Grid:
    """Uniform time grid: n samples starting at t0, spaced by dt."""

    t0: float
    dt: float
    n: int

    def __post_init__(self) -> None:
        if not (0 < self.dt < math.inf and math.isfinite(self.t0)):
            raise ValueError("grid step must be positive and finite, and t0 finite")
        if self.n < 2:
            raise ValueError("grid needs at least two samples")

    @classmethod
    def from_horizon(cls, t0: float, dt: float, horizon: float) -> "Grid":
        return cls(t0, dt, int(round(horizon / dt)) + 1)

    @property
    def horizon(self) -> float:
        return (self.n - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def index_of(self, t: float) -> int:
        """Grid index of a node time; raises when t is off-grid or not finite."""
        steps = (t - self.t0) / self.dt
        k = round(steps) if math.isfinite(steps) else -1
        if k < 0 or k >= self.n or abs(self.t0 + k * self.dt - t) > 1e-9 * (1 + abs(t)):
            raise ValueError(f"time {t} is not a node of the grid")
        return k


class Interpolation(str, Enum):
    PIECEWISE_LINEAR = "linear"
    ZERO_ORDER_HOLD = "zoh"


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Vector signal sampled on a uniform grid, with its interpolation rule."""

    t0: float
    dt: float
    values: np.ndarray
    interpolation: Interpolation = Interpolation.PIECEWISE_LINEAR

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("signal values must be a 2-D array (samples x dim)")
        if vals.shape[0] < 2:
            raise ValueError("signal needs at least two samples")
        if not (0 < self.dt < math.inf and math.isfinite(self.t0)):
            raise ValueError("signal step must be positive and finite, and t0 finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def grid(self) -> Grid:
        return Grid(self.t0, self.dt, self.n_samples)

    def times(self) -> np.ndarray:
        return self.grid.times()

    def same_grid(self, other: "SampledSignal") -> bool:
        return (
            self.n_samples == other.n_samples
            and math.isclose(self.t0, other.t0, abs_tol=1e-12)
            and math.isclose(self.dt, other.dt, rel_tol=1e-12)
        )

    def scaled(self, c: float) -> "SampledSignal":
        return SampledSignal(self.t0, self.dt, c * self.values, self.interpolation)

    def resample(self, grid: Grid) -> "SampledSignal":
        """Evaluate the declared interpolant on another grid spanning the same range."""
        tsrc = self.times()
        tdst = grid.times()
        if tdst[0] < tsrc[0] - 1e-12 or tdst[-1] > tsrc[-1] + 1e-9 * self.dt:
            raise GridMismatch("target grid extends beyond the signal's support")
        tdst = np.clip(tdst, tsrc[0], tsrc[-1])
        if self.interpolation is Interpolation.ZERO_ORDER_HOLD:
            idx = np.minimum(
                np.floor((tdst - self.t0) / self.dt + 1e-9).astype(int),
                self.n_samples - 1,
            )
            out = self.values[idx]
        else:
            out = np.column_stack([
                np.interp(tdst, tsrc, self.values[:, j]) for j in range(self.dim)
            ])
        return SampledSignal(grid.t0, grid.dt, out, self.interpolation)


@dataclass(frozen=True, eq=False)
class TrajectoryTriple:
    """Input/state/output triple on a common grid, from initial state x0."""

    u: SampledSignal
    x: SampledSignal
    y: SampledSignal
    x0: np.ndarray

    def __post_init__(self) -> None:
        if not (self.u.same_grid(self.x) and self.u.same_grid(self.y)):
            raise GridMismatch("u, x, y must share one grid")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if not np.allclose(self.x.values[0], x0, atol=1e-9, equal_nan=True):
            raise ValueError("state signal does not start at x0")
        x0 = x0.copy()
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)


# ---------------------------------------------------------------------------
# constraint sets


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """Points with G x <= g (strict: G x < g); margins divide by the row norms."""

    G: np.ndarray
    g: np.ndarray
    strict: bool = False
    norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        g = np.asarray(self.g, dtype=float).reshape(-1)
        if G.shape[0] != g.shape[0]:
            raise DimensionMismatch("polyhedron G rows must match g length")
        if np.isnan(g).any():
            raise ValueError("polyhedron g must not hold NaN")
        peak = np.max(np.abs(G), axis=1, initial=0.0)
        if np.any(peak == 0):
            raise ValueError("polyhedron rows must be nonzero")
        # each row scaled by its largest magnitude first, so that no square
        # overflows; a norm beyond the float range would make every margin 0
        with np.errstate(over="ignore"):
            norms = peak * np.linalg.norm(G / peak[:, None], axis=1)
        if not np.isfinite(norms).all():
            raise ValueError("polyhedron row norms must be finite")
        for name, arr in (("G", G), ("g", g), ("norms", norms)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def box(cls, lower: Sequence[float], upper: Sequence[float],
            strict: bool = False) -> "Polyhedron":
        """The box lower <= x <= upper: one row -e_i x <= -lower_i per finite
        lower bound and one row e_i x <= upper_i per finite upper bound, so a
        box with no finite bound has no row and is the whole space."""
        lo = np.asarray(lower, dtype=float).reshape(-1)
        up = np.asarray(upper, dtype=float).reshape(-1)
        if lo.shape != up.shape:
            raise DimensionMismatch("box bounds have different lengths")
        if np.isnan(lo).any() or np.isnan(up).any():
            raise ValueError("box bounds must not be NaN")
        if (lo == math.inf).any() or (up == -math.inf).any():
            raise ValueError("box is empty: a lower bound is +inf or an upper bound is -inf")
        if np.any(lo > up):
            raise ValueError("box lower bound exceeds upper bound")
        rows = np.eye(lo.shape[0])
        has_lo, has_up = np.isfinite(lo), np.isfinite(up)
        return cls(np.vstack([-rows[has_lo], rows[has_up]]),
                   np.concatenate([-lo[has_lo], up[has_up]]), strict)

    @property
    def ambient_dim(self) -> int:
        return self.G.shape[1]


ConstraintSet = Union[Subspace, Polyhedron]


def is_strict(cs: ConstraintSet) -> bool:
    return getattr(cs, "strict", False)


class Status(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class Membership:
    status: Status
    margin: float


def _classify(margin: float) -> Membership:
    if margin > MEMBERSHIP_TOL:
        return Membership(Status.INTERIOR, margin)
    if margin < -MEMBERSHIP_TOL:
        return Membership(Status.OUTSIDE, margin)
    return Membership(Status.BOUNDARY, 0.0)


@np.errstate(all="ignore")  # points or rows near the float ceiling overflow
def margins(cs: ConstraintSet, values: np.ndarray) -> np.ndarray:
    """One distance-like margin per row of an (N, dim) array of points.

    For a polyhedron (a box among them) the margin is the least slack of
    its normalized rows, +inf when it has no row.  The whole space has margin
    +inf, and another subspace has minus the distance to it, so its members
    have margin 0 up to round-off.  A row with a non-finite coordinate, or
    whose margin comes out NaN, has margin -inf: it is never admissible.
    """
    V = np.asarray(values, dtype=float)
    if V.ndim != 2 or V.shape[1] != cs.ambient_dim:
        raise DimensionMismatch("point dimension does not match constraint set")
    finite = np.isfinite(V).all(axis=1)
    if not finite.all():  # zeroed: lstsq rejects non-finite input
        V = np.where(finite[:, None], V, 0.0)
    if isinstance(cs, Polyhedron):
        m = np.min((cs.g - V @ cs.G.T) / cs.norms, axis=1, initial=math.inf)
    elif cs.is_full():
        m = np.full(V.shape[0], math.inf)
    elif cs.is_zero():
        m = -np.linalg.norm(V, axis=1)
    else:
        basis = cs.to_float()
        coeff, *_ = np.linalg.lstsq(basis, V.T, rcond=None)
        m = -np.linalg.norm(V - (basis @ coeff).T, axis=1)
    m[~finite | np.isnan(m)] = -math.inf
    return m


def membership(cs: ConstraintSet, v: Sequence[float]) -> Membership:
    """Classify a point against a constraint set by its `margins` value.

    Classification is against the closure, so `strict` sets report Boundary
    for points on their frontier even though those points are not members,
    and members of a proper subspace are Boundary points.  A point with a
    non-finite coordinate is Outside with margin -inf, whatever the set.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    return _classify(float(margins(cs, v[None])[0]))


def _admitted(m: np.ndarray, strict: bool) -> np.ndarray:
    """Nodes whose margin puts them in the set: interior, or boundary of a closed set."""
    return m > MEMBERSHIP_TOL if strict else m >= -MEMBERSHIP_TOL


# ---------------------------------------------------------------------------
# simulation


def _float_system(sys: "SystemQuadruple") -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return sys.A.to_float(), sys.B.to_float(), sys.C.to_float(), sys.D.to_float()


def _upper_expm(A: np.ndarray, B: np.ndarray, S: np.ndarray,
                t: float) -> tuple[np.ndarray, np.ndarray]:
    """Blocks E11 and E12 of expm([[A, B], [0, S]] t); with S of order 0 and
    B of no columns, E11 is e^{At} alone.

    scipy is imported on the first call (see the module docstring).  It does
    not warn on overflow: `margins` never admits a non-finite state.
    """
    from scipy.linalg import expm

    n = A.shape[0]
    M = np.zeros((n + S.shape[0],) * 2)
    M[:n, :n] = A
    M[:n, n:] = B
    M[n:, n:] = S
    with np.errstate(all="ignore"):
        E = expm(M * t)
    return E[:n, :n], E[:n, n:]


def _step_matrices(A: np.ndarray, B: np.ndarray, dt: float,
                   interpolation: Interpolation) -> tuple[np.ndarray, ...]:
    m = B.shape[1]
    if interpolation is Interpolation.ZERO_ORDER_HOLD:
        return _upper_expm(A, B, np.zeros((m, m)), dt)
    # piecewise linear: augment with the input and its (constant) slope
    slope = np.zeros((2 * m, 2 * m))
    slope[:m, m:] = np.eye(m)
    Phi, G = _upper_expm(A, np.hstack([B, np.zeros_like(B)]), slope, dt)
    return Phi, G[:, :m], G[:, m:]


def _blocked_recurrence(Phi: np.ndarray, x0: np.ndarray, d: np.ndarray) -> np.ndarray:
    """States of x[k+1] = Phi x[k] + d[k] from x[0] = x0, for k < K = len(d).

    The K steps run in blocks of b = isqrt(K) steps, so Python iterates
    about 2 sqrt(K) times instead of K: (a) the zero-start response z of
    every block at once, in b steps over an (nblocks, n) array, with Phi^j
    accumulated along the way; (b) the block-start states s, in nblocks
    steps of Phi^b; (c) each node as Phi^j s + z, in one einsum.  A power
    Phi^j may overflow where the states do not; the callers silence the
    warning, and the simulator steps such nodes again.
    """
    K, n = d.shape
    b = math.isqrt(K)
    nblocks = -(-K // b)
    dq = np.zeros((nblocks * b, n))
    dq[:K] = d
    dq = dq.reshape(nblocks, b, n)
    powers = np.empty((b + 1, n, n))
    powers[0] = np.eye(n)
    z = np.zeros((nblocks, b + 1, n))  # z[q, j]: block q's state j steps after 0
    s = np.empty((nblocks + 1, n))
    s[0] = x0
    x = np.empty((nblocks * b + 1, n))
    blocks = x[:-1].reshape(nblocks, b, n)
    for j in range(b):
        powers[j + 1] = Phi @ powers[j]
        z[:, j + 1] = z[:, j] @ Phi.T + dq[:, j]
    for q in range(nblocks):
        s[q + 1] = powers[b] @ s[q] + z[q, b]
    blocks[:, 0] = s[:-1]
    blocks[:, 1:] = np.einsum("jab,qb->qja", powers[1:b], s[:-1]) + z[:, 1:b]
    x[-1] = s[-1]
    return x[:K + 1]


def _simulate_arrays(A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray,
                     x0: np.ndarray, u: SampledSignal) -> tuple[np.ndarray, np.ndarray]:
    uv = u.values
    Phi, *gains = _step_matrices(A, B, u.dt, u.interpolation)
    with np.errstate(all="ignore"):  # as in `_upper_expm`
        w = uv[:-1]  # per step: the input, and for first-order hold its slope
        if u.interpolation is Interpolation.PIECEWISE_LINEAR:
            w = np.hstack([w, (uv[1:] - uv[:-1]) / u.dt])
        G = np.hstack(gains)
        d = w @ G.T
        x = _blocked_recurrence(Phi, x0, d)
        # From the first step whose partial sums could overflow (their
        # absolute values do), or that came out non-finite, step one node at
        # a time, so that the states overflow where the recurrence itself does.
        reach = np.abs(x[:-1]) @ np.abs(Phi).T + np.abs(w) @ np.abs(G).T
        risky = ~(np.isfinite(reach).all(axis=1) & np.isfinite(x[1:]).all(axis=1))
        if risky.any():
            for k in range(int(np.argmax(risky)), len(d)):
                x[k + 1] = Phi @ x[k] + d[k]
        y = x @ C.T + uv @ D.T
    return x, y


def simulate(sys: "SystemQuadruple", x0: Sequence[float], u: SampledSignal) -> TrajectoryTriple:
    """Simulate the quadruple from x0 under u, exactly per step.

    The per-step propagator is the augmented matrix exponential matching the
    input's interpolation rule (first-order hold for piecewise-linear inputs,
    zero-order hold otherwise), so inputs representable by their declared
    interpolation incur only rounding error.  The steps are chained in
    blocks of isqrt(K) (see `_blocked_recurrence`); the states agree with
    step-by-step evaluation to rounding, overflow at the same node, and stay
    exactly zero under a zero input from the zero state.
    """
    A, B, C, D = _float_system(sys)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != A.shape[0]:
        raise DimensionMismatch("x0 length does not match the state dimension")
    if u.dim != B.shape[1]:
        raise DimensionMismatch("input signal dimension does not match B")
    x, y = _simulate_arrays(A, B, C, D, x0, u)
    xs = SampledSignal(u.t0, u.dt, x, Interpolation.PIECEWISE_LINEAR)
    ys = SampledSignal(u.t0, u.dt, y, u.interpolation)
    return TrajectoryTriple(u=u, x=xs, y=ys, x0=x0)


# ---------------------------------------------------------------------------
# Gramian transfers


def reachability_gramian(A: np.ndarray, B: np.ndarray, duration: float) -> np.ndarray:
    """Finite-horizon reachability Gramian, by one augmented matrix exponential."""
    E11, E12 = _upper_expm(A, B @ B.T, -A.T, duration)
    # E12 = int_0^T e^{(T-s)A} Q e^{-sA'} ds, so right-multiplying by e^{TA'}
    # yields the Gramian.
    return E12 @ E11.T


GRAMIAN_RCOND_MIN = 1e-12


def gramian_transfer_data(A: np.ndarray, B: np.ndarray, p0: np.ndarray, pf: np.ndarray,
                          duration: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-energy transfer of x' = A x + B w from p0 to pf over [0, T = duration].

    Returns w(t) = B' v(t), v(t) = e^{(T-t)A'} eta, eta = W(T)^{-1} (pf - e^{TA} p0),
    and the state phi(t) = e^{tA} p0 + W(t) v(t) at the steps + 1 grid nodes.
    v and phi are chained by the blocked recurrence (`_blocked_recurrence`)
    over one step of [phi; v]' = [[A, BB'], [0, -A']] [phi; v]:
    v_k = E' v_{k+1} from v_steps = eta, and phi_{k+1} = E phi_k + W(dt) v_{k+1},
    with E = e^{dt A}.  phi ends at pf up to round-off, which grows with
    steps and with cond(W(T)).  Raises SingularGramian when W(T)'s
    reciprocal condition is not finite or below GRAMIAN_RCOND_MIN, as when
    (A, B) is not controllable, and when w or phi overflows.
    """
    n = A.shape[0]
    W_total = reachability_gramian(A, B, duration)
    finite = np.isfinite(W_total).all()  # cond's SVD fails on inf or NaN entries
    rcond = (1.0 / np.linalg.cond(W_total) if finite else 0.0) if n else 1.0
    if not np.isfinite(rcond) or rcond < GRAMIAN_RCOND_MIN:
        raise SingularGramian(
            f"reciprocal condition {rcond:.2e} below {GRAMIAN_RCOND_MIN:.0e}"
        )
    E_T, _ = _upper_expm(A, np.zeros((n, 0)), np.zeros((0, 0)), duration)
    eta = np.linalg.solve(W_total, pf - E_T @ p0)
    E, G = _upper_expm(A, B @ B.T, -A.T, duration / steps)
    with np.errstate(all="ignore"):  # as in `_upper_expm`; checked below
        v = _blocked_recurrence(E.T, eta, np.zeros((steps, n)))[::-1]
        # W(dt) v_{k+1} = G v_k, but G alone grows like e^{||A dt||} for a
        # stable A, so that its product with v_k cancels
        phi = _blocked_recurrence(E, p0, v[1:] @ (G @ E.T).T)
        w = v @ B
    if not (np.isfinite(w).all() and np.isfinite(phi).all()):
        raise SingularGramian("the transfer overflows")
    return w, phi


# ---------------------------------------------------------------------------
# sampled checks


@dataclass(frozen=True)
class AdmissibilityResult:
    ok: bool
    first_violation: Optional[float]


def check_admissible(triple: TrajectoryTriple, u_set: ConstraintSet,
                     x_set: ConstraintSet) -> AdmissibilityResult:
    """True when (u(t), x(t)) stays in U x X at every grid node."""
    ok = (_admitted(margins(u_set, triple.u.values), is_strict(u_set))
          & _admitted(margins(x_set, triple.x.values), is_strict(x_set)))
    if ok.all():
        return AdmissibilityResult(True, None)
    return AdmissibilityResult(False, float(triple.u.times()[np.argmin(ok)]))


@dataclass(frozen=True)
class InteriorWindow:
    t1: float
    t2: float
    r_u_min: float
    r_x_min: float


def interior_window(triple: TrajectoryTriple, u_set: ConstraintSet, x_set: ConstraintSet,
                    rho: int) -> Optional[InteriorWindow]:
    """Widest grid-aligned open window where u is interior (and x, when rho = 0).

    Returns the window endpoints together with the minimum margins over its
    nodes, or None when no window spanning at least two grid steps exists.
    Endpoints are grid nodes that themselves satisfy the interiority test, so
    the reported open interval is contained in the true one.  Of several
    widest runs of interior nodes the first is taken.
    """
    mu = margins(u_set, triple.u.values)
    ok = mu > MEMBERSHIP_TOL
    if rho == 0:
        mx = margins(x_set, triple.x.values)
        ok &= mx > MEMBERSHIP_TOL
    edges = np.diff(ok.astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges == 1)
    if starts.size == 0:
        return None
    ends = np.flatnonzero(edges == -1) - 1
    best = int(np.argmax(ends - starts))
    i, j = int(starts[best]), int(ends[best])
    if j - i < 2:
        return None
    times = triple.u.times()
    return InteriorWindow(
        t1=float(times[i]),
        t2=float(times[j]),
        r_u_min=float(np.min(mu[i:j + 1])),
        r_x_min=float(np.min(mx[i:j + 1])) if rho == 0 else math.inf,
    )


def boundary_residence(triple: TrajectoryTriple, u_set: ConstraintSet, x_set: ConstraintSet,
                       rho: int) -> bool:
    """Necessary condition for an admissible pair not to be input redundant.

    True when, at every grid node, the input sits on the boundary of its set
    (for rho > 0), or the input or the state does (for rho = 0).  Points of a
    strict (open) set are never on the set's own frontier, so strict sets can
    never satisfy the test.
    """
    on = _on_boundary(u_set, triple.u.values)
    if rho == 0:
        on |= _on_boundary(x_set, triple.x.values)
    return bool(np.all(on))


def _on_boundary(cs: ConstraintSet, values: np.ndarray) -> np.ndarray:
    """Nodes on the frontier of a closed set; none for a strict one."""
    if is_strict(cs):
        return np.zeros(values.shape[0], dtype=bool)
    return np.abs(margins(cs, values)) <= MEMBERSHIP_TOL
