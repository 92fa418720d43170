"""Geometric control algorithms over exact rationals.

Computes the classical subspaces of the geometric approach (the largest
controlled invariant subspace in a given set, the weakly unobservable
subspace, its controllable part) together with friends (invariance-realizing
feedbacks), the reduction of a linearly constrained system to an equivalent
unconstrained one, and bases adapted to the subspace chain.

Everything here is exact: the module imports only the standard library and
`exact`.  The floating-point construction built on these objects (the
Gramian transfer) lives in `trajectory`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from .exact import (
    DimensionMismatch,
    RationalMatrix,
    Subspace,
    image,
    kernel,
    preimage,
    preimage_equations,
    restriction_matrix,
)


_T = TypeVar("_T")


class NotControlledInvariant(ValueError):
    """No feedback makes the subspace invariant."""


class NotOutputNulling(ValueError):
    """No feedback keeps the subspace invariant while nulling the output."""


class DegenerateStateSpace(ValueError):
    """The reduced state space collapses to the origin (dim V* = 0)."""


class PinnedInvalid(ValueError):
    """Supplied insertion/friend/reparametrization matrices violate their invariants."""


class FixpointNotConverged(RuntimeError):
    """A subspace fixpoint failed to settle within its theoretical bound."""


@dataclass(frozen=True)
class SystemQuadruple:
    """State-space quadruple (A, B, C, D) with exact rational entries.

    Reduced systems may legitimately have zero input columns, so only the
    state and output dimensions are required to be positive.
    """

    A: RationalMatrix
    B: RationalMatrix
    C: RationalMatrix
    D: RationalMatrix

    def __post_init__(self) -> None:
        n = self.A.rows
        if self.A.cols != n or n < 1:
            raise DimensionMismatch("A must be square and non-empty")
        if self.B.rows != n:
            raise DimensionMismatch("B must have as many rows as A")
        if self.C.cols != n or self.C.rows < 1:
            raise DimensionMismatch("C must have as many columns as A")
        if self.D.shape != (self.C.rows, self.B.cols):
            raise DimensionMismatch("D must be (p x m)")

    @classmethod
    def from_rows(cls, A, B, C, D) -> "SystemQuadruple":
        return cls(
            RationalMatrix.from_rows(A),
            RationalMatrix.from_rows(B),
            RationalMatrix.from_rows(C),
            RationalMatrix.from_rows(D),
        )

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def m(self) -> int:
        return self.B.cols

    @property
    def p(self) -> int:
        return self.C.rows


# ---------------------------------------------------------------------------
# invariant subspaces


def _fixpoint(step: Callable[[_T], _T], start: _T, bound: int) -> _T:
    """Iterate `step` from `start` until it returns its argument.

    The chains iterated here are monotone, and each step returns a unique
    form (a canonical subspace or the RREF of its equations), so a step
    returns its argument exactly when the dimension repeats.  They settle
    within `bound` (dimension + 1) steps; failing to settle is a bug, never
    a result.
    """
    current = start
    for _ in range(bound):
        following = step(current)
        if following == current:
            return current
        current = following
    raise FixpointNotConverged(f"no fixpoint after {bound} steps")


def _weakly_unobservable(A: RationalMatrix, B: RationalMatrix, C: RationalMatrix,
                         D: RationalMatrix) -> Subspace:
    """`weakly_unobservable` of (A, B, C, D); C may have no rows.

    Fixpoint on V_{i+1} = {x : [A; C] x in (V_i x {0}) + im [B; D]} from
    the whole state space, run on the equations Z_i of V_i:
    V_{i+1} = {x : [Z_i A; C] x in im [Z_i B; D]}, one elimination per step.
    """
    def step(Z: RationalMatrix) -> RationalMatrix:
        return preimage_equations(RationalMatrix.vstack(Z @ A, C),
                                  RationalMatrix.vstack(Z @ B, D))

    return kernel(_fixpoint(step, RationalMatrix.zeros(0, A.rows), A.rows + 1))


def max_controlled_invariant(A: RationalMatrix, B: RationalMatrix, K: Subspace) -> Subspace:
    """Largest (A, B)-controlled invariant subspace contained in K.

    It is the weakly unobservable subspace of (A, B, Z_K, 0), Z_K the
    equations of K (Trentelman, Stoorvogel and Hautus, *Control Theory for
    Linear Systems*, 2001, ch. 7).  The fixpoint's first step yields Z_K, and
    the later ones the chain V0 = K, V_{i+1} = K n A^{-1}(V_i + im B).
    """
    if K.ambient_dim != A.rows:
        raise DimensionMismatch("constraint subspace must live in the state space")
    on_k = preimage_equations(RationalMatrix.identity(A.rows), K.basis)
    return _weakly_unobservable(A, B, on_k, RationalMatrix.zeros(on_k.rows, B.cols))


def weakly_unobservable(sys: SystemQuadruple) -> Subspace:
    """States from which some input keeps the output identically zero: the
    largest V with (A + BF) V <= V and (C + DF) V = 0 for some F."""
    return _weakly_unobservable(sys.A, sys.B, sys.C, sys.D)


def _friend_matrix(A: RationalMatrix, B: RationalMatrix, W: Subspace,
                   CD: Optional[tuple[RationalMatrix, RationalMatrix]]) -> Optional[RationalMatrix]:
    """F with (A+BF)W <= W (and (C+DF)W = 0 when CD given), zero on the
    coordinate axes off W's pivot rows: F T = f_on_w is solved with T' in RREF,
    whose free variables, set to zero, are those axes."""
    T = W.basis
    lhs = RationalMatrix.hstack(B, -T)
    rhs = -(A @ T)
    if CD is not None:
        C, D = CD
        lhs = RationalMatrix.vstack(lhs, RationalMatrix.hstack(
            D, RationalMatrix.zeros(C.rows, W.dim)))
        rhs = RationalMatrix.vstack(rhs, -(C @ T))
    sol = lhs.solve_columns(rhs)
    if sol is None:
        return None
    f_on_w = sol.block(0, B.cols, 0, W.dim)
    return T.transpose().solve_columns(f_on_w.transpose()).transpose()


def friend(sys: SystemQuadruple, W: Subspace, output_nulling: bool = False) -> RationalMatrix:
    """A feedback F making W invariant for A+BF, output-nulling on request.

    The defining linear systems are solved exactly with free variables pinned
    to zero, and F vanishes on the coordinate axes off the pivot rows of W's
    canonical basis (a fixed complement of W), so the choice is deterministic.
    """
    if W.ambient_dim != sys.n:
        raise DimensionMismatch("subspace must live in the state space")
    CD = (sys.C, sys.D) if output_nulling else None
    F = _friend_matrix(sys.A, sys.B, W, CD)
    if F is not None:
        return F
    if output_nulling and _friend_matrix(sys.A, sys.B, W, None) is not None:
        raise NotOutputNulling("subspace is controlled invariant but not output-nulling")
    raise NotControlledInvariant("subspace is not controlled invariant")


@dataclass(frozen=True)
class OutputNulling:
    """The output-nulling objects of one system, each computed once.

    V is the weakly unobservable subspace, F an output-nulling friend of V,
    N = B^{-1}V n ker D the output-invisible input directions, and R the
    controllable weakly unobservable subspace: the reachable set of
    (A + BF, B N), contained in V by construction.
    """

    V: Subspace
    F: RationalMatrix
    N: Subspace
    R: Subspace


def output_nulling(sys: SystemQuadruple) -> OutputNulling:
    """Compute V, F, N and R of a quadruple (see OutputNulling)."""
    V = weakly_unobservable(sys)
    F = friend(sys, V, output_nulling=True)
    N = preimage(sys.B, V) & kernel(sys.D)
    closed = sys.A + sys.B @ F
    R = _fixpoint(lambda W: image(RationalMatrix.hstack(W.basis, closed @ W.basis)),
                  image(sys.B @ N.basis), sys.n + 1)
    return OutputNulling(V=V, F=F, N=N, R=R)


def controllable_weakly_unobservable(sys: SystemQuadruple) -> Subspace:
    """States reachable from (and returnable to) the origin with zero output:
    the R of `output_nulling`."""
    return output_nulling(sys).R


# ---------------------------------------------------------------------------
# constrained-to-unconstrained reduction


@dataclass(frozen=True)
class PinnedBases:
    """Caller-supplied insertion/friend/reparametrization matrices, used verbatim."""

    R: Optional[RationalMatrix] = None
    F: Optional[RationalMatrix] = None
    L: Optional[RationalMatrix] = None


@dataclass(frozen=True)
class ReducedSystem:
    """Unconstrained quadruple equivalent to the constrained dynamics on V*.

    `sys` acts on coordinates of V* (the largest controlled invariant
    subspace inside the state constraint set); R inserts the input constraint
    set, T inserts V*, F is the friend used for the reduction and L
    reparametrizes the inputs that keep the state in V*.
    """

    sys: SystemQuadruple
    R: RationalMatrix
    T: RationalMatrix
    F: RationalMatrix
    L: RationalMatrix

    @property
    def l(self) -> int:
        return self.T.cols


def reduce_system(sys: SystemQuadruple, u_set: Subspace, x_set: Subspace,
                  pinned: Optional[PinnedBases] = None) -> ReducedSystem:
    """Reduce a linearly constrained system to an equivalent unconstrained one.

    Canonical choices: R and L are the canonical echelon bases of their
    spans, F is the deterministic friend of V*.  Pinned matrices are
    validated and used verbatim; the classification this reduction feeds is
    independent of any valid choice.
    """
    if u_set.ambient_dim != sys.m:
        raise DimensionMismatch("input constraint set must live in R^m")
    if x_set.ambient_dim != sys.n:
        raise DimensionMismatch("state constraint set must live in R^n")
    pinned = pinned or PinnedBases()

    if pinned.R is not None:
        R = pinned.R
        if R.rows != sys.m or R.rank() != R.cols or image(R) != u_set:
            raise PinnedInvalid("R must be an injective insertion of the input set")
    else:
        R = u_set.basis
    B_u = sys.B @ R
    D_u = sys.D @ R

    v_star = max_controlled_invariant(sys.A, B_u, x_set)
    if v_star.dim == 0:
        raise DegenerateStateSpace("V* is trivial; use the degenerate analysis")
    T = v_star.basis

    if pinned.F is not None:
        F = pinned.F
        if F.shape != (R.cols, sys.n):
            raise PinnedInvalid("F has the wrong shape")
        if T.solve_columns((sys.A + B_u @ F) @ T) is None:
            raise PinnedInvalid("F is not a friend of V*")
    else:
        F = _friend_matrix(sys.A, B_u, v_star, None)
        assert F is not None  # V* is controlled invariant by construction

    pre = preimage(B_u, v_star)
    if pinned.L is not None:
        L = pinned.L
        if L.rows != R.cols or L.rank() != L.cols or image(L) != pre:
            raise PinnedInvalid("L must be injective with image the preimage of V*")
    else:
        L = pre.basis

    A_f = restriction_matrix(sys.A + B_u @ F, v_star)
    B_f = T.solve_columns(B_u @ L)
    assert B_f is not None  # im(B_u L) <= V* by choice of L
    C_f = (sys.C + D_u @ F) @ T
    D_f = D_u @ L
    return ReducedSystem(
        sys=SystemQuadruple(A_f, B_f, C_f, D_f), R=R, T=T, F=F, L=L,
    )


# ---------------------------------------------------------------------------
# adapted bases


@dataclass(frozen=True)
class AdaptedBasis:
    """The controllable part of a closed loop, in a basis of R(sys).

    Columns of Ta span the controllable weakly unobservable subspace R.
    (A11, B1) are the controllable top-left blocks of the closed-loop pair
    in a basis that starts with Ta: (A + BF) Ta = Ta A11 and B L = Ta B1.
    F and L are the output-nulling feedback and input reparametrization.
    """

    Ta: RationalMatrix
    A11: RationalMatrix
    B1: RationalMatrix
    F: RationalMatrix
    L: RationalMatrix


def adapted_basis(sys: SystemQuadruple) -> AdaptedBasis:
    """Build the basis Ta of R and the controllable blocks (A11, B1).

    A11 is A + BF restricted to R, and B1 holds the coordinates of B L in
    Ta.  They are the top-left blocks of the closed loop in any basis
    [Ta Tb Tc] with [Ta Tb] a basis of V, where the dynamics is block upper
    triangular, the input enters only the first block and the output reads
    only the last.  What these zero patterns rest on is checked exactly: R
    and V are invariant under A + BF, B L lies in R, and (C + DF) V = 0 and
    D L = 0.
    """
    on = output_nulling(sys)
    F, L = on.F, on.N.basis
    closed = sys.A + sys.B @ F
    Ta = on.R.basis
    # the restrictions raise unless R and V are invariant under A + BF
    A11 = restriction_matrix(closed, on.R)
    restriction_matrix(closed, on.V)
    B1 = Ta.solve_columns(sys.B @ L)
    if (B1 is None or not ((sys.C + sys.D @ F) @ on.V.basis).is_zero()
            or not (sys.D @ L).is_zero()):
        raise AssertionError("adapted basis lost its structural zero pattern")
    return AdaptedBasis(Ta=Ta, A11=A11, B1=B1, F=F, L=L)
