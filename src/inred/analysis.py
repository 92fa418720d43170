"""Classification of input redundancy for linearly constrained systems.

Given a quadruple and linear input/state constraint sets, this module decides
whether the constrained system is input redundant, of which kind, and with
what degree.  Each verdict is then proven once by an exact witness: an
output-nulling feedback that produces a nonzero input with zero output for
an input-redundant system, a point where the system matrix has full column
rank for one that is not.  All decisions are exact and deterministic.

A constrained system is classified through its reduction to an
unconstrained one on V*.  With full sets (U = R^m, X = R^n) the system is
its own reduction up to a state feedback, which changes none of V, N, R,
the kind or the degree, so `analyze` classifies it in one exact pass.

Kinds: an input-redundant system is of the 1st kind when distinct inputs
producing one output force equal state trajectories, of the 2nd kind when
they force distinct ones, and of the 3rd kind when both situations occur.
With linear constraint sets, redundancy of any pair implies redundancy of
every admissible pair, so "uniform" simply mirrors the kind being set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .exact import DimensionMismatch, RationalMatrix, Subspace, kernel, preimage
from .geometry import (
    DegenerateStateSpace,
    OutputNulling,
    PinnedBases,
    SystemQuadruple,
    output_nulling,
    reduce_system,
    weakly_unobservable,
)


class ConsistencyError(RuntimeError):
    """A verdict's exact witness fails to check; results cannot be trusted."""


class Kind(str, Enum):
    NOT_IR = "NotIR"
    FIRST = "Kind1"
    SECOND = "Kind2"
    THIRD = "Kind3"


def kind_of(rho: int, nu: int) -> Kind:
    if rho > 0 and nu == 0:
        return Kind.FIRST
    if rho == 0 and nu > 0:
        return Kind.SECOND
    if rho > 0 and nu > 0:
        return Kind.THIRD
    return Kind.NOT_IR


@dataclass(frozen=True)
class RedundancyReport:
    """Classification of a (possibly constrained) system.

    rho counts input directions invisible to both state and output; nu counts
    directions that move the state but not the output; their pair is the
    degree of redundancy.  N is the subspace of output-invisible input
    directions the two live in.  For constrained systems the quantities refer
    to the reduced unconstrained system, and l is its state dimension.  The
    kind, degree and uniform flag follow from (rho, nu); left_invertible is
    the one answer of `left_invertibility`, for G and P alike.
    """

    rho: int
    nu: int
    N: Subspace
    dim_V: int
    dim_R: int
    l: int
    left_invertible: Optional[bool] = None
    consistency_flags: dict[str, bool] = field(default_factory=dict)

    @property
    def kind(self) -> Kind:
        return kind_of(self.rho, self.nu)

    @property
    def degree(self) -> tuple[int, int]:
        return self.rho, self.nu

    @property
    def is_ir(self) -> bool:
        return self.kind is not Kind.NOT_IR

    uniform = is_ir


def joint_kernel_dim(B: RationalMatrix, D: RationalMatrix) -> int:
    """dim(ker B n ker D): input directions with no instantaneous effect."""
    if B.cols != D.cols:
        raise DimensionMismatch("B and D must have the same number of columns")
    return kernel(RationalMatrix.vstack(B, D)).dim


def _degree(B: RationalMatrix, N: Subspace) -> tuple[int, int]:
    """(rho, nu) of a system whose output-invisible input directions are N.

    N = B^-1 V n ker D contains ker B n ker D, and that is exactly the
    kernel of B on N.  So nu = dim B N and rho = dim N - nu.
    """
    nu = (B @ N.basis).rank()
    return N.dim - nu, nu


def degree_and_kind(sys: SystemQuadruple) -> RedundancyReport:
    """Classify an unconstrained quadruple (geometric route, exact)."""
    on = output_nulling(sys)
    rho, nu = _degree(sys.B, on.N)
    return RedundancyReport(rho=rho, nu=nu, N=on.N, dim_V=on.V.dim, dim_R=on.R.dim, l=sys.n)


def left_invertibility(sys: SystemQuadruple) -> bool:
    """Whether the transfer matrix, and so the system matrix, is left invertible.

    Decided exactly by ranking P(s) = [sI - A, -B; C, D] at s = 0, 1, ..., n,
    stopping at the first point of full column rank n + m.  Every maximal
    minor of P(s) is a polynomial of degree at most n, so a nonzero one
    vanishes at no more than n of these points: the scan finds the normal
    rank.  The normal rank of P is n plus that of G(s) = C(sI - A)^{-1}B + D
    (Rosenbrock 1970), so the two questions have the same answer.
    """
    n, m = sys.n, sys.m
    shift = RationalMatrix.hstack(RationalMatrix.identity(n), RationalMatrix.zeros(n, m))
    pencil = RationalMatrix.hstack(sys.A, sys.B)
    lower = RationalMatrix.hstack(sys.C, sys.D)
    return any(
        RationalMatrix.vstack(shift.scaled(s) - pencil, lower).rank() == n + m
        for s in range(n + 1)
    )


def _check_ir_witness(sys: SystemQuadruple, on: OutputNulling) -> None:
    """Raise unless the output-nulling record proves input redundancy.

    With L a basis of N: if L != 0, D L = 0, (C + D F) V = 0 and both
    (A + B F) V and B L lie in V, then u = F x + L w from x0 = 0 keeps x in V
    and y at zero, and any w != 0 gives a nonzero such input (Trentelman,
    Stoorvogel and Hautus 2001, ch. 7).
    """
    L, T = on.N.basis, on.V.basis
    moved = RationalMatrix.hstack((sys.A + sys.B @ on.F) @ T, sys.B @ L)
    if (L.cols == 0 or not (sys.D @ L).is_zero()
            or not ((sys.C + sys.D @ on.F) @ T).is_zero()
            or T.solve_columns(moved) is None):
        raise ConsistencyError("the output-nulling record does not prove input redundancy")


def analyze_degenerate(sys: SystemQuadruple, u_set: Subspace) -> RedundancyReport:
    """Classification when V* is trivial (state pinned to the origin).

    The only admissible initial state is 0 and the dynamics degenerates to a
    static map on the inputs of the constraint set that excite no state
    motion; redundancy reduces to a nontrivial kernel of that map and is
    always of the 1st kind.
    """
    if u_set.ambient_dim != sys.m:
        raise DimensionMismatch("input constraint set must live in R^m")
    N = u_set & kernel(RationalMatrix.vstack(sys.B, sys.D))
    return RedundancyReport(rho=N.dim, nu=0, N=N, dim_V=0, dim_R=0, l=0,
                            left_invertible=N.is_zero())


def _unconstrained_kind(sys: SystemQuadruple) -> Kind:
    """The kind of `sys` with U = R^m and X = R^n, from V and N alone."""
    N = preimage(sys.B, weakly_unobservable(sys)) & kernel(sys.D)
    return kind_of(*_degree(sys.B, N))


def analyze(sys: SystemQuadruple, u_set: Subspace, x_set: Subspace,
            pinned: Optional[PinnedBases] = None) -> RedundancyReport:
    """Full classification of a linearly constrained system.

    Reduces the constrained dynamics to an equivalent unconstrained system,
    classifies it geometrically, proves the verdict with one exact witness
    (the output-nulling record if redundant, `left_invertibility` if not),
    and records named consistency checks (kind preservation from the
    unconstrained system and the nu/controllable-subspace equivalence).

    With full sets and no pinned bases the system is its own reduction: the
    reduction would only apply a state feedback, which leaves V, N and R,
    hence the whole report, unchanged (Morse 1973).  It is then classified
    directly, and the kind-preserved flag is true by definition.
    """
    if u_set.ambient_dim != sys.m:
        raise DimensionMismatch("input constraint set must live in R^m")
    if x_set.ambient_dim != sys.n:
        raise DimensionMismatch("state constraint set must live in R^n")
    unconstrained = (pinned in (None, PinnedBases())
                     and u_set.is_full() and x_set.is_full())
    reduced = sys
    if not unconstrained:
        try:
            reduced = reduce_system(sys, u_set, x_set, pinned=pinned).sys
        except DegenerateStateSpace:
            return analyze_degenerate(sys, u_set)
    on = output_nulling(reduced)
    rho, nu = _degree(reduced.B, on.N)
    kind = kind_of(rho, nu)
    if kind is not Kind.NOT_IR:
        _check_ir_witness(reduced, on)
    elif not left_invertibility(reduced):
        raise ConsistencyError("normal-rank route disagrees with the exact degree computation")
    # with full sets the system is its own reduction, so the kinds agree
    free_kind = kind if unconstrained else _unconstrained_kind(sys)

    flags = {
        "nu_matches_dim_R": (nu > 0) == (on.R.dim > 0),
        "kind_preserved_from_unconstrained": (
            free_kind not in (Kind.FIRST, Kind.SECOND)
            or kind in (Kind.NOT_IR, free_kind)
        ),
    }
    return RedundancyReport(rho=rho, nu=nu, N=on.N, dim_V=on.V.dim, dim_R=on.R.dim,
                            l=reduced.n, left_invertible=kind is Kind.NOT_IR,
                            consistency_flags=flags)


# ---------------------------------------------------------------------------
# serialization


def report_to_dict(report: RedundancyReport) -> dict:
    return {
        "rho": report.rho,
        "nu": report.nu,
        "N": {
            "ambient_dim": report.N.ambient_dim,
            "basis": report.N.basis.to_strings(),
        },
        "dim_V": report.dim_V,
        "dim_R": report.dim_R,
        "kind": report.kind.value,
        "degree": list(report.degree),
        "uniform": report.uniform,
        "l": report.l,
        "left_invertible_G": report.left_invertible,
        "left_invertible_P": report.left_invertible,
        "consistency_flags": dict(report.consistency_flags),
    }


def report_to_text(report: RedundancyReport) -> str:
    kind_labels = {
        Kind.NOT_IR: "not input redundant",
        Kind.FIRST: "input redundant of the 1st kind",
        Kind.SECOND: "input redundant of the 2nd kind",
        Kind.THIRD: "input redundant of the 3rd kind",
    }
    lines = [
        f"verdict: {kind_labels[report.kind]}",
        f"degree (rho, nu): ({report.rho}, {report.nu})",
        f"uniform: {'yes' if report.uniform else 'no'}",
        f"reduced state dimension l: {report.l}",
        f"dim V = {report.dim_V}, dim R = {report.dim_R}, dim N = {report.N.dim}",
    ]
    if report.l == 0:
        lines.append("state space collapses to the origin; "
                     "only x0 = 0 admits trajectories")
    if report.left_invertible is not None:
        answer = "yes" if report.left_invertible else "no"
        lines.append(f"left invertible: transfer matrix {answer}, system matrix {answer}")
    if report.consistency_flags:
        failing = [k for k, v in report.consistency_flags.items() if not v]
        lines.append(
            "consistency checks: all passed" if not failing
            else f"consistency checks FAILED: {', '.join(failing)}"
        )
    return "\n".join(lines)
