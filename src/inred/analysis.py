"""Classification of input redundancy for linearly constrained systems.

Given a quadruple and linear input/state constraint sets, this module decides
whether the constrained system is input redundant, of which kind, and with
what degree, and cross-checks the geometric route against exact normal-rank
tests of the transfer and system matrices.  All decisions are exact.

Kinds: an input-redundant system is of the 1st kind when distinct inputs
producing one output force equal state trajectories, of the 2nd kind when
they force distinct ones, and of the 3rd kind when both situations occur.
With linear constraint sets, redundancy of any pair implies redundancy of
every admissible pair, so "uniform" simply mirrors the kind being set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

from .exact import DimensionMismatch, RationalMatrix, Subspace, kernel
from .geometry import (
    DegenerateStateSpace,
    PinnedBases,
    SystemQuadruple,
    output_nulling,
    reduce_system,
)


class ConsistencyError(RuntimeError):
    """Independent classification routes disagree; results cannot be trusted."""


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
    to the reduced unconstrained system, and l is its state dimension.
    """

    rho: int
    nu: int
    N: Subspace
    dim_V: int
    dim_R: int
    kind: Kind
    degree: tuple[int, int]
    uniform: bool
    l: int
    left_invertible_G: Optional[bool] = None
    left_invertible_P: Optional[bool] = None
    consistency_flags: dict[str, bool] = field(default_factory=dict)

    @property
    def is_ir(self) -> bool:
        return self.kind is not Kind.NOT_IR


def joint_kernel_dim(B: RationalMatrix, D: RationalMatrix) -> int:
    """dim(ker B n ker D): input directions with no instantaneous effect."""
    if B.cols != D.cols:
        raise DimensionMismatch("B and D must have the same number of columns")
    return kernel(RationalMatrix.vstack(B, D)).dim


def degree_and_kind(sys: SystemQuadruple) -> RedundancyReport:
    """Classify an unconstrained quadruple (geometric route, exact)."""
    rho = joint_kernel_dim(sys.B, sys.D)
    on = output_nulling(sys)
    nu = on.N.dim - rho
    kind = kind_of(rho, nu)
    return RedundancyReport(
        rho=rho, nu=nu, N=on.N, dim_V=on.V.dim, dim_R=on.R.dim,
        kind=kind, degree=(rho, nu), uniform=kind is not Kind.NOT_IR,
        l=sys.n,
    )


_SAMPLE_BOUND = 10 ** 6


def _sample_points(sys: SystemQuadruple, count: int, rng: random.Random) -> list[Fraction]:
    """Random rational frequencies, exactly rejected against the spectrum of A."""
    points: list[Fraction] = []
    n = sys.n
    eye = RationalMatrix.identity(n)
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 100 * count:
            raise ConsistencyError("could not sample non-singular frequencies")
        s = Fraction(rng.randint(1, _SAMPLE_BOUND), rng.randint(1, _SAMPLE_BOUND))
        if rng.random() < 0.5:
            s = -s
        if s in points:
            continue
        if (eye.scaled(s) - sys.A).rank() == n:
            points.append(s)
    return points


def left_invertibility(sys: SystemQuadruple, samples: int = 3,
                       seed: int = 20240) -> tuple[bool, bool]:
    """(transfer matrix left-invertible, system matrix left-invertible).

    Normal ranks are evaluated exactly at random rational frequencies away
    from the spectrum of A.  Rank deficiency of a rational-function matrix is
    a Zariski-closed condition, so the maximum over independent samples gives
    the normal rank except on a measure-zero set of draws; the two routes are
    compared and a disagreement raises instead of being resolved silently.
    """
    rng = random.Random(seed)
    n, m = sys.n, sys.m
    eye = RationalMatrix.identity(n)
    rank_p = 0
    rank_g = 0
    for s in _sample_points(sys, samples, rng):
        s_minus_a = eye.scaled(s) - sys.A
        p_mat = RationalMatrix.vstack(
            RationalMatrix.hstack(s_minus_a, -sys.B),
            RationalMatrix.hstack(sys.C, sys.D),
        )
        rank_p = max(rank_p, p_mat.rank())
        x = s_minus_a.solve_columns(sys.B)
        assert x is not None  # s was rejected against the spectrum
        rank_g = max(rank_g, (sys.C @ x + sys.D).rank())
    p_invertible = rank_p == n + m
    g_invertible = rank_g == m
    if p_invertible != g_invertible:
        raise ConsistencyError(
            "normal-rank sampling disagrees between system and transfer matrices"
        )
    return g_invertible, p_invertible


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
    rho = N.dim
    kind = Kind.FIRST if rho > 0 else Kind.NOT_IR
    invertible = rho == 0
    return RedundancyReport(
        rho=rho, nu=0, N=N, dim_V=0, dim_R=0,
        kind=kind, degree=(rho, 0), uniform=kind is not Kind.NOT_IR,
        l=0,
        left_invertible_G=invertible, left_invertible_P=invertible,
        consistency_flags={},
    )


def analyze(sys: SystemQuadruple, u_set: Subspace, x_set: Subspace,
            pinned: Optional[PinnedBases] = None) -> RedundancyReport:
    """Full classification of a linearly constrained system.

    Reduces the constrained dynamics to an equivalent unconstrained system,
    classifies it geometrically, cross-checks against exact normal-rank tests,
    and records named consistency checks (kind preservation from the
    unconstrained system, the nu/controllable-subspace equivalence, and
    transfer/system matrix agreement).
    """
    try:
        bundle = reduce_system(sys, u_set, x_set, pinned=pinned)
    except DegenerateStateSpace:
        return analyze_degenerate(sys, u_set)
    base = degree_and_kind(bundle.sys)
    g_inv, p_inv = left_invertibility(bundle.sys)
    unconstrained = degree_and_kind(sys)

    flags = {
        "nu_matches_dim_R": (base.nu > 0) == (base.dim_R > 0),
        "transfer_system_matrix_agree": g_inv == p_inv,
        "rank_test_matches_degree": (base.rho > 0 or base.nu > 0) == (not p_inv),
        "kind_preserved_from_unconstrained": (
            unconstrained.kind not in (Kind.FIRST, Kind.SECOND)
            or base.kind in (Kind.NOT_IR, unconstrained.kind)
        ),
    }
    if not flags["rank_test_matches_degree"]:
        raise ConsistencyError(
            "normal-rank route disagrees with the exact degree computation"
        )
    return RedundancyReport(
        rho=base.rho, nu=base.nu, N=base.N, dim_V=base.dim_V, dim_R=base.dim_R,
        kind=base.kind, degree=base.degree, uniform=base.uniform,
        l=bundle.l,
        left_invertible_G=g_inv, left_invertible_P=p_inv,
        consistency_flags=flags,
    )


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
        "left_invertible_G": report.left_invertible_G,
        "left_invertible_P": report.left_invertible_P,
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
    if report.left_invertible_P is not None:
        lines.append(
            "left invertible: transfer matrix "
            f"{'yes' if report.left_invertible_G else 'no'}, "
            f"system matrix {'yes' if report.left_invertible_P else 'no'}"
        )
    if report.consistency_flags:
        failing = [k for k, v in report.consistency_flags.items() if not v]
        lines.append(
            "consistency checks: all passed" if not failing
            else f"consistency checks FAILED: {', '.join(failing)}"
        )
    return "\n".join(lines)
