"""Exact rational matrices and subspaces.

Every geometric decision made by this package (rank, dimension, membership,
invariance) happens here over exact rational arithmetic, so results cannot
flip on floating-point round-off.  Scalars are `fractions.Fraction`; matrices
are immutable and row-major.  Subspaces carry a canonical reduced-column-
echelon basis, which makes value equality coincide with subspace equality.

Floating point is confined to the trajectory layer; `to_float` is the only
bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

ScalarLike = Union[Fraction, int, str]
VectorLike = Sequence[ScalarLike]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Shapes or ambient dimensions are incompatible."""


class InvarianceViolated(ValueError):
    """The operator does not map the subspace into itself."""


def as_fraction(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, "p/q" string or decimal string to Fraction.

    Floats are rejected on purpose: their binary expansion is almost never
    the decimal the caller had in mind.  Rationalize first.
    """
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"expected int, Fraction or rational string, got {type(value).__name__}"
    )


def _rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != 1:
            inv = 1 / pv
            rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable matrix with exact rational entries, stored row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise DimensionMismatch("entry count does not match declared shape")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[VectorLike], cols: Optional[int] = None) -> "RationalMatrix":
        data = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        ncols = cols if cols is not None else (len(data[0]) if data else 0)
        return cls(len(data), ncols, data)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, tuple(
            tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
        ))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, tuple(tuple(_ZERO for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def column(cls, vec: VectorLike) -> "RationalMatrix":
        return cls.from_rows([[x] for x in vec], cols=1)

    # -- accessors ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.entries)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "RationalMatrix":
        data = tuple(row[c0:c1] for row in self.entries[r0:r1])
        return RationalMatrix(r1 - r0, c1 - c0, data)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        if other.rows == 0:
            ocols = [() for _ in range(other.cols)]
        else:
            ocols = list(zip(*other.entries))
        data = tuple(
            tuple(sum((a * b for a, b in zip(row, col)), _ZERO) for col in ocols)
            for row in self.entries
        )
        return RationalMatrix(self.rows, other.cols, data)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        data = tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)
        )
        return RationalMatrix(self.rows, self.cols, data)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return self.scaled(-1)

    def scaled(self, c: ScalarLike) -> "RationalMatrix":
        f = as_fraction(c)
        data = tuple(tuple(f * x for x in row) for row in self.entries)
        return RationalMatrix(self.rows, self.cols, data)

    def transpose(self) -> "RationalMatrix":
        data = tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols))
        return RationalMatrix(self.cols, self.rows, data)

    @staticmethod
    def hstack(*mats: "RationalMatrix") -> "RationalMatrix":
        if not mats:
            raise ValueError("need at least one matrix")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise DimensionMismatch("hstack needs equal row counts")
        data = tuple(
            tuple(x for m in mats for x in m.entries[i]) for i in range(rows)
        )
        return RationalMatrix(rows, sum(m.cols for m in mats), data)

    @staticmethod
    def vstack(*mats: "RationalMatrix") -> "RationalMatrix":
        if not mats:
            raise ValueError("need at least one matrix")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise DimensionMismatch("vstack needs equal column counts")
        data = tuple(row for m in mats for row in m.entries)
        return RationalMatrix(sum(m.rows for m in mats), cols, data)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        rows = [list(r) for r in self.entries]
        rows, pivots = _rref(rows, self.cols)
        data = tuple(tuple(r) for r in rows)
        return RationalMatrix(self.rows, self.cols, data), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def solve_columns(self, rhs: "RationalMatrix") -> Optional["RationalMatrix"]:
        """Particular solution X of self @ X = rhs, free variables set to zero.

        Returns None when any right-hand-side column is inconsistent.
        """
        if rhs.rows != self.rows:
            raise DimensionMismatch(f"solve: {self.shape} against rhs {rhs.shape}")
        aug = RationalMatrix.hstack(self, rhs)
        red, pivots = aug.rref()
        if any(p >= self.cols for p in pivots):
            return None
        data = [[_ZERO] * rhs.cols for _ in range(self.cols)]
        for r, c in enumerate(pivots):
            data[c] = list(red.entries[r][self.cols:])
        return RationalMatrix.from_rows(data, cols=rhs.cols)

    def inverse(self) -> "RationalMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        sol = self.solve_columns(RationalMatrix.identity(self.rows))
        if sol is None or (self @ sol) != RationalMatrix.identity(self.rows):
            raise ValueError("matrix is singular")
        return sol

    # -- conversion --------------------------------------------------------

    def to_float(self) -> np.ndarray:
        out = np.empty((self.rows, self.cols), dtype=float)
        for i, row in enumerate(self.entries):
            for j, x in enumerate(row):
                out[i, j] = float(x)
        return out

    def to_strings(self) -> list[list[str]]:
        """Row-major nested lists of "p/q" strings (q omitted when 1)."""
        return [[str(x) for x in row] for row in self.entries]

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^k with a canonical reduced-column-echelon basis.

    Instances must be built through :meth:`from_columns`, :meth:`zero` or
    :meth:`full` (or the module-level operations), which canonicalize the
    basis.  Canonical form is unique per subspace, so dataclass equality is
    subspace equality.
    """

    ambient_dim: int
    basis: RationalMatrix

    def __post_init__(self) -> None:
        if self.basis.rows != self.ambient_dim:
            raise DimensionMismatch("basis rows must equal ambient dimension")
        if self.basis.cols > self.ambient_dim:
            raise DimensionMismatch("more basis columns than ambient dimension")

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RationalMatrix.zeros(ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RationalMatrix.identity(ambient_dim))

    @classmethod
    def from_columns(cls, mat: RationalMatrix) -> "Subspace":
        """Span of the columns of `mat`, canonicalized."""
        return image(mat)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[VectorLike]) -> "Subspace":
        cols = [tuple(as_fraction(x) for x in v) for v in vectors]
        if any(len(c) != ambient_dim for c in cols):
            raise DimensionMismatch("spanning vector of wrong length")
        if not cols:
            return cls.zero(ambient_dim)
        mat = RationalMatrix.from_rows(list(zip(*cols)), cols=len(cols))
        return image(mat)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, vec: VectorLike) -> bool:
        v = [as_fraction(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector/ambient dimension mismatch")
        if all(x == 0 for x in v):
            return True
        return self.basis.solve_columns(RationalMatrix.column(v)) is not None

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspace sum needs equal ambient dimensions")
        return image(RationalMatrix.hstack(self.basis, other.basis))

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection, via the kernel of the stacked bases."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("intersection needs equal ambient dimensions")
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient_dim)
        stacked = RationalMatrix.hstack(self.basis, other.basis)
        null = _kernel_columns(stacked)
        head = null.block(0, self.dim, 0, null.cols)
        return image(self.basis @ head)

    def __le__(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("containment needs equal ambient dimensions")
        if self.is_zero():
            return True
        return other.basis.solve_columns(self.basis) is not None

    def to_float(self) -> np.ndarray:
        return self.basis.to_float()


def _kernel_columns(mat: RationalMatrix) -> RationalMatrix:
    """Raw (non-canonical) kernel basis of `mat`, one column per free variable."""
    red, pivots = mat.rref()
    pivot_set = set(pivots)
    free = [j for j in range(mat.cols) if j not in pivot_set]
    data = [[_ZERO] * len(free) for _ in range(mat.cols)]
    for k, j in enumerate(free):
        data[j][k] = _ONE
        for r, c in enumerate(pivots):
            data[c][k] = -red.entries[r][j]
    return RationalMatrix.from_rows(data, cols=len(free))


def kernel(mat: RationalMatrix) -> Subspace:
    """Canonical basis of {v : mat @ v = 0}."""
    return image(_kernel_columns(mat))


def image(mat: RationalMatrix) -> Subspace:
    """Canonical basis of the column span of `mat`."""
    red, pivots = mat.transpose().rref()
    data = red.entries[:len(pivots)]
    basis = RationalMatrix(len(pivots), mat.rows, data).transpose()
    return Subspace(mat.rows, basis)


def preimage(mat: RationalMatrix, target: Subspace) -> Subspace:
    """Canonical basis of {u : mat @ u in target}.  Contains kernel(mat)."""
    if target.ambient_dim != mat.rows:
        raise DimensionMismatch("preimage target must live in the codomain")
    if target.is_zero():
        return kernel(mat)
    stacked = RationalMatrix.hstack(mat, -target.basis)
    null = _kernel_columns(stacked)
    head = null.block(0, mat.cols, 0, null.cols)
    return image(head)


def restriction_matrix(mat: RationalMatrix, space: Subspace) -> RationalMatrix:
    """Matrix of `mat` restricted to an invariant subspace, in its canonical basis.

    Returns M' with mat @ T = T @ M' where T is the canonical basis; raises
    InvarianceViolated when mat does not map the subspace into itself.
    """
    if mat.rows != mat.cols:
        raise DimensionMismatch("restriction needs a square matrix")
    if mat.cols != space.ambient_dim:
        raise DimensionMismatch("matrix/ambient dimension mismatch")
    sol = space.basis.solve_columns(mat @ space.basis)
    if sol is None:
        raise InvarianceViolated("matrix does not leave the subspace invariant")
    return sol


def complete_basis(current: RationalMatrix, candidates: Iterable[RationalMatrix]) -> RationalMatrix:
    """Columns that greedily extend `current`'s to a larger independent set.

    Scans the candidate matrices column by column and keeps each column that
    raises the rank.  Returns only the appended columns.  One elimination
    suffices: a column of [current, candidates...] is a pivot column of the
    RREF exactly when it lies outside the span of the columns before it.
    """
    stacked = RationalMatrix.hstack(current, *candidates)  # checks the column lengths
    keep = [c for c in stacked.rref()[1] if c >= current.cols]
    data = tuple(tuple(row[c] for c in keep) for row in stacked.entries)
    return RationalMatrix(current.rows, len(keep), data)
