"""Exact rational matrices and subspaces.

Every geometric decision made by this package (rank, dimension, membership,
invariance) happens here over exact rational arithmetic, so results cannot
flip on floating-point round-off.  Entries are `fractions.Fraction`; matrices
are immutable and row-major.  Elimination and products clear denominators
and run over Python integers, with one division per output entry.  Subspaces
carry a canonical reduced-column-echelon basis, which makes value equality
coincide with subspace equality.

`geometry` and `analysis` build on this module and the standard library
alone.  Floating point is confined to the trajectory layer (`trajectory` and
`synthesis`); `to_float` is the only bridge, and the only place this
module imports numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

ScalarLike = Union[Fraction, int, Decimal, str]
VectorLike = Sequence[ScalarLike]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Shapes or ambient dimensions are incompatible."""


class InvarianceViolated(ValueError):
    """The operator does not map the subspace into itself."""


def as_fraction(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, Decimal, "p/q" string or decimal string to Fraction.

    A finite `Decimal` converts exactly, so `Fraction(Decimal(s)) ==
    Fraction(s)`; a NaN or infinite one raises ValueError.  Floats are
    rejected on purpose: their binary expansion is almost never the decimal
    the caller had in mind.  Rationalize first.  Booleans are rejected
    although `bool` subclasses `int`.
    """
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, Decimal):
        if not value.is_finite():
            raise ValueError(f"non-finite decimal {value}")
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"expected int, Fraction, Decimal or rational string, got {type(value).__name__}"
    )


def _integer_vector(vec: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers `ints` and the least d > 0 with vec == [k / d for k in ints]."""
    d = lcm(*[x.denominator for x in vec])
    if d == 1:
        return [x.numerator for x in vec], 1
    return [x.numerator * (d // x.denominator) for x in vec], d


def _rref(rows: Sequence[Sequence[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns).

    Gauss-Jordan over integers: each row is scaled to integers, every row
    operation is followed by division by the gcd of the new row's entries,
    and each pivot row is divided by its pivot once at the end.  Each integer
    row stays a nonzero multiple of the row that `Fraction` elimination with
    the same pivots would hold, so pivots and result are the same.
    """
    work = [_integer_vector(row)[0] for row in rows]
    nrows = len(work)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        prow = work[r]
        pv = prow[c]
        for i in range(nrows):
            f = work[i][c]
            if i != r and f:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                new = [a * x - b * y for x, y in zip(work[i], prow)]
                h = gcd(*new)
                work[i] = [x // h for x in new] if h > 1 else new
        pivots.append(c)
        r += 1
    out = [[Fraction(x, work[i][c]) if x else _ZERO for x in work[i]]
           for i, c in enumerate(pivots)]
    out.extend([_ZERO] * ncols for _ in range(nrows - r))
    return out, pivots


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
            right = [([], 1)] * other.cols
        else:
            right = [_integer_vector(col) for col in zip(*other.entries)]
        data = []
        for row in self.entries:
            a, da = _integer_vector(row)
            data.append(tuple(Fraction(sum(map(mul, a, b)), da * db) for b, db in right))
        return RationalMatrix(self.rows, other.cols, tuple(data))

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
        rows, pivots = _rref(self.entries, self.cols)
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
        data = [(_ZERO,) * rhs.cols] * self.cols
        for r, c in enumerate(pivots):
            data[c] = red.entries[r][self.cols:]
        return RationalMatrix(self.cols, rhs.cols, tuple(data))

    def inverse(self) -> "RationalMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        sol = self.solve_columns(RationalMatrix.identity(self.rows))
        if sol is None or (self @ sol) != RationalMatrix.identity(self.rows):
            raise ValueError("matrix is singular")
        return sol

    # -- conversion --------------------------------------------------------

    def to_float(self) -> np.ndarray:
        import numpy as np

        out = np.empty((self.rows, self.cols), dtype=float)
        try:
            for i, row in enumerate(self.entries):
                for j, x in enumerate(row):
                    out[i, j] = float(x)
        except OverflowError as exc:
            raise OverflowError("a matrix entry lies beyond the float range") from exc
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
    return RationalMatrix(mat.cols, len(free), tuple(map(tuple, data)))


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
    # mat @ u = T @ w and mat @ u = -T @ w have the same solutions u
    stacked = RationalMatrix.hstack(mat, target.basis)
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
