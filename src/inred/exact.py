"""Exact rational matrices and subspaces.

Every geometric decision made by this package (rank, dimension, membership,
invariance) happens here over exact rational arithmetic, so results cannot
flip on floating-point round-off.  A matrix is immutable and row-major, and
holds one integer matrix over one positive common denominator.  Elimination,
products and stacking read and write those integers; a `Fraction` is built
only where entries leave the module (`entries`, `row`, `col`,
`to_strings`) and a float only in `to_float`.  Subspaces carry a canonical
reduced-column-echelon basis, which makes value equality coincide with
subspace equality.

`geometry` and `analysis` build on this module and the standard library
alone.  Floating point is confined to the trajectory layer (`trajectory` and
`synthesis`); `to_float` is the only bridge, and the only place this
module imports numpy.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

ScalarLike = Union[Fraction, int, Decimal, str]
VectorLike = Sequence[ScalarLike]

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


def _rref(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], int, list[int]]:
    """Reduced row echelon form of an integer matrix, computed over the integers.

    Returns (num, den, pivots) with the RREF equal to num / den: every pivot
    entry of num equals den > 0, and zero rows come last.  Gauss-Jordan with
    primitive rows: each row is divided by the gcd of its entries on entry
    and after every row operation, so it stays a nonzero integer multiple of
    the row that `Fraction` elimination with the same pivots would hold.  At
    the end each pivot row is scaled so that its pivot is the least common
    multiple of the pivots; this den shares no factor with all of num.
    """
    work = []
    for row in rows:
        g = gcd(*row)
        work.append([x // g for x in row] if g > 1 else row)
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
    den = lcm(*[work[i][c] for i, c in enumerate(pivots)])
    for i, c in enumerate(pivots):
        k = den // work[i][c]  # negative for a negative pivot
        if k != 1:
            work[i] = [k * x for x in work[i]]
    return work, den, pivots


_set = object.__setattr__


def _make(rows: int, cols: int, num: tuple[tuple[int, ...], ...], den: int) -> "RationalMatrix":
    """A matrix from a representation that is already normalized."""
    mat = object.__new__(RationalMatrix)
    mat._fill(rows, cols, num, den)
    return mat


def _normalized(rows: int, cols: int, num: tuple[tuple[int, ...], ...],
                den: int) -> "RationalMatrix":
    """The matrix num / den, with the common factor of den and num divided out."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(num))
        if g > 1:
            num = tuple(tuple(x // g for x in row) for row in num)
            den //= g
    return _make(rows, cols, num, den)


def _over_common_denominator(
        mats: Sequence["RationalMatrix"]) -> tuple[int, list[tuple[tuple[int, ...], ...]]]:
    """The least common denominator of `mats` and their numerators over it.

    Blocks stacked over that denominator need no normalization: a prime
    power dividing it exactly divides the denominator of some block, and
    that block has an entry the prime does not divide.
    """
    den = lcm(*[m._den for m in mats])
    return den, [m._num if m._den == den else
                 tuple(tuple((den // m._den) * x for x in row) for row in m._num)
                 for m in mats]


@dataclass(frozen=True, init=False, repr=False)
class RationalMatrix:
    """Immutable matrix with exact rational entries, stored row-major.

    The entries are _num / _den for one integer matrix _num (a tuple of
    rows) and one integer _den > 0 that shares no factor with all of _num.
    This representation is unique, so == and hash compare it directly.
    `entries`, `row`, `col`, `to_strings` and `to_float` are the only places
    a `Fraction` or a float is built.
    """

    rows: int
    cols: int
    _num: tuple[tuple[int, ...], ...]
    _den: int

    def __init__(self, rows: int, cols: int, entries: Sequence[VectorLike]) -> None:
        if rows < 0 or cols < 0:
            raise DimensionMismatch("matrix dimensions must be non-negative")
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionMismatch("entry count does not match declared shape")
        data = [[as_fraction(x) for x in row] for row in entries]
        den = lcm(*[x.denominator for row in data for x in row])
        self._fill(rows, cols,
                   tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in data),
                   den)

    def _fill(self, rows: int, cols: int, num: tuple[tuple[int, ...], ...], den: int) -> None:
        """Set the fields, past the frozen guard."""
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_num", num)
        _set(self, "_den", den)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}, {self.cols}, {self.to_strings()})"

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[VectorLike], cols: Optional[int] = None) -> "RationalMatrix":
        data = list(rows)
        return cls(len(data), cols if cols is not None else (len(data[0]) if data else 0), data)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return _make(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return _make(rows, cols, ((0,) * cols,) * rows, 1)

    @classmethod
    def column(cls, vec: VectorLike) -> "RationalMatrix":
        return cls.from_rows([[x] for x in vec], cols=1)

    # -- accessors ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(self.row(i) for i in range(self.rows))

    def row(self, i: int) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(x, den) for x in self._num[i])

    def col(self, j: int) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(row[j], den) for row in self._num)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "RationalMatrix":
        num = tuple(row[c0:c1] for row in self._num[r0:r1])
        return _normalized(len(num), len(range(self.cols)[c0:c1]), num, self._den)

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        right = list(zip(*other._num)) if other.rows else [()] * other.cols
        num = tuple(tuple(sum(map(mul, row, col)) for col in right) for row in self._num)
        return _normalized(self.rows, other.cols, num, self._den * other._den)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        num = tuple(tuple(a * x + b * y for x, y in zip(r1, r2))
                    for r1, r2 in zip(self._num, other._num))
        return _normalized(self.rows, self.cols, num, den)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return _make(self.rows, self.cols,
                     tuple(tuple(-x for x in row) for row in self._num), self._den)

    def scaled(self, c: ScalarLike) -> "RationalMatrix":
        f = as_fraction(c)
        num = tuple(tuple(f.numerator * x for x in row) for row in self._num)
        return _normalized(self.rows, self.cols, num, self._den * f.denominator)

    def transpose(self) -> "RationalMatrix":
        num = tuple(zip(*self._num)) if self.rows else ((),) * self.cols
        return _make(self.cols, self.rows, num, self._den)

    @staticmethod
    def hstack(*mats: "RationalMatrix") -> "RationalMatrix":
        if not mats:
            raise ValueError("need at least one matrix")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise DimensionMismatch("hstack needs equal row counts")
        den, nums = _over_common_denominator(mats)
        num = tuple(tuple(chain.from_iterable(parts)) for parts in zip(*nums)) if rows else ()
        return _make(rows, sum(m.cols for m in mats), num, den)

    @staticmethod
    def vstack(*mats: "RationalMatrix") -> "RationalMatrix":
        if not mats:
            raise ValueError("need at least one matrix")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise DimensionMismatch("vstack needs equal column counts")
        den, nums = _over_common_denominator(mats)
        return _make(sum(m.rows for m in mats), cols, tuple(chain.from_iterable(nums)), den)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        num, den, pivots = _rref([list(row) for row in self._num], self.cols)
        return _make(self.rows, self.cols, tuple(map(tuple, num)), den), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def solve_columns(self, rhs: "RationalMatrix") -> Optional["RationalMatrix"]:
        """Particular solution X of self @ X = rhs, free variables set to zero.

        Returns None when any right-hand-side column is inconsistent.
        """
        if rhs.rows != self.rows:
            raise DimensionMismatch(f"solve: {self.shape} against rhs {rhs.shape}")
        red, pivots = RationalMatrix.hstack(self, rhs).rref()
        if pivots and pivots[-1] >= self.cols:
            return None
        num = [(0,) * rhs.cols] * self.cols
        for r, c in enumerate(pivots):
            num[c] = red._num[r][self.cols:]
        return _normalized(self.cols, rhs.cols, tuple(num), red._den)

    def inverse(self) -> "RationalMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        sol = self.solve_columns(RationalMatrix.identity(self.rows))
        if sol is None or (self @ sol) != RationalMatrix.identity(self.rows):
            raise ValueError("matrix is singular")
        return sol

    # -- conversion --------------------------------------------------------

    def to_float(self) -> np.ndarray:
        """Each entry rounded as float(Fraction) rounds it: correctly, by one
        integer true division."""
        import numpy as np

        den = self._den
        try:
            values = [[x / den for x in row] for row in self._num]
        except OverflowError as exc:
            raise OverflowError("a matrix entry lies beyond the float range") from exc
        return np.array(values, dtype=float).reshape(self.rows, self.cols)

    def to_strings(self) -> list[list[str]]:
        """Row-major nested lists of "p/q" strings (q omitted when 1)."""
        return [[str(x) for x in row] for row in self.entries]

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^k with a canonical reduced-column-echelon basis.

    Instances must be built through :meth:`zero`, :meth:`full`,
    :meth:`from_vectors` or the module-level operations (such as
    :func:`image`), which canonicalize the basis.  Canonical form is unique
    per subspace, so dataclass equality is subspace equality.
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
    columns = []
    for j in range(mat.cols):
        if j not in pivot_set:
            col = [0] * mat.cols
            col[j] = red._den
            for r, c in enumerate(pivots):
                col[c] = -red._num[r][j]
            columns.append(col)
    num = tuple(zip(*columns)) if columns else ((),) * mat.cols
    return _normalized(mat.cols, len(columns), num, red._den)


def kernel(mat: RationalMatrix) -> Subspace:
    """Canonical basis of {v : mat @ v = 0}."""
    return image(_kernel_columns(mat))


def image(mat: RationalMatrix) -> Subspace:
    """Canonical basis of the column span of `mat`."""
    red, pivots = mat.transpose().rref()
    rank = len(pivots)
    return Subspace(mat.rows, _make(rank, mat.rows, red._num[:rank], red._den).transpose())


def preimage(mat: RationalMatrix, target: Subspace) -> Subspace:
    """Canonical basis of {u : mat @ u in target}.  Contains kernel(mat)."""
    if target.ambient_dim != mat.rows:
        raise DimensionMismatch("preimage target must live in the codomain")
    return kernel(preimage_equations(mat, target.basis))


def preimage_equations(mat: RationalMatrix, span: RationalMatrix) -> RationalMatrix:
    """Equations Z, in reduced row echelon form, with ker Z = {x : mat @ x in im span}.

    One elimination of [span | mat]: a row of its RREF that vanishes on the
    `span` block is a combination of equations that cancels every column of
    `span`, and the other rows can always be matched by a choice of the
    `span` coefficients.  The rows of Z are independent, so the set has
    dimension mat.cols - Z.rows, and since an RREF is unique, two results
    are equal exactly when their sets are.
    """
    if mat.rows != span.rows:
        raise DimensionMismatch("preimage_equations needs equal row counts")
    red, pivots = RationalMatrix.hstack(span, mat).rref()
    first = bisect_left(pivots, span.cols)
    num = tuple(row[span.cols:] for row in red._num[first:len(pivots)])
    return _normalized(len(num), mat.cols, num, red._den)


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
