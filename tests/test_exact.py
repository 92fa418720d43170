"""Tests for the exact rational matrix and subspace layer."""

from __future__ import annotations

import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inred.exact import (
    DimensionMismatch,
    InvarianceViolated,
    RationalMatrix,
    Subspace,
    as_fraction,
    image,
    kernel,
    preimage,
    restriction_matrix,
)

from conftest import random_invertible, random_matrix, random_subspace


def mat(rows):
    return RationalMatrix.from_rows(rows)


def span(ambient, *vectors):
    return Subspace.from_vectors(ambient, vectors)


# ---------------------------------------------------------------------------
# oracle: independent rank via plain Gaussian elimination on Fraction lists


def rank_oracle(rows):
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c] != 0:
                f = work[i][c] / work[rank][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# scalars and serialization


def test_as_fraction_accepts_strings_and_ints():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("0.25") == Fraction(1, 4)
    assert as_fraction(-7) == Fraction(-7)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.1)


@pytest.mark.parametrize("value", [True, False])
def test_as_fraction_rejects_booleans(value):
    with pytest.raises(TypeError):
        as_fraction(value)


@pytest.mark.parametrize("literal", ["0.1", "-0.0", "1e-30", "123456789.987654321e40", "7"])
def test_as_fraction_of_a_decimal_is_exact(literal):
    assert as_fraction(Decimal(literal)) == Fraction(literal)


def test_as_fraction_has_no_exponent_limit():
    # the scenario parser bounds literal exponents; library callers get exact values
    assert as_fraction("1e20000") == as_fraction(Decimal("1e20000")) == 10 ** 20000


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "sNaN"])
def test_as_fraction_rejects_non_finite_decimals(literal):
    with pytest.raises(ValueError):
        as_fraction(Decimal(literal))


def test_string_round_trip():
    M = mat([["1/3", "-2"], ["0", "5/7"]])
    strings = M.to_strings()
    assert strings == [["1/3", "-2"], ["0", "5/7"]]
    assert RationalMatrix.from_rows(strings) == M


# ---------------------------------------------------------------------------
# kernel


def test_kernel_one_equation():
    assert kernel(mat([[1, 1]])) == span(2, [1, -1])


def test_kernel_four_input_matrix(four_input_system):
    null = kernel(four_input_system.B)
    assert null.dim == 1
    assert null == span(4, [0, 0, 1, -1])


def test_kernel_identity_is_zero():
    assert kernel(RationalMatrix.identity(3)).is_zero()


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(30):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        null = kernel(M)
        assert (M @ null.basis).is_zero()
        assert null.dim == M.cols - rank_oracle(M.entries)


# ---------------------------------------------------------------------------
# image


def test_image_zero_matrix():
    assert image(RationalMatrix.zeros(3, 2)).is_zero()


def test_image_insertion_is_full(four_input_system, four_input_pinned):
    b_u = four_input_system.B @ four_input_pinned.R
    assert b_u == RationalMatrix.identity(3)
    assert image(b_u).is_full()


def test_image_rank_matches_oracle():
    rng = random.Random(5)
    for _ in range(30):
        M = random_matrix(rng, 4, 2)
        assert image(M).dim == rank_oracle(M.entries)


small_entries = st.integers(min_value=-3, max_value=3)


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=4, max_size=4),
    mix=st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=3, max_size=3),
)
def test_canonical_form_invariant_under_column_mix(data, mix):
    M = mat(data)
    G = mat(mix)
    if G.rank() < 3:
        return
    assert image(M) == image(M @ G)


# ---------------------------------------------------------------------------
# sum and intersection


def test_sum_with_zero_is_identity():
    V = span(3, [1, 2, 3], [0, 1, 0])
    assert V + Subspace.zero(3) == V


def test_sum_of_axes():
    assert span(3, [1, 0, 0]) + span(3, [0, 1, 0]) == span(3, [1, 0, 0], [0, 1, 0])


def test_intersection_idempotent():
    V = span(4, [1, 0, 1, 0], [0, 2, 0, 1])
    assert (V & V) == V


def test_buck_static_kernel_trivial(buck):
    sys, _, _ = buck
    assert (kernel(sys.B) & kernel(sys.D)).is_zero()


def test_intersection_membership_sampling():
    rng = random.Random(21)
    for _ in range(25):
        V = random_subspace(rng, 5, rng.randint(1, 4))
        W = random_subspace(rng, 5, rng.randint(1, 4))
        I = V & W
        for j in range(I.dim):
            v = I.basis.col(j)
            assert V.contains(v) and W.contains(v)
        # vectors of V outside W must be outside the intersection
        for j in range(V.dim):
            v = V.basis.col(j)
            if not W.contains(v):
                assert not I.contains(v)


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(st.lists(small_entries, min_size=2, max_size=2), min_size=6, max_size=6),
    b=st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=6, max_size=6),
)
def test_grassmann_dimension_identity(a, b):
    V = image(mat(a))
    W = image(mat(b))
    assert (V + W).dim + (V & W).dim == V.dim + W.dim


# ---------------------------------------------------------------------------
# preimage


def test_preimage_of_full_space_is_full_domain():
    M = mat([[1, 2, 3], [0, 1, 0]])
    assert preimage(M, Subspace.full(2)).is_full()


def test_preimage_four_input_example(four_input_system):
    # stacked elimination oracle: u maps into span{e1,e2} iff row 3 of Bu is 0
    target = span(3, [1, 0, 0], [0, 1, 0])
    pre = preimage(four_input_system.B, target)
    assert pre.dim == 3
    assert pre == kernel(mat([[0, 0, 1, 1]]))


def test_preimage_under_identity_is_identity():
    V = span(3, [1, 1, 0])
    assert preimage(RationalMatrix.identity(3), V) == V


def test_preimage_of_zero_is_kernel():
    rng = random.Random(3)
    for _ in range(20):
        M = random_matrix(rng, 3, 4)
        assert preimage(M, Subspace.zero(3)) == kernel(M)


def test_preimage_contains_kernel():
    rng = random.Random(9)
    for _ in range(20):
        M = random_matrix(rng, 4, 3)
        V = random_subspace(rng, 4, 2)
        assert kernel(M) <= preimage(M, V)


# ---------------------------------------------------------------------------
# contains


def test_contains_zero_vector_always():
    assert Subspace.zero(3).contains([0, 0, 0])
    assert span(3, [1, -1, 0]).contains([0, 0, 0])


def test_contains_scaling():
    V = span(3, [1, -1, 0])
    assert V.contains([2, -2, 0])
    assert not V.contains([1, 0, 0])


def test_contains_dimension_check():
    with pytest.raises(DimensionMismatch):
        span(3, [1, 0, 0]).contains([1, 0])


# ---------------------------------------------------------------------------
# restriction


def test_restriction_of_identity():
    V = span(3, [1, 0, 1], [0, 1, 0])
    assert restriction_matrix(RationalMatrix.identity(3), V) == RationalMatrix.identity(2)


def test_restriction_four_input_state_constraint(four_input_system, four_input_constraints):
    _, x_set = four_input_constraints
    restricted = restriction_matrix(four_input_system.A, x_set)
    assert restricted == RationalMatrix.identity(2).scaled(-1)


def test_restriction_rejects_non_invariant():
    rotation = mat([[0, -1], [1, 0]])
    axis = span(2, [1, 0])
    with pytest.raises(InvarianceViolated):
        restriction_matrix(rotation, axis)


def test_restriction_commutes():
    # the closure of any subspace under M is M-invariant, so restriction
    # must succeed and satisfy M T = T M' exactly
    rng = random.Random(17)
    for _ in range(25):
        M = random_matrix(rng, 4, 4)
        V = random_subspace(rng, 4, rng.randint(1, 2))
        for _ in range(4):
            V = V + image(M @ V.basis)
        Mt = restriction_matrix(M, V)
        assert M @ V.basis == V.basis @ Mt


# ---------------------------------------------------------------------------
# solving, inversion, completion


def test_solve_columns_consistency():
    A = mat([[1, 2], [2, 4]])
    assert A.solve_columns(mat([[1], [2]])) is not None
    assert A.solve_columns(mat([[1], [3]])) is None


def test_inverse_round_trip():
    rng = random.Random(13)
    for _ in range(10):
        M = random_invertible(rng, 3)
        assert M @ M.inverse() == RationalMatrix.identity(3)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        mat([[1, 2], [2, 4]]).inverse()


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        mat([[1, 2]]) @ mat([[1, 2]])


# ---------------------------------------------------------------------------
# integer elimination and products against the Fraction reference


def rref_fraction(rows, ncols):
    """Reference: Gauss-Jordan elimination over Fraction, as `rref` did before
    it moved to integers.  Works in place; returns (rows, pivot columns)."""
    pivots = []
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


def matmul_fraction(a, b):
    """Reference: each product entry as a sum of Fraction products."""
    cols = list(zip(*b.entries)) if b.rows else [()] * b.cols
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols)
        for row in a.entries
    )


def all_fractions(m):
    return all(type(x) is Fraction for row in m.entries for x in row)


BIG = 2**80
rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),  # past 64 bits
)


@st.composite
def factor_pair(draw):
    """(m, k, n, left, right): rows of an m x k and a k x n rational matrix.

    Their product has rank at most k, so small k gives low-rank products.
    """
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    k = draw(st.integers(0, 4))
    left = draw(st.lists(st.lists(rationals, min_size=k, max_size=k), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=k, max_size=k))
    if m and draw(st.booleans()):
        left[draw(st.integers(0, m - 1))] = [Fraction(0)] * k  # an all-zero row
    return m, k, n, left, right


def factor_matrices(problem):
    m, k, n, left, right = problem
    L = RationalMatrix.from_rows(left, cols=k)
    R = RationalMatrix.from_rows(right, cols=n)
    return L, R, RationalMatrix(m, n, matmul_fraction(L, R))


NEGATIVE_PIVOTS = (2, 2, 2, [[-2, 1], [4, -3]], [[-1, 0], [0, "-5/3"]])
BIG_ENTRIES = (2, 2, 3, [[Fraction(2**70 + 1, 3**45), -2**65], [0, 0]],
               [[Fraction(-(2**90), 7), 1, "1/3"], [Fraction(5**40, 2**66), 0, -1]])


@settings(max_examples=300, deadline=None)
@given(problem=factor_pair())
@example(problem=(0, 2, 3, [], [[1, 2, 3], [4, 5, 6]]))  # 0 rows
@example(problem=(2, 3, 0, [[1, 2, 3], [0, 0, 0]], [[], [], []]))  # 0 columns
@example(problem=(2, 0, 3, [[], []], []))  # inner dimension 0
@example(problem=NEGATIVE_PIVOTS)
@example(problem=BIG_ENTRIES)
def test_rref_and_matmul_match_fraction_reference(problem):
    L, R, product = factor_matrices(problem)
    ours = L @ R
    assert ours.entries == product.entries and all_fractions(ours)
    for M in (L, R, product):
        red, pivots = M.rref()
        expect_rows, expect_pivots = rref_fraction([list(r) for r in M.entries], M.cols)
        assert [list(r) for r in red.entries] == expect_rows
        assert list(pivots) == expect_pivots
        assert all_fractions(red)


@settings(max_examples=150, deadline=None)
@given(problem=factor_pair())
@example(problem=(0, 2, 3, [], [[1, 2, 3], [4, 5, 6]]))
@example(problem=(2, 0, 3, [[], []], []))
@example(problem=NEGATIVE_PIVOTS)
@example(problem=BIG_ENTRIES)
def test_rref_and_rank_match_sympy(problem):
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    for M in factor_matrices(problem):
        dm = DomainMatrix(
            [[QQ(x.numerator, x.denominator) for x in row] for row in M.entries], M.shape, QQ
        )
        red, pivots = dm.rref()
        expect = [[Fraction(int(q.numerator), int(q.denominator)) for q in row]
                  for row in red.to_list()]
        ours, our_pivots = M.rref()
        assert [list(r) for r in ours.entries] == expect
        assert our_pivots == tuple(pivots)
        assert M.rank() == dm.rank()


# ---------------------------------------------------------------------------
# the rest of the exact API against plain-Fraction references
#
# Each reference below works on lists of `Fraction` rows with `rref_fraction`
# alone, so it pins the results of the integer-backed implementation to what
# `Fraction` elimination gives.


EDGE_PROBLEMS = (
    (0, 2, 3, [], [[1, 2, 3], [4, 5, 6]]),  # 0 rows
    (2, 3, 0, [[1, 2, 3], [0, 0, 0]], [[], [], []]),  # 0 columns
    (2, 0, 3, [[], []], []),  # inner dimension 0
    NEGATIVE_PIVOTS,
    BIG_ENTRIES,
)


def with_edge_examples(test):
    for problem in EDGE_PROBLEMS:
        test = example(problem=problem)(test)
    return test


def rows_of(m):
    return [list(r) for r in m.entries]


def ref_transpose(rows, ncols):
    return [[r[j] for r in rows] for j in range(ncols)]


def ref_matmul(a, b, bcols):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(bcols)]
            for row in a]


def ref_hstack(a, b):
    return [list(x) + list(y) for x, y in zip(a, b)]


def ref_image(rows, ncols):
    """Canonical basis (rows of the ambient space) of the column span."""
    red, pivots = rref_fraction(ref_transpose(rows, ncols), len(rows))
    return ref_transpose(red[:len(pivots)], len(rows))


def ref_kernel_columns(rows, ncols):
    red, pivots = rref_fraction([list(r) for r in rows], ncols)
    free = [j for j in range(ncols) if j not in pivots]
    out = [[Fraction(0)] * len(free) for _ in range(ncols)]
    for k, j in enumerate(free):
        out[j][k] = Fraction(1)
        for r, c in enumerate(pivots):
            out[c][k] = -red[r][j]
    return out, len(free)


def ref_kernel(rows, ncols):
    return ref_image(*ref_kernel_columns(rows, ncols))


def ref_solve(a, acols, rhs, rcols):
    """Particular solution with free variables zero, or None if inconsistent."""
    red, pivots = rref_fraction(ref_hstack(a, rhs), acols + rcols)
    if any(p >= acols for p in pivots):
        return None
    out = [[Fraction(0)] * rcols for _ in range(acols)]
    for r, c in enumerate(pivots):
        out[c] = red[r][acols:]
    return out


def ref_preimage(a, acols, target, tcols):
    if tcols == 0:
        return ref_kernel(a, acols)
    null, k = ref_kernel_columns(ref_hstack(a, target), acols + tcols)
    return ref_image(null[:acols], k)


def ref_intersection(v, vdim, w, wdim):
    if vdim == 0 or wdim == 0:
        return [[] for _ in v]
    null, k = ref_kernel_columns(ref_hstack(v, w), vdim + wdim)
    return ref_image(ref_matmul(v, null[:vdim], k), k)


def dims(basis):
    return len(basis[0]) if basis else 0


@settings(max_examples=150, deadline=None)
@given(problem=factor_pair())
@with_edge_examples
def test_solve_and_inverse_match_fraction_reference(problem):
    L, R, P = factor_matrices(problem)
    for A, rhs in ((L, P), (P, L)):  # consistent by construction, then maybe not
        ours = A.solve_columns(rhs)
        expect = ref_solve(rows_of(A), A.cols, rows_of(rhs), rhs.cols)
        assert (None if ours is None else rows_of(ours)) == expect
        assert ours is None or (ours.shape == (A.cols, rhs.cols) and all_fractions(ours))
    for M in (L, R, P):
        if M.rows != M.cols:
            with pytest.raises(DimensionMismatch):
                M.inverse()
            continue
        identity = [[Fraction(int(i == j)) for j in range(M.cols)] for i in range(M.rows)]
        expect = ref_solve(rows_of(M), M.cols, identity, M.cols)
        if expect is None:
            with pytest.raises(ValueError):
                M.inverse()
        else:
            assert rows_of(M.inverse()) == expect


@settings(max_examples=150, deadline=None)
@given(problem=factor_pair())
@with_edge_examples
def test_subspace_operations_match_fraction_reference(problem):
    L, R, P = factor_matrices(problem)
    for M in (L, R, P):
        assert rows_of(kernel(M).basis) == ref_kernel(rows_of(M), M.cols)
        assert rows_of(image(M).basis) == ref_image(rows_of(M), M.cols)
    V, W = image(L), image(P)  # both in R^m
    v, w = rows_of(V.basis), rows_of(W.basis)
    assert rows_of(preimage(L, W).basis) == ref_preimage(rows_of(L), L.cols, w, W.dim)
    assert rows_of(preimage(P, V).basis) == ref_preimage(rows_of(P), P.cols, v, V.dim)
    assert rows_of((V + W).basis) == ref_image(ref_hstack(v, w), V.dim + W.dim)
    assert rows_of((V & W).basis) == ref_intersection(v, V.dim, w, W.dim)
    assert (V <= W) == (V.dim == 0 or ref_solve(w, W.dim, v, V.dim) is not None)
    assert (W <= V) == (W.dim == 0 or ref_solve(v, V.dim, w, W.dim) is not None)
    for space, basis, other in ((W, w, L), (V, v, P)):
        for j in range(other.cols):
            col = [[x] for x in other.col(j)]
            inside = (all(x[0] == 0 for x in col)
                      or ref_solve(basis, dims(basis), col, 1) is not None)
            assert space.contains(other.col(j)) == inside


@settings(max_examples=150, deadline=None)
@given(problem=factor_pair())
@with_edge_examples
def test_restriction_matches_fraction_reference(problem):
    L, _, P = factor_matrices(problem)
    if L.rows != L.cols:
        return
    closure = image(P)
    for _ in range(L.rows):
        closure = closure + image(L @ closure.basis)
    for space in (image(P), closure):
        basis = rows_of(space.basis)
        expect = ref_solve(basis, space.dim, ref_matmul(rows_of(L), basis, space.dim),
                           space.dim)
        if expect is None:
            assert space is not closure
            with pytest.raises(InvarianceViolated):
                restriction_matrix(L, space)
        else:
            assert rows_of(restriction_matrix(L, space)) == expect


@settings(max_examples=150, deadline=None)
@given(problem=factor_pair())
@with_edge_examples
def test_strings_equality_and_hash_match_fraction_reference(problem):
    m, k, n, left, right = problem
    L, R, P = factor_matrices(problem)
    for M, rows in ((L, left), (R, right)):
        expect = [[Fraction(x) for x in row] for row in rows]
        assert rows_of(M) == expect and all_fractions(M)
        assert M.to_strings() == [[str(x) for x in row] for row in expect]
    for M in (L, R, P):
        twins = (
            RationalMatrix.from_rows(M.to_strings(), cols=M.cols),
            M.scaled(3).scaled(Fraction(1, 3)),
            M.scaled(0) + M,
            M.transpose().transpose(),
            -(-M),
        )
        for twin in twins:
            assert twin == M and hash(twin) == hash(M) and rows_of(twin) == rows_of(M)
        assert (M == M.transpose()) == (rows_of(M) == rows_of(M.transpose()))
        assert M.scaled(0) == RationalMatrix.zeros(*M.shape)
        if M.rows and M.cols:
            bumped = [list(r) for r in M.entries]
            bumped[-1][-1] += Fraction(1, 7)
            assert RationalMatrix.from_rows(bumped, cols=M.cols) != M
    assert L @ R == P and hash(L @ R) == hash(P)
    V = image(P)
    assert V == Subspace.from_vectors(m, [P.col(j) for j in range(P.cols)])
    assert hash(V) == hash(Subspace.from_vectors(m, [P.col(j) for j in range(P.cols)]))


def test_matrices_are_immutable_and_survive_copies():
    M = mat([["1/3", -2], [0, 2**70]])
    for attr in ("rows", "entries"):
        with pytest.raises(AttributeError):
            setattr(M, attr, 1)
    for twin in (pickle.loads(pickle.dumps(M)), copy.deepcopy(M), copy.copy(M)):
        assert twin == M and hash(twin) == hash(M) and twin.entries == M.entries


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0), (2, 2)])
def test_zero_matrices_are_equal_however_built(rows, cols):
    zero = RationalMatrix.zeros(rows, cols)
    built = RationalMatrix.from_rows([[0] * cols for _ in range(rows)], cols=cols)
    for twin in (built, zero.scaled("5/3"), zero + zero, zero.transpose().transpose()):
        assert twin == zero and hash(twin) == hash(zero)
    assert zero.is_zero() and zero.to_strings() == [["0"] * cols for _ in range(rows)]
    if rows != cols:
        assert zero != zero.transpose()


# ---------------------------------------------------------------------------
# float conversion: the bits of float(Fraction), entry by entry

MAX_HALFWAY = 2**1024 - 2**970  # rounds to even, which is 2^1024: overflow
FLOAT_EDGES = [
    Fraction(MAX_HALFWAY - 1),  # the largest float
    -Fraction(MAX_HALFWAY - 1),
    Fraction(MAX_HALFWAY - 1, 3) * 3,
    Fraction(2**1100 - 1, 2**76 * 3),  # near 2^1024 / 3 with a large denominator
    Fraction(1, 2**1074),  # the smallest subnormal
    Fraction(1, 2**1075),  # halfway to zero: rounds to 0
    Fraction(3, 2**1076),  # rounds up to a subnormal
    Fraction(-7, 3 * 2**1070),
    Fraction(2**80 - 1, 2**80),
    Fraction(1, 3 * 2**80),
    Fraction(-(2**90) + 1, 2**80 - 1),
    Fraction(0),
    Fraction(1, 3),
]


def float_bits(values):
    return [x.hex() for x in values]


def test_to_float_rounds_each_entry_like_float_of_fraction():
    # one matrix holds every edge, so a shared denominator spans 2^-1076 to 2^1024
    M = RationalMatrix.from_rows([FLOAT_EDGES[:7], FLOAT_EDGES[6:]])
    got = M.to_float()
    assert got.dtype == float and got.shape == M.shape
    for i, row in enumerate(M.entries):
        assert float_bits(got[i]) == float_bits(float(x) for x in row)
    assert float_bits(M.transpose().to_float().ravel()) == float_bits(got.T.ravel())


@settings(max_examples=100, deadline=None)
@given(problem=factor_pair())
@with_edge_examples
def test_to_float_matches_float_of_fraction(problem):
    for M in factor_matrices(problem):
        got = M.to_float()
        assert got.shape == M.shape
        assert [float_bits(r) for r in got] == [float_bits(map(float, r)) for r in M.entries]


@pytest.mark.parametrize("entry", [Fraction(MAX_HALFWAY), Fraction(2**1030, 3),
                                   -Fraction(2**1100 + 1, 2**76)])
def test_to_float_beyond_the_float_range_raises(entry):
    M = RationalMatrix.from_rows([[1, entry], ["1/3", 0]])
    with pytest.raises(OverflowError, match="a matrix entry lies beyond the float range"):
        M.to_float()
