"""Tests for the exact rational matrix and subspace layer."""

from __future__ import annotations

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
    complete_basis,
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


def test_complete_basis_reaches_full_rank():
    T = mat([[1], [1], [0]])
    extra = complete_basis(T, [RationalMatrix.identity(3)])
    full = RationalMatrix.hstack(T, extra)
    assert full.rank() == 3


def test_complete_basis_rejects_candidates_of_wrong_length():
    with pytest.raises(DimensionMismatch):
        complete_basis(RationalMatrix.identity(2), [RationalMatrix.identity(3)])


def complete_basis_greedy(current, candidates):
    """Reference: the greedy scan with one rank computation per candidate column."""
    n = current.rows
    cols = [current.col(j) for j in range(current.cols)]
    rank = current.rank()
    out = []
    for cand in candidates:
        for j in range(cand.cols):
            v = cand.col(j)
            trial_rows = [list(r) for r in zip(*(cols + out + [v]))] if n else []
            trial = RationalMatrix.from_rows(trial_rows, cols=len(cols) + len(out) + 1)
            if trial.rank() > rank:
                out.append(v)
                rank += 1
    if not out:
        return RationalMatrix.zeros(n, 0)
    return RationalMatrix.from_rows([list(r) for r in zip(*out)], cols=len(out))


def from_columns(n, cols):
    if not cols:
        return RationalMatrix.zeros(n, 0)
    return RationalMatrix.from_rows([list(r) for r in zip(*cols)], cols=len(cols))


@st.composite
def basis_completion(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    column = st.lists(small_entries, min_size=n, max_size=n)
    current = draw(st.lists(column, max_size=n + 1))
    if current and draw(st.booleans()):
        current.append([2 * x for x in current[0]])  # rank-deficient current
    candidates = draw(st.lists(st.lists(column, max_size=3), max_size=3))
    return n, current, candidates


@settings(max_examples=200, deadline=None)
@given(problem=basis_completion())
@example(problem=(3, [], [[[1, 0, 0], [2, 0, 0]], [[0, 1, 0], [0, 0, 1]]]))
@example(problem=(3, [[1, 1, 0], [2, 2, 0]], [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]))
def test_complete_basis_matches_greedy_rank_scan(problem):
    n, current, candidates = problem
    cur = from_columns(n, current)
    cands = [from_columns(n, c) for c in candidates]
    assert complete_basis(cur, cands) == complete_basis_greedy(cur, cands)


def test_complete_basis_is_one_elimination(monkeypatch):
    calls = []
    rref = RationalMatrix.rref
    monkeypatch.setattr(RationalMatrix, "rref", lambda self: calls.append(1) or rref(self))
    complete_basis(mat([[1], [1], [0]]), [mat([[1, 0], [1, 0], [0, 0]]),
                                          RationalMatrix.identity(3)])
    assert len(calls) == 1


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
