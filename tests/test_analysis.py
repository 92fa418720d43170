"""Tests for redundancy classification."""

from __future__ import annotations

import json
import random
import sys as pysys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inred import analysis, geometry
from inred.analysis import (
    ConsistencyError,
    Kind,
    RedundancyReport,
    analyze,
    analyze_degenerate,
    degree_and_kind,
    joint_kernel_dim,
    left_invertibility,
    report_to_dict,
    report_to_text,
)
from inred.exact import DimensionMismatch, RationalMatrix, Subspace, image, kernel
from inred.geometry import DegenerateStateSpace, PinnedBases, SystemQuadruple, reduce_system

from conftest import random_subspace, random_system


def mat(rows):
    return RationalMatrix.from_rows(rows)


def span(ambient, *vectors):
    return Subspace.from_vectors(ambient, vectors)


# ---------------------------------------------------------------------------
# static kernel dimension


def test_joint_kernel_dim_buck_is_zero(buck):
    sys, _, _ = buck
    assert joint_kernel_dim(sys.B, sys.D) == 0


def test_joint_kernel_dim_four_input(four_input_system):
    assert joint_kernel_dim(four_input_system.B, four_input_system.D) == 1


def test_joint_kernel_dim_identity_feedthrough():
    B = mat([[0, 0], [0, 0]])
    D = RationalMatrix.identity(2)
    assert joint_kernel_dim(B, D) == 0


def test_joint_kernel_dim_column_mismatch():
    with pytest.raises(DimensionMismatch):
        joint_kernel_dim(mat([[1, 0]]), mat([[1]]))


# ---------------------------------------------------------------------------
# degree and kind of a quadruple


def test_four_input_unconstrained_is_third_kind(four_input_system):
    rep = degree_and_kind(four_input_system)
    assert rep.kind is Kind.THIRD
    assert rep.degree == (1, 2)
    assert rep.dim_R == 2
    assert rep.N.dim == 3


def test_four_input_constrained_is_second_kind(four_input_system, four_input_constraints,
                                               four_input_pinned):
    u_set, x_set = four_input_constraints
    reduced = reduce_system(four_input_system, u_set, x_set, pinned=four_input_pinned)
    rep = degree_and_kind(reduced.sys)
    assert rep.kind is Kind.SECOND
    assert rep.degree == (0, 1)


def test_buck_unconstrained_is_second_kind(buck):
    sys, _, _ = buck
    rep = degree_and_kind(sys)
    assert rep.kind is Kind.SECOND
    assert rep.degree == (0, 1)
    assert rep.dim_R == 1


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), reduced=st.booleans())
@example(seed=2, reduced=True)  # a reduced system with m = 0
def test_degree_read_off_n_matches_the_joint_kernel(seed, reduced):
    sys = drawn_system(seed, reduced)
    N = geometry.output_nulling(sys).N
    rho = joint_kernel_dim(sys.B, sys.D)
    assert analysis._degree(sys.B, N) == (rho, N.dim - rho)


def test_integrator_not_redundant(integrator):
    rep = degree_and_kind(integrator)
    assert rep.kind is Kind.NOT_IR
    assert not rep.uniform


# ---------------------------------------------------------------------------
# left invertibility


def test_integrator_left_invertible(integrator):
    assert left_invertibility(integrator) is True


def test_four_input_reduced_not_left_invertible(four_input_system, four_input_constraints,
                                                four_input_pinned):
    u_set, x_set = four_input_constraints
    reduced = reduce_system(four_input_system, u_set, x_set, pinned=four_input_pinned)
    assert left_invertibility(reduced.sys) is False


def test_buck_not_left_invertible(buck):
    sys, _, _ = buck
    assert left_invertibility(sys) is False


def left_invertibility_sampled(sys, samples=3, seed=20240):
    """The former randomized decision, kept as the reference: normal ranks of
    G(s) and P(s) at random rational frequencies off the spectrum of A."""
    rng = random.Random(seed)
    n, m = sys.n, sys.m
    eye = RationalMatrix.identity(n)
    points = []
    while len(points) < samples:
        s = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        if rng.random() < 0.5:
            s = -s
        if s not in points and (eye.scaled(s) - sys.A).rank() == n:
            points.append(s)
    rank_p = rank_g = 0
    for s in points:
        s_minus_a = eye.scaled(s) - sys.A
        p_mat = RationalMatrix.vstack(
            RationalMatrix.hstack(s_minus_a, -sys.B),
            RationalMatrix.hstack(sys.C, sys.D),
        )
        rank_p = max(rank_p, p_mat.rank())
        rank_g = max(rank_g, (sys.C @ s_minus_a.solve_columns(sys.B) + sys.D).rank())
    assert (rank_p == n + m) == (rank_g == m)
    return rank_g == m, rank_p == n + m


def drawn_system(seed, reduced):
    """A conftest.random_system draw, or its reduction under random subspace
    constraints (which may leave m = 0 inputs)."""
    rng = random.Random(seed)
    sys = random_system(rng, n_max=4, m_max=3, p_max=3)
    if not reduced:
        return sys
    u_set = random_subspace(rng, sys.m, rng.randint(0, sys.m))
    x_set = random_subspace(rng, sys.n, rng.randint(1, sys.n))
    try:
        return reduce_system(sys, u_set, x_set).sys
    except DegenerateStateSpace:
        return sys


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), reduced=st.booleans())
@example(seed=2, reduced=True)  # a reduced system with m = 0
def test_left_invertibility_matches_sampled_reference(seed, reduced):
    sys = drawn_system(seed, reduced)
    g_inv, p_inv = left_invertibility_sampled(sys)
    assert left_invertibility(sys) == g_inv == p_inv


def test_left_invertibility_without_inputs():
    # a reduction can leave m = 0: P(s) = [sI - A; C] has full rank off the spectrum
    sys = SystemQuadruple(RationalMatrix.zeros(2, 2), RationalMatrix.zeros(2, 0),
                          RationalMatrix.zeros(1, 2), RationalMatrix.zeros(1, 0))
    assert left_invertibility(sys) is True
    assert left_invertibility_sampled(sys) == (True, True)


def system_matrix_rank(sys, s):
    eye = RationalMatrix.identity(sys.n)
    return RationalMatrix.vstack(
        RationalMatrix.hstack(eye.scaled(s) - sys.A, -sys.B),
        RationalMatrix.hstack(sys.C, sys.D),
    ).rank()


def test_left_invertibility_scans_past_invariant_zeros():
    # G(s) = s (s - 1) / (s + 1)^3: P(s) loses rank at s = 0 and s = 1
    sys = SystemQuadruple.from_rows(
        [[0, 1, 0], [0, 0, 1], [-1, -3, -3]], [[0], [0], [1]], [[0, -1, 1]], [[0]])
    assert [system_matrix_rank(sys, s) for s in (0, 1, 2)] == [3, 3, 4]
    assert left_invertibility(sys) is True
    assert left_invertibility_sampled(sys) == (True, True)


def test_left_invertibility_scans_to_the_last_point():
    # uncontrollable modes at 0, 1, 2 = n - 1: only s = n gives full rank
    sys = SystemQuadruple.from_rows(
        [[0, 0, 0], [0, 1, 0], [0, 0, 2]], [[0], [0], [0]], [[1, 1, 1]], [[1]])
    assert [system_matrix_rank(sys, s) for s in range(4)] == [3, 3, 3, 4]
    assert left_invertibility(sys) is True


def test_left_invertibility_integer_spectrum_not_invertible():
    # eigenvalues 0, 1, 2 and an input that never reaches the output
    sys = SystemQuadruple.from_rows(
        [[0, 0, 0], [0, 1, 0], [0, 0, 2]], [[0, 1], [1, 0], [0, 0]],
        [[1, 0, 0], [0, 0, 1]], [[0, 0], [0, 0]])
    assert left_invertibility(sys) is False
    assert left_invertibility_sampled(sys) == (False, False)


@pytest.mark.parametrize("B,expected", [  # expected (G, P) of the sampled reference
    ([[1, -1]], (True, True)),   # the dynamics separate what D merges
    ([[1, 1]], (False, False)),  # u = (1, -1) reaches neither x nor y
])
def test_left_invertibility_rank_deficient_feedthrough(B, expected):
    sys = SystemQuadruple.from_rows([[0]], B, [[1], [0]], [[1, 1], [1, 1]])
    assert left_invertibility_sampled(sys) == expected
    assert left_invertibility(sys) is expected[0]


# ---------------------------------------------------------------------------
# the exact witness behind each analyze verdict


def count_calls(monkeypatch, original):
    """The argument tuples of every call of `original`, through any binding
    of it in the loaded `inred` modules."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(pysys.modules.items()):
        if name == "inred" or name.startswith("inred."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_analyze_proves_ir_without_a_rank_scan(monkeypatch, four_input_system,
                                               four_input_constraints):
    calls = count_calls(monkeypatch, analysis.left_invertibility)
    rep = analyze(four_input_system, *four_input_constraints)
    assert rep.is_ir and rep.left_invertible is False
    assert calls == []


def test_analyze_proves_not_ir_with_one_rank_scan(monkeypatch, integrator):
    calls = count_calls(monkeypatch, analysis.left_invertibility)
    rep = analyze(integrator, Subspace.full(1), Subspace.full(1))
    assert not rep.is_ir and rep.left_invertible is True
    assert len(calls) == 1


def test_analyze_raises_when_the_rank_scan_finds_no_witness(monkeypatch, integrator):
    monkeypatch.setattr(analysis, "left_invertibility", lambda sys: False)
    with pytest.raises(ConsistencyError):
        analyze(integrator, Subspace.full(1), Subspace.full(1))


def analyze_with_mutated_record(monkeypatch, sys, mutate):
    original = geometry.output_nulling
    monkeypatch.setattr(analysis, "output_nulling", lambda s: mutate(original(s)))
    return analyze(sys, Subspace.full(sys.m), Subspace.full(sys.n))


# xdot = u1 + u2, y = [x + u1 + u2; 0]: V is the whole line, F = [-1, 0]
# nulls the output, and N = span((1, -1)) is all of ker D
FEEDTHROUGH_IR = SystemQuadruple.from_rows([[0]], [[1, 1]], [[1], [0]], [[1, 1], [0, 0]])


def test_unmutated_witness_passes(monkeypatch):
    rep = analyze_with_mutated_record(monkeypatch, FEEDTHROUGH_IR, lambda on: on)
    assert rep.kind is Kind.FIRST


def test_witness_rejects_a_perturbed_friend(monkeypatch):
    def mutate(on):
        F = [list(row) for row in on.F.entries]
        F[0][0] += 1
        return replace(on, F=RationalMatrix.from_rows(F))

    with pytest.raises(ConsistencyError):
        analyze_with_mutated_record(monkeypatch, FEEDTHROUGH_IR, mutate)


def test_witness_rejects_nonzero_feedthrough_on_n(monkeypatch):
    # L = I: B L still lies in V = R, but D L != 0
    with pytest.raises(ConsistencyError):
        analyze_with_mutated_record(monkeypatch, FEEDTHROUGH_IR,
                                    lambda on: replace(on, N=Subspace.full(2)))


def test_witness_rejects_a_dropped_basis_column(monkeypatch, four_input_system):
    def mutate(on):
        T = on.V.basis
        return replace(on, V=image(T.block(0, T.rows, 0, T.cols - 1)))

    with pytest.raises(ConsistencyError):
        analyze_with_mutated_record(monkeypatch, four_input_system, mutate)


def test_witness_rejects_an_empty_n(monkeypatch, four_input_system):
    # an IR verdict whose N is empty proves nothing
    with pytest.raises(ConsistencyError):
        analysis._check_ir_witness(
            four_input_system,
            replace(geometry.output_nulling(four_input_system), N=Subspace.zero(4)))


# ---------------------------------------------------------------------------
# degenerate analysis (trivial reduced state space)


def test_degenerate_zero_input_set_not_redundant(four_input_system):
    rep = analyze_degenerate(four_input_system, Subspace.zero(4))
    assert rep.kind is Kind.NOT_IR
    assert rep.l == 0


def test_degenerate_first_kind_by_construction():
    sys = SystemQuadruple.from_rows([[0]], [[1, 0]], [[1]], [[0, 0]])
    rep = analyze(sys, span(2, [0, 1]), Subspace.zero(1))
    assert rep.l == 0
    assert rep.kind is Kind.FIRST
    assert rep.degree == (1, 0)
    assert rep.left_invertible is False


def test_degenerate_injective_input_not_redundant():
    sys = SystemQuadruple.from_rows([[0]], [[1, 0]], [[1]], [[0, 1]])
    rep = analyze_degenerate(sys, Subspace.full(2))
    assert rep.kind is Kind.NOT_IR
    assert rep.left_invertible is True


# ---------------------------------------------------------------------------
# full analysis


def test_analyze_four_input_full_run(four_input_system, four_input_constraints):
    u_set, x_set = four_input_constraints
    constrained = analyze(four_input_system, u_set, x_set)
    assert constrained.kind is Kind.SECOND
    assert constrained.degree == (0, 1)
    assert constrained.uniform
    assert constrained.l == 2
    assert all(constrained.consistency_flags.values())
    unconstrained = analyze(four_input_system, Subspace.full(4), Subspace.full(3))
    assert unconstrained.kind is Kind.THIRD
    assert unconstrained.degree == (1, 2)
    assert unconstrained.dim_R == 2


def test_analyze_buck_unconstrained(buck):
    sys, _, _ = buck
    rep = analyze(sys, Subspace.full(2), Subspace.full(3))
    assert rep.kind is Kind.SECOND
    assert rep.degree == (0, 1)
    assert rep.uniform


def test_analyze_integrator_full_spaces(integrator):
    rep = analyze(integrator, Subspace.full(1), Subspace.full(1))
    assert rep.kind is Kind.NOT_IR
    assert not rep.uniform
    assert rep.left_invertible is True


def test_analyze_computes_weakly_unobservable_once_per_system(
        monkeypatch, four_input_system, four_input_constraints):
    # one call for the reduced system, one for the unconstrained one
    calls = count_calls(monkeypatch, geometry.weakly_unobservable)
    u_set, x_set = four_input_constraints
    report = analyze(four_input_system, u_set, x_set)
    assert report.l > 0
    assert len(calls) == 2


def count_exact_passes(monkeypatch):
    """Call lists of the reduction, the V fixpoint and the unconstrained
    classification, in that order."""
    return tuple(count_calls(monkeypatch, fn) for fn in (
        geometry.reduce_system, geometry.weakly_unobservable, analysis.degree_and_kind))


@pytest.mark.parametrize("pinned", [None, PinnedBases()])
def test_unconstrained_analyze_is_one_exact_pass(monkeypatch, four_input_system, pinned):
    calls = count_exact_passes(monkeypatch)
    report = analyze(four_input_system, Subspace.full(4), Subspace.full(3), pinned=pinned)
    assert report.kind is Kind.THIRD
    assert report.consistency_flags["kind_preserved_from_unconstrained"] is True
    assert [len(c) for c in calls] == [0, 1, 0]


@pytest.mark.parametrize("pin", ["R", "F", "L"])
def test_pinned_full_sets_keep_the_reduction(monkeypatch, four_input_system, pin):
    values = {"R": RationalMatrix.identity(4), "F": RationalMatrix.zeros(4, 3),
              "L": RationalMatrix.identity(4)}
    calls = count_exact_passes(monkeypatch)
    full = (Subspace.full(4), Subspace.full(3))
    pinned = analyze(four_input_system, *full, pinned=PinnedBases(**{pin: values[pin]}))
    assert [len(c) for c in calls] == [1, 2, 0]
    assert pinned == analyze(four_input_system, *full)


@pytest.mark.parametrize("u_dim, x_dim", [(3, 3), (5, 3), (4, 2), (4, 4)])
def test_full_sets_of_the_wrong_dimension_are_refused(four_input_system, u_dim, x_dim):
    with pytest.raises(DimensionMismatch):
        analyze(four_input_system, Subspace.full(u_dim), Subspace.full(x_dim))


# seeds of `random_system` draws for each kind, with m = 1 and with D != 0
KIND_SEEDS = {
    1: (Kind.NOT_IR, 1, True), 197: (Kind.NOT_IR, 1, False),
    21: (Kind.FIRST, 4, True), 232: (Kind.FIRST, 1, False),
    0: (Kind.SECOND, 4, True), 2: (Kind.SECOND, 1, False),
    31: (Kind.THIRD, 4, True),
}


def test_kind_seeds_draw_what_they_name():
    for seed, (kind, m, feedthrough) in KIND_SEEDS.items():
        sys = random_system(random.Random(seed))
        report = analyze(sys, Subspace.full(sys.m), Subspace.full(sys.n))
        assert (report.kind, sys.m, not sys.D.is_zero()) == (kind, m, feedthrough), seed


def with_kind_seeds(test):
    for seed in KIND_SEEDS:
        test = example(seed=seed)(test)
    return test


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
@with_kind_seeds
def test_one_pass_matches_the_reduction(seed):
    # a pinned R forces the reduction, so the shortcut is checked against it
    sys = random_system(random.Random(seed))
    full = (Subspace.full(sys.m), Subspace.full(sys.n))
    direct = analyze(sys, *full)
    reduced = analyze(sys, *full, pinned=PinnedBases(R=RationalMatrix.identity(sys.m)))
    assert direct == reduced
    assert (json.dumps(report_to_dict(direct), indent=2)
            == json.dumps(report_to_dict(reduced), indent=2))
    assert report_to_text(direct) == report_to_text(reduced)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
@with_kind_seeds
def test_kind_preserved_flag_reads_the_unconstrained_kind(seed):
    rng = random.Random(seed)
    sys = random_system(rng)
    free = degree_and_kind(sys).kind
    assert analysis._unconstrained_kind(sys) is free
    u_set = random_subspace(rng, sys.m, rng.randint(0, sys.m))
    x_set = random_subspace(rng, sys.n, rng.randint(1, sys.n))
    report = analyze(sys, u_set, x_set)
    if report.l > 0:
        expected = free not in (Kind.FIRST, Kind.SECOND) or report.kind in (Kind.NOT_IR, free)
        assert report.consistency_flags["kind_preserved_from_unconstrained"] is expected


# ---------------------------------------------------------------------------
# randomized equivalence checks (smaller sibling of the acceptance suite)


def test_theorem_equivalences_random_sample():
    rng = random.Random(99)
    checked = 0
    while checked < 30:
        sys = random_system(rng, n_max=4, m_max=3, p_max=2)
        u_set = random_subspace(rng, sys.m, rng.randint(1, sys.m))
        x_set = random_subspace(rng, sys.n, rng.randint(1, sys.n))
        rep = analyze(sys, u_set, x_set)
        if rep.l == 0:
            continue
        assert (rep.rho > 0 or rep.nu > 0) == (not rep.left_invertible)
        assert (rep.nu > 0) == (rep.dim_R > 0)
        assert rep.nu == rep.N.dim - rep.rho >= 0
        checked += 1


# ---------------------------------------------------------------------------
# serialization


def test_report_json_shape(four_input_system, four_input_constraints):
    u_set, x_set = four_input_constraints
    rep = analyze(four_input_system, u_set, x_set)
    obj = report_to_dict(rep)
    text = json.dumps(obj)
    back = json.loads(text)
    assert back["kind"] == "Kind2"
    assert back["degree"] == [0, 1]
    assert back["N"]["basis"] == [["1"], ["0"]]
    assert back["uniform"] is True
    assert set(back["consistency_flags"]) == {
        "nu_matches_dim_R", "kind_preserved_from_unconstrained",
    }


def test_report_text_render(four_input_system, four_input_constraints):
    u_set, x_set = four_input_constraints
    text = report_to_text(analyze(four_input_system, u_set, x_set))
    assert "2nd kind" in text
    assert "(0, 1)" in text
    assert "all passed" in text
