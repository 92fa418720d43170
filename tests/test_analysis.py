"""Tests for redundancy classification."""

from __future__ import annotations

import json
import random
import sys as pysys

import pytest

from inred import geometry
from inred.analysis import (
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
from inred.exact import DimensionMismatch, RationalMatrix, Subspace, kernel
from inred.geometry import SystemQuadruple, reduce_system

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


def test_integrator_not_redundant(integrator):
    rep = degree_and_kind(integrator)
    assert rep.kind is Kind.NOT_IR
    assert not rep.uniform


# ---------------------------------------------------------------------------
# left invertibility


def test_integrator_left_invertible(integrator):
    assert left_invertibility(integrator) == (True, True)


def test_four_input_reduced_not_left_invertible(four_input_system, four_input_constraints,
                                                four_input_pinned):
    u_set, x_set = four_input_constraints
    reduced = reduce_system(four_input_system, u_set, x_set, pinned=four_input_pinned)
    assert left_invertibility(reduced.sys) == (False, False)


def test_buck_not_left_invertible(buck):
    sys, _, _ = buck
    assert left_invertibility(sys) == (False, False)


def test_left_invertibility_seed_independent(buck):
    sys, _, _ = buck
    for seed in (1, 7, 1234):
        assert left_invertibility(sys, seed=seed) == (False, False)


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
    assert rep.left_invertible_P is False


def test_degenerate_injective_input_not_redundant():
    sys = SystemQuadruple.from_rows([[0]], [[1, 0]], [[1]], [[0, 1]])
    rep = analyze_degenerate(sys, Subspace.full(2))
    assert rep.kind is Kind.NOT_IR
    assert rep.left_invertible_P is True


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
    assert rep.left_invertible_P is True


def test_analyze_computes_weakly_unobservable_once_per_system(
        monkeypatch, four_input_system, four_input_constraints):
    # one call for the reduced system, one for the unconstrained one
    original = geometry.weakly_unobservable
    calls = []

    def counted(sys):
        calls.append(sys)
        return original(sys)

    for name, module in list(pysys.modules.items()):
        if name == "inred" or name.startswith("inred."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    u_set, x_set = four_input_constraints
    report = analyze(four_input_system, u_set, x_set)
    assert report.l > 0
    assert len(calls) == 2


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
        assert (rep.rho > 0 or rep.nu > 0) == (not rep.left_invertible_P)
        assert rep.left_invertible_P == rep.left_invertible_G
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
        "nu_matches_dim_R", "transfer_system_matrix_agree",
        "rank_test_matches_degree", "kind_preserved_from_unconstrained",
    }


def test_report_text_render(four_input_system, four_input_constraints):
    u_set, x_set = four_input_constraints
    text = report_to_text(analyze(four_input_system, u_set, x_set))
    assert "2nd kind" in text
    assert "(0, 1)" in text
    assert "all passed" in text
