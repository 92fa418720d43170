"""The benchmark's tracer wraps functions by name; each name must exist.

`bench/tracer.py` lists in SPANNED and COUNTED the (module, attribute) pairs
it wraps.  A traced name that disappears from `inred` makes `bench/run.py
--trace 1` fail, so the contract is checked here, without running the
benchmark.  The tracer module imports only the standard library at load time.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names():
    tracer = load_tracer()
    return list(tracer.SPANNED) + list(tracer.COUNTED)


def test_tracer_lists_spans_and_counters():
    names = traced_names()
    assert names and all(len(entry) == 3 for entry in names)


@pytest.mark.parametrize("entry", traced_names(), ids=lambda entry: entry[0])
def test_traced_name_resolves_in_inred(entry):
    _, module_name, attribute = entry
    assert module_name == "inred" or module_name.startswith("inred.")
    assert callable(getattr(importlib.import_module(module_name), attribute))


def test_rref_is_a_rebindable_method_that_analyze_reaches(monkeypatch):
    from inred.analysis import analyze
    from inred.exact import RationalMatrix, Subspace
    from inred.geometry import SystemQuadruple

    assert "rref" in vars(RationalMatrix)
    calls = []
    rref = RationalMatrix.rref
    monkeypatch.setattr(RationalMatrix, "rref", lambda self: calls.append(1) or rref(self))
    sys_q = SystemQuadruple.from_rows([[0, 1], [-1, 0]], [[0], [1]], [[1, 0]], [[0]])
    for x_set in (Subspace.full(2), Subspace.from_vectors(2, [[1, 1]])):
        before = len(calls)
        analyze(sys_q, Subspace.full(1), x_set)
        assert len(calls) > before


def test_coefficient_bits_read_fraction_entries():
    from fractions import Fraction

    from inred.geometry import SystemQuadruple

    sys_q = SystemQuadruple.from_rows([[0, "-1/1024"]] * 2, [[3], [2**70]], [["5/7", 0]], [[0]])
    rows = [row for mat in (sys_q.A, sys_q.B, sys_q.C, sys_q.D) for row in mat.entries]
    assert all(type(row) is tuple and all(type(x) is Fraction for x in row) for row in rows)
    assert load_tracer()._coeff_bits(sys_q) == 71
