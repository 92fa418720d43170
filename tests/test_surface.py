"""The public surface of `inred`: the names it exports, and the names README
documents.

A name added to or removed from the package is a change of this list, made
on purpose; a name that README's library tour mentions must exist.
"""

from __future__ import annotations

import importlib
import re
import types
from pathlib import Path

import inred

README = Path(__file__).resolve().parents[1] / "README.md"

EXPORTED = {
    # exact
    "DimensionMismatch", "InvarianceViolated", "RationalMatrix", "Subspace",
    "image", "kernel", "preimage", "restriction_matrix",
    # geometry
    "AdaptedBasis", "DegenerateStateSpace", "PinnedBases", "ReducedSystem",
    "SystemQuadruple", "adapted_basis", "controllable_weakly_unobservable", "friend",
    "max_controlled_invariant", "output_nulling", "reduce_system", "weakly_unobservable",
    # analysis
    "ConsistencyError", "Kind", "RedundancyReport", "analyze", "analyze_degenerate",
    "degree_and_kind", "joint_kernel_dim", "left_invertibility", "report_to_dict",
    "report_to_text",
    # trajectory
    "ConstraintSet", "Grid", "Interpolation", "Membership", "Polyhedron", "SampledSignal",
    "SingularGramian", "Status",
    "TrajectoryTriple", "boundary_residence", "check_admissible", "interior_window",
    "margins", "membership", "simulate",
    # synthesis
    "IRCertificate", "IncrementCheck", "KernelBump", "NoInteriorWindow",
    "NotAdmissibleNominal", "RZero", "RhoZero", "StateLoop", "VerificationFailed",
    "certify_ir_pair", "compute_scaling", "synthesize_increment", "synthesize_kernel_bump",
    "synthesize_state_loop", "verify_increment",
}

SUBMODULES = ("exact", "geometry", "analysis", "trajectory", "synthesis", "scenario", "cli")

# a backticked Python name, dotted or not, possibly shown with its call's arguments
NAME = re.compile(r"([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)(?:\(.*\))?")


def test_inred_exports_exactly_the_pinned_names():
    public = {name for name, value in vars(inred).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTED


def library_tour_names() -> set[str]:
    """Backticked names in README's "Library tour" section, outside code
    blocks; single letters are mathematical symbols, not names."""
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    tour = tour[:tour.index("\n## ", 1)]
    prose = re.sub(r"```.*?```", "", tour, flags=re.S)
    names = set()
    for span in re.findall(r"`([^`]+)`", prose):
        match = NAME.fullmatch(span)
        if match and len(match[1]) > 1:
            names.add(match[1])
    return names


def resolves(name: str) -> bool:
    if name.startswith("inred."):
        module, _, attr = name.rpartition(".")
        try:
            return hasattr(importlib.import_module(module), attr)
        except ImportError:
            return False
    return any(hasattr(importlib.import_module(f"inred.{m}"), name)
               for m in SUBMODULES) or hasattr(inred, name)


def test_every_name_of_the_library_tour_resolves():
    names = library_tour_names()
    assert {"simulate", "margins", "membership", "inred.exact.preimage_equations"} <= names
    assert sorted(name for name in names if not resolves(name)) == []
