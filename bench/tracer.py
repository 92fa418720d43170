"""Spans and counters around the public functions of each `inred` layer.

The program is not changed: `Tracer.installed()` replaces every binding of
a traced function in the loaded `inred` modules (including names imported
into other modules, such as `inred.cli.simulate` and
`inred.synthesis.simulate`) with a wrapper, and restores the originals on
exit.  `RationalMatrix.rref` is wrapped as a method.  `membership` is only
counted, because it runs once per grid node.

A span records (op, name, start, end, parent); spans stay in memory and are
written as JSON lines by `write_spans` when the run ends.  Self time is a
span's duration minus the part covered by its child spans.  Tracing assumes
one thread: the `--jobs` batches run untraced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

# (layer.name, module, attribute); the module is where the function is defined
SPANNED = (
    ("cli.main", "inred.cli", "main"),
    ("scenario.load_scenario", "inred.scenario", "load_scenario"),
    ("geometry.reduce_system", "inred.geometry", "reduce_system"),
    ("geometry.weakly_unobservable", "inred.geometry", "weakly_unobservable"),
    ("geometry.controllable_weakly_unobservable", "inred.geometry",
     "controllable_weakly_unobservable"),
    ("geometry.adapted_basis", "inred.geometry", "adapted_basis"),
    ("analysis.analyze", "inred.analysis", "analyze"),
    ("analysis.degree_and_kind", "inred.analysis", "degree_and_kind"),
    ("analysis.left_invertibility", "inred.analysis", "left_invertibility"),
    ("analysis.joint_kernel_dim", "inred.analysis", "joint_kernel_dim"),
    ("trajectory.simulate", "inred.trajectory", "simulate"),
    ("trajectory.check_admissible", "inred.trajectory", "check_admissible"),
    ("trajectory.interior_window", "inred.trajectory", "interior_window"),
    ("trajectory.boundary_residence", "inred.trajectory", "boundary_residence"),
    ("synthesis.certify_ir_pair", "inred.synthesis", "certify_ir_pair"),
    ("synthesis.synthesize_state_loop", "inred.synthesis", "synthesize_state_loop"),
    ("synthesis.synthesize_kernel_bump", "inred.synthesis", "synthesize_kernel_bump"),
    ("synthesis.verify_increment", "inred.synthesis", "verify_increment"),
)
COUNTED = (("trajectory.membership", "inred.trajectory", "membership"),)


def _coeff_bits(sys_q) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for mat in (sys_q.A, sys_q.B, sys_q.C, sys_q.D)
                for row in mat.entries for x in row), default=0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_coeff_bits = 0
        self.ops: list[dict] = []

    def begin_op(self, op: dict, bytes_in: int) -> None:
        self.ops.append({"id": op["id"], "command": op["argv"][0], "bytes_in": bytes_in})

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn: Callable,
                 after: Optional[Callable] = None) -> Callable:
        spans, stack, ops = self.spans, self.stack, self.ops

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (len(ops) - 1, name, start, end, parent)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _note_reduction(self, bundle) -> None:
        self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(bundle.sys))

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        from inred.exact import RationalMatrix

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "inred" or name.startswith("inred."))]
        patches: list[tuple[object, str, object]] = []

        def patch_everywhere(original, wrapper) -> None:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        for name, module, attr in SPANNED:
            original = getattr(sys.modules[module], attr)
            after = self._note_reduction if name == "geometry.reduce_system" else None
            patch_everywhere(original, self._spanned(name, original, after))
        for name, module, attr in COUNTED:
            original = getattr(sys.modules[module], attr)
            patch_everywhere(original, self._counted(name, original))
        rref = RationalMatrix.rref
        patches.append((RationalMatrix, "rref", rref))
        RationalMatrix.rref = self._spanned("exact.rref", rref)
        try:
            yield self
        finally:
            for obj, attr, value in reversed(patches):
                setattr(obj, attr, value)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals: calls, inclusive seconds (outermost span of a
        name only, so recursion is not counted twice) and self seconds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for op, name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict] = {}
        for i, (op, name, start, end, parent) in enumerate(spans):
            t = totals.setdefault(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0,
                                         "calls_by_command": Counter()})
            t["calls"] += 1
            t["calls_by_command"][self.ops[op]["command"]] += 1
            t["self_seconds"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and spans[p][1] != name:
                p = spans[p][4]
            if p < 0:
                t["seconds"] += end - start
        for t in totals.values():
            t["calls_by_command"] = dict(t["calls_by_command"])
        return {
            "spans": totals,
            "counts": dict(self.counts),
            "max_coeff_bits": self.max_coeff_bits,
            "ops": self.ops,
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": self.ops[op]["id"], "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
