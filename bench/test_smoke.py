"""Smoke test of the benchmark: each workload at its smallest size.

    python -m pytest bench/test_smoke.py -q

Checks the printed result line and the result file against the metric
lists in BENCHMARK.json and `result.schema.json`; timings are not checked.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smallest_size(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))

    jsonschema = pytest.importorskip("jsonschema")
    record = json.loads(
        (ROOT / ".bench_out" / f"{workload}-seed1-trace{trace}" / "result.json").read_text())
    jsonschema.validate(record, json.loads((HERE / "result.schema.json").read_text()))
    assert record["workload"] == workload and record["smoke"] is True


def test_fails_without_sources(tmp_path):
    """Without the program's sources the benchmark exits non-zero and
    prints no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
