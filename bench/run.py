"""The inred benchmark: seeded CLI workloads, end-to-end and per layer.

    python3 bench/run.py --workload analyze-large --seed 1 --seconds 15 --trace 0

Run from the repository root.  The command generates the workload's scenario
files from `--seed`, then drives `inred.cli.main` in a fresh interpreter
(`worker.py`) as a closed loop: one client, one thread, one op at a time,
default `--jobs`.  Every output is checked (`checks.py`).

`--trace 0` measures for `--seconds` seconds of op time (at least 100 ops)
and reports the end-to-end metrics.  `--trace 1` runs a fixed list of ops,
each once untraced and once traced, and reports the per-layer metrics of the
traced runs, the tracing overhead, the size table and the `--jobs` batches.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the full record, including
the environment and the workload's composition, goes to
`.bench_out/<workload>-seed<seed>-trace<t>/result.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170.0
MEASURE_CAP_S = 120.0


def _loadavg() -> list[float]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


def _environment() -> dict:
    import importlib.metadata as md

    def version(name: str) -> str:
        try:
            return md.version(name)
        except md.PackageNotFoundError:
            return "missing"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _run_worker(workdir: Path, name: str, manifest: dict) -> dict:
    """Run worker.py on `manifest` in a fresh interpreter and return its result."""
    manifest_path = workdir / f"{name}.manifest.json"
    result_path = workdir / f"{name}.result.json"
    log_path = workdir / f"{name}.log"
    manifest_path.write_text(json.dumps(manifest))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with log_path.open("w") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(manifest_path), str(result_path)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            timeout=WORKER_TIMEOUT_S, check=False,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited {proc.returncode}:\n"
                           f"{log_path.read_text()[-2000:]}")
    return json.loads(result_path.read_text())


class Checker:
    """Checks each distinct output once; later ops with the same output
    (same scenario, same bytes) share the verdict."""

    def __init__(self, plan: dict):
        ops = (plan["warmup"] + plan["ops"] + [row["op"] for row in plan.get("table", [])]
               + plan.get("batch", []))
        self.ops = {op["id"]: op for op in ops}
        self.verdicts: dict[tuple, object] = {}
        self.failures: list[str] = []

    def count_failed(self, records: list[dict]) -> int:
        failed = 0
        for record in records:
            key = (record["id"], record.get("digest"), record["code"], record.get("error"))
            if key not in self.verdicts:
                self.verdicts[key] = checks.check(self.ops[record["id"]], record)
            if self.verdicts[key] is not None:
                self.failures.append(f"{record['id']}: {self.verdicts[key]}")
                failed += 1
        return failed


def _composition(plan: dict, records: list[dict]) -> dict:
    by_id = {op["id"]: op for op in plan["ops"]}
    ops = [by_id[r["id"]] for r in records]
    return {
        "labels": dict(Counter(op["label"] for op in ops)),
        "exit_codes": dict(Counter(str(r["code"]) for r in records)),
        "sizes": dict(sorted(Counter(
            ",".join(f"{k}={v}" for k, v in op["size"].items()) for op in ops).items())),
        "distinct_scenarios": len({r["id"] for r in records}),
    }


def measure(args, workdir: Path, plan: dict) -> tuple[dict, dict]:
    manifest = {
        "mode": "measure", "out": str(workdir / "out"), "warmup": plan["warmup"],
        "ops": plan["ops"], "seconds": args.seconds, "min_ops": args.min_ops,
        "cap_seconds": MEASURE_CAP_S,
    }
    main = _run_worker(workdir, "measure", manifest)
    setups = [main["import_s"] + main["warmup_s"]]
    for i in range(SETUP_SAMPLES - 1):
        probe = _run_worker(workdir, f"setup{i}",
                            {**manifest, "mode": "setup", "out": str(workdir / f"setup{i}")})
        setups.append(probe["import_s"] + probe["warmup_s"])
    records = main["ops"]
    checker = Checker(plan)
    failed = checker.count_failed(main["warmup_ops"] + records)
    attempted = len(main["warmup_ops"]) + len(records)
    times = [rec["seconds"] for rec in records]
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "failed_frac": (failed / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    detail = {
        "attempted": attempted, "failed": failed, "failures": checker.failures[:20],
        "ops": len(records), "setup_samples_s": setups, "import_s": main["import_s"],
        "composition": _composition(plan, records),
    }
    return metrics, detail


def _layer_metrics(summary: dict, records: list[dict]) -> dict:
    """Per-layer metrics of the traced pass; `*_s` are seconds per op."""
    spans = summary["spans"]
    n_ops = len(records)
    certify = [rec for op, rec in zip(summary["ops"], records) if op["command"] == "certify"]

    def per_op(name: str) -> float:
        return spans.get(name, {}).get("seconds", 0.0) / n_ops

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    simulate_in_certify = spans.get("trajectory.simulate", {}).get(
        "calls_by_command", {}).get("certify", 0)
    return {
        "scenario.load_s": (per_op("scenario.load_scenario"), "s"),
        "scenario.bytes_in": (sum(op["bytes_in"] for op in summary["ops"]) / n_ops, "bytes"),
        "exact.rref_calls": (calls("exact.rref"), "count"),
        "exact.rref_s": (per_op("exact.rref"), "s"),
        "exact.max_coeff_bits": (summary["max_coeff_bits"], "bits"),
        "geometry.reduce_system_s": (per_op("geometry.reduce_system"), "s"),
        "geometry.weakly_unobservable_calls": (calls("geometry.weakly_unobservable"), "count"),
        "geometry.weakly_unobservable_s": (per_op("geometry.weakly_unobservable"), "s"),
        "geometry.weakly_unobservable_calls_per_op": (
            calls("geometry.weakly_unobservable") / n_ops, "ratio"),
        "geometry.controllable_weakly_unobservable_s": (
            per_op("geometry.controllable_weakly_unobservable"), "s"),
        "geometry.adapted_basis_s": (per_op("geometry.adapted_basis"), "s"),
        "analysis.degree_and_kind_s": (per_op("analysis.degree_and_kind"), "s"),
        "analysis.left_invertibility_s": (per_op("analysis.left_invertibility"), "s"),
        "trajectory.simulate_calls": (calls("trajectory.simulate"), "count"),
        "trajectory.simulate_calls_per_certify": (
            simulate_in_certify / len(certify) if certify else 0.0, "ratio"),
        "trajectory.simulate_s": (per_op("trajectory.simulate"), "s"),
        "trajectory.membership_calls": (summary["counts"].get("trajectory.membership", 0),
                                        "count"),
        "trajectory.check_admissible_s": (per_op("trajectory.check_admissible"), "s"),
        "trajectory.interior_window_s": (per_op("trajectory.interior_window"), "s"),
        "trajectory.boundary_residence_s": (per_op("trajectory.boundary_residence"), "s"),
        "synthesis.certify_ir_pair_s": (per_op("synthesis.certify_ir_pair"), "s"),
        "synthesis.synthesize_state_loop_s": (per_op("synthesis.synthesize_state_loop"), "s"),
        "synthesis.synthesize_kernel_bump_s": (per_op("synthesis.synthesize_kernel_bump"), "s"),
        "synthesis.verify_increment_s": (per_op("synthesis.verify_increment"), "s"),
        "synthesis.certified_ratio": (
            sum(rec["code"] == 0 for rec in certify) / len(certify) if certify else 0.0,
            "ratio"),
        "cli.self_s": (spans.get("cli.main", {}).get("self_seconds", 0.0) / n_ops, "s"),
        "cli.bytes_out": (sum(r.get("bytes_out", 0) for r in records) / n_ops, "bytes"),
    }


def _batch_records(workdir: Path, ops: list[dict]) -> list[dict]:
    """Records of the `--jobs 1` and `--jobs 2` multi-file invocations."""
    records = []
    for jobs in (1, 2):
        for op in ops:
            out = workdir / "batch" / f"jobs{jobs}" / (Path(op["argv"][1]).stem + op["suffix"])
            if out.exists():
                records.append({"id": op["id"], "code": 0, "output": str(out)})
            else:
                records.append({"id": op["id"], "code": None,
                                "error": f"no output from the --jobs {jobs} batch"})
    return records


def trace(args, workdir: Path, plan: dict) -> tuple[dict, dict]:
    manifest = {
        "mode": "trace", "out": str(workdir / "out"), "warmup": plan["warmup"],
        "ops": plan["ops"], "table": plan["table"], "spans": str(workdir / "spans.jsonl"),
        "batch": {"paths": [op["argv"][1] for op in plan["batch"]],
                  "out": str(workdir / "batch")},
    }
    result = _run_worker(workdir, "trace", manifest)
    plain, traced, table = result["plain_ops"], result["traced_ops"], result["table"]
    checked = (result["warmup_ops"] + plain + table + traced
               + _batch_records(workdir, plan["batch"]))
    checker = Checker(plan)
    failed = checker.count_failed(checked)
    metrics = _layer_metrics(result["trace"], traced)
    plain_s = sum(r["seconds"] for r in plain)
    traced_s = sum(r["seconds"] for r in traced)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    metrics["cli.batch_jobs1_s"] = (result["batch"]["1"], "s")
    metrics["cli.batch_jobs2_s"] = (result["batch"]["2"], "s")
    for row in table:
        metrics[row["name"]] = (row["seconds"], "s")
    detail = {
        "attempted": len(checked), "failed": failed, "failures": checker.failures[:20],
        "ops": len(traced), "plain_s": plain_s, "traced_s": traced_s,
        "composition": _composition(plan, traced),
        "table_shapes": {row["name"]: row["op"]["size"] for row in plan["table"]},
        "spans": result["trace"]["spans"],
        "counts": result["trace"]["counts"],
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes and few ops; for the smoke test")
    args = parser.parse_args(argv)
    args.min_ops = 1 if args.smoke else workloads.MIN_OPS

    if not (SRC / "inred" / "cli.py").is_file():
        print(f"inred sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    load_before = _loadavg()
    started = time.perf_counter()
    mode = "trace" if args.trace else "measure"
    plan = workloads.build(args.workload, args.seed, workdir, mode, args.smoke)
    try:
        if args.trace:
            metrics, detail = trace(args, workdir, plan)
        else:
            metrics, detail = measure(args, workdir, plan)
    finally:
        # keep the manifests, logs, results and spans; drop the bulky files
        for sub in ["scenarios", "out", "batch"] + [f"setup{i}" for i in range(SETUP_SAMPLES)]:
            shutil.rmtree(workdir / sub, ignore_errors=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": _environment(),
        "loadavg_before": load_before, "loadavg_after": _loadavg(),
        "run_wall_s": time.perf_counter() - started,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for reason in detail["failures"]:
        print(f"FAILED {reason}")
    # failed_frac is carried by `failed` / `attempted`: a metric that is 0
    # on a correct run has no relative bound
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                if k != "failed_frac"}
    print(json.dumps({"correct": detail["failed"] == 0, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": reported}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
