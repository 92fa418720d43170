"""One benchmark process: import `inred.cli`, warm up, then run ops.

    python3 bench/worker.py MANIFEST RESULT

Started by `run.py` in a fresh interpreter with `src` on PYTHONPATH.  The
manifest names the ops; each op is one `inred.cli.main` call on one
scenario file, timed from the call until its output has been written under
`--out`.  Modes:

* `setup`: import and warm-up only; reports their times.
* `measure`: closed loop over the ops, one at a time, until `seconds` of op
  time have passed and at least `min_ops` ops have run.
* `trace`: a fixed list of ops, each run once untraced and once with spans
  recorded around the public functions of every layer (see `tracer.py`),
  then the size table and the `--jobs` batches, untraced.

Outputs are hashed after each op, outside the timed region; an output equal
to one already kept for the same scenario is deleted, so `run.py` checks
each distinct output once.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def _digest(paths: list[Path]) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for p in paths:
        data = p.read_bytes()
        size += len(data)
        h.update(data)
    return h.hexdigest(), size


def _outputs(out: Path) -> list[Path]:
    summary = out.with_suffix(out.suffix + ".summary.json")
    return [out, summary] if summary.exists() else [out]


class Runner:
    def __init__(self, cli, out_dir: Path):
        self.cli = cli
        self.out_dir = out_dir
        self.kept: dict[tuple[str, str], str] = {}
        self.count = 0

    def run(self, op: dict) -> dict:
        """Run one op and return its record (time, exit code, output hash)."""
        self.count += 1
        out = self.out_dir / f"{self.count:06d}{op['suffix']}"
        argv = op["argv"] + ["--out", str(out)]
        error = None
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed op, not a failed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        record = {"id": op["id"], "seconds": elapsed, "code": code, "error": error}
        if out.exists():
            paths = _outputs(out)
            digest, size = _digest(paths)
            key = (op["id"], digest)
            if key in self.kept:
                for p in paths:
                    p.unlink()
            else:
                self.kept[key] = str(out)
            record.update(digest=digest, bytes_out=size, output=self.kept[key])
        return record


def _warm_up(runner: Runner, ops: list[dict]) -> tuple[float, list[dict]]:
    start = time.perf_counter()
    records = [runner.run(op) for op in ops]
    return time.perf_counter() - start, records


def _measure(runner: Runner, ops: list[dict], seconds: float, min_ops: int,
             cap_seconds: float) -> list[dict]:
    records = []
    busy = 0.0
    wall_start = time.perf_counter()
    i = 0
    while busy < seconds or len(records) < min_ops:
        if time.perf_counter() - wall_start > cap_seconds:
            break
        rec = runner.run(ops[i % len(ops)])
        busy += rec["seconds"]
        records.append(rec)
        i += 1
    return records


def _table(runner: Runner, rows: list[dict]) -> list[dict]:
    out = []
    for row in rows:
        rec = runner.run(row["op"])
        out.append({"name": row["name"], **rec})
    return out


def _batch(cli, batch: dict, jobs: int) -> float:
    """Seconds for one multi-file analyze; run.py checks each file's output."""
    out_dir = Path(batch["out"]) / f"jobs{jobs}"
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    cli.main(["analyze", *batch["paths"], "--out", str(out_dir), "--jobs", str(jobs)])
    return time.perf_counter() - start


def main() -> int:
    manifest = json.loads(Path(sys.argv[1]).read_text())
    start = time.perf_counter()
    import inred.cli as cli
    import_s = time.perf_counter() - start

    out_dir = Path(manifest["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, out_dir)
    warm_up_s, warm_up_ops = _warm_up(runner, manifest["warmup"])
    result: dict = {"import_s": import_s, "warmup_s": warm_up_s, "warmup_ops": warm_up_ops}

    mode = manifest["mode"]
    if mode == "measure":
        result["ops"] = _measure(runner, manifest["ops"], manifest["seconds"],
                                 manifest["min_ops"], manifest["cap_seconds"])
    elif mode == "trace":
        import tracer

        trace = tracer.Tracer()
        plain, traced = [], []
        for i, op in enumerate(manifest["ops"]):
            # each op runs untraced and traced back to back, alternating which
            # goes first, so the overhead ratio is paired op by op
            for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_turn:
                    with trace.installed():
                        trace.begin_op(op, os.path.getsize(op["argv"][1]))
                        traced.append(runner.run(op))
                else:
                    plain.append(runner.run(op))
        result.update(plain_ops=plain, traced_ops=traced, trace=trace.summary())
        trace.write_spans(Path(manifest["spans"]))
        result["table"] = _table(runner, manifest["table"])
        result["batch"] = {str(j): _batch(cli, manifest["batch"], j) for j in (1, 2)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
