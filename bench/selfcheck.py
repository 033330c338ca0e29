"""Self-check of the benchmark: each workload at a tiny size, in both modes.

    python3 bench/selfcheck.py

For every workload and both ``--trace`` values it checks that the last
stdout line has exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; that the metric names and units are those BENCHMARK.json lists
for that mode; that no op failed (``error_rate == 0``); and, for traced
runs, that the spans file is well formed.  Last, it checks that the
benchmark exits non-zero without a result line in a directory that holds
only BENCHMARK.json and the benchmark's own files.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
SPAN_KEYS = {"id", "parent", "op", "name", "start_ns", "end_ns"}


def fail(message: str) -> None:
    print(f"selfcheck FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload: str, trace: int, cwd: Path = ROOT, runner: Path = RUN):
    cmd = [sys.executable, str(runner), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def check_result(workload: str, trace: int, expected: dict) -> dict:
    out = run(workload, trace)
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}: {out.stderr[-800:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail(f"{workload}: attempted = {result['attempted']!r}")
    if result["failed"] != 0 or result["correct"] is not True:
        fail(f"{workload} trace={trace}: error_rate is not 0: {out.stderr[-800:]}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{workload} trace={trace}: metric names differ: "
             f"{sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != expected[name]:
            fail(f"{workload}: metric {name} is {entry}, unit should be {expected[name]}")
        if not isinstance(entry["value"], (int, float)):
            fail(f"{workload}: metric {name} is not a number")
    if trace == 0:
        zero = [n for n, e in metrics.items() if e["value"] <= 0]
        if zero:
            fail(f"{workload}: end-to-end metrics not positive: {zero}")
    return result


def check_spans(workload: str) -> int:
    path = ROOT / ".bench_runs" / f"{workload}-seed7-trace1-tiny" / "spans.jsonl"
    spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    if not spans:
        fail(f"{workload}: no spans recorded")
    by_id = {}
    for s in spans:
        if set(s) != SPAN_KEYS:
            fail(f"{workload}: span keys {sorted(s)}")
        if s["id"] in by_id:
            fail(f"{workload}: duplicate span id {s['id']}")
        if not s["start_ns"] <= s["end_ns"]:
            fail(f"{workload}: span {s['id']} ends before it starts")
        by_id[s["id"]] = s
    for s in spans:
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            fail(f"{workload}: span {s['id']} has unknown parent {s['parent']}")
        if not parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]:
            fail(f"{workload}: span {s['id']} is not inside its parent")
        if parent["op"] != s["op"]:
            fail(f"{workload}: span {s['id']} and its parent carry different op ids")
    roots = [s for s in spans if s["name"].startswith("op.")]
    if not roots or any(s["parent"] is not None or s["op"] is None for s in roots):
        fail(f"{workload}: op root spans missing or malformed")
    return len(spans)


def check_refusal() -> None:
    bare = ROOT / ".bench_runs" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run("exact_kernel", 0, cwd=bare, runner=bare / "bench" / "run.py")
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0:
        fail("the benchmark exited 0 without sources to benchmark")
    if out.stdout.strip():
        fail(f"the benchmark printed a result without sources: {out.stdout[-300:]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(workload, 0, end_to_end)
        check_result(workload, 1, per_layer)
        n = check_spans(workload)
        print(f"{workload}: ok ({n} spans)")
    check_refusal()
    print("refusal without sources: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
