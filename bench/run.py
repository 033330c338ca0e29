"""mglab benchmark: three oracle-checked workloads, end-to-end and per-layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload exact_kernel --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` wraps the package's public functions in spans and reports the
per-layer metrics instead.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full results
record (machine facts, source line count, seeded inputs, per-kind
latencies, failures) and, for traced runs, the spans are written under
``.bench_runs/``.  See bench/README.md for what each workload exercises.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from math import exp, lgamma, log
from pathlib import Path

import layers
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
SETUP_REPEATS = 5
STARTUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "path_steps_per_s": "1/s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest model sizes, for the benchmark's self-check")
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up in this fresh process and print it (internal)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Running ops


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - betainc(b, a, 1.0 - x)
    front = exp(a * log(x) + b * log(1.0 - x) - lgamma(a) - lgamma(b) + lgamma(a + b)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def quantile(samples, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (Biometrika 69, 1982).

    A Beta((n+1)q, (n+1)(1-q))-weighted average of all order statistics.
    On a mix of op kinds with very different costs a single order statistic
    jumps whenever one noisy sample crosses a cluster boundary; the weighted
    average moves smoothly and is the steadier figure run to run.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail_quantile(n_min: int) -> float:
    """The tail quantile, fixed per workload.

    It is the highest quantile with TAIL_BEYOND samples beyond it at the
    workload's guaranteed minimum sample count ``n_min``; a run with more
    samples keeps the same quantile, so runs of different lengths report
    the same statistic.
    """
    return 1 - TAIL_BEYOND / n_min


def run_ops(ops, tracer, records, first_id, on_result=None):
    for k, op in enumerate(ops):
        op_id = first_id + k
        if op.before is not None:
            op.meta["before"] = op.before()
        if tracer is not None:
            tracer.op_id = op_id
        with tracer.span("op." + op.kind) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.op_id = None
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        record = {"op_id": op_id, "kind": op.kind, "latency": latency,
                  "path_steps": op.path_steps, "error": error, "meta": op.meta}
        if isinstance(result, dict) and "rss_kb" in result:
            record["rss_kb"] = result["rss_kb"]
        if on_result is not None:
            on_result(op, result, record)
        records.append(record)


def timed_phase(make_round, rng, seconds, min_rounds, tracer=None, on_result=None):
    """Whole rounds until the next one would overrun ``seconds`` (at least ``min_rounds``)."""
    records: list[dict] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        run_ops(make_round(rng), tracer, records, len(records), on_result)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            return records, rounds, elapsed


def end_to_end(records, n_min, setup_s, peak_rss_mb) -> tuple[dict, dict]:
    lat = [r["latency"] for r in records]
    busy = sum(lat)
    q = tail_quantile(n_min)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / busy,
        "latency_p50_s": quantile(lat, 0.5),
        "latency_tail_s": quantile(lat, q),
        "peak_rss_mb": peak_rss_mb,
        "path_steps_per_s": sum(r["path_steps"] for r in records) / busy,
    }
    tail = {"percentile": q * 100, "samples": len(lat), "beyond": round(len(lat) * (1 - q), 1),
            "estimator": "Harrell-Davis"}
    return metrics, tail


def by_kind(records) -> dict:
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(r["kind"], []).append(r["latency"])
    return {k: {"n": len(v), "median_s": statistics.median(v)} for k, v in sorted(groups.items())}


# ---------------------------------------------------------------------------
# Set-up and process-level measurements


def setup_probe(args, workload_cls, workdir) -> int:
    wl = workload_cls(args.seed, args.tiny, workdir)
    t0 = time.perf_counter()
    wl.setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def measure_setup(args) -> list[float]:
    """Set-up time of the package calls, each sample in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def cli_startup() -> list[float]:
    """Wall time of a fresh interpreter that only imports mglab.cli."""
    samples = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mglab.cli"], env=workloads.child_env(),
                       cwd=ROOT,
                       check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


def machine_facts() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor() or None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def source_facts() -> dict:
    """The commit when run in a git checkout, plus a content hash and line count of src/."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 cwd=ROOT, timeout=30)
            commit = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


# ---------------------------------------------------------------------------
# The two kinds of run


def untraced_run(args, wl, workdir) -> tuple[dict, list, dict]:
    setup_samples = measure_setup(args)
    wl.prepare_oracle()
    wl.setup()
    if hasattr(wl, "warm_up"):
        wl.warm_up()
    rng = random.Random(f"op-order-{args.seed}")
    records, rounds, wall = timed_phase(wl.round, rng, args.seconds, wl.min_rounds)
    child_rss = [r["rss_kb"] for r in records if r.get("rss_kb")]
    rss_kb = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n_min = wl.min_rounds * len(wl.round(random.Random(0)))
    metrics, tail = end_to_end(records, n_min, statistics.median(setup_samples), rss_kb / 1024)
    info = {"setup_samples_s": setup_samples, "rounds": rounds, "timed_wall_s": wall,
            "latency_tail": tail, "by_kind": by_kind(records),
            "latencies_s": [[r["kind"], r["latency"]] for r in records],
            "peak_rss_source": "wait4 per child" if child_rss else "ru_maxrss of this process"}
    return metrics, records, info


def traced_run(args, wl, workdir) -> tuple[dict, list, dict]:
    wl.prepare_oracle()
    mglab = workloads.import_package()
    tracer = tracing.Tracer()
    tracer.install(mglab)
    wl.setup()  # traced, so set-up spans such as make_coin_walk are recorded
    tracer.uninstall()
    half = args.seconds / 2
    untraced_round = getattr(wl, "inprocess_round", wl.round)
    rng = random.Random(f"op-order-{args.seed}")

    # Phase A: the same in-process ops with tracing off, for the overhead.
    plain, _, _ = timed_phase(untraced_round, rng, half, 1)

    def observe(op, result, record):
        if isinstance(result, dict) and "stdout" in result:
            record["stdout_bytes"] = len(result["stdout"])
            try:
                record["result_bits"] = workloads.denominator_bits(json.loads(result["stdout"]))
            except ValueError:
                record["result_bits"] = 0
            child = op.meta.get("before")
            if child is not None:
                record["startup_residual_s"] = child["wall_s"] - record["latency"]
        else:
            record["result_bits"] = workloads.denominator_bits(result)

    # Phase B: traced ops; for cli_verify each is a CLI child followed by
    # the same call repeated in-process under the tracer.
    tracer.install(mglab)
    traced, rounds, _ = timed_phase(wl.traced_round, rng, half, 1, tracer, observe)
    tracer.uninstall()

    extra = {"overhead_ops_per_s": len(traced) / sum(r["latency"] for r in traced)
             - len(plain) / sum(r["latency"] for r in plain)}
    residuals = [r["startup_residual_s"] for r in traced if "startup_residual_s" in r]
    if residuals:
        extra["startup_residual_s"] = statistics.median(residuals)
        extra["cli_startup_s"] = statistics.median(cli_startup())
    if hasattr(wl, "z_abs_max"):
        extra["z_abs_max"] = wl.z_abs_max
        extra["alloc_bytes_per_path_step"] = wl.alloc_bytes_per_path_step()
    metrics = layers.compute(tracer.spans, tracer.counts, traced, wl.model_facts(), extra)
    spans_path = workdir / "spans.jsonl"
    tracer.dump(spans_path)
    info = {"rounds": rounds, "untraced_ops": len(plain), "traced_ops": len(traced),
            "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
            "numeric_calls": dict(tracer.counts), "by_kind": by_kind(traced),
            "cli_startup_vs_residual_s": [extra.get("cli_startup_s"),
                                          extra.get("startup_residual_s")]}
    return metrics, plain + traced, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mglab" / "__init__.py").is_file():
        print(f"error: no mglab sources at {SRC / 'mglab'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    workdir = RUNS / tag
    if args.setup_probe:
        return setup_probe(args, cls, RUNS / "probe" / tag)
    workdir.mkdir(parents=True, exist_ok=True)

    wl = cls(args.seed, args.tiny, workdir)
    run = traced_run if args.trace else untraced_run
    values, records, info = run(args, wl, workdir)
    units = {k: u for k, (u, _) in layers.METRICS.items()} if args.trace else END_TO_END
    failures = [f"{r['kind']}: {r['error']}" for r in records if r["error"]]
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "error_rate": len(failures) / len(records),
        **result, "failures": failures[:20], "run": info, "inputs": wl.summary(),
        "machine": machine_facts(), "source": source_facts(),
    }
    (workdir / "results.json").write_text(json.dumps(record, indent=2, default=str) + "\n",
                                         encoding="utf-8")
    for line in failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
