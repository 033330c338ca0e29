"""Per-layer metrics of a traced run, derived from its spans and counters.

Conventions: a ``*_s`` metric is the median duration of one call of that
function, in seconds (inclusive of nested calls, except
``conditioning.conditional_expectation_s``, which is self time); a
``*.calls`` metric is calls per traced op.  A layer that a workload never
enters reports 0.  ``measure.*`` and ``numeric.weight_denominator_bits``
describe the models the workload set up; the ``montecarlo`` sizes are
computed from the ensemble shapes, not measured.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import self_times

PROCESS_CHECKS = (
    "classify", "verify_transform_preservation", "stopped_process", "optional_stopping_report",
    "upcrossing_inequality_check", "l2_pythagoras_check", "stopping_tail_bound_check",
)

# name -> (unit, better)
METRICS = {
    "cli.startup_s": ("s", "lower"),
    "cli.startup_residual_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.stdout_bytes": ("B", "lower"),
    "jsonio.load_s": ("s", "lower"),
    "jsonio.parse_process_spec_s": ("s", "lower"),
    "jsonio.spec_bytes": ("B", "lower"),
    "jsonio.parse_MB_per_s": ("MB/s", "higher"),
    "processes.make_coin_walk_s": ("s", "lower"),
    "measure.outcomes": ("count", "lower"),
    "measure.atoms": ("count", "lower"),
    **{f"processes.{name}_s": ("s", "lower") for name in PROCESS_CHECKS},
    "processes.classify.calls_per_op": ("count", "lower"),
    "processes.outcome_steps_per_s": ("1/s", "higher"),
    "conditioning.conditional_expectation_s": ("s", "lower"),
    "conditioning.conditional_expectation.calls": ("count", "lower"),
    "conditioning.tower_check_s": ("s", "lower"),
    "conditioning.verify_kolmogorov_s": ("s", "lower"),
    "integration.expectation_s": ("s", "lower"),
    "integration.expectation.calls": ("count", "lower"),
    "numeric.calls": ("count", "lower"),
    "numeric.weight_denominator_bits": ("bit", "lower"),
    "numeric.result_denominator_bits": ("bit", "lower"),
    "montecarlo.simulate_walk_s": ("s", "lower"),
    "montecarlo.simulate_doubling_strategy_s": ("s", "lower"),
    "montecarlo.path_steps": ("count", "higher"),
    "montecarlo.ensemble_bytes": ("B", "lower"),
    "montecarlo.alloc_bytes_per_path_step": ("B", "lower"),
    "montecarlo.estimate_functional.terminal_s": ("s", "lower"),
    "montecarlo.estimate_functional.upcrossings_s": ("s", "lower"),
    "montecarlo.estimate_functional.stopped_s": ("s", "lower"),
    "montecarlo.stopped.paths_per_s": ("1/s", "higher"),
    "montecarlo.exact_functional_value_s": ("s", "lower"),
    "montecarlo.cross_validate_s": ("s", "lower"),
    "montecarlo.z_abs_max": ("z", "lower"),
    "trace.overhead_ops_per_s": ("1/s", "higher"),
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def compute(spans, counts, records, facts: dict, extra: dict) -> dict:
    """``records`` are the traced ops: dicts with op_id, meta, stdout_bytes, result_bits."""
    selfs = self_times(spans)
    names = {sid: name for sid, _, _, name, _, _ in spans}
    dur: dict[str, list[int]] = defaultdict(list)
    self_ns: dict[str, list[int]] = defaultdict(list)
    calls_by_op: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    for sid, parent, op, name, t0, t1 in spans:
        dur[name].append(t1 - t0)
        self_ns[name].append(selfs[sid])
        calls_by_op[name][op] += 1

    traced_ids = {r["op_id"] for r in records}
    kind_of = {r["op_id"]: r["kind"] for r in records}
    n_ops = max(1, len(records))

    def med(name: str) -> float:
        return _median(dur.get(name, ())) / 1e9

    def per_op(name: str) -> float:
        return sum(n for op, n in calls_by_op[name].items() if op in traced_ids) / n_ops

    out = {name: 0.0 for name in METRICS}
    out.update({
        "cli.startup_s": extra.get("cli_startup_s", 0.0),
        "cli.startup_residual_s": extra.get("startup_residual_s", 0.0),
        "cli.emit_s": med("cli.emit"),
        "cli.stdout_bytes": _median([r["stdout_bytes"] for r in records if r.get("stdout_bytes")]),
        "jsonio.load_s": med("jsonio.load"),
        "jsonio.parse_process_spec_s": med("jsonio.parse_process_spec"),
        "jsonio.spec_bytes": _median([r["meta"]["spec_bytes"] for r in records
                                      if "spec_bytes" in r["meta"]]),
        "processes.make_coin_walk_s": med("processes.make_coin_walk"),
        "measure.outcomes": facts.get("outcomes", 0),
        "measure.atoms": facts.get("atoms", 0),
        "conditioning.conditional_expectation_s":
            _median(self_ns.get("conditioning.conditional_expectation", ())) / 1e9,
        "conditioning.conditional_expectation.calls":
            per_op("conditioning.conditional_expectation"),
        "conditioning.tower_check_s": med("conditioning.tower_check"),
        "conditioning.verify_kolmogorov_s": med("conditioning.verify_kolmogorov"),
        "integration.expectation_s": med("integration.expectation"),
        "integration.expectation.calls": per_op("integration.expectation"),
        "numeric.calls": sum(counts.values()) / n_ops,
        "numeric.weight_denominator_bits": facts.get("weight_denominator_bits", 0),
        "numeric.result_denominator_bits": max((r["result_bits"] for r in records), default=0),
        # The full-size ensemble only; the small first-hit ensembles would
        # otherwise outnumber it.
        "montecarlo.simulate_walk_s": _median([
            t1 - t0 for _, _, op, name, t0, t1 in spans
            if name == "montecarlo.simulate_walk"
            and kind_of.get(op, "").startswith("simulate_walk.walk")]) / 1e9,
        "montecarlo.simulate_doubling_strategy_s": med("montecarlo.simulate_doubling_strategy"),
        "montecarlo.path_steps": facts.get("simulated_path_steps_per_round", 0),
        "montecarlo.ensemble_bytes": facts.get("ensemble_bytes", 0),
        "montecarlo.alloc_bytes_per_path_step": extra.get("alloc_bytes_per_path_step", 0.0),
        "montecarlo.exact_functional_value_s": med("montecarlo.exact_functional_value"),
        "montecarlo.cross_validate_s": med("montecarlo.cross_validate"),
        "montecarlo.z_abs_max": extra.get("z_abs_max", 0.0),
        "trace.overhead_ops_per_s": extra.get("overhead_ops_per_s", 0.0),
    })
    for kind in ("terminal", "upcrossings", "stopped"):
        out[f"montecarlo.estimate_functional.{kind}_s"] = med(
            f"montecarlo.estimate_functional.{kind}")
    stopped_s = out["montecarlo.estimate_functional.stopped_s"]
    if stopped_s:
        out["montecarlo.stopped.paths_per_s"] = facts.get("stop_paths", 0) / stopped_s
    parse_s = out["jsonio.parse_process_spec_s"]
    if parse_s:
        out["jsonio.parse_MB_per_s"] = out["jsonio.spec_bytes"] / parse_s / 1e6

    for name in PROCESS_CHECKS:
        out[f"processes.{name}_s"] = med(f"processes.{name}")
    # Redundant classification: classify calls per op that needed one (useful = 1).
    classify_ops = [n for op, n in calls_by_op["processes.classify"].items() if op in traced_ids]
    if classify_ops:
        out["processes.classify.calls_per_op"] = sum(classify_ops) / len(classify_ops)
    # Outcome-steps per second of the outermost process checks.
    size_of = {r["op_id"]: r["meta"] for r in records}
    work = busy = 0
    for sid, parent, op, name, t0, t1 in spans:
        if (name.startswith("processes.") and name[len("processes."):] in PROCESS_CHECKS
                and op in size_of and "outcomes" in size_of[op]
                and not names.get(parent, "").startswith("processes.")):
            work += size_of[op]["outcomes"] * (size_of[op]["N"] + 1)
            busy += t1 - t0
    if busy:
        out["processes.outcome_steps_per_s"] = work / (busy / 1e9)
    return out
