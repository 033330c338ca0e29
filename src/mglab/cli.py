"""Command-line front end: `mgl sigma|verify|simulate|walk-spec`.

One process per command, no interactive state.  Output is JSON by default
(``--format human`` renders the same numbers as indented text), rationals
print as "p/q" strings, floats with 17 significant digits, and a fixed seed
gives byte-identical bytes on every run.

Exit codes are part of the contract:

    0  the command ran and the checked statement passed
    1  a theorem hypothesis failed (the input does not satisfy the premise)
    2  input error: malformed JSON, schema violation, bad flags
    3  hypotheses held but the conclusion failed, or an unexpected internal
       error occurred; either means a defect in this tool, never a
       counterexample to the mathematics, and the message says so

The enumeration limit can be set per call with ``--limit`` or globally with
the ``MGL_ENUM_LIMIT`` environment variable.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from . import conditioning as cond
from . import processes as proc
from .integration import expectation
from .jsonio import (
    SpecError,
    filtration_to_obj,
    parse_process_spec,
    parse_space_descriptor,
    process_to_obj,
    space_to_obj,
    to_jsonable,
)
from .measure import (
    DEFAULT_ENUMERATION_LIMIT,
    SizeLimitError,
    enumerate_sets,
    generate_sigma_algebra,
)
from .montecarlo import (
    Functional,
    estimate_functional,
    simulate_doubling_strategy,
    simulate_walk,
)
from .numeric import DEFAULT_TOLERANCE, format_number, numbers_equal, parse_number


class InternalCheckError(RuntimeError):
    """Hypotheses held but a proven statement failed: a bug in this tool."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run settings shared by the subcommands."""

    output_format: str
    tolerance: float
    enumeration_limit: int

    def __post_init__(self):
        if self.output_format not in ("json", "human"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.enumeration_limit < 1:
            raise ValueError("enumeration limit must be at least 1")


def _default_limit() -> int:
    raw = os.environ.get("MGL_ENUM_LIMIT")
    if raw is None:
        return DEFAULT_ENUMERATION_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"MGL_ENUM_LIMIT must be an integer, got {raw!r}") from None
    return value


def _config(args) -> RunConfig:
    limit = args.limit if getattr(args, "limit", None) is not None else _default_limit()
    return RunConfig(
        output_format=getattr(args, "format", "json"),
        tolerance=getattr(args, "tolerance", DEFAULT_TOLERANCE),
        enumeration_limit=limit,
    )


def _human_lines(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_human_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return lines
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return [f"{pad}- {v}" for v in value] if value else [f"{pad}(empty)"]
        lines = []
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_human_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
        return lines
    return [f"{pad}{value}"]


def _emit(report: dict, config: RunConfig, out_path: str | None = None) -> None:
    payload = to_jsonable(report)
    text = json.dumps(payload, indent=2)
    if config.output_format == "human":
        shown = "\n".join(_human_lines(payload))
    else:
        shown = text
    print(shown)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError("(document)", f"malformed JSON: {exc}") from None


# ---------------------------------------------------------------------------
# sigma


def cmd_sigma(args) -> int:
    config = _config(args)
    space, _, generators = parse_space_descriptor(_load_json(args.spec))
    sigma = generate_sigma_algebra(space, generators)
    report: dict = {
        "command": "sigma",
        "outcomes": list(space.outcome_labels),
        "generator_count": len(generators),
        "atom_count": sigma.atom_count,
        "atoms": [list(a.members) for a in sigma.atoms],
        "set_count": 2 ** sigma.atom_count,
    }
    try:
        sets = enumerate_sets(sigma, config.enumeration_limit)
        report["sets"] = [list(s.members) for s in sets]
        report["warning"] = None
    except SizeLimitError as exc:
        report["sets"] = None
        report["warning"] = str(exc)
    _emit(report, config, getattr(args, "out", None))
    return 0


# ---------------------------------------------------------------------------
# verify

THEOREMS = (
    "classify",
    "transform",
    "stopped",
    "optional-stopping",
    "upcrossing",
    "pythagoras",
    "tower",
    "kolmogorov",
    "tail-bound",
)


def _require(spec, field: str):
    value = getattr(spec, field.replace("-", "_"))
    if value is None:
        raise SpecError(field, "required by this theorem selector but missing")
    return value


def _witness_obj(witness):
    if witness is None:
        return None
    n, atom = witness
    return {"step": n, "atom": list(atom.members)}


def cmd_verify(args) -> int:
    config = _config(args)
    spec = parse_process_spec(_load_json(args.spec))
    theorem = args.theorem
    tol = config.tolerance

    if spec.measure is None:
        raise SpecError("space.weights", "verification needs a probability measure")
    P = spec.measure

    # Each branch sets the verdict and, for the case where the hypotheses
    # held but the conclusion failed, a description of that defect.
    hypothesis_ok = True
    reason: str | None = None
    passed = True
    defect = ""
    detail: dict = {}

    if theorem == "classify":
        X = _require(spec, "process")
        verdict = proc.classify(X, P, tol)
        detail = {"label": verdict.label, "witness": _witness_obj(verdict.witness)}

    elif theorem == "transform":
        X = _require(spec, "process")
        C = _require(spec, "predictable")
        bound = spec.bound
        if bound is None:
            bound = max((abs(v) for rv in C.values for v in rv.values), default=0)
        rep = proc.verify_transform_preservation(C, X, P, bound, tol)
        hypothesis_ok = rep.hypothesis_ok
        reason = rep.hypothesis_failure
        passed = bool(rep)
        defect = (
            "transform preservation failed with hypotheses satisfied: "
            f"input {rep.input_label}, output {rep.output_label}, step identity "
            f"{'held' if rep.step_identity_ok else 'failed'}"
        )
        detail = dict(to_jsonable(rep))

    elif theorem == "stopped":
        X = _require(spec, "process")
        tau = _require(spec, "stopping_time")
        in_label = proc.classify(X, P, tol).label
        stopped = proc.stopped_process(X, tau)
        out_label = proc.classify(stopped, P, tol).label
        start = expectation(X.values[0], P)
        means = [expectation(rv, P) for rv in stopped.values]
        detail = {
            "input_label": in_label,
            "stopped_label": out_label,
            "start_mean": start,
            "stopped_means_by_stage": means,
        }
        if in_label == proc.UNCLASSIFIED:
            hypothesis_ok = False
            reason = (
                "input classifies as none; stopping preserves martingale, supermartingale, "
                "and submartingale structure only"
            )
            passed = False
        elif in_label == proc.MARTINGALE:
            passed = out_label == proc.MARTINGALE and all(
                numbers_equal(m, start, tol) for m in means
            )
        elif in_label in proc.SUPERMARTINGALE_FAMILY:
            passed = out_label in proc.SUPERMARTINGALE_FAMILY
        else:
            passed = out_label in proc.SUBMARTINGALE_FAMILY
        defect = f"stopped process of a {in_label} classified as {out_label}"

    elif theorem == "optional-stopping":
        X = _require(spec, "process")
        tau = _require(spec, "stopping_time")
        rep = proc.optional_stopping_report(X, tau, P, tol)
        detail = dict(to_jsonable(rep))
        passed = bool(rep.holds)
        if rep.holds is None:
            hypothesis_ok = False
            reason = "; ".join(
                n for n in rep.notes if "not asserted" in n or "no claim" in n
            ) or "no optional-stopping hypothesis applies"
        else:
            defect = (
                "optional stopping failed with hypotheses satisfied "
                f"(E[X_tau] = {format_number(rep.value_at_stop)}, E[X_0] = "
                f"{format_number(rep.value_at_start)})"
            )

    elif theorem == "upcrossing":
        X = _require(spec, "process")
        interval = _require(spec, "interval")
        rep = proc.upcrossing_inequality_check(X, P, interval[0], interval[1], tol)
        detail = dict(to_jsonable(rep))
        hypothesis_ok = rep.hypothesis_ok
        if not hypothesis_ok:
            reason = rep.notes[0] if rep.notes else "not a supermartingale"
        passed = hypothesis_ok and bool(rep.holds and rep.corollary_holds)
        defect = "upcrossing inequality failed on a supermartingale"

    elif theorem == "pythagoras":
        M = _require(spec, "process")
        rep = proc.l2_pythagoras_check(M, P, tol)
        detail = dict(to_jsonable(rep))
        hypothesis_ok = rep.hypothesis_ok
        if not hypothesis_ok:
            reason = rep.notes[0] if rep.notes else "not a martingale"
        passed = hypothesis_ok and bool(rep.holds)
        defect = f"the L2 identity failed on a martingale (gap {format_number(rep.gap)})"

    elif theorem == "tower":
        X = _require(spec, "variable")
        G = _require(spec, "conditioning")
        H = _require(spec, "conditioning_fine")
        passed = cond.tower_check(X, G, H, P, tol)
        base = cond.conditional_expectation(X, G, P, tol)
        detail = {
            "conditional_given_coarse": base.result,
            "null_atoms": [list(a.members) for a in base.null_atoms],
            "both_nestings_hold": passed,
        }
        defect = "a tower identity failed on nested sigma-algebras"

    elif theorem == "kolmogorov":
        X = _require(spec, "variable")
        G = _require(spec, "conditioning")
        computed = cond.conditional_expectation(X, G, P, tol)
        if spec.candidate is not None:
            Y = spec.candidate
            candidate_source = "given"
        else:
            Y = computed.result
            candidate_source = "computed"
        passed = cond.verify_kolmogorov(X, G, P, Y, tol)
        detail = {
            "candidate_source": candidate_source,
            "candidate": Y,
            "conditional_expectation": computed.result,
            "null_atoms": [list(a.members) for a in computed.null_atoms],
            "identity_holds": passed,
        }
        if not passed and candidate_source == "given":
            hypothesis_ok = False
            reason = "the supplied candidate is not a version of the conditional expectation"
        defect = "the computed conditional expectation failed its defining identity"

    elif theorem == "tail-bound":
        tau = _require(spec, "stopping_time")
        F = _require(spec, "filtration")
        window = _require(spec, "window")
        epsilon = _require(spec, "epsilon")
        rep = proc.stopping_tail_bound_check(tau, F, P, window, epsilon)
        detail = dict(to_jsonable(rep))
        hypothesis_ok = rep.hypothesis_ok
        if not hypothesis_ok:
            witness = _witness_obj(rep.hypothesis_witness)
            reason = f"conditional firing probability fails the epsilon floor at {witness}"
        passed = hypothesis_ok and rep.chain_ok and rep.expectation_ok
        defect = "the geometric tail chain failed with its hypothesis satisfied"

    else:
        raise SpecError("theorem", f"unknown selector {theorem!r}")

    if hypothesis_ok and not passed:
        raise InternalCheckError(
            f"{defect}; this indicates a defect in this tool, not a counterexample "
            "to the theorem"
        )
    exit_code = 0 if passed else 1
    report = {
        "command": "verify",
        "theorem": theorem,
        "hypothesis_ok": hypothesis_ok,
        "reason": reason,
        "pass": passed,
        "exit_code": exit_code,
        "detail": detail,
    }
    _emit(report, config, getattr(args, "out", None))
    return exit_code


# ---------------------------------------------------------------------------
# simulate


def _write_csv(path: str, ensemble) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"t{t}" for t in range(ensemble.horizon + 1)) + "\n")
        for row in ensemble.paths:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def cmd_simulate(args) -> int:
    config = _config(args)
    seed = args.seed if args.seed is not None else 0
    if args.model == "walk":
        if args.n is None:
            raise SpecError("--n", "the walk model needs a horizon")
        p = parse_number(args.p)
        ensemble = simulate_walk(args.n, p, args.paths, seed)
        est = estimate_functional(ensemble, Functional.terminal())
        report = {
            "command": "simulate",
            "model": "walk",
            "n": args.n,
            "p": p,
            "n_paths": args.paths,
            "seed": seed,
            "terminal_estimate": est,
        }
    elif args.model == "doubling":
        if args.levels is None:
            raise SpecError("--levels", "the doubling model needs a level budget")
        p = parse_number(args.p)
        entry = parse_number(args.entry)
        ensemble, rep = simulate_doubling_strategy(entry, args.levels, p, args.paths, seed)
        report = {
            "command": "simulate",
            "model": "doubling",
            "levels": args.levels,
            "p": p,
            "entry_price": entry,
            "n_paths": args.paths,
            "seed": seed,
            "profit_estimate": rep,
        }
    else:
        raise SpecError("model", f"unknown model {args.model!r}")

    out = getattr(args, "out", None)
    if out:
        _write_csv(out, ensemble)
        report["csv_path"] = out
    _emit(report, config)
    return 0


# ---------------------------------------------------------------------------
# walk-spec


def cmd_walk_spec(args) -> int:
    _config(args)  # rejects bad shared flags, though walk-spec uses none of them
    p = parse_number(args.p)
    space, measure, filtration, walk = proc.make_coin_walk(args.n, p)
    spec: dict = {
        "space": space_to_obj(space, measure),
        "filtration": filtration_to_obj(filtration),
        "process": process_to_obj(walk),
    }
    if args.stop_hit is not None:
        level = args.stop_hit
        times = []
        for i in range(space.size):
            path = walk.path(i)
            hit = next((n for n, v in enumerate(path) if v == level), None)
            times.append(hit)
        spec["stopping_time"] = times
    if args.interval is not None:
        a = parse_number(args.interval[0])
        b = parse_number(args.interval[1])
        if not a < b:
            raise SpecError("--interval", f"need a < b, got a = {a}, b = {b}")
        spec["interval"] = [a, b]
    if args.window is not None:
        spec["window"] = args.window
    if args.epsilon is not None:
        spec["epsilon"] = parse_number(args.epsilon)

    text = json.dumps(to_jsonable(spec), indent=2)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote spec for N={args.n} to {out}")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "human"), default="json",
                        help="output rendering (identical numbers either way)")
    common.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="comparison tolerance for float-valued inputs")
    common.add_argument("--limit", type=int, default=None,
                        help="enumeration limit (default 2**20 or MGL_ENUM_LIMIT)")
    common.add_argument("--out", default=None,
                        help="also write the primary artifact to this path")

    parser = argparse.ArgumentParser(
        prog="mgl",
        description="Exact workbench for discrete-time martingales on finite spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sigma = sub.add_parser("sigma", parents=[common],
                             help="generate a sigma-algebra from a space descriptor")
    p_sigma.add_argument("spec", help="JSON space descriptor file")
    p_sigma.set_defaults(func=cmd_sigma)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="check a theorem against a process spec")
    p_verify.add_argument("spec", help="JSON process spec file")
    p_verify.add_argument("theorem", choices=THEOREMS)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run the Monte Carlo engine")
    p_sim.add_argument("model", choices=("walk", "doubling"))
    p_sim.add_argument("--n", type=int, default=None, help="walk horizon")
    p_sim.add_argument("--levels", type=int, default=None, help="doubling level budget")
    p_sim.add_argument("--p", default="1/2", help="up-move probability")
    p_sim.add_argument("--entry", default="0", help="doubling entry price (narrative only)")
    p_sim.add_argument("--paths", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_walk = sub.add_parser("walk-spec", parents=[common],
                            help="emit a ready-made coin-walk process spec")
    p_walk.add_argument("--n", type=int, required=True, help="horizon (1..20)")
    p_walk.add_argument("--p", default="1/2", help="heads probability")
    p_walk.add_argument("--stop-hit", type=int, default=None,
                        help="add the first time the walk hits this level as a stopping time")
    p_walk.add_argument("--interval", nargs=2, default=None, metavar=("A", "B"),
                        help="embed an upcrossing interval")
    p_walk.add_argument("--window", type=int, default=None,
                        help="embed a tail-bound window")
    p_walk.add_argument("--epsilon", default=None,
                        help="embed a tail-bound epsilon")
    p_walk.set_defaults(func=cmd_walk_spec)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Anything else is a bug or resource exhaustion; exit 3 keeps it
        # from reading as "hypothesis failed" (exit 1).
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
