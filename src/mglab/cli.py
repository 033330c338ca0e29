"""Command-line front end: `mgl sigma|verify|simulate|walk-spec`.

One process per command, no interactive state.  Output is JSON by default
(``--format human`` renders the same numbers as indented text), rationals
print as "p/q" strings, floats with 17 significant digits, and a fixed seed
gives byte-identical bytes on every run.

Exit codes are part of the contract:

    0  the command ran and the checked statement passed
    1  a theorem hypothesis failed (the input does not satisfy the premise)
    2  input error: malformed JSON, schema violation, bad flags; or an
       installation error: numpy, which only ``mgl simulate`` needs, cannot
       be imported
    3  hypotheses held but the conclusion failed (``mgl verify`` prints its
       report, then its own line on stderr, and returns 3), or an unexpected
       internal error occurred; either means a defect in this tool, never a
       counterexample to the mathematics, and the message says so
  141  (shell status) stdout closed early: SIGPIPE ends ``mgl`` silently, as it ends ``cat``

The enumeration limit can be set per call with ``--limit`` or globally with
the ``MGL_ENUM_LIMIT`` environment variable.  ``--out`` is written before
anything is printed, so a path that cannot be written is exit 2 with empty
stdout, whatever the verdict would have been.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys

from . import conditioning as cond
from . import processes as proc
from .integration import expectation
from .jsonio import (SpecError, _built, _parse_value, parse_process_spec, parse_space_descriptor,
                     to_jsonable)
from .measure import (
    DEFAULT_ENUMERATION_LIMIT,
    SizeLimitError,
    enumerate_sets,
    generate_sigma_algebra,
)
from .numeric import DEFAULT_TOLERANCE, numbers_equal


def _default_limit() -> int:
    raw = os.environ.get("MGL_ENUM_LIMIT")
    if raw is None:
        return DEFAULT_ENUMERATION_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"MGL_ENUM_LIMIT must be an integer, got {raw!r}") from None


def _config(args) -> int:
    """Check the shared flags (argparse's choices own ``--format``); return the limit."""
    limit = args.limit if args.limit is not None else _default_limit()
    if not 0 < args.tolerance < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if limit < 1:
        raise ValueError("enumeration limit must be at least 1")
    return limit


def _human_lines(value: dict | list, indent: int = 0) -> list[str]:
    """A JSON object or array as indented lines: ``key: scalar`` and ``- scalar`` on one
    line, a nested object or array under a ``key:`` or ``-`` line of its own."""
    pad = "  " * indent
    if isinstance(value, dict):
        items = [(f"{k}:", v) for k, v in value.items()]
    elif not value:
        return [f"{pad}(empty)"]
    else:
        items = [("-", v) for v in value]
    lines = []
    for head, v in items:
        if isinstance(v, (dict, list)):
            lines.append(f"{pad}{head}")
            lines.extend(_human_lines(v, indent + 1))
        else:
            lines.append(f"{pad}{head} {v}")
    return lines


def _emit(report: dict, output_format: str, out_path: str | None = None) -> None:
    payload = to_jsonable(report)
    text = json.dumps(payload, indent=2)
    if output_format == "human":
        shown = "\n".join(_human_lines(payload))
    else:
        shown = text
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(shown)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError("(document)", f"malformed JSON: {exc}") from None


# ---------------------------------------------------------------------------
# sigma


def cmd_sigma(args) -> int:
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
        sets = enumerate_sets(sigma, args.limit)
        report["sets"] = [list(s.members) for s in sets]
        report["warning"] = None
    except SizeLimitError as exc:
        report["sets"] = None
        report["warning"] = str(exc)
    _emit(report, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
#
# One runner per selector maps (spec, measure, tolerance) to (detail, reason,
# passed).  ``reason`` is None exactly when the hypotheses held; a conclusion
# that then fails is exit 3 for every selector alike.  Runners look up the
# checks on `proc` and `cond` at call time.


def _require(spec, *fields: str) -> list:
    """The named spec fields, in order; the first missing one is an input error."""
    for field in fields:
        if getattr(spec, field) is None:
            raise SpecError(field, "required by this theorem selector but missing")
    return [getattr(spec, field) for field in fields]


def _witness_obj(witness):
    if witness is None:
        return None
    n, atom = witness
    return {"step": n, "atom": list(atom.members)}


def _classify(spec, P, tol):
    (X,) = _require(spec, "process")
    verdict = proc.classify(X, P, tol)
    return {"label": verdict.label, "witness": _witness_obj(verdict.witness)}, None, True


def _transform(spec, P, tol):
    X, C = _require(spec, "process", "predictable")
    bound = spec.bound
    if bound is None:
        bound = max((abs(v) for values in C.nodes for v in values), default=0)
    rep = proc.verify_transform_preservation(C, X, P, bound, tol)
    return rep, rep.hypothesis_failure, bool(rep)


def _stopped(spec, P, tol):
    X, tau = _require(spec, "process", "stopping_time")
    in_label = proc.classify(X, P, tol).label
    stopped = proc.stopped_process(X, tau)
    out_label = proc.classify(stopped, P, tol).label
    means = [expectation(rv, P) for rv in stopped.values]
    start = means[0]
    detail = {
        "input_label": in_label,
        "stopped_label": out_label,
        "start_mean": start,
        "stopped_means_by_stage": means,
    }
    if in_label not in proc._CLAIMS:
        reason = (
            "input classifies as none; stopping preserves martingale, supermartingale, "
            "and submartingale structure only"
        )
        return detail, reason, False
    family, sign = proc._CLAIMS[in_label]
    # A stopped martingale also keeps its mean at E[X_0] at every stage.
    passed = out_label in family and (sign != 0 or all(numbers_equal(m, start, tol) for m in means))
    return detail, None, passed


def _optional_stopping(spec, P, tol):
    X, tau = _require(spec, "process", "stopping_time")
    rep = proc.optional_stopping_report(X, tau, P, tol)
    if rep.holds is None:
        reason = "; ".join(n for n in rep.notes if "not asserted" in n or "no claim" in n)
        return rep, reason, False
    return rep, None, bool(rep)


def _upcrossing(spec, P, tol):
    X, (a, b) = _require(spec, "process", "interval")
    rep = proc.upcrossing_inequality_check(X, P, a, b, tol)
    return rep, None if rep.hypothesis_ok else rep.notes[0], bool(rep)


def _pythagoras(spec, P, tol):
    (M,) = _require(spec, "process")
    rep = proc.l2_pythagoras_check(M, P, tol)
    return rep, None if rep.hypothesis_ok else rep.notes[0], bool(rep)


def _tower(spec, P, tol):
    X, G, H = _require(spec, "variable", "conditioning", "conditioning_fine")
    passed = cond.tower_check(X, G, H, P, tol)
    base = cond.conditional_expectation(X, G, P, tol)
    detail = {
        "conditional_given_coarse": base.result,
        "null_atoms": [list(a.members) for a in base.null_atoms],
        "both_nestings_hold": passed,
    }
    return detail, None, passed


def _kolmogorov(spec, P, tol):
    X, G = _require(spec, "variable", "conditioning")
    computed = cond.conditional_expectation(X, G, P, tol)
    given = spec.candidate is not None
    Y = spec.candidate if given else computed.result
    passed = cond.verify_kolmogorov(X, G, P, Y, tol)
    detail = {
        "candidate_source": "given" if given else "computed",
        "candidate": Y,
        "conditional_expectation": computed.result,
        "null_atoms": [list(a.members) for a in computed.null_atoms],
        "identity_holds": passed,
    }
    if given and not passed:
        reason = "the supplied candidate is not a version of the conditional expectation"
        return detail, reason, False
    return detail, None, passed


def _tail_bound(spec, P, tol):
    tau, window, epsilon = _require(spec, "stopping_time", "window", "epsilon")
    rep = proc.stopping_tail_bound_check(tau, tau.filtration, P, window, epsilon)
    if not rep.hypothesis_ok:
        witness = _witness_obj(rep.hypothesis_witness)
        reason = f"conditional firing probability fails the epsilon floor at {witness}"
        return rep, reason, False
    return rep, None, bool(rep)


THEOREMS = {
    "classify": _classify,
    "transform": _transform,
    "stopped": _stopped,
    "optional-stopping": _optional_stopping,
    "upcrossing": _upcrossing,
    "pythagoras": _pythagoras,
    "tower": _tower,
    "kolmogorov": _kolmogorov,
    "tail-bound": _tail_bound,
}


def cmd_verify(args) -> int:
    spec = parse_process_spec(_load_json(args.spec))
    if spec.measure is None:
        raise SpecError("space.weights", "verification needs a probability measure")
    detail, reason, passed = THEOREMS[args.theorem](spec, spec.measure, args.tolerance)
    exit_code = 0 if passed else 1 if reason is not None else 3
    report = {
        "command": "verify",
        "theorem": args.theorem,
        "hypothesis_ok": reason is None,
        "reason": reason,
        "pass": passed,
        "exit_code": exit_code,
        "detail": detail,
    }
    _emit(report, args.format, args.out)
    if exit_code == 3:
        print(f"internal invariant violation: verify {args.theorem}: the conclusion failed "
              "with its hypotheses satisfied; this indicates a defect in this tool, not a "
              "counterexample to the theorem", file=sys.stderr)
    return exit_code


# ---------------------------------------------------------------------------
# simulate


def _write_csv(path: str, ensemble) -> None:
    from .montecarlo import _BLOCK
    width = ensemble.horizon + 1
    rows = max(1, _BLOCK // width)
    line = ",".join(["%d"] * width) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"t{t}" for t in range(width)) + "\n")
        # A block of rows at a time, so the paths never all become Python ints.
        for r0 in range(0, ensemble.n_paths, rows):
            fh.writelines(line % tuple(row) for row in ensemble.paths[r0 : r0 + rows].tolist())


def cmd_simulate(args) -> int:
    # Only sampling needs numpy, so the other commands start without it.
    try:
        from .montecarlo import (Functional, estimate_functional, simulate_doubling_strategy,
                                 simulate_walk)
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        # A missing dependency is an installation error, not a defect in this tool (exit 3).
        print(f"installation error: mgl simulate needs numpy, which cannot be imported ({exc})",
              file=sys.stderr)
        return 2
    if args.model == "walk":
        if args.n is None:
            raise SpecError("--n", "the walk model needs a horizon")
        p = _parse_value(args.p, "--p")
        ensemble = simulate_walk(args.n, p, args.paths, args.seed)
        est = estimate_functional(ensemble, Functional.terminal())
        report = {
            "command": "simulate",
            "model": "walk",
            "n": args.n,
            "p": p,
            "n_paths": args.paths,
            "seed": args.seed,
            "terminal_estimate": est,
        }
    else:
        if args.levels is None:
            raise SpecError("--levels", "the doubling model needs a level budget")
        p = _parse_value(args.p, "--p")
        entry = _parse_value(args.entry, "--entry")
        ensemble, rep = simulate_doubling_strategy(entry, args.levels, p, args.paths, args.seed)
        report = {
            "command": "simulate",
            "model": "doubling",
            "levels": args.levels,
            "p": p,
            "entry_price": entry,
            "n_paths": args.paths,
            "seed": args.seed,
            "profit_estimate": rep,
        }

    if args.out:
        _write_csv(args.out, ensemble)
        report["csv_path"] = args.out
    _emit(report, args.format)
    return 0


# ---------------------------------------------------------------------------
# walk-spec


def cmd_walk_spec(args) -> int:
    p = _parse_value(args.p, "--p")
    space, measure, filtration, walk = proc.make_coin_walk(args.n, p)
    spec: dict = {
        "space": {"outcomes": space.outcome_labels, "weights": measure.weights},
        "filtration": filtration.stages,
        "process": walk.values,
    }
    if args.stop_hit is not None:
        level = args.stop_hit
        paths = zip(*(rv.values for rv in walk.values))
        spec["stopping_time"] = [
            next((n for n, v in enumerate(path) if v == level), None) for path in paths
        ]
    if args.interval is not None:
        spec["interval"] = _built("--interval", proc._interval,
                                  *(_parse_value(v, "--interval") for v in args.interval))
    if args.window is not None:
        spec["window"] = _built("--window", proc._window, args.window)
    if args.epsilon is not None:
        spec["epsilon"] = _built("--epsilon", proc._epsilon,
                                 _parse_value(args.epsilon, "--epsilon"))

    text = json.dumps(to_jsonable(spec), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote spec for N={args.n} to {args.out}")
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
        args.limit = _config(args)
        return args.func(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Anything else is a bug or resource exhaustion; exit 3 keeps it
        # from reading as "hypothesis failed" (exit 1).
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed stdout pipe ends the run as it ends `cat`
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
