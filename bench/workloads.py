"""The three workloads: their set-up, their ops, and the check of every op.

A workload builds its seeded inputs and their oracle answers when it is
created (untimed), makes its package calls in ``setup`` (timed as
``setup_s``), and then hands out rounds of ops.  Every round holds the same
ops in a seeded order, so the mix of op kinds in a run never depends on
where the clock stopped.  Each op is a single call into the package plus a
check of its result against the oracle; the check runs after the op's
latency has been taken.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs
import oracle

Z_LIMIT = 4.0


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    path_steps: int = 0
    meta: dict = field(default_factory=dict)
    # Untimed work the runner does just before ``run``; its result lands in
    # ``meta["before"]``.
    before: Callable[[], object] | None = None


# ---------------------------------------------------------------------------
# Comparing package output with oracle answers


def norm(x):
    """A comparable form that keeps exact numbers, bools and floats apart."""
    if x is None:
        return None
    if isinstance(x, bool):
        return ("bool", x)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return ("float", x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ValueError:
            return x
    if isinstance(x, dict):
        return {k: norm(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [norm(v) for v in x]
    if hasattr(x, "members"):  # EventSet
        return [norm(v) for v in x.members]
    if hasattr(x, "values") and hasattr(x, "space"):  # RandomVariable
        return [norm(v) for v in x.values]
    return x


def _short(x) -> str:
    text = repr(x)
    return text if len(text) <= 120 else text[:117] + "..."


def mismatch(got, expected: dict, where: str = "") -> str | None:
    for key, exp in expected.items():
        try:
            value = got[key] if isinstance(got, dict) else getattr(got, key)
        except (KeyError, AttributeError, TypeError):
            return f"{where}{key}: missing"
        if norm(value) != norm(exp):
            return f"{where}{key}: got {_short(value)}, expected {_short(exp)}"
    return None


def denominator_bits(x) -> int:
    """Largest denominator, in bits, among the exact numbers inside ``x``."""
    if isinstance(x, Fraction):
        return x.denominator.bit_length()
    if isinstance(x, str):
        try:
            return Fraction(x).denominator.bit_length()
        except ValueError:
            return 0
    if isinstance(x, dict):
        return max((denominator_bits(v) for v in x.values()), default=0)
    if isinstance(x, (list, tuple)):
        return max((denominator_bits(v) for v in x), default=0)
    if hasattr(x, "__dataclass_fields__"):
        return max((denominator_bits(getattr(x, f)) for f in x.__dataclass_fields__), default=0)
    if hasattr(x, "values") and hasattr(x, "space"):
        return denominator_bits(x.values)
    return 0


ROOT = Path(__file__).resolve().parent.parent


def import_package():
    return importlib.import_module("mglab")


def child_env() -> dict:
    """The environment of a child interpreter that imports mglab from src/."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def exact_facts(space, filtration, measures) -> dict:
    return {
        "outcomes": space.size,
        "atoms": sum(stage.atom_count for stage in filtration.stages),
        "weight_denominator_bits": max(denominator_bits(list(P.weights)) for P in measures),
    }


# ---------------------------------------------------------------------------
# exact_kernel


class ExactKernel:
    """In-process exact checks on ``make_coin_walk(N, p)`` for p = 1/2 and 1/3."""

    name = "exact_kernel"
    min_rounds = 3

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.N = 5 if tiny else 12
        self.cases = inputs.exact_cases(seed, self.N)

    def prepare_oracle(self) -> None:
        for case in self.cases:
            case["expected"] = inputs.exact_expected(case)

    def setup(self) -> None:
        mglab = import_package()
        self.proc = mglab.processes
        self.cond = mglab.conditioning
        self.models = []
        for case in self.cases:
            S, P, F, X = self.proc.make_coin_walk(self.N, case["p"])
            rv = mglab.RandomVariable
            self.models.append({
                "case": case, "S": S, "P": P, "F": F, "X": X,
                "C": mglab.PredictableSequence(
                    F, tuple(rv(S, tuple(row)) for row in case["stakes"])),
                "tau": mglab.StoppingTime(F, tuple(case["tau"])),
                "V": rv(S, tuple(case["variable"])),
                "Y": rv(S, tuple(case["candidate"])),
                "G": F.stages[case["g"]],
                "H": F.stages[case["h"]],
            })

    def model_facts(self) -> dict:
        m = self.models[0]
        return exact_facts(m["S"], m["F"], [x["P"] for x in self.models])

    def _ops(self, m: dict) -> list[Op]:
        proc, cond = self.proc, self.cond
        case, exp = m["case"], m["case"]["expected"]
        X, P, F, tau = m["X"], m["P"], m["F"], m["tau"]
        a, b = case["interval"]
        tag = f"[p={case['p']}]"
        steps = m["S"].size * self.N

        def check_stopped(res):
            return mismatch({"values": [rv.values for rv in res.values]},
                            {"values": exp["stopped_values"]})

        def check_conditional(res):
            return mismatch(res, {"result": exp["conditional"], "identity_checked": True,
                                  "null_atoms": []})

        def equals(expected):
            return lambda res: None if res is expected else f"got {res!r}, expected {expected!r}"

        specs = [
            ("classify", lambda: proc.classify(X, P),
             lambda r: mismatch(r, exp["classify"])),
            ("verify_transform_preservation",
             lambda: proc.verify_transform_preservation(m["C"], X, P, case["bound"]),
             lambda r: mismatch(r, exp["transform"])),
            ("stopped_process", lambda: proc.stopped_process(X, tau), check_stopped),
            ("optional_stopping_report", lambda: proc.optional_stopping_report(X, tau, P),
             lambda r: mismatch(r, exp["optional_stopping"])),
            ("upcrossing_inequality_check",
             lambda: proc.upcrossing_inequality_check(X, P, a, b),
             lambda r: mismatch(r, exp["upcrossing"])),
            ("l2_pythagoras_check", lambda: proc.l2_pythagoras_check(X, P),
             lambda r: mismatch(r, exp["pythagoras"])),
            ("stopping_tail_bound_check",
             lambda: proc.stopping_tail_bound_check(tau, F, P, case["window"], case["epsilon"]),
             lambda r: mismatch(r, exp["tail_bound"])),
            ("conditional_expectation",
             lambda: cond.conditional_expectation(m["V"], m["G"], P), check_conditional),
            ("tower_check", lambda: cond.tower_check(m["V"], m["G"], m["H"], P),
             equals(exp["tower"])),
            ("verify_kolmogorov", lambda: cond.verify_kolmogorov(m["V"], m["G"], P, m["Y"]),
             equals(exp["kolmogorov"])),
        ]
        return [
            Op(kind + tag, run, check, steps, {"outcomes": m["S"].size, "N": self.N})
            for kind, run, check in specs
        ]

    def round(self, rng: random.Random) -> list[Op]:
        ops = [op for m in self.models for op in self._ops(m)]
        rng.shuffle(ops)
        return ops

    traced_round = round

    def summary(self) -> list[dict]:
        return [inputs.summary(c) for c in self.cases]


# ---------------------------------------------------------------------------
# cli_verify

THEOREMS = ("classify", "transform", "stopped", "optional-stopping", "upcrossing",
            "pythagoras", "tower", "kolmogorov", "tail-bound")


def expected_cli(case: dict, theorem: str) -> tuple[int, dict, dict]:
    """(exit code, top-level report fields, detail fields) the oracle predicts."""
    exp, walk = case["expected"], case["walk"]
    hypothesis_ok = True
    if theorem == "classify":
        c = exp["classify"]
        witness = c["witness"]
        detail = {"label": c["label"],
                  "witness": None if witness is None else {"step": witness[0], "atom": witness[1]}}
        passed = True
    elif theorem == "transform":
        detail, passed = exp["transform"], bool(exp["transform"]["holds"])
    elif theorem == "stopped":
        label = exp["classify"]["label"]
        detail = {
            "input_label": label,
            "stopped_label": exp["stopped_label"],
            "start_mean": 0,
            "stopped_means_by_stage": [walk.expect(row) for row in exp["stopped_values"]],
        }
        passed = exp["stopped_label"] in oracle.SUPER_FAMILY
    elif theorem == "optional-stopping":
        detail, passed = exp["optional_stopping"], bool(exp["optional_stopping"]["holds"])
    elif theorem == "upcrossing":
        detail = exp["upcrossing"]
        passed = bool(detail["holds"] and detail["corollary_holds"])
    elif theorem == "pythagoras":
        detail = exp["pythagoras"]
        hypothesis_ok = detail["hypothesis_ok"]
        passed = bool(hypothesis_ok and detail["holds"])
    elif theorem == "tower":
        detail = {"conditional_given_coarse": exp["conditional"], "null_atoms": [],
                  "both_nestings_hold": exp["tower"]}
        passed = exp["tower"]
    elif theorem == "kolmogorov":
        detail = {"candidate_source": "given", "candidate": case["candidate"],
                  "conditional_expectation": exp["conditional"], "null_atoms": [],
                  "identity_holds": exp["kolmogorov"]}
        passed = exp["kolmogorov"]
    elif theorem == "tail-bound":
        detail = exp["tail_bound"]
        hypothesis_ok = detail["hypothesis_ok"]
        passed = bool(hypothesis_ok and detail["chain_ok"] and detail["expectation_ok"])
    else:
        raise ValueError(theorem)
    code = 0 if passed else 1
    top = {"command": "verify", "theorem": theorem, "hypothesis_ok": hypothesis_ok,
           "pass": passed, "exit_code": code}
    return code, top, detail


def check_cli_output(case: dict, theorem: str, result) -> str | None:
    code, stdout = result["code"], result["stdout"]
    want_code, top, detail = expected_cli(case, theorem)
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    return mismatch(report, top) or mismatch(report.get("detail", {}), detail, "detail.")


class CliVerify:
    """``python -m mglab.cli verify <spec> <theorem>``, one child at a time."""

    name = "cli_verify"
    min_rounds = 3

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.N = 4 if tiny else 10
        self.cases = inputs.exact_cases(seed, self.N)
        self.extras = [inputs.spec_extras(c) for c in self.cases]
        self.workdir = workdir
        self.env = child_env()

    prepare_oracle = ExactKernel.prepare_oracle

    def setup(self) -> None:
        mglab = import_package()
        self.paths = []
        self.facts = []
        self.workdir.mkdir(parents=True, exist_ok=True)
        for case, extras in zip(self.cases, self.extras):
            S, P, F, X = mglab.processes.make_coin_walk(self.N, case["p"])
            doc = {
                "space": mglab.jsonio.space_to_obj(S, P),
                "filtration": mglab.jsonio.filtration_to_obj(F),
                "process": mglab.jsonio.process_to_obj(X),
                **extras,
            }
            path = self.workdir / f"spec_N{self.N}_p{case['p'].numerator}_{case['p'].denominator}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            self.paths.append(path)
            self.facts.append((S, P, F))

    def model_facts(self) -> dict:
        S, _, F = self.facts[0]
        return exact_facts(S, F, [f[1] for f in self.facts])

    def run_child(self, path: Path, theorem: str) -> dict:
        """One CLI invocation; its peak RSS comes from wait4 on that child."""
        cmd = [sys.executable, "-m", "mglab.cli", "verify", str(path), theorem]
        with open(self.workdir / "child_stderr.txt", "ab") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    cwd=ROOT)
            try:
                stdout = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "stdout": stdout, "rss_kb": usage.ru_maxrss}

    def run_inprocess(self, path: Path, theorem: str) -> dict:
        """The same verify call through ``mglab.cli.main`` in this process."""
        cli = importlib.import_module("mglab.cli")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", str(path), theorem])
        return {"code": code, "stdout": buf.getvalue().encode(), "rss_kb": None}

    def warm_up(self) -> None:
        """One untimed child, so compiled bytecode exists before timing starts."""
        self.run_child(self.paths[0], "classify")

    def _ops(self, runner, suffix: str = "") -> list[Op]:
        ops = []
        for case, path in zip(self.cases, self.paths):
            for theorem in THEOREMS:
                ops.append(Op(
                    f"{theorem}[p={case['p']}]{suffix}",
                    lambda path=path, theorem=theorem: runner(path, theorem),
                    lambda res, case=case, theorem=theorem: check_cli_output(case, theorem, res),
                    (1 << self.N) * self.N,
                    {"outcomes": 1 << self.N, "N": self.N, "spec_bytes": path.stat().st_size,
                     "path": path, "theorem": theorem},
                ))
        return ops

    def round(self, rng: random.Random) -> list[Op]:
        ops = self._ops(self.run_child)
        rng.shuffle(ops)
        return ops

    def inprocess_round(self, rng: random.Random) -> list[Op]:
        ops = self._ops(self.run_inprocess)
        rng.shuffle(ops)
        return ops

    def traced_round(self, rng: random.Random) -> list[Op]:
        """In-process ops, each preceded by the same call as an untraced child.

        The child's wall time minus the in-process latency is the startup
        residual: interpreter start, imports and process teardown.
        """
        ops = self.inprocess_round(rng)
        for op in ops:
            op.before = lambda op=op: self._timed_child(op.meta["path"], op.meta["theorem"])
            inprocess_check = op.check
            op.check = lambda res, op=op, inner=inprocess_check: (
                inner(res) or inner(op.meta["before"]))
        return ops

    def _timed_child(self, path: Path, theorem: str) -> dict:
        t0 = time.perf_counter()
        result = self.run_child(path, theorem)
        result["wall_s"] = time.perf_counter() - t0
        return result

    def summary(self) -> list[dict]:
        return [dict(inputs.summary(c), spec=str(p.name), spec_bytes=p.stat().st_size)
                for c, p in zip(self.cases, self.paths)]


# ---------------------------------------------------------------------------
# mc_sample


def z_score(mean: float, std_error: float, exact: Fraction) -> float:
    if std_error == 0.0:
        return 0.0 if mean == float(exact) else math.inf
    return (mean - float(exact)) / std_error


class MonteCarlo:
    """In-process sampling: walk, doubling, first-hit functional, cross-validation."""

    name = "mc_sample"
    min_rounds = 3

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.sizes = {
            "horizon": 30,
            "n_paths": 20_000 if tiny else 500_000,
            "doubling_path_steps": 200_000 if tiny else 5_000_000,
            "stop_paths": 2_000 if tiny else 30_000,
            "cv_paths": 5_000 if tiny else 100_000,
        }
        self.cases = inputs.mc_cases(seed, self.sizes)
        self.z_abs_max = 0.0

    def prepare_oracle(self) -> None:
        for case in self.cases:
            case["expected"] = inputs.mc_expected(case)

    def setup(self) -> None:
        mglab = import_package()
        self.mc = mglab.montecarlo
        F = self.mc.Functional
        self.blocks = []
        for case in self.cases:
            a, b = case["interval"]
            self.blocks.append({
                "case": case,
                "terminal": F.terminal(),
                "terminal-square": F.terminal_square(),
                "upcrossings": F.upcrossings(a, b),
                "stopped": {h: F.stopped(lambda prefix, h=h: prefix[-1] == h,
                                         label=f"first hit of {h}") for h in case["hits"]},
                "walk_model": self.mc.WalkModel(case["cv_walk_n"], case["p"]),
                "doubling_model": self.mc.DoublingModel(case["cv_doubling_levels"], case["p"]),
            })

    def model_facts(self) -> dict:
        return {
            "simulated_path_steps_per_round": sum(
                op.path_steps for op in self.round(random.Random(0))),
            # int64 paths of the largest ensemble, computed from its shape
            "ensemble_bytes": self.sizes["n_paths"] * (self.sizes["horizon"] + 1) * 8,
            "stop_paths": self.sizes["stop_paths"],
        }

    def alloc_bytes_per_path_step(self) -> float:
        """Peak bytes tracemalloc sees while one full-size walk ensemble is built."""
        case = self.cases[0]
        n, N = self.sizes["n_paths"], self.sizes["horizon"]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            self.mc.simulate_walk(N, case["p"], n, case["seeds"]["walk"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (n * N)

    def _z(self, mean, se, exact, what) -> str | None:
        z = z_score(mean, se, exact)
        self.z_abs_max = max(self.z_abs_max, abs(z))
        if not abs(z) <= Z_LIMIT:
            return f"{what}: |z| = {abs(z):.2f} > {Z_LIMIT} (mean {mean}, exact {exact})"
        return None

    def _groups(self, blk: dict) -> list[list[Op]]:
        """Ops of one p value, in groups that must keep their order."""
        mc, case = self.mc, blk["case"]
        exp, seeds, p = case["expected"], case["seeds"], case["p"]
        N, n_paths, stop_paths = case["horizon"], case["n_paths"], case["stop_paths"]
        tag = f"[p={p}]"
        state: dict = {}

        def simulate(key, n, seed):
            def run():
                state[key] = mc.simulate_walk(N, p, n, seed)
                return state[key]

            def check(ens):
                if ens.paths.shape != (n, N + 1):
                    return f"ensemble shape {ens.paths.shape}"
                rows = ens.paths[:: max(1, n // 2000)]
                if (rows[:, 0] != 0).any() or (abs(rows[:, 1:] - rows[:, :-1]) != 1).any():
                    return "walk paths must start at 0 and move by +-1"
                return None
            return Op(f"simulate_walk.{key}" + tag, run, check, n * N)

        def estimate(key, name, functional, expected, last=False):
            def run():
                ensemble = state.pop(key) if last else state[key]
                return mc.estimate_functional(ensemble, functional)
            return Op(f"estimate_functional.{name}" + tag, run,
                      lambda rep: self._z(rep.mean, rep.std_error, expected, name))

        walk = [simulate("walk", n_paths, seeds["walk"])]
        fns = ("terminal", "terminal-square", "upcrossings")
        for i, fn in enumerate(fns):
            walk.append(estimate("walk", fn, blk[fn], exp[fn], last=i == len(fns) - 1))

        levels, d_paths = case["levels"], case["doubling_paths"]

        def run_doubling():
            ens, rep = mc.simulate_doubling_strategy(0, levels, p, d_paths, seeds["doubling"])
            return rep, set(ens.paths[:: max(1, d_paths // 2000), -1].tolist())

        def check_doubling(res):
            rep, terminals = res
            loss = 2 ** levels - 1
            if rep.profit_on_win != 1 or rep.loss_on_exhaustion != loss:
                return f"doubling payoffs {rep.profit_on_win}, {rep.loss_on_exhaustion}"
            if not terminals <= {1, -loss}:
                return f"doubling terminal values {sorted(terminals)}"
            return (self._z(rep.mean, rep.std_error, exp["doubling_mean"], "doubling mean")
                    or self._z(rep.win_frequency, rep.win_frequency_std_error,
                               exp["doubling_win"], "doubling win frequency"))

        doubling = [Op("simulate_doubling_strategy" + tag, run_doubling, check_doubling,
                       d_paths * levels)]

        stops = []
        for h in case["hits"]:
            key = f"stop{h}"
            stops.append([simulate(key, stop_paths, seeds[key]),
                          estimate(key, f"stopped{h}", blk["stopped"][h], exp["stopped"][h],
                                   last=True)])

        def cross(model_key, functional, seed_key, expected, horizon):
            def run():
                return mc.cross_validate(blk[model_key], functional, case["cv_paths"],
                                         seeds[seed_key])

            def check(rep):
                if norm(rep.exact_value) != norm(expected):
                    return f"{model_key} exact value {rep.exact_value}, expected {expected}"
                if not rep.passed:
                    return f"{model_key} cross-validation reported failure (z = {rep.z_score})"
                return self._z(rep.mc_mean, rep.std_error, expected, f"{model_key} estimate")
            return [Op(f"cross_validate.{model_key}" + tag, run, check,
                       case["cv_paths"] * horizon)]

        return [walk, doubling, *stops,
                cross("walk_model", blk["upcrossings"], "cv_walk", exp["cv_walk"],
                      case["cv_walk_n"]),
                cross("doubling_model", blk["terminal"], "cv_doubling", exp["cv_doubling"],
                      case["cv_doubling_levels"])]

    def round(self, rng: random.Random) -> list[Op]:
        groups = [g for blk in self.blocks for g in self._groups(blk)]
        rng.shuffle(groups)
        return [op for g in groups for op in g]

    traced_round = round

    def summary(self) -> list[dict]:
        return [inputs.mc_summary(c) for c in self.cases]


WORKLOADS = {w.name: w for w in (CliVerify, ExactKernel, MonteCarlo)}
